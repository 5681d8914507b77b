"""Packaging for the ``repro`` library: ``src/`` layout, no runtime
dependencies.

``pip install .`` (or ``pip install -e .``) builds from this file; on
a machine without the ``wheel`` package, ``python setup.py develop``
installs in place instead.  The version is read from
``src/repro/__init__.py``, so ``repro.__version__`` is its one source.
"""

import pathlib
import re

from setuptools import find_packages, setup

INIT = pathlib.Path(__file__).parent / "src" / "repro" / "__init__.py"


def read_version() -> str:
    match = re.search(r'^__version__ = "([^"]+)"$', INIT.read_text(),
                      re.MULTILINE)
    if match is None:
        raise RuntimeError(f"no __version__ line in {INIT}")
    return match.group(1)


setup(
    name="repro",
    version=read_version(),
    description=("Generic database cost models for hierarchical memory "
                 "systems, with a simulator, query engine and server"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
