"""Shared fixtures for the test suite."""

import pytest

from repro.hardware import (
    disk_extended_scaled,
    origin2000,
    origin2000_scaled,
    tiny_test_machine,
)

try:
    from hypothesis import settings

    # One pinned profile for every property test, locally and in CI:
    # derandomized (reproducible example sequences, no shrink-database
    # flakiness across runs) and without per-example deadlines (the
    # trace-driven evaluations have high variance under CI load).
    settings.register_profile("repro", deadline=None, derandomize=True,
                              max_examples=60)
    settings.load_profile("repro")
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    pass


@pytest.fixture
def tiny():
    """A hand-checkable two-level machine (L1 256B/16B, L2 1KB/32B,
    TLB 4x128B)."""
    return tiny_test_machine()


@pytest.fixture
def scaled():
    """The scaled Origin2000 used by the simulator experiments."""
    return origin2000_scaled()


@pytest.fixture
def origin():
    """The paper's SGI Origin2000 (Table 3), for model-only tests."""
    return origin2000()


@pytest.fixture
def disk_scaled():
    """The simulation-sized disk-extended profile (tiny machine plus a
    32-page buffer pool)."""
    return disk_extended_scaled()


@pytest.fixture
def serve_closed():
    """Serve a stream as one closed batch through a fresh
    :class:`~repro.server.QueryServer`: one tenant whose queue holds
    the whole stream, every query arriving at simulated time 0.

    Call it as ``serve(populate, **server_options)``: ``populate``
    fills the tenant's session (catalog) and returns the queries.
    Returns ``(server, report)``; nothing may be shed."""
    import asyncio
    from dataclasses import replace

    from repro.server import QueryServer, TenantQuota

    def serve(populate, **options):
        server = QueryServer(max_queue=64, **options)
        tenant = server.add_tenant("clients", TenantQuota(max_queued=64))
        queries = [replace(q, arrival_ns=0.0)
                   for q in populate(tenant.session)]

        async def run():
            async with server:
                await server.serve(queries)

        asyncio.run(run())
        report = server.report()
        assert not report.shed and len(report.completed) == len(queries)
        return server, report

    return serve
