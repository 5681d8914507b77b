"""Serving a concurrent multi-client workload with ⊙-guided scheduling.

Builds a catalog, generates a deterministic join-dominated query
stream from four clients, and serves it through a
:class:`repro.server.QueryServer` under the three admission modes:

* **fifo-serial** — one query at a time (no interference, no overlap),
* **max-parallel** — pack every batch to the concurrency cap, blind to
  contention,
* **interference-aware** — compose candidate co-runners' whole-plan
  patterns under the paper's ⊙ operator (Section 5.2) and admit a
  co-runner only while the predicted batch makespan stays below
  queueing it.

Each mode gets a fresh server with one tenant whose queue holds the
whole stream, and every query arrives at simulated time 0 (a closed
batch), so the modes differ only in how they form batches.  Prints
each mode's simulated makespan/latency/throughput report and a
per-batch look at how the ⊙ prediction tracks the interleaved-replay
measurement, after a direct co-run prediction for two thrashing joins.

Run:  PYTHONPATH=src python examples/serve_workload.py
"""

import asyncio

from repro import QueryServer, Session
from repro.server import TenantQuota
from repro.service import ADMISSION_MODES, InterferenceModel, \
    WorkloadGenerator

N_QUERIES = 16


def serve(mode: str):
    """Serve the seeded stream under ``mode`` on a fresh server (scaled
    Origin2000: L2 64 KB, 8-entry TLB); returns its report."""
    server = QueryServer(mode=mode, max_batch=4, max_queue=N_QUERIES)
    tenant = server.add_tenant("clients",
                               TenantQuota(max_queued=N_QUERIES))
    generator = WorkloadGenerator.contention_heavy(
        session=tenant.session, seed=7, scale=512)
    workload = generator.generate(N_QUERIES, clients=4)

    async def run() -> None:
        async with server:
            await server.serve(workload)

    asyncio.run(run())
    return server.report()


def main() -> None:
    session = Session()
    generator = WorkloadGenerator.contention_heavy(session=session,
                                                   seed=7, scale=512)
    workload = generator.generate(N_QUERIES, clients=4)
    kinds = sorted({q.kind for q in workload})
    print(f"workload: {len(workload)} queries from 4 clients "
          f"(kinds: {', '.join(kinds)})\n")

    # -- what ⊙ says about co-running two hash joins --------------------
    interference = InterferenceModel(session.hierarchy)
    joins = [session.compile("join(orders, customers)").plan,
             session.compile("join(customers, parts)").plan]
    prediction = interference.co_run(joins)
    print("co-running two hash joins (hash tables ~16 KB each, shared "
          "64 KB L2 + 8-entry TLB):")
    print(f"  serial memory time   {prediction.serial_memory_ns / 1e3:8.1f} us")
    print(f"  ⊙ co-run memory time {prediction.batch_memory_ns / 1e3:8.1f} us"
          f"  -> predicted slowdown {prediction.slowdown:.2f}x\n")

    # -- the three admission modes on the same stream ------------------
    for mode in reversed(ADMISSION_MODES):
        report = serve(mode)
        print(report.render())
        print("  batches:")
        for b in report.batches:
            print(f"    #{b.index:<3} size {b.size}  "
                  f"mem pred {b.predicted_memory_ns / 1e6:>6.2f} ms / "
                  f"meas {b.measured_memory_ns / 1e6:>6.2f} ms  "
                  f"makespan {b.measured_makespan_ns / 1e6:>6.2f} ms")
        print()


if __name__ == "__main__":
    main()
