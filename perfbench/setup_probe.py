"""One set-up sample, timed in a fresh interpreter.

Set-up is everything before the first event fires: importing ``repro``,
building the ``Workload``/``Simulation`` objects of every run in the
workload, and for a pooled workload also the ``ParallelRunner`` with
its result cache and a started worker pool.  The pool is started
through the public backend protocol with one task per worker; each
task builds a simulation of the workload's first run and stops before
its first arrival.  Prints ``{"setup_s": ...}``.

    python3 perfbench/setup_probe.py <workload> <seed> <scratch dir>
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import dataclasses  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

import cells  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent


def reap_children(timeout_s: float = 30.0) -> None:
    """Wait for every child process to end; terminate stragglers."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.terminate()
                child.join(5.0)
            return
        time.sleep(0.005)


def start_pool(workload: cells.BenchWorkload, spec: object) -> None:
    """Start the runner's local worker pool and put one task on each."""
    from repro.runner.backends import create_backend
    from repro.runner.backends.task import sweep_task

    # the first arrival comes long after 1 ms at these rates
    tiny = dataclasses.replace(spec, duration_ms=1.0, warmup_ms=0.0)
    backend = create_backend("local", workers=workload.pool_size)
    try:
        backend.prepare(workload.pool_size)
        for cell in range(workload.pool_size):
            backend.submit(sweep_task(cell, tiny))
        pending = workload.pool_size
        while pending:
            for outcome in backend.poll(60.0):
                if outcome.error is not None or outcome.crashed:
                    raise RuntimeError(f"pool warm-up failed: {outcome.error}")
                pending -= 1
    finally:
        backend.shutdown()


def main(argv: list) -> int:
    name, seed, scratch = argv[0], int(argv[1]), argv[2]
    workload = cells.WORKLOADS[name]
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401

    specs = cells.run_specs(workload, seed)
    simulations = [  # noqa: F841  (kept alive until the clock stops)
        cells.build(spec) for spec in specs
    ]
    if workload.pool_size:
        from repro.runner.cache import ResultCache
        from repro.runner.runner import ParallelRunner

        ParallelRunner(
            pool_size=workload.pool_size,
            cache=ResultCache(scratch),
            progress=None,
        )
        start_pool(workload, specs[0])
    setup_s = time.perf_counter() - _STARTED
    reap_children()
    print(json.dumps({"setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
