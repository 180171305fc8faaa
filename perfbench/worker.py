"""One workload pass in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace]
    python3 perfbench/worker.py --probe

The worker imports `kgnls.cli` and every `kgnls.*` module, notes the
CLOCK_MONOTONIC time at which that finished (`ready`), then, unless it is
a set-up probe, runs the workload's tasks in order from this one thread
and prints its result as one JSON object on the last line of stdout.
run.py starts it with the BLAS/OpenMP pools fixed to one thread and with
PYTHONPATH pointing at the checkout's `src`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import pkgutil
import resource
import sys
import time
import traceback
from importlib.metadata import version

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def import_kgnls() -> float:
    """Import the whole package from the checkout; return the ready time."""
    import kgnls
    import kgnls.cli  # noqa: F401

    for info in pkgutil.iter_modules(kgnls.__path__):
        importlib.import_module(f"kgnls.{info.name}")
    ready = time.monotonic()
    if pathlib.Path(kgnls.__file__).resolve().parent != SRC / "kgnls":
        raise ImportError(f"kgnls imported from {kgnls.__file__}, "
                          f"not from {SRC}")
    return ready


def run_tasks(tasks, ctx) -> tuple[int, list[str]]:
    """Run the tasks in order; return (attempted, failure descriptions).
    Any exception, a non-zero CLI exit or a failed check fails a task."""
    failures = []
    for task in tasks:
        try:
            task.run(ctx)
        except Exception as exc:  # a failing task must not stop the pass
            tb = traceback.format_exception_only(type(exc), exc)
            failures.append(f"{task.name}: {''.join(tb).strip()}")
    return len(tasks), failures


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "click": version("click"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")}}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out", type=pathlib.Path)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    ready = import_kgnls()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    import workloads
    from tracing import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    tasks = workloads.build(args.workload, args.seed, args.tiny)
    ctx = workloads.Context(args.out, tracer)
    t0 = time.monotonic()
    attempted, failures = run_tasks(tasks, ctx)
    wall = time.monotonic() - t0
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"ready": ready, "wall_s": wall, "peak_rss_mb": rss_kib / 1024,
              "attempted": attempted, "failures": failures,
              "env": environment()}
    if tracer is not None:
        result["layers"] = tracer.metrics(ctx.artifact_bytes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
