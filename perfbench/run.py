"""kgnls benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: divisor-sweep, normal-form,
torus-flow (see workloads.py and README.md).  Each workload pass runs in a
fresh worker process (worker.py) with the BLAS/OpenMP pools fixed to one
thread, importing `kgnls` from the checkout's `src`.  A run first times
set-up with import-only probes, then repeats passes while another pass
still fits in S seconds (at least one; with --trace 1 at least one
untraced and one traced, alternating).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  attempted and failed count tasks over all
passes.  With --trace 0 the metrics are the end-to-end ones:

  wall_s       median over passes of the time from worker ready to the
               last task checked
  setup_s      median over probes and passes of the time from spawning a
               worker to `kgnls.cli` and every `kgnls.*` module imported
  peak_rss_mb  median over passes of the worker's maximum resident set

With --trace 1 they are the per-layer metrics of tracing.py, medians over
the traced passes, plus trace.overhead_s (median traced minus median
untraced wall_s).  The line before it records the environment and every
pass.  Artifacts go to .perfbench_runs/ in the checkout and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

from tracing import METRICS
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 120.0  # keeps a hung pass inside a 180 s run


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def spawn(args: list[str], env: dict) -> dict:
    """Run one worker to completion; return its result with setup_s."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER)] + args, cwd=ROOT,
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args} timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n"
                         + err[-2000:])
    res = json.loads(lines[-1])
    res["setup_s"] = res["ready"] - t_spawn
    return res


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool) -> tuple[dict, dict]:
    env = worker_env()
    runs_dir = ROOT / ".perfbench_runs" / str(os.getpid())
    start = time.monotonic()
    spawn(["--probe"], env)  # warm the file cache and bytecode; not counted
    setups = [spawn(["--probe"], env)["setup_s"]
              for _ in range(SETUP_PROBES)]
    passes = []
    try:
        while True:
            traced = trace and len(passes) % 2 == 1
            out = runs_dir / f"pass{len(passes)}"
            args = ["--workload", workload, "--seed", str(seed),
                    "--out", str(out)]
            args += ["--trace"] * traced + ["--tiny"] * tiny
            t0 = time.monotonic()
            res = spawn(args, env)
            res["traced"] = traced
            res["pass_s"] = time.monotonic() - t0
            passes.append(res)
            shutil.rmtree(out, ignore_errors=True)
            if trace and len(passes) < 2:
                continue
            next_traced = trace and len(passes) % 2 == 1
            estimate = statistics.median(
                p["pass_s"] for p in passes if p["traced"] == next_traced)
            if time.monotonic() - start + estimate > seconds:
                break
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)
        if runs_dir.parent.is_dir() and not any(runs_dir.parent.iterdir()):
            runs_dir.parent.rmdir()

    plain = [p for p in passes if not p["traced"]]
    failures = [f for p in passes for f in p["failures"]]
    summary = {
        "correct": not failures,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(failures),
    }
    wall = statistics.median(p["wall_s"] for p in plain)
    if trace:
        traced = [p["layers"] for p in passes if p["traced"]]
        metrics = {name: {"value": statistics.median(t[name] for t in traced),
                          "unit": METRICS[name]} for name in traced[0]}
        overhead = statistics.median(p["wall_s"] for p in passes
                                     if p["traced"]) - wall
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(
                setups + [p["setup_s"] for p in passes]), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                p["peak_rss_mb"] for p in plain), "unit": "MiB"},
        }
    summary["metrics"] = metrics
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "tiny": tiny, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), **passes[0]["env"],
        "setup_probes_s": setups,
        "passes": [{k: p[k] for k in ("traced", "wall_s", "setup_s",
                                      "peak_rss_mb", "pass_s")}
                   for p in passes],
        "failures": failures,
    }
    return record, summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken tasks, for the smoke test")
    args = ap.parse_args()
    if not (ROOT / "src" / "kgnls" / "cli.py").is_file():
        print(f"no kgnls sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record, summary = run(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.tiny)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"env": record}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
