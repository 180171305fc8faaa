"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. Runs every workload at its tiny size, untraced and traced, and asserts
   that the result line names exactly the end-to-end or per-layer metrics
   of BENCHMARK.json, each with its unit, and that no task failed.
2. Corrupts one artifact (a NaN in simulate.json) between a task's CLI run
   and its check, and asserts that the pass runner counts that task as
   failed and the others as passed.
3. Asserts that the union-bound check of `divisor-sweep` passes a union
   that only Monte-Carlo noise put above alpha^p and fails one that decays
   like alpha^0.4.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 "--tiny"], cwd=ROOT, capture_output=True, text=True,
                timeout=170)
            assert proc.returncode == 0, proc.stderr
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] and res["failed"] == 0, proc.stdout
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            assert all(isinstance(m["value"], (int, float))
                       for m in res["metrics"].values())
            print(f"ok  {workload} trace={trace}: {len(got)} metrics")


def check_corruption_counted() -> None:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads
    from worker import run_tasks

    class CorruptingContext(workloads.Context):
        def cli(self, run_name, command, **kw):
            out = super().cli(run_name, command, **kw)
            if command == "simulate" and run_name == "simulate-nls":
                path = out / "simulate.json"
                doc = json.loads(path.read_text())
                doc["mass_drift"] = float("nan")
                path.write_text(json.dumps(doc))  # writes a bare NaN
            return out

    tasks = workloads.build("torus-flow", 3, tiny=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        attempted, failures = run_tasks(tasks,
                                        CorruptingContext(pathlib.Path(tmp)))
    assert attempted == len(tasks) == 3, attempted
    assert len(failures) == 1 and failures[0].startswith("simulate-nls:") \
        and "NaN" in failures[0], failures
    print(f"ok  corrupted artifact counted: failed {len(failures)}"
          f" of {attempted}")


def check_union_bound() -> None:
    sys.path[:0] = [str(HERE)]
    from workloads import union_within_bound

    alphas = [10.0 ** (-7 + i / 3) for i in range(4)]
    p = 2.0 / (3.0 - 5.0 / 12.0)
    # a seeded union whose raw fractions sit above the bound by noise only
    assert union_within_bound([0.0018, 0.0026, 0.0046, 0.0104], alphas, p,
                              10_000)
    assert not union_within_bound([0.0041, 0.0055, 0.0076, 0.0104], alphas,
                                  p, 10_000)
    print("ok  union bound: noise passes, alpha^0.4 fails")


if __name__ == "__main__":
    check_metrics()
    check_corruption_counted()
    check_union_bound()
    print("smoke test passed")
