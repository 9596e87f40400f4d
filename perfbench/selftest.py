"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload it checks that:

* an untraced and a traced smoke run each pass every unit and report
  exactly the metrics, with the units, that BENCHMARK.json names;
* two traced runs with the same seed report identical counts;
* a run with one unit's output nudged reports failed > 0 and
  correct = false, so the correctness gate is live.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402

# counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = (
    "fourier_ball.transform_calls", "fourier_ball.transform_points",
    "fourier_ball.transform_bytes_computed", "function_space.convolve_calls",
    "function_space.convolve_pairs", "pme_solver.newton_iters",
    "vladimirov.apply_calls", "vladimirov.build_matrix_calls",
    "vladimirov.multiplier_calls", "kernels.gridfunction_calls",
    "kernels.series_calls", "linear_solver.evolve_calls",
)


def smoke(workload: str, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        traced_counts = []
        for trace in (0, 1, 1):
            res = smoke(workload, trace)
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{workload} trace={trace}: {res['failed']} failed units")
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != units[trace]:
                diff = sorted(set(got.items()) ^ set(units[trace].items()))
                problems.append(f"{workload} trace={trace}: metrics or units differ from "
                                f"BENCHMARK.json: {diff}")
            if trace:
                traced_counts.append({k: res["metrics"][k]["value"] for k in EXACT_COUNTS})
        if traced_counts[0] != traced_counts[1]:
            problems.append(f"{workload}: counts differ between two traced runs: {traced_counts}")
        res = smoke(workload, 0, "--perturb")
        if res["correct"] or res["failed"] == 0:
            problems.append(f"{workload}: perturbed output was not caught")
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
