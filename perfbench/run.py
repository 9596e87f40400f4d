"""Benchmark of the padic_heat solver: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {pme_large,pme_small,cli_mix} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Each repetition of the workload's fixed job runs in a fresh
single-threaded worker process (``worker.py``), two at a time, each
pinned to its own CPU; rounds continue while the next one fits in
``--seconds`` (at least four repetitions).  Every worker also times a
fixed reference computation between units, and its times are quoted
at the reference speed: scaled by ``REF_S`` over the median reference
time of that worker.  Each unit's time is the median over repetitions.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same untraced repetitions plus one traced repetition and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from worker import THREAD_VARS  # noqa: E402

WORKLOADS = ("pme_large", "pme_small", "cli_mix")

# repetitions run side by side, one pinned to each of this many CPUs: on
# a shared host each vCPU slows down independently of the other, so two
# pinned repetitions sample twice as many machine states per second
PARALLEL = 2
MIN_REPS = 4
MAX_REPS = 16
SETUP_SAMPLES = 16
# the reference computation's time (worker.Reference) at which all times
# are quoted: a round figure near its median on the 2-vCPU Xeon VM the
# benchmark was written on, whose speed drifts by up to 1.7x for minutes
REF_S = 0.010
# a run ends within this many seconds even if the program hangs
RUN_DEADLINE_S = 170

CLI_TASKS = ("spectrum", "heat-kernel", "green", "solve-linear", "solve-pme", "verify")


class BenchmarkError(Exception):
    pass


def command(workload: str, seed: int, mode: str, scale: str, perturb: bool = False,
            trace_out: str | None = None, cpu: int | None = None) -> list[str]:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), "--mode", mode, "--scale", scale]
    if perturb:
        cmd.append("--perturb")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    return cmd


def run_workers(commands: list[list[str]], deadline: float) -> list[dict]:
    """Run fresh worker processes side by side and return their JSON results.

    Every process still running at ``deadline``, or when another one
    fails, is killed and waited for.
    """
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    procs = [subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) for cmd in commands]
    try:
        outputs = [proc.communicate(timeout=max(deadline - time.monotonic(), 0.1))
                   for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    results = []
    for cmd, proc, (out, err) in zip(commands, procs, outputs):
        if proc.returncode != 0:
            raise BenchmarkError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{err[-2000:]}")
        try:
            results.append(json.loads(out.strip().splitlines()[-1]))
        except (IndexError, json.JSONDecodeError) as exc:
            raise BenchmarkError(f"{' '.join(cmd[1:])} printed no result: {exc}") from exc
    return results


def code_identity() -> dict:
    """The commit when the checkout is a git repository, and a digest of src/."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def speed(rep: dict) -> float:
    """Factor that quotes one worker's times at the reference speed."""
    return REF_S / statistics.median(rep["refs"])


def job(rep: dict, scaled: bool = True) -> list[float]:
    """One repetition's unit latencies, at the reference speed if ``scaled``."""
    factor = speed(rep) if scaled else 1.0
    return [x * factor for x in rep["latencies"]]


def per_unit(reps: list[dict], scaled: bool = True) -> list[float]:
    """Median latency of each unit over the repetitions that reached it."""
    jobs = [job(r, scaled) for r in reps]
    n = max(len(j) for j in jobs)
    return [statistics.median(j[i] for j in jobs if i < len(j)) for i in range(n)]


def measure(args, deadline: float) -> tuple[list[dict], list[float]]:
    """Untraced repetitions within --seconds, then extra set-up samples."""
    cpus = sorted(os.sched_getaffinity(0))[:PARALLEL]
    reps: list[dict] = []
    start = time.perf_counter()
    while len(reps) < MAX_REPS:
        rounds = len(reps) // len(cpus)
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed * (rounds + 1) / rounds > args.seconds:
            break
        reps += run_workers([command(args.workload, args.seed, "untraced", args.scale,
                                     args.perturb, cpu=cpu) for cpu in cpus], deadline)
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups += [r["setup_s"] for r in run_workers(
            [command(args.workload, args.seed, "setup", args.scale, cpu=cpu) for cpu in cpus],
            deadline)]
    # set-up is over before a worker's first reference sample, so it is
    # scaled with the reference samples of the whole run
    run_speed = REF_S / statistics.median(x for r in reps for x in r["refs"])
    return reps, [x * run_speed for x in setups]


def end_to_end(reps: list[dict], setups: list[float]) -> tuple[dict, list[str]]:
    units = per_unit(reps)
    p50_ms, p90_ms = statistics.median(units) * 1e3, p90(units) * 1e3
    metrics = {
        "wall_s": (sum(units), "s"),
        "unit_p50_ms": (p50_ms, "ms"),
        "unit_p90_ms": (p90_ms, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    beyond = sum(1 for x in units if x * 1e3 > p90_ms)
    raw = per_unit(reps, scaled=False)
    refs_ms = sorted(statistics.median(r["refs"]) * 1e3 for r in reps)
    notes = [
        f"wall_s, unit_p50_ms, unit_p90_ms: {len(units)} units, each the median of "
        f"{len(reps)} fresh-process repetitions; {beyond} units beyond p90",
        f"setup_s: median of {len(setups)} fresh-process set-ups",
        f"reference speed: times scaled to a {REF_S * 1e3:g} ms reference; the "
        f"repetitions' reference medians ran {refs_ms[0]:.3f} to {refs_ms[-1]:.3f} ms",
        f"unscaled: wall_s {sum(raw):.4f} s, unit_p50_ms {statistics.median(raw) * 1e3:.4f}, "
        f"unit_p90_ms {p90(raw) * 1e3:.4f}",
    ]
    return metrics, notes


def per_layer(reps: list[dict], traced: dict) -> dict:
    metrics = {}
    units = {"_s": "s", "_calls": "count", "_points": "points", "_bytes_computed": "bytes",
             "_pairs": "pairs", "_iters": "count", "_per_newton": "ratio"}
    for name, value in traced["layers"].items():
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        metrics[name] = (value * speed(traced) if unit == "s" else value, unit)
    units = per_unit(reps)
    tasks = reps[0]["tasks"]
    for task in CLI_TASKS:
        times = [u for u, t in zip(units, tasks) if t == task]
        metrics[f"cli.{task.replace('-', '_')}_p50_ms"] = (
            statistics.median(times) * 1e3 if times else 0.0, "ms")
    # one traced job against the median untraced job, both at the reference speed
    untraced = statistics.median(sum(job(r)) for r in reps)
    metrics["trace.overhead_frac"] = (sum(job(traced)) / untraced - 1.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny sizes, for the self-test")
    parser.add_argument("--perturb", action="store_true",
                        help="nudge one unit's output before its check (self-test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "padic_heat", "__init__.py")):
        sys.stderr.write(f"no padic_heat sources under {os.path.join(ROOT, 'src')}\n")
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        reps, setups = measure(args, deadline)
        metrics, notes = end_to_end(reps, setups)
        attempted = sum(r["attempted"] for r in reps)
        failed = sum(r["failed"] for r in reps)
        if args.trace:
            trace_out = os.path.join(ROOT, ".perfbench_out",
                                     f"trace_{args.workload}_seed{args.seed}.json")
            traced, = run_workers([command(args.workload, args.seed, "traced", args.scale,
                                           args.perturb, trace_out)], deadline)
            attempted += traced["attempted"]
            failed += traced["failed"]
            metrics = per_layer(reps, traced)
            notes.append(f"spans written to {os.path.relpath(trace_out, ROOT)}")
            if traced["missing"]:
                notes.append("missing trace targets (0 calls): " + ", ".join(traced["missing"]))
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1

    print("env: " + json.dumps(dict(reps[0]["env"], **code_identity()), sort_keys=True))
    for note in notes:
        print(note)
    print(f"failed_frac: {failed / attempted:.4g} ({failed} of {attempted} units)")
    for r in reps:
        for unit, err in r["errors"].items():
            print(f"failed unit {unit}: {err}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
