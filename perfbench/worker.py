"""One workload process: timed set-up, the job's units, and their checks.

``run.py`` starts this script in a fresh interpreter for every
repetition, so each one pays imports, lookup tables and ``multiplier``
again and no cache survives from one repetition to the next:

    python3 perfbench/worker.py --root ROOT --workload NAME --seed N \
        --mode {setup,untraced,traced} [--scale smoke] [--perturb] \
        [--trace-out FILE]

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

# BLAS must be pinned before numpy loads: two OpenBLAS threads make a
# dense step several times slower on a two-core machine
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment() -> dict:
    """Python, numpy, BLAS name/version/threads and CPU count of this process."""
    import ctypes
    import glob
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
    }


class Reference:
    """A fixed computation, independent of ``padic_heat``, that gauges the
    machine's current speed.

    On a shared host the single-thread speed of every vCPU drifts by up
    to 1.7x for minutes at a time, with the load of other tenants.  Timing
    this computation in the same process as the units, between them,
    tells ``run.py`` how fast the machine ran while they did.  Its parts
    are the program's own kinds of work: a dense LU solve, a Python loop
    of small numpy shifts as in ``GridFunction.convolve``, FFTs and a
    plain interpreter loop.  Built after set-up is timed, so numpy's
    import stays inside ``setup_s``.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.random((400, 400)) + 400.0 * np.eye(400)
        self.b = self.a[:, :8].copy()
        self.x = rng.random(1024)
        self.z = rng.random(8192) + 0j

    def time(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        np.linalg.solve(self.a, self.b)
        acc = np.zeros(1024)
        for m in range(300):
            acc += 0.5 * np.roll(self.x, m)
        np.fft.fft(self.z)
        np.fft.fft(self.z)
        s = 0
        for i in range(20000):
            s += i
        return time.perf_counter() - t0


def run_job(workload, tracer, reference: Reference, perturb: bool) -> dict:
    """Run every unit once; only ``run_unit`` is inside the clock.

    The reference computation is timed after every unit, outside the
    clock, so that its samples cover the whole job.
    """
    clock = time.perf_counter
    latencies: list[float] = []
    refs = [reference.time()]
    errors: dict[int, str] = {}
    perturbed = min(1, workload.units - 1)
    for i in range(workload.units):
        if tracer is not None:
            tracer.unit = i
        workload.begin_unit(i)
        try:
            t0 = clock()
            try:
                output = workload.run_unit(i)
            finally:
                latencies.append(clock() - t0)
            if perturb and i == perturbed:
                output = workload.perturb(i, output)
            err = workload.check_unit(i, output)
            workload.accept(i, output)
        except Exception as exc:  # a failing unit is a result, not a crash
            errors[i] = f"{type(exc).__name__}: {exc}"
            break
        finally:
            workload.end_unit(i)
        refs.append(reference.time())
        if err is not None:
            errors[i] = err
    if tracer is not None:
        tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if len(latencies) == workload.units and not errors:
        err = workload.final_check()
        if err is not None:
            errors[workload.units - 1] = "final check: " + err
    # units never reached after a unit raised count as failed
    failed = len(errors) + workload.units - len(latencies)
    return {
        "latencies": latencies,
        "refs": refs,
        "tasks": [workload.task(i) for i in range(len(latencies))],
        "attempted": workload.units,
        "failed": failed,
        "errors": {str(k): v for k, v in sorted(errors.items())[:5]},
        "peak_rss_mb": rss_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--perturb", action="store_true")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--cpu", type=int, default=None, help="pin this process to one CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    for var in THREAD_VARS:
        os.environ[var] = "1"

    src = os.path.join(os.path.abspath(args.root), "src")
    t_setup = time.perf_counter()
    sys.path.insert(0, src)
    import padic_heat

    if not os.path.abspath(padic_heat.__file__).startswith(src + os.sep):
        raise SystemExit(f"padic_heat imported from {padic_heat.__file__}, not {src}")
    import tracer as tracing
    import workloads

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
    tmp_root = os.path.join(os.path.abspath(args.root), ".perfbench_tmp")
    workload = workloads.make(args.workload, args.scale, tmp_root)
    workload.setup(args.seed)
    setup_s = time.perf_counter() - t_setup

    result = {"setup_s": setup_s}
    if args.mode != "setup":
        result.update(run_job(workload, tracer, Reference(), args.perturb))
        result["env"] = environment()
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["missing"] = tracer.missing
        if args.trace_out:
            os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
            with open(args.trace_out, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "unit", "S",
                                      "newton_iters"],
                           "spans": tracer.spans, "missing": tracer.missing}, fh)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
