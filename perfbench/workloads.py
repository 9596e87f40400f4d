"""The benchmark's workloads: seeded inputs, one timed unit, per-unit checks.

Every workload is closed-loop: one caller runs unit after unit and waits
for each.  A workload object is built in the worker process after
``padic_heat`` is importable; ``setup`` is part of the timed set-up,
``run_unit`` is the timed unit, and ``check_unit``/``final_check`` run
outside the timed region.

* ``pme_large``: p=2, N=0, M=13 (S=8192 > dense_cap, so Newton+PCG),
  alpha=1, Phi(u)=u**2, data 1 + 0.25*U[0,1), h=0.01.  One unit is one
  backward-Euler step, the state carried to the next unit.  Transforms
  do almost all the work.
* ``pme_small``: p=3, N=0, M=6 (S=729, dense LU), alpha=0.5,
  Phi(u)=u**3, data a sum of sub-ball indicators that vanishes on part
  of the ball (Phi'=0 there), h=0.01.  Dense matrix build and solve do
  almost all the work.
* ``cli_mix``: a seeded list of in-process ``padic_heat.cli.main``
  invocations, mostly ``solve-linear`` at S ~ 1e3..5e3 whose kernel path
  is the O(S**2) convolution, plus verify, heat-kernel, green, spectrum
  and a small solve-pme.  No two units share (model, alpha).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import tempfile

import numpy as np

from padic_heat import ball_model, cli, function_space, pme_solver, vladimirov

# Today's tolerances: the per-step mass identity (cli verify), the
# representation agreement of the operator forms (cli verify, relative).
MASS_IDENTITY_TOL = 1e-12
REPRESENTATION_TOL = 1e-9


def _newton_tol() -> float:
    return float(getattr(pme_solver.ImplicitStepConfig(), "newton_tol", 1e-12))


class Workload:
    """Hooks around each unit; all but ``run_unit`` run outside the clock."""

    units: int

    def begin_unit(self, i: int) -> None:
        pass

    def end_unit(self, i: int) -> None:
        pass

    def accept(self, i: int, output) -> None:
        """Carry a checked unit's output into the next unit."""

    def final_check(self) -> str | None:
        return None


class PmeWorkload(Workload):
    """Backward-Euler steps of du/dt + D(Phi(u)) = 0, one step per unit."""

    def __init__(self, p, N, M, alpha, power, h, steps, data, oracle):
        self.p, self.N, self.M = p, N, M
        self.alpha, self.power, self.h = alpha, power, h
        self.units = steps
        self.data = data
        self.oracle = oracle

    def setup(self, seed: int) -> None:
        model = ball_model.BallModel(self.p, self.N, self.M)
        ball_model.valuation_table(model)
        ball_model.point_abs_table(model)
        ball_model.freq_abs_table(model)
        self.lam = float(vladimirov.multiplier(model, self.alpha).eigenvalues[0])
        self.phi = pme_solver.Nonlinearity.power(self.power)
        self.model = model
        self.u = self._initial(np.random.default_rng(seed))
        self.g = None

    def _initial(self, rng) -> function_space.GridFunction:
        model = self.model
        if self.data == "positive":
            return function_space.GridFunction(model, 1.0 + 0.25 * rng.random(model.S))
        # sum of a few sub-balls of radius p**-2 .. p**-1 with random heights
        vals = np.zeros(model.S)
        for _ in range(4):
            center = int(rng.integers(model.S))
            radius = -int(rng.integers(1, min(3, model.M + 1)))
            ind = function_space.ball_indicator(model, center, radius)
            vals += (0.5 + rng.random()) * ind.values
        return function_space.GridFunction(model, vals)

    def run_unit(self, i: int):
        states, rows = pme_solver.pme_trajectory(self.u, self.h, 1, self.alpha, self.phi)
        return states[-1], rows[-1]

    def accept(self, i: int, output) -> None:
        self.g = self.u
        self.u = output[0]

    def perturb(self, i: int, output):
        v, row = output
        vals = np.array(v.values)
        vals[0] += 1e-6
        return function_space.GridFunction(v.model, vals), row

    def check_unit(self, i: int, output) -> str | None:
        v, row = output
        g = self.u
        tol = _newton_tol() * (1.0 + float(np.max(np.abs(g.values))))
        if not row["step_residual"] < tol:
            return f"step residual {row['step_residual']:.3e} >= {tol:.3e}"
        phi_mass = function_space.GridFunction(v.model, self.phi.value(v.values)).integral()
        mass_resid = v.integral() - g.integral() + self.h * self.lam * phi_mass
        if not abs(mass_resid) < MASS_IDENTITY_TOL:
            return f"mass identity residual {mass_resid:.3e}"
        return None

    def final_check(self) -> str | None:
        """Residual of the last step, v + h*D(Phi(v)) - g, with an oracle form of D."""
        if self.g is None:
            return "no step was taken"
        v, g = self.u, self.g
        phi_v = self.phi.value(v.values)
        if self.oracle == "matrix":
            d_phi = vladimirov.build_matrix(self.model, self.alpha) @ phi_v
        else:
            d_phi = vladimirov.apply_hypersingular(
                function_space.GridFunction(self.model, phi_v), self.alpha).values
        resid = float(np.max(np.abs(v.values + self.h * d_phi - g.values)))
        scale = max(1.0, float(np.max(np.abs(self.h * d_phi))), float(np.max(np.abs(g.values))))
        if not resid < REPRESENTATION_TOL * scale:
            return f"oracle step residual {resid:.3e} (scale {scale:.3e})"
        return None

    def task(self, i: int) -> str:
        return "step"


# -- cli_mix ------------------------------------------------------------

# Models per task.  Each task cycles through its list, so every seed runs
# the same models the same number of times; the seed changes the order,
# alpha, and the data.  solve-linear uses S in [1e3, 5e3] with N varied so
# that S alone does not identify the model; verify runs O(S**2) oracles
# and a dense implicit step, so it keeps S <= 729.
TASK_MODELS = {
    "solve-linear": [(2, 0, 10), (2, -1, 12), (2, 0, 11), (2, 0, 12), (3, 0, 7),
                     (3, 1, 6), (5, 0, 5), (5, -1, 6), (7, 0, 4), (7, 1, 3)],
    "verify": [(2, 0, 9), (2, 1, 8), (3, 0, 6), (5, 0, 4), (7, 0, 3)],
    "spectrum": [(2, 0, 12), (3, 0, 7), (5, -1, 6), (7, 1, 3), (2, 0, 10)],
    "heat-kernel": [(2, 0, 6), (3, 0, 4), (3, 1, 3), (5, 0, 3), (7, 0, 2)],
    "green": [(2, 0, 6), (3, 0, 4), (3, 1, 3), (5, 0, 3), (7, 0, 2)],
    "solve-pme": [(2, 0, 6), (3, 0, 4), (3, 1, 3), (5, 0, 3), (7, 0, 2)],
}
SMOKE_MODELS = {task: [(2, 0, 4), (3, 0, 2)] for task in TASK_MODELS}

# one cycle of 20 units: 70% solve-linear, 10% verify, 5% each of the
# rest, ordered so that the first 12 units already hold every task
TASK_MIX = (["solve-linear", "verify", "solve-linear", "heat-kernel", "solve-linear", "green",
             "solve-linear", "spectrum", "solve-linear", "solve-pme", "solve-linear", "verify"]
            + ["solve-linear"] * 8)

# alpha is drawn from [0.35, 2.4] except where today's code cannot pass
# its own check (known defects, listed in perfbench/README.md):
# * verify takes one implicit step with h = 0.5; for alpha >= 1.6 its
#   Newton iteration fails on these models and the fixed-point fallback
#   then runs for minutes (ROADMAP item 3);
# * spectrum checks eigenvalues against an absolute 1e-9, which rounding
#   breaks once p**(alpha*M) passes about 1e5;
# * heat-kernel's series route at p = 2, t = 10 loses accuracy erratically
#   for alpha < 0.5, up to the 1e-10 tolerance of its check.
ALPHA_RANGE = {"verify": (0.35, 1.45), "spectrum": (0.35, 1.2), "heat-kernel": (0.5, 2.4)}


def _spread_alphas(rng, count: int, lo: float, hi: float, taken: set) -> list[float]:
    """``count`` distinct alphas, one from each of ``count`` equal slices of
    [lo, hi].  A unit's cost depends on alpha (Newton iterations, series
    terms), so every seed spreads each model's units over the whole range
    and the seeds' cost profiles differ only within the slices."""
    out = []
    width = (hi - lo) / max(count, 1)
    for k in range(count):
        while True:
            alpha = round(lo + (k + rng.random()) * width, 6)
            # alpha is kept away from 1, where the Green function changes regime
            if abs(alpha - 1.0) > 0.05 and alpha not in taken:
                break
        taken.add(alpha)
        out.append(alpha)
    return out


def cli_invocations(seed: int, units: int, models=TASK_MODELS) -> list[list[str]]:
    """Seeded list of CLI argument lists; alpha is distinct for every unit."""
    rng = random.Random(seed)
    tasks = [TASK_MIX[i % len(TASK_MIX)] for i in range(units)]
    rng.shuffle(tasks)
    taken: set[float] = set()
    queues = {}
    for task, pool in models.items():
        n = tasks.count(task)
        lo, hi = ALPHA_RANGE.get(task, (0.35, 2.4))
        queues[task] = [(model, alpha) for j, model in enumerate(pool)
                        for alpha in _spread_alphas(rng, len(range(j, n, len(pool))), lo, hi,
                                                    taken)]
        rng.shuffle(queues[task])
    out = []
    for task in tasks:
        (p, N, M), alpha = queues[task].pop()
        args = [task, "--alpha", repr(alpha), "--p", str(p), "--N", str(N), "--M", str(M)]
        if task == "solve-linear":
            args += ["--times", "0.1,1.0", "--initial", "random",
                     "--seed", str(rng.randrange(1 << 30))]
        elif task == "verify":
            args += ["--seed", str(rng.randrange(1 << 30))]
        elif task == "solve-pme":
            args += ["--steps", "8", "--t", "0.2"]
        out.append(args)
    return out


# report file, and the check each task's report must pass
REPORTS = {
    "solve-linear": "linear_report.json",
    "verify": "verify_report.json",
    "heat-kernel": "heat_kernel_report.json",
    "green": "green_report.json",
    "spectrum": "spectrum_report.json",
    "solve-pme": "pme_report.json",
}


def check_report(task: str, report: dict) -> str | None:
    if task == "solve-linear":
        ok = report["worst_path_disagreement"] < report["tolerance"]
    elif task == "verify":
        ok = report["passed"] and all(c["passed"] for c in report["checks"])
    elif task == "heat-kernel":
        ok = report["worst_rel_diff"] < report["tolerance"]
    elif task == "green":
        # the same mean-zero bound verify applies to the Green kernel
        ok = all(abs(t["ball_integral"]) < 1e-10 for t in report["tables"])
    elif task == "spectrum":
        ok = report["max_multiset_deviation"] < report["tolerance"]
    else:
        ok = abs(report["worst_mass_identity_residual"]) < MASS_IDENTITY_TOL
    return None if ok else f"{task} report failed its check: {json.dumps(report)[:300]}"


class CliWorkload(Workload):
    """In-process CLI invocations, each with its own --out and captured output."""

    def __init__(self, units, tmp_root, models=TASK_MODELS):
        self.units = units
        self.tmp_root = tmp_root
        self.models = models

    def setup(self, seed: int) -> None:
        self.invocations = cli_invocations(seed, self.units, self.models)
        os.makedirs(self.tmp_root, exist_ok=True)
        self._out = None

    def task(self, i: int) -> str:
        return self.invocations[i][0]

    def run_unit(self, i: int):
        # the output directory is made before the clock starts and removed
        # after it stops; see worker.run_job
        args = self.invocations[i] + ["--out", self._out]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(args)
        return code, err.getvalue()

    def begin_unit(self, i: int) -> None:
        self._out = tempfile.mkdtemp(dir=self.tmp_root)

    def end_unit(self, i: int) -> None:
        shutil.rmtree(self._out, ignore_errors=True)
        self._out = None

    def perturb(self, i: int, output):
        code, err = output
        task = self.task(i)
        path = os.path.join(self._out, REPORTS[task])
        with open(path) as fh:
            report = json.load(fh)
        _nudge(task, report)
        with open(path, "w") as fh:
            json.dump(report, fh)
        return code, err

    def check_unit(self, i: int, output) -> str | None:
        code, err = output
        task = self.task(i)
        if code != 0:
            return f"{task} exited {code}: {err.strip()[:300]}"
        try:
            with open(os.path.join(self._out, REPORTS[task])) as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return f"{task} report unreadable: {exc}"
        return check_report(task, report)


def _nudge(task: str, report: dict) -> None:
    """Move one checked value of a report just past its bound."""
    if task == "solve-linear":
        report["worst_path_disagreement"] = report["tolerance"]
    elif task == "verify":
        report["checks"][0]["passed"] = False
    elif task == "heat-kernel":
        report["worst_rel_diff"] = report["tolerance"]
    elif task == "green":
        report["tables"][0]["ball_integral"] = 1e-10
    elif task == "spectrum":
        report["max_multiset_deviation"] = report["tolerance"]
    else:
        report["worst_mass_identity_residual"] = MASS_IDENTITY_TOL


def make(name: str, scale: str, tmp_root: str):
    """The workload ``name`` at full size, or at tiny size for the self-test."""
    smoke = scale == "smoke"
    if name == "pme_large":
        return PmeWorkload(2, 0, 7 if smoke else 13, 1.0, 2, 0.01,
                           12 if smoke else 100, "positive", "hypersingular")
    if name == "pme_small":
        return PmeWorkload(3, 0, 3 if smoke else 6, 0.5, 3, 0.01,
                           12 if smoke else 100, "indicator", "matrix")
    if name == "cli_mix":
        if smoke:
            return CliWorkload(12, tmp_root, SMOKE_MODELS)
        return CliWorkload(100, tmp_root)
    raise ValueError(f"unknown workload {name!r}")
