"""Command-line batch runner.

Subcommands: spectrum, heat-kernel, green, solve-linear, solve-pme,
verify.  Every run is configured by flags and/or a JSON config file
(--config); explicit flags win over config values, unknown config keys
are rejected before any computation.  Outputs are CSV and JSON files
under --out, written with repr-exact floats and fixed orderings so a
rerun of the same config is byte-identical.

Exit codes: 0 success, 1 validation error, 2 numerical-consistency
failure, 3 solver non-convergence.  Failures also emit a one-line JSON
object on stderr with fields "error", "message", "exit_code".
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from functools import lru_cache

import numpy as np

from .ball_model import BallModel, freq_abs_table, valuation_table
from .fourier_ball import dft_direct, forward
from .function_space import GridFunction, make_initial
from .kernels import (
    NonConvergenceError,
    ball_kernel_gridfunction,
    green_ball_integral,
    green_estimates_report,
    green_kernel,
    heat_kernel_ball,
    heat_kernel_ball_series,
    resolvent_apply,
)
from .linear_solver import evolve, evolve_series
from .pme_solver import (
    ImplicitStepConfig,
    Nonlinearity,
    SolverError,
    crandall_liggett,
    implicit_step,
    pme_trajectory,
)
from .vladimirov import (
    DEFAULT_MATRIX_CAP,
    ConsistencyError,
    apply_global_restriction,
    apply_hypersingular,
    apply_spectral,
    build_matrix,
    multiplier,
    operator_levels,
    spectrum_multiset,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONSISTENCY = 2
EXIT_NONCONVERGENCE = 3


class ValidationFailure(Exception):
    pass


class ConsistencyFailure(Exception):
    pass


def _emit_error(kind: str, message: str, code: int) -> int:
    sys.stderr.write(json.dumps(
        {"error": kind, "message": message, "exit_code": code},
        sort_keys=True) + "\n")
    return code


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def _reprs(values: np.ndarray) -> list[str]:
    """``_fmt`` of every entry of a float array."""
    return [repr(v) for v in values.tolist()]


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _json_cell(v):
    if isinstance(v, (bool, str)):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return None if math.isnan(f) else f
    return v


def _write_table(cfg: dict, stem: str, header: list[str], rows) -> str:
    """Write one tabular artifact as <stem>.csv or <stem>.json per cfg.

    Returns the basename actually written.  Column set and row order are
    identical in both formats; JSON is a list of one object per row.
    """
    rows = list(rows)
    if cfg.get("format", "csv") == "json":
        name = stem + ".json"
        _write_json(os.path.join(cfg["out"], name),
                    [{h: _json_cell(v) for h, v in zip(header, row)}
                     for row in rows])
    else:
        name = stem + ".csv"
        _write_csv(os.path.join(cfg["out"], name), header, rows)
    return name


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


# -- config merging ------------------------------------------------------

COMMON_KEYS = {"p", "N", "M", "alpha", "out", "seed", "tol", "format"}
TASK_KEYS = {
    "spectrum": {"dump_matrix"},
    "heat-kernel": {"times", "m_lo"},
    "green": {"mu", "m_lo", "m_hi"},
    "solve-linear": {"times", "initial", "path", "dump_state"},
    "solve-pme": {"t", "steps", "phi", "initial", "cl_tol", "record_every",
                  "dump_state"},
    "verify": set(),
}
# numeric keys, converted once here: JSON config values may have any type
NUMERIC_KEYS = {"p": int, "N": int, "M": int, "seed": int, "steps": int,
                "record_every": int, "m_lo": int, "m_hi": int,
                "alpha": float, "t": float, "tol": float, "cl_tol": float}


def _load_config(task: str, args: argparse.Namespace) -> dict:
    cfg: dict = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ValidationFailure(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationFailure(f"config is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ValidationFailure("config must be a JSON object")
        allowed = COMMON_KEYS | TASK_KEYS[task]
        unknown = set(cfg) - allowed
        if unknown:
            raise ValidationFailure(
                f"unknown config keys for task {task}: {sorted(unknown)}")
    merged = dict(cfg)
    for key in COMMON_KEYS | TASK_KEYS[task]:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            merged[key] = flag_val
    for key, kind in NUMERIC_KEYS.items():
        if merged.get(key) is None:
            continue
        try:
            merged[key] = kind(merged[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationFailure(
                f"{key} must be a number, got {merged[key]!r}") from exc
        # NaN passes every "<= 0" check of the tasks; inf runs solvers to their caps
        if kind is float and not math.isfinite(merged[key]):
            raise ValidationFailure(f"{key} must be finite, got {merged[key]}")
    merged.setdefault("out", ".")
    merged.setdefault("format", "csv")
    if merged["format"] not in ("csv", "json"):
        raise ValidationFailure(f"unknown format {merged['format']!r}")
    return merged


def _require(cfg: dict, key: str):
    if key not in cfg or cfg[key] is None:
        raise ValidationFailure(f"missing required parameter: {key}")
    return cfg[key]


def _model_from(cfg: dict) -> BallModel:
    try:
        return BallModel(_require(cfg, "p"), _require(cfg, "N"), _require(cfg, "M"))
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc


def _alpha_from(cfg: dict) -> float:
    alpha = _require(cfg, "alpha")
    if alpha <= 0:
        raise ValidationFailure(f"alpha must be positive, got {alpha}")
    return alpha


def _parse_floats(raw, name: str) -> list[float]:
    if isinstance(raw, str):
        parts = [s for s in raw.split(",") if s.strip()]
    elif isinstance(raw, (list, tuple)):
        parts = raw
    else:
        parts = [raw]
    try:
        values = [float(v) for v in parts]
    except (TypeError, ValueError) as exc:
        raise ValidationFailure(f"cannot parse {name}: {raw!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ValidationFailure(f"{name} must be finite, got {raw!r}")
    return values


def _parse_initial(cfg: dict, model: BallModel) -> GridFunction:
    spec = cfg.get("initial") or {"kind": "bump"}
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError:
            spec = {"kind": spec}
    if spec.get("kind") == "random" and "seed" not in spec:
        spec = dict(spec, seed=int(cfg.get("seed", 0)))
    try:
        return make_initial(model, spec)
    except (ValueError, IndexError) as exc:
        raise ValidationFailure(str(exc)) from exc


def _parse_phi(cfg: dict) -> Nonlinearity:
    spec = cfg.get("phi", "power:2")
    try:
        if isinstance(spec, dict):
            kind = spec.get("kind")
            if kind == "power":
                return Nonlinearity.power(float(spec["exponent"]))
            if kind == "identity":
                return Nonlinearity.identity()
            if kind == "table":
                return Nonlinearity.table(spec["knots"])
            raise ValidationFailure(f"unknown phi kind {kind!r}")
        if spec == "identity":
            return Nonlinearity.identity()
        if isinstance(spec, str) and spec.startswith("power:"):
            return Nonlinearity.power(float(spec.split(":", 1)[1]))
        raise ValidationFailure(f"cannot parse phi spec {spec!r}")
    except (KeyError, ValueError) as exc:
        raise ValidationFailure(f"bad phi spec {spec!r}: {exc}") from exc


# -- tasks ---------------------------------------------------------------


def _task_spectrum(cfg: dict) -> int:
    """Eigenvalue table, optional dense matrix, multiset check.

    Both columns of ``spectrum.csv`` take one value per valuation: the
    eigenvalue is ``operator_levels`` gathered through
    ``valuation_table``, and freq_abs is p**(M - v), 0.0 at k = 0.  So
    the CSV formats one "freq_abs,eigenvalue" tail per valuation, L + 1
    of them, and writes row k as k and the tail of its valuation.  The
    matrix is circulant, A[i, j] = A[0, (j - i) mod S], so its dump
    formats row 0 once and writes row i as those strings rotated by i.
    repr of a float holds no delimiter, quote or line break, so strings
    joined by "," and ended by "\\r\\n" are the bytes that ``_write_csv``
    (csv.writer over ``_fmt`` of every cell) writes.  ``--format json``
    writes the cells one by one.
    """
    model = _model_from(cfg)
    alpha = _alpha_from(cfg)
    mult = multiplier(model, alpha)
    closed = spectrum_multiset(model, alpha)
    header = ["k", "freq_abs", "eigenvalue"]
    if cfg["format"] == "csv":
        # frequency k = p**r has valuation r; k = 0 holds the sentinel L
        first = [model.p ** r for r in range(model.N + model.M)] + [0]
        tails = [f"{f},{e}\r\n" for f, e in zip(_reprs(freq_abs_table(model)[first]),
                                               _reprs(operator_levels(model, alpha)))]
        with open(os.path.join(cfg["out"], "spectrum.csv"), "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.write("".join([f"{k},{tails[v]}"
                              for k, v in enumerate(valuation_table(model).tolist())]))
    else:
        _write_table(cfg, "spectrum", header,
                     zip(range(model.S), freq_abs_table(model).tolist(),
                         mult.eigenvalues.tolist()))
    if cfg.get("dump_matrix"):
        try:
            mat = build_matrix(model, alpha)
        except ValueError as exc:
            raise ValidationFailure(str(exc)) from exc
        row0 = _reprs(mat[0])
        S = model.S
        with open(os.path.join(cfg["out"], "operator_matrix.csv"),
                  "w", newline="") as fh:
            for i in range(S):
                fh.write(",".join(row0[S - i:] + row0[:S - i]) + "\r\n")
    err = float(np.max(np.abs(np.sort(mult.eigenvalues) - closed)))
    tol = float(cfg.get("tol") or 1e-9)
    _write_json(os.path.join(cfg["out"], "spectrum_report.json"), {
        "p": model.p, "N": model.N, "M": model.M, "alpha": alpha,
        "size": model.S,
        "max_multiset_deviation": err,
        "tolerance": tol,
    })
    if err >= tol:
        raise ConsistencyFailure(
            f"eigenvalue multiset deviates from the closed form by {err:.3e}")
    return EXIT_OK


def _task_heat_kernel(cfg: dict) -> int:
    model = _model_from(cfg)
    alpha = _alpha_from(cfg)
    p, N = model.p, model.N
    times = _parse_floats(cfg.get("times", "0.1,1.0,10.0"), "times")
    if any(t <= 0 for t in times):
        raise ValidationFailure("times must be positive")
    m_lo = int(cfg.get("m_lo", N - 6))
    if m_lo > N:
        raise ValidationFailure(f"m_lo must be <= N = {N}")
    tol = float(cfg.get("tol") or 1e-10)
    rows = []
    worst = 0.0
    for t in times:
        for m in list(range(N, m_lo - 1, -1)) + [None]:
            a = heat_kernel_ball(p, N, alpha, t, m)
            b = heat_kernel_ball_series(p, N, alpha, t, m)
            rel = abs(a - b) / max(abs(a), 1.0)
            worst = max(worst, rel)
            rows.append(("zero" if m is None else m,
                         0.0 if m is None else float(p) ** m, t, a, b, rel))
    _write_table(cfg, "heat_kernel",
                 ["m", "abs_x", "t", "z_char_sum", "z_series", "rel_diff"],
                 rows)
    _write_json(os.path.join(cfg["out"], "heat_kernel_report.json"), {
        "p": p, "N": N, "alpha": alpha, "times": times, "m_lo": m_lo,
        "worst_rel_diff": worst, "tolerance": tol,
    })
    if worst >= tol:
        raise ConsistencyFailure(
            f"ball-kernel evaluation routes disagree by {worst:.3e}")
    return EXIT_OK


def _task_green(cfg: dict) -> int:
    model = _model_from(cfg)
    alpha = _alpha_from(cfg)
    p, N = model.p, model.N
    mus = _parse_floats(cfg.get("mu", "1.0"), "mu")
    if any(mu <= 0 for mu in mus):
        raise ValidationFailure("mu must be positive")
    m_lo = int(cfg.get("m_lo", -25))
    m_hi = int(cfg.get("m_hi", min(N, 0)))
    summary = {"p": p, "N": N, "alpha": alpha, "tables": []}
    for mu in mus:
        try:
            table = green_estimates_report(p, N, alpha, mu, (m_lo, m_hi))
        except ValueError as exc:
            raise ValidationFailure(str(exc)) from exc
        rows = [(r["m"], r["abs_x"], r["K"], r["weight"], r["weighted"],
                 r["ratio"]) for r in table]
        name = _write_table(cfg, f"green_mu_{mu:g}",
                            ["m", "abs_x", "K", "weight", "weighted", "ratio"],
                            rows)
        m_min = None if alpha < 1 else -40
        summary["tables"].append({
            "mu": mu, "file": name,
            "ball_integral": green_ball_integral(p, N, alpha, mu, m_min),
        })
    _write_json(os.path.join(cfg["out"], "green_report.json"), summary)
    return EXIT_OK


def _task_solve_linear(cfg: dict) -> int:
    model = _model_from(cfg)
    alpha = _alpha_from(cfg)
    times = _parse_floats(cfg.get("times", "0.1,0.2,0.5,1.0,2.0"), "times")
    u0 = _parse_initial(cfg, model)
    path = cfg.get("path", "spectral")
    if path not in ("spectral", "kernel"):
        raise ValidationFailure(f"unknown path {path!r}")
    tol = float(cfg.get("tol") or 1e-9)
    try:
        snaps = evolve_series(u0, alpha, times, path)
        other = evolve_series(u0, alpha, times,
                              "kernel" if path == "spectral" else "spectral")
    except ValueError as exc:
        raise ValidationFailure(str(exc)) from exc
    rows = []
    worst = 0.0
    for t, u, v in zip(times, snaps, other):
        gap = float(np.max(np.abs(u.values - v.values)))
        worst = max(worst, gap)
        rows.append((t, u.integral(), u.lp_norm(1), u.lp_norm(2),
                     u.lp_norm(math.inf), gap))
    _write_table(cfg, "linear_series",
                 ["t", "mass", "l1", "l2", "linf", "path_disagreement"], rows)
    if cfg.get("dump_state"):
        snaps[-1].to_csv(os.path.join(cfg["out"], "linear_state_final.csv"))
    _write_json(os.path.join(cfg["out"], "linear_report.json"), {
        "p": model.p, "N": model.N, "M": model.M, "alpha": alpha,
        "path": path, "times": times,
        "worst_path_disagreement": worst, "tolerance": tol,
    })
    if worst >= tol:
        raise ConsistencyFailure(
            f"spectral and kernel paths disagree by {worst:.3e}")
    return EXIT_OK


def _task_solve_pme(cfg: dict) -> int:
    model = _model_from(cfg)
    alpha = _alpha_from(cfg)
    t = float(cfg.get("t", 1.0))
    if t <= 0:
        raise ValidationFailure(f"t must be positive, got {t}")
    steps = int(cfg.get("steps", 64))
    if steps < 1:
        raise ValidationFailure(f"steps must be >= 1, got {steps}")
    phi = _parse_phi(cfg)
    u0 = _parse_initial(cfg, model)
    record_every = int(cfg.get("record_every", 1))
    if record_every < 1:
        raise ValidationFailure(f"record_every must be >= 1, got {record_every}")
    states, rows = pme_trajectory(u0, t, steps, alpha, phi,
                                  record_every=record_every)
    _write_table(cfg, "pme_trajectory",
                 ["step", "t", "mass", "l1", "l2", "sup_norm", "newton_iters",
                  "step_residual", "mass_identity_residual"],
                 [(r["step"], r["t"], r["mass"], r["l1"], r["l2"],
                   r["sup_norm"], r["newton_iters"], r["step_residual"],
                   r["mass_identity_residual"]) for r in rows])
    if cfg.get("dump_state"):
        states[-1].to_csv(os.path.join(cfg["out"], "pme_state_final.csv"))
    payload = {
        "p": model.p, "N": model.N, "M": model.M, "alpha": alpha,
        "t": t, "steps": steps,
        "final_mass": rows[-1]["mass"],
        "worst_mass_identity_residual":
            max(abs(r["mass_identity_residual"]) for r in rows),
    }
    if cfg.get("cl_tol") is not None:
        _, report = crandall_liggett(u0, t, alpha, phi,
                                     tol=float(cfg["cl_tol"]))
        payload["crandall_liggett"] = report.as_dict()
    _write_json(os.path.join(cfg["out"], "pme_report.json"), payload)
    return EXIT_OK


def _task_verify(cfg: dict) -> int:
    model = _model_from(cfg) if all(
        cfg.get(k) is not None for k in ("p", "N", "M")) else BallModel(2, 0, 6)
    alpha = float(cfg["alpha"]) if cfg.get("alpha") is not None else 1.0
    if alpha <= 0:
        raise ValidationFailure(f"alpha must be positive, got {alpha}")
    # the oracles below are O(S**2) in time and the direct DFT in memory
    if model.S > DEFAULT_MATRIX_CAP:
        raise ValidationFailure(
            f"verify runs O(S**2) oracles; group order {model.S} exceeds "
            f"the cap {DEFAULT_MATRIX_CAP}")
    tol = float(cfg.get("tol") or 1e-9)
    seed = int(cfg.get("seed", 0))
    p, N = model.p, model.N
    checks: list[tuple[str, float, float]] = []

    mult = multiplier(model, alpha)
    closed = spectrum_multiset(model, alpha)
    checks.append(("spectrum multiset",
                   float(np.max(np.abs(np.sort(mult.eigenvalues) - closed))),
                   tol))

    rng = np.random.default_rng(seed)
    u = GridFunction(model, rng.standard_normal(model.S))
    a = apply_spectral(u, alpha).values
    b = apply_hypersingular(u, alpha).values
    c = apply_global_restriction(u, alpha).values
    scale = max(float(np.max(np.abs(a))), 1.0)
    checks.append(("representation agreement",
                   max(float(np.max(np.abs(a - b))),
                       float(np.max(np.abs(a - c)))) / scale, tol))

    worst = 0.0
    for tt in (0.1, 1.0, 10.0):
        for m in list(range(N, N - 4, -1)) + [None]:
            za = heat_kernel_ball(p, N, alpha, tt, m)
            zb = heat_kernel_ball_series(p, N, alpha, tt, m)
            worst = max(worst, abs(za - zb) / max(abs(za), 1.0))
    checks.append(("ball kernel two formulas", worst, max(tol, 1e-10)))

    Zt = ball_kernel_gridfunction(model, alpha, 0.4)
    Zs = ball_kernel_gridfunction(model, alpha, 0.7)
    Zts = ball_kernel_gridfunction(model, alpha, 1.1)
    ck = Zt.convolve_radial(Zs)
    checks.append(("Chapman-Kolmogorov",
                   float(np.max(np.abs(ck.values - Zts.values))), tol))

    r1 = resolvent_apply(u, alpha, 0.9, "spectral")
    r2 = resolvent_apply(u, alpha, 0.9, "kernel")
    checks.append(("resolvent two paths",
                   float(np.max(np.abs(r1.values - r2.values))),
                   max(tol, 1e-10)))
    m_min = None if alpha < 1 else -40
    checks.append(("Green kernel mean zero",
                   abs(green_ball_integral(p, N, alpha, 1.0, m_min)),
                   max(tol, 1e-10)))

    fc = forward(u).coeffs * model.S
    dc = dft_direct(u.values, +1)
    checks.append(("FFT vs direct DFT",
                   float(np.max(np.abs(fc - dc)))
                   / max(float(np.max(np.abs(dc))), 1.0), 1e-12))

    g = GridFunction(model, 1.0 + np.abs(rng.standard_normal(model.S)))
    vstep = implicit_step(g, 0.5, alpha, Nonlinearity.power(2))
    lam = mult.eigenvalues[0]
    phi_of_v = GridFunction(model, Nonlinearity.power(2).value(vstep.values))
    mass_resid = abs(vstep.integral() - g.integral()
                     + 0.5 * lam * phi_of_v.integral())
    checks.append(("implicit-step mass identity", mass_resid, 1e-12))

    lines = []
    failed = []
    for name, err, bound in checks:
        ok = err < bound
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: {err:.3e} "
                     f"(tolerance {bound:.1e})")
        if not ok:
            failed.append(name)
    sys.stdout.write("\n".join(lines) + "\n")
    _write_json(os.path.join(cfg["out"], "verify_report.json"), {
        "p": model.p, "N": model.N, "M": model.M, "alpha": alpha,
        "checks": [{"name": n, "error": float(e), "tolerance": float(b),
                    "passed": bool(e < b)} for n, e, b in checks],
        "passed": not failed,
    })
    if failed:
        raise ConsistencyFailure(f"verification failed: {', '.join(failed)}")
    return EXIT_OK


TASKS = {
    "spectrum": _task_spectrum,
    "heat-kernel": _task_heat_kernel,
    "green": _task_green,
    "solve-linear": _task_solve_linear,
    "solve-pme": _task_solve_pme,
    "verify": _task_verify,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; route those through the
    # validation path so exit 2 stays reserved for consistency failures
    def error(self, message):
        raise ValidationFailure(message)


# built once per process: building costs about 20 times a parse, and
# parse_args leaves the parser unchanged
@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    parser = _Parser(prog="padic-heat", description=__doc__)
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        sp = sub.add_parser(task)
        sp.add_argument("--config", type=str, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--format", type=str, default=None,
                        choices=("csv", "json"))
        sp.add_argument("--p", type=int, default=None)
        sp.add_argument("--N", type=int, default=None)
        sp.add_argument("--M", type=int, default=None)
        sp.add_argument("--alpha", type=float, default=None)
        if task == "spectrum":
            sp.add_argument("--dump-matrix", dest="dump_matrix",
                            action="store_const", const=True, default=None)
        if task in ("heat-kernel", "solve-linear"):
            sp.add_argument("--times", type=str, default=None)
        if task in ("heat-kernel", "green"):
            sp.add_argument("--m-lo", dest="m_lo", type=int, default=None)
        if task == "green":
            sp.add_argument("--mu", type=str, default=None)
            sp.add_argument("--m-hi", dest="m_hi", type=int, default=None)
        if task in ("solve-linear", "solve-pme"):
            sp.add_argument("--initial", type=str, default=None)
            sp.add_argument("--dump-state", dest="dump_state",
                            action="store_const", const=True, default=None)
        if task == "solve-linear":
            sp.add_argument("--path", type=str, default=None,
                            choices=("spectral", "kernel"))
        if task == "solve-pme":
            sp.add_argument("--t", type=float, default=None)
            sp.add_argument("--steps", type=int, default=None)
            sp.add_argument("--phi", type=str, default=None)
            sp.add_argument("--cl-tol", dest="cl_tol", type=float, default=None)
            sp.add_argument("--record-every", dest="record_every", type=int,
                            default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config(args.task, args)
        os.makedirs(cfg["out"], exist_ok=True)
        return TASKS[args.task](cfg)
    except ValidationFailure as exc:
        return _emit_error("validation", str(exc), EXIT_VALIDATION)
    except (ValueError, OSError) as exc:
        return _emit_error("validation", str(exc), EXIT_VALIDATION)
    except (ConsistencyFailure, ConsistencyError) as exc:
        return _emit_error("consistency", str(exc), EXIT_CONSISTENCY)
    except (NonConvergenceError, SolverError) as exc:
        return _emit_error("non-convergence", str(exc), EXIT_NONCONVERGENCE)


if __name__ == "__main__":
    sys.exit(main())
