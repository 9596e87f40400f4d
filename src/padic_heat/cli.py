"""Command-line batch runner.

Subcommands: spectrum, heat-kernel, green, solve-linear, solve-pme,
verify.  Every run is configured by flags and/or a JSON config file
(--config); explicit flags win over config values, unknown config keys
are rejected before any computation.  Key "m_lo" is flag --m-lo, and
so on.  A config value is read by the same code as its flag's string:
integers must be integral, switches (dump_matrix, dump_state) true or
false, initial and phi a string or an object, and a null value counts
as not given.  alpha, t, tol, cl_tol and every entry of times and mu
must be finite and positive, steps and record_every at least 1; a value
out of range exits 1 before any computation.  Outputs are CSV and JSON files
under --out, written with repr-exact floats and fixed orderings so a
rerun of the same config is byte-identical.

Exit codes: 0 success, 1 validation error, 2 numerical-consistency
failure, 3 solver non-convergence.  Failures also emit a one-line JSON
object on stderr with fields "error", "message", "exit_code".
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from functools import lru_cache

import numpy as np

from .ball_model import BallModel, _abs_levels, valuation_table
from .fourier_ball import dft_direct, forward
from .function_space import _CSV_BLOCK, GridFunction, make_initial
from .kernels import (
    _ball_radial,
    ball_kernel_gridfunction,
    green_ball_integral,
    green_estimates_report,
)
from .linear_solver import evolve_series, resolvent_apply
from .pme_solver import (
    Nonlinearity,
    SolverError,
    crandall_liggett,
    pme_trajectory,
)
from .series import NonConvergenceError, _series_reader
from .vladimirov import (
    DEFAULT_MATRIX_CAP,
    ConsistencyError,
    apply_global_restriction,
    apply_hypersingular,
    apply_spectral,
    matrix_row,
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
    """Cells joined by "," and rows ended by "\\r\\n": the bytes csv.writer
    writes, since no ``_fmt`` of a cell here holds a delimiter, quote or
    line break."""
    with open(path, "w", newline="") as fh:
        for row in [header, *rows]:
            fh.write(",".join(_fmt(v) for v in row) + "\r\n")


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
    """``payload`` with sorted keys and an indent of 2, in one write: the
    bytes of ``json.dump`` and a newline, which writes once per chunk."""
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# -- options -------------------------------------------------------------
#
# Every option is read by one reader, whether it comes as a flag's string or
# as a config file's JSON value: ``reader(key, raw)`` converts ``raw``,
# checks its range and returns the value, or raises ValidationFailure.


def _number(kind, positive: bool = False):
    """Reader of an int or float; ``positive`` asks for a value > 0."""
    def read(key: str, raw):
        if isinstance(raw, bool) or not isinstance(raw, (str, int, float)):
            raise ValidationFailure(f"{key} must be a number, got {raw!r}")
        try:
            value = kind(raw)
        except (ValueError, OverflowError) as exc:
            raise ValidationFailure(f"{key} must be a number, got {raw!r}") from exc
        # int(2.9) is 2: a JSON number read as an int must be integral
        if kind is int and isinstance(raw, float) and value != raw:
            raise ValidationFailure(f"{key} must be an integer, got {raw!r}")
        # NaN passes every "<= 0" check of the tasks; inf runs solvers to their
        # caps.  An int past float range overflows wherever a task makes a
        # float of it, math.isfinite included.
        if kind is float and not math.isfinite(value):
            raise ValidationFailure(f"{key} must be finite, got {value}")
        if kind is int and abs(value) > sys.float_info.max:
            raise ValidationFailure(f"{key} must lie within float range, got {value}")
        if positive and value <= 0:
            raise ValidationFailure(
                f"{key} must be {'>= 1' if kind is int else 'positive'}, got {value}")
        return value
    return read


_integer = _number(int)
_count = _number(int, positive=True)
_positive = _number(float, positive=True)


def _positives(key: str, raw) -> list[float]:
    """A non-empty list of positive floats: a comma-separated string, a
    JSON list or one number."""
    if isinstance(raw, str):
        raw = [s for s in raw.split(",") if s.strip()]
    elif not isinstance(raw, list):
        raw = [raw]
    if not raw:
        raise ValidationFailure(f"{key} must hold at least one value")
    return [_positive(key, v) for v in raw]


def _text(key: str, raw) -> str:
    if not isinstance(raw, str):
        raise ValidationFailure(f"{key} must be a string, got {raw!r}")
    return raw


def _choice(*names: str):
    def read(key: str, raw) -> str:
        if raw not in names:
            raise ValidationFailure(f"unknown {key} {raw!r}")
        return raw
    return read


def _switch(key: str, raw) -> bool:
    """A switch: a flag without a value, or true/false in a config file."""
    if not isinstance(raw, bool):
        raise ValidationFailure(f"{key} must be true or false, got {raw!r}")
    return raw


def _initial(key: str, raw):
    """An initial-data spec: an object, a string holding a JSON object,
    or a kind name."""
    if isinstance(raw, str) and raw:
        try:
            spec = json.loads(raw)
        except json.JSONDecodeError:
            spec = None
        return spec if isinstance(spec, dict) else {"kind": raw}
    if not isinstance(raw, (str, dict)):
        raise ValidationFailure(f"{key} must be a string or an object, got {raw!r}")
    return raw


def _phi(key: str, raw) -> Nonlinearity:
    """A nonlinearity: "identity", "power:<m>", or an object with a kind."""
    try:
        if isinstance(raw, dict):
            kind = raw.get("kind")
            if kind == "power":
                return Nonlinearity.power(float(raw["exponent"]))
            if kind == "identity":
                return Nonlinearity.identity()
            if kind == "table":
                return Nonlinearity.table(raw["knots"])
            raise ValidationFailure(f"unknown phi kind {kind!r}")
        if raw == "identity":
            return Nonlinearity.identity()
        if isinstance(raw, str) and raw.startswith("power:"):
            return Nonlinearity.power(float(raw.split(":", 1)[1]))
        raise ValidationFailure(f"cannot parse phi spec {raw!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationFailure(f"bad phi spec {raw!r}: {exc}") from exc


def _load_config(task: str, args: argparse.Namespace) -> dict:
    """The task's options: each flag given, else its config value, read
    by the option's reader.  A null config value counts as not given."""
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
        unknown = [k for k in cfg if k not in OPTIONS or task not in OPTIONS[k][1]]
        if unknown:
            raise ValidationFailure(
                f"unknown config keys for task {task}: {sorted(unknown)}")
    flags = {k: v for k, v in vars(args).items() if k in OPTIONS and v is not None}
    merged = {"out": ".", "format": "csv"}
    for key, raw in {**cfg, **flags}.items():
        if raw is not None:
            merged[key] = OPTIONS[key][0](key, raw)
    return merged


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ValidationFailure(f"missing required parameter: {key}")
    return cfg[key]


def _model_from(cfg: dict) -> BallModel:
    return BallModel(_require(cfg, "p"), _require(cfg, "N"), _require(cfg, "M"))


def _parse_initial(cfg: dict, model: BallModel) -> GridFunction:
    spec = cfg.get("initial") or {"kind": "bump"}
    if spec.get("kind") == "random" and "seed" not in spec:
        spec = dict(spec, seed=cfg.get("seed", 0))
    try:
        return make_initial(model, spec)
    except (TypeError, ValueError, IndexError) as exc:
        raise ValidationFailure(f"bad initial spec {spec!r}: {exc}") from exc


# -- tasks ---------------------------------------------------------------


def _multiset_deviation(model: BallModel, alpha: float, want: np.ndarray) -> float:
    """Largest gap between the sorted eigenvalues and ``want``, the
    ``spectrum_multiset``."""
    return float(np.max(np.abs(np.sort(multiplier(model, alpha).eigenvalues) - want)))


def _row_dft_deviation(row: np.ndarray, want: np.ndarray) -> float:
    """Largest gap between the sorted DFT of the operator's first row,
    whose circulant matrix has the DFT of its row as its eigenvalues, and
    ``want``, the ``spectrum_multiset``, relative to max(|eigenvalue|, 1).
    The row is the difference-weight representation, so unlike
    ``multiplier`` it shares no evaluation with the closed form."""
    gap = float(np.max(np.abs(np.sort(np.fft.fft(row).real) - want)))
    return gap / max(float(np.max(np.abs(want))), 1.0)


def _task_spectrum(cfg: dict) -> int:
    """Eigenvalue table, optional dense matrix, two checks of the spectrum:
    the multiset of the symbol's eigenvalues and the DFT of the matrix row.

    Both columns of ``spectrum.csv`` take one value per valuation: the
    eigenvalue is ``operator_levels`` gathered through
    ``valuation_table``, and freq_abs is p**(M - v), 0.0 at k = 0, the
    ``_abs_levels`` that ``freq_abs_table`` gathers.  So
    the CSV formats one "freq_abs,eigenvalue" tail per valuation, L + 1
    of them, and writes row k as k and the tail of its valuation.  The
    matrix is circulant, A[i, j] = A[0, (j - i) mod S], so its dump
    formats row 0 (``matrix_row``) once and writes row i as its rotation by i.
    repr of a float holds no delimiter, quote or line break, so strings
    joined by "," and ended by "\\r\\n" are the bytes that ``_write_csv``
    writes.  ``--format json`` forms the same way one object body per
    valuation, its two floats encoded by ``json.dumps`` of their
    ``_json_cell``, and writes row k as that body and k: the bytes
    ``_write_table`` (``json.dumps`` with ``sort_keys`` and ``indent=2``
    of one object per row) writes.  Both formats are formed and written
    ``_CSV_BLOCK`` rows at a time.  A matrix dump past
    ``DEFAULT_MATRIX_CAP`` is refused before any of this.
    """
    model = _model_from(cfg)
    alpha = _require(cfg, "alpha")
    if cfg.get("dump_matrix") and model.S > DEFAULT_MATRIX_CAP:
        raise ValidationFailure(f"group order {model.S} exceeds the "
                                f"dense-matrix cap {DEFAULT_MATRIX_CAP}")
    want = spectrum_multiset(model, alpha)
    err = _multiset_deviation(model, alpha, want)
    row = matrix_row(model, alpha)
    dft_err = _row_dft_deviation(row, want)
    freqs = _abs_levels(model, model.M)
    levels = operator_levels(model, alpha)
    vt = valuation_table(model)
    blocks = ((start, vt[start:start + _CSV_BLOCK].tolist())
              for start in range(0, model.S, _CSV_BLOCK))
    if cfg["format"] == "csv":
        tails = [f"{f},{e}\r\n" for f, e in zip(_reprs(freqs), _reprs(levels))]
        with open(os.path.join(cfg["out"], "spectrum.csv"), "w", newline="") as fh:
            fh.write("k,freq_abs,eigenvalue\r\n")
            for start, vs in blocks:
                fh.write("".join([f"{k},{tails[v]}" for k, v in enumerate(vs, start)]))
    else:
        bodies = [f'    "eigenvalue": {json.dumps(_json_cell(e))},\n'
                  f'    "freq_abs": {json.dumps(_json_cell(f))},\n    "k": '
                  for f, e in zip(freqs.tolist(), levels.tolist())]
        # every row but row 0 opens with the separator, so blocks join with
        # no bytes between them; row 0 alone has the sentinel valuation L
        L = model.N + model.M
        bodies = ["\n  },\n  {\n" + body for body in bodies[:L]] + bodies[L:]
        with open(os.path.join(cfg["out"], "spectrum.json"), "w") as fh:
            fh.write("[\n  {\n")
            for start, vs in blocks:
                fh.write("".join([f"{bodies[v]}{k}" for k, v in enumerate(vs, start)]))
            fh.write("\n  }\n]\n")
    if cfg.get("dump_matrix"):
        row0 = _reprs(row)
        S = model.S
        with open(os.path.join(cfg["out"], "operator_matrix.csv"),
                  "w", newline="") as fh:
            for i in range(S):
                fh.write(",".join(row0[S - i:] + row0[:S - i]) + "\r\n")
    tol = cfg.get("tol", 1e-9)
    _write_json(os.path.join(cfg["out"], "spectrum_report.json"), {
        "p": model.p, "N": model.N, "M": model.M, "alpha": alpha,
        "size": model.S,
        "max_multiset_deviation": err,
        "max_row_dft_deviation": dft_err,
        "tolerance": tol,
    })
    if err >= tol:
        raise ConsistencyError(
            f"eigenvalue multiset deviates from the closed form by {err:.3e}")
    if dft_err >= tol:
        raise ConsistencyError(
            f"DFT of the operator's first row deviates from the closed form "
            f"by {dft_err:.3e} relative")
    return EXIT_OK


def _kernel_rows(p: int, N: int, alpha: float, times, m_lo: int):
    """Rows (m, |x|, t, character sum, series, relative gap) of the two
    ball-kernel routes at radii p**N .. p**m_lo and x = 0, and the worst gap.
    The series route is refused on its work budget before any radius is
    read, so a deep m_lo costs no memory per radius."""
    rows = []
    worst = 0.0
    for t in times:
        # one sweep and one sphere list per time; the sweep's last value
        # holds past its end and at x = 0
        sweep = [value for value, _ in _ball_radial(p, N, alpha, t)]
        series = _series_reader(p, N, alpha, t, m_lo, True)
        for m in itertools.chain(range(N, m_lo - 1, -1), [None]):
            a = sweep[-1 if m is None else min(N - m, len(sweep) - 1)]
            b = series(m)
            rel = abs(a - b) / max(abs(a), 1.0)
            worst = max(worst, rel)
            rows.append(("zero" if m is None else m,
                         0.0 if m is None else float(p) ** m, t, a, b, rel))
    return rows, worst


def _task_heat_kernel(cfg: dict) -> int:
    model = _model_from(cfg)
    alpha = _require(cfg, "alpha")
    p, N = model.p, model.N
    times = cfg.get("times", [0.1, 1.0, 10.0])
    m_lo = cfg.get("m_lo", N - 6)
    if m_lo > N:
        raise ValidationFailure(f"m_lo must be <= N = {N}")
    tol = cfg.get("tol", 1e-10)
    rows, worst = _kernel_rows(p, N, alpha, times, m_lo)
    _write_table(cfg, "heat_kernel",
                 ["m", "abs_x", "t", "z_char_sum", "z_series", "rel_diff"],
                 rows)
    _write_json(os.path.join(cfg["out"], "heat_kernel_report.json"), {
        "p": p, "N": N, "alpha": alpha, "times": times, "m_lo": m_lo,
        "worst_rel_diff": worst, "tolerance": tol,
    })
    if worst >= tol:
        raise ConsistencyError(
            f"ball-kernel evaluation routes disagree by {worst:.3e}")
    return EXIT_OK


def _task_green(cfg: dict) -> int:
    model = _model_from(cfg)
    alpha = _require(cfg, "alpha")
    p, N = model.p, model.N
    mus = cfg.get("mu", [1.0])
    # each mu's table is named by its "g" format, so two values with one
    # name would write one file twice
    names = [f"green_mu_{mu:g}" for mu in mus]
    if len(set(names)) < len(names):
        raise ValidationFailure(f"mu values {mus} give one table name twice: {names}")
    m_hi = cfg.get("m_hi", min(N, 0))
    m_lo = cfg.get("m_lo", min(-25, m_hi))
    summary = {"p": p, "N": N, "alpha": alpha, "tables": []}
    for mu, stem in zip(mus, names):
        rows = [(r["m"], r["abs_x"], r["K"], r["weight"], r["weighted"], r["ratio"])
                for r in green_estimates_report(p, N, alpha, mu, (m_lo, m_hi))]
        name = _write_table(cfg, stem, ["m", "abs_x", "K", "weight", "weighted", "ratio"],
                            rows)
        summary["tables"].append({
            "mu": mu, "file": name, "ball_integral": green_ball_integral(p, N, alpha, mu)})
    _write_json(os.path.join(cfg["out"], "green_report.json"), summary)
    return EXIT_OK


def _task_solve_linear(cfg: dict) -> int:
    model = _model_from(cfg)
    alpha = _require(cfg, "alpha")
    times = cfg.get("times", [0.1, 0.2, 0.5, 1.0, 2.0])
    u0 = _parse_initial(cfg, model)
    path = cfg.get("path", "spectral")
    tol = cfg.get("tol", 1e-9)
    snaps = evolve_series(u0, alpha, times, path)
    other = evolve_series(u0, alpha, times, "kernel" if path == "spectral" else "spectral")
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
        raise ConsistencyError(
            f"spectral and kernel paths disagree by {worst:.3e}")
    return EXIT_OK


def _task_solve_pme(cfg: dict) -> int:
    model = _model_from(cfg)
    alpha = _require(cfg, "alpha")
    t = cfg.get("t", 1.0)
    steps = cfg.get("steps", 64)
    phi = cfg.get("phi") or Nonlinearity.power(2.0)
    u0 = _parse_initial(cfg, model)
    record_every = cfg.get("record_every", 1)
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
    if "cl_tol" in cfg:
        _, report = crandall_liggett(u0, t, alpha, phi, tol=cfg["cl_tol"])
        payload["crandall_liggett"] = report.as_dict()
    _write_json(os.path.join(cfg["out"], "pme_report.json"), payload)
    return EXIT_OK


def _task_verify(cfg: dict) -> int:
    model = BallModel(cfg.get("p", 2), cfg.get("N", 0), cfg.get("M", 6))
    alpha = cfg.get("alpha", 1.0)
    # the oracles below are O(S**2) in time and the direct DFT in memory
    if model.S > DEFAULT_MATRIX_CAP:
        raise ValidationFailure(
            f"verify runs O(S**2) oracles; group order {model.S} exceeds "
            f"the cap {DEFAULT_MATRIX_CAP}")
    tol = cfg.get("tol", 1e-9)
    seed = cfg.get("seed", 0)
    p, N = model.p, model.N
    checks: list[tuple[str, float, float]] = []

    # the symbol's multiset and the DFT of the matrix row, on which the
    # spectrum task fails either way
    want = spectrum_multiset(model, alpha)
    checks.append(("spectrum multiset",
                   max(_multiset_deviation(model, alpha, want),
                       _row_dft_deviation(matrix_row(model, alpha), want)), tol))

    rng = np.random.default_rng(seed)
    u = GridFunction(model, rng.standard_normal(model.S))
    a = apply_spectral(u, alpha).values
    b = apply_hypersingular(u, alpha).values
    c = apply_global_restriction(u, alpha).values
    scale = max(float(np.max(np.abs(a))), 1.0)
    checks.append(("representation agreement",
                   max(float(np.max(np.abs(a - b))),
                       float(np.max(np.abs(a - c)))) / scale, tol))

    _, worst = _kernel_rows(p, N, alpha, (0.1, 1.0, 10.0), N - 3)
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
    checks.append(("Green kernel mean zero", abs(green_ball_integral(p, N, alpha, 1.0)),
                   max(tol, 1e-10)))

    fc = forward(u).coeffs * model.S
    dc = dft_direct(u.values, +1)
    checks.append(("FFT vs direct DFT",
                   float(np.max(np.abs(fc - dc)))
                   / max(float(np.max(np.abs(dc))), 1.0), 1e-12))

    g = GridFunction(model, 1.0 + np.abs(rng.standard_normal(model.S)))
    _, rows = pme_trajectory(g, 0.5, 1, alpha, Nonlinearity.power(2))
    checks.append(("implicit-step mass identity",
                   abs(rows[0]["mass_identity_residual"]), 1e-12))

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
        raise ConsistencyError(f"verification failed: {', '.join(failed)}")
    return EXIT_OK


TASKS = {
    "spectrum": _task_spectrum,
    "heat-kernel": _task_heat_kernel,
    "green": _task_green,
    "solve-linear": _task_solve_linear,
    "solve-pme": _task_solve_pme,
    "verify": _task_verify,
}


# key -> (reader, tasks that take it); the flag of key "m_lo" is --m-lo
_ALL = tuple(TASKS)
OPTIONS = {
    "out": (_text, _ALL),
    "seed": (_integer, _ALL),
    "tol": (_positive, _ALL),
    "format": (_choice("csv", "json"), _ALL),
    "p": (_integer, _ALL),
    "N": (_integer, _ALL),
    "M": (_integer, _ALL),
    "alpha": (_positive, _ALL),
    "dump_matrix": (_switch, ("spectrum",)),
    "times": (_positives, ("heat-kernel", "solve-linear")),
    "m_lo": (_integer, ("heat-kernel", "green")),
    "mu": (_positives, ("green",)),
    "m_hi": (_integer, ("green",)),
    "initial": (_initial, ("solve-linear", "solve-pme")),
    "dump_state": (_switch, ("solve-linear", "solve-pme")),
    "path": (_choice("spectral", "kernel"), ("solve-linear",)),
    "t": (_positive, ("solve-pme",)),
    "steps": (_count, ("solve-pme",)),
    "phi": (_phi, ("solve-pme",)),
    "cl_tol": (_positive, ("solve-pme",)),
    "record_every": (_count, ("solve-pme",)),
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
    """Every flag is a plain string, read later by its option's reader,
    or a switch.  ``_task_parsers`` maps each task to its subparser."""
    parser = _Parser(prog="padic-heat", description=__doc__)
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        sp = sub.add_parser(task)
        sp.add_argument("--config")
        for key, (read, tasks) in OPTIONS.items():
            if task in tasks:
                flag = "--" + key.replace("_", "-")
                if read is _switch:
                    sp.add_argument(flag, action="store_const", const=True)
                else:
                    sp.add_argument(flag)
    parser._task_parsers = sub.choices
    return parser


def _parse(argv: list[str]) -> tuple[str, argparse.Namespace]:
    """The task and its flags.  An ``argv`` that starts with a task name
    goes straight to that task's subparser, which is what the top-level
    parser would hand it, so its flags are classified once; any other
    (no task, an unknown one, a top-level flag) takes the full parse."""
    parser = _build_parser()
    if argv and argv[0] in TASKS:
        return argv[0], parser._task_parsers[argv[0]].parse_args(argv[1:])
    args = parser.parse_args(argv)
    return args.task, args


def main(argv=None) -> int:
    task = None
    try:
        task, args = _parse(sys.argv[1:] if argv is None else list(argv))
        cfg = _load_config(task, args)
        os.makedirs(cfg["out"], exist_ok=True)
        return TASKS[task](cfg)
    except OverflowError as exc:
        # the errno text alone names neither the task nor the cause; the
        # readers of the flags catch their own, so the task is known here
        return _emit_error("validation", f"{task}: a value passed float range: {exc}",
                           EXIT_VALIDATION)
    except (ValidationFailure, ValueError, OSError) as exc:
        return _emit_error("validation", str(exc), EXIT_VALIDATION)
    except ConsistencyError as exc:
        return _emit_error("consistency", str(exc), EXIT_CONSISTENCY)
    except (NonConvergenceError, SolverError) as exc:
        return _emit_error("non-convergence", str(exc), EXIT_NONCONVERGENCE)


if __name__ == "__main__":
    sys.exit(main())
