"""In-memory span tracer for the benchmark's traced run.

Each public function of ``padic_heat`` is wrapped where an importing
module binds it (``pme_solver.forward``, ``cli.resolvent_apply``, ...),
not only where it is defined, because callers look names up in their
own module.  A call records one span: name, start, end, parent span,
unit id and problem size S.  Spans stay in memory and are written out
once at the end.  A target that no longer exists is listed as missing
and its layer reports 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import time

P = "padic_heat."

# (module, attribute in that module, span name).  The span name is the
# defining module and function, whatever module the binding lives in.
TARGETS = [
    (P + "fourier_ball", "forward", "fourier_ball.forward"),
    (P + "fourier_ball", "inverse", "fourier_ball.inverse"),
    (P + "fourier_ball", "apply_multiplier", "fourier_ball.apply_multiplier"),
    (P + "pme_solver", "forward", "fourier_ball.forward"),
    (P + "pme_solver", "inverse", "fourier_ball.inverse"),
    (P + "linear_solver", "forward", "fourier_ball.forward"),
    (P + "linear_solver", "inverse", "fourier_ball.inverse"),
    (P + "kernels", "inverse", "fourier_ball.inverse"),
    (P + "vladimirov", "apply_multiplier", "fourier_ball.apply_multiplier"),
    (P + "cli", "forward", "fourier_ball.forward"),
    (P + "vladimirov", "apply_spectral", "vladimirov.apply_spectral"),
    (P + "pme_solver", "apply_spectral", "vladimirov.apply_spectral"),
    (P + "cli", "apply_spectral", "vladimirov.apply_spectral"),
    (P + "vladimirov", "multiplier", "vladimirov.multiplier"),
    (P + "pme_solver", "multiplier", "vladimirov.multiplier"),
    (P + "linear_solver", "multiplier", "vladimirov.multiplier"),
    (P + "kernels", "multiplier", "vladimirov.multiplier"),
    (P + "cli", "multiplier", "vladimirov.multiplier"),
    (P + "pme_solver", "build_matrix", "vladimirov.build_matrix"),
    (P + "cli", "build_matrix", "vladimirov.build_matrix"),
    (P + "ball_model", "valuation_table", "ball_model.valuation_table"),
    (P + "ball_model", "point_abs_table", "ball_model.point_abs_table"),
    (P + "ball_model", "freq_abs_table", "ball_model.freq_abs_table"),
    (P + "vladimirov", "valuation_table", "ball_model.valuation_table"),
    (P + "vladimirov", "point_abs_table", "ball_model.point_abs_table"),
    (P + "vladimirov", "freq_abs_table", "ball_model.freq_abs_table"),
    (P + "function_space", "valuation_table", "ball_model.valuation_table"),
    (P + "kernels", "valuation_table", "ball_model.valuation_table"),
    (P + "function_space", "GridFunction.convolve", "function_space.convolve"),
    (P + "kernels", "ball_kernel_gridfunction", "kernels.ball_kernel_gridfunction"),
    (P + "kernels", "green_kernel_gridfunction", "kernels.green_kernel_gridfunction"),
    (P + "linear_solver", "ball_kernel_gridfunction", "kernels.ball_kernel_gridfunction"),
    (P + "cli", "ball_kernel_gridfunction", "kernels.ball_kernel_gridfunction"),
    (P + "kernels", "resolvent_apply", "kernels.resolvent_apply"),
    (P + "cli", "resolvent_apply", "kernels.resolvent_apply"),
    (P + "kernels", "heat_kernel_ball", "kernels.heat_kernel_ball"),
    (P + "kernels", "heat_kernel_ball_series", "kernels.heat_kernel_ball_series"),
    (P + "kernels", "c_series", "kernels.c_series"),
    (P + "kernels", "green_kernel", "kernels.green_kernel"),
    (P + "kernels", "green_kernel_series", "kernels.green_kernel_series"),
    (P + "cli", "heat_kernel_ball", "kernels.heat_kernel_ball"),
    (P + "cli", "heat_kernel_ball_series", "kernels.heat_kernel_ball_series"),
    (P + "cli", "green_kernel", "kernels.green_kernel"),
    (P + "linear_solver", "evolve", "linear_solver.evolve"),
    (P + "cli", "evolve", "linear_solver.evolve"),
    (P + "pme_solver", "pme_trajectory", "pme_solver.pme_trajectory"),
    (P + "pme_solver", "implicit_step", "pme_solver.implicit_step"),
    (P + "cli", "pme_trajectory", "pme_solver.pme_trajectory"),
    (P + "cli", "implicit_step", "pme_solver.implicit_step"),
]

# per-layer metric prefix -> span names whose time and calls it sums
LAYERS = {
    "fourier_ball.transform": ("fourier_ball.forward", "fourier_ball.inverse",
                               "fourier_ball.apply_multiplier"),
    "vladimirov.apply": ("vladimirov.apply_spectral",),
    "vladimirov.build_matrix": ("vladimirov.build_matrix",),
    "vladimirov.multiplier": ("vladimirov.multiplier",),
    "ball_model.tables": ("ball_model.valuation_table", "ball_model.point_abs_table",
                          "ball_model.freq_abs_table"),
    "function_space.convolve": ("function_space.convolve",),
    "kernels.gridfunction": ("kernels.ball_kernel_gridfunction",
                             "kernels.green_kernel_gridfunction"),
    "kernels.resolvent": ("kernels.resolvent_apply",),
    "kernels.series": ("kernels.heat_kernel_ball", "kernels.heat_kernel_ball_series",
                       "kernels.c_series", "kernels.green_kernel",
                       "kernels.green_kernel_series"),
    "linear_solver.evolve": ("linear_solver.evolve",),
    "pme_solver.step": ("pme_solver.pme_trajectory", "pme_solver.implicit_step"),
}

# apply_multiplier runs one forward and one inverse transform
TRANSFORMS_PER_CALL = {"fourier_ball.apply_multiplier": 2}


def _size(args) -> int:
    """S of the first argument that is a model or lives on one; 0 if none."""
    for a in args:
        model = getattr(a, "model", a)
        S = getattr(model, "S", None)
        if isinstance(S, int):
            return S
    return 0


def _newton_iters(result) -> int:
    """Newton iterations in the rows that ``pme_trajectory`` returns."""
    try:
        return sum(int(row["newton_iters"]) for row in result[1])
    except (IndexError, KeyError, TypeError):
        return 0


class Tracer:
    """Wraps the targets on ``install`` and restores them on ``uninstall``."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, unit id, S, newton iters]
        self.spans: list[list] = []
        self.unit = "setup"
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, name in targets:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._installed.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed.clear()

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count_newton = name == "pme_solver.pme_trajectory"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.unit, _size(args), 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count_newton:
                span[6] = _newton_iters(result)
            return result

        return traced


def _has_ancestor(spans, i, names) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans) -> dict[str, float]:
    """Busy time and counts per layer, from the spans of one traced job."""
    out: dict[str, float] = {}
    for layer, names in LAYERS.items():
        # nested spans of one layer count once
        out[layer + "_s"] = sum(s[2] - s[1] for i, s in enumerate(spans)
                                if s[0] in names and not _has_ancestor(spans, i, names))
        out[layer + "_calls"] = sum(
            TRANSFORMS_PER_CALL.get(s[0], 1) for s in spans if s[0] in names)

    transforms = LAYERS["fourier_ball.transform"]
    out["fourier_ball.transform_points"] = sum(
        TRANSFORMS_PER_CALL.get(s[0], 1) * s[5] for s in spans if s[0] in transforms)
    # each radix-p pass reads and writes S complex128 values: 2*16*S bytes
    out["fourier_ball.transform_bytes_computed"] = sum(
        TRANSFORMS_PER_CALL.get(s[0], 1) * 32 * s[5] * _passes(s[5])
        for s in spans if s[0] in transforms)
    out["function_space.convolve_pairs"] = sum(
        s[5] ** 2 for s in spans if s[0] in LAYERS["function_space.convolve"])

    steps = LAYERS["pme_solver.step"]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    out["pme_solver.step_self_s"] = sum(
        s[2] - s[1] - child_time[i] for i, s in enumerate(spans) if s[0] in steps)
    newton = sum(s[6] for s in spans)
    trajectory = ("pme_solver.pme_trajectory",)
    step_transforms = sum(
        TRANSFORMS_PER_CALL.get(s[0], 1) for i, s in enumerate(spans)
        if s[0] in transforms and _has_ancestor(spans, i, trajectory))
    out["pme_solver.newton_iters"] = newton
    out["pme_solver.transforms_per_newton"] = step_transforms / newton if newton else 0.0
    return out


def _passes(S: int) -> int:
    """Radix-p passes of a transform of length S = p**L, i.e. L (at least 1)."""
    p = 2
    while S > 1 and S % p:
        p += 1
    passes = 0
    while S > 1:
        S //= p
        passes += 1
    return max(passes, 1)
