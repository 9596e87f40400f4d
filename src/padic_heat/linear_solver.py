"""Linear heat flow on the ball, du/dt + (D - lambda)u = 0, and its
resolvent (D - lambda + mu)^(-1), the Laplace transform of the semigroup.

Both apply one radial family by two interchangeable paths: the spectral
path applies the radial multiplier, exp(-t*(m[k] - lambda)) or
1/(m[k] - lambda + mu), through nested ball averages
(``fourier_ball.apply_radial``) and is the default; the kernel path
convolves with the ball heat kernel or the Green function, whose L + 1
sphere values are read off the radial sweeps of ``kernels``, by sphere
sums (``GridFunction.convolve_radial``) and is kept as an independent
check; both cost O(S).  This is the one library module where the two
routes meet: ``kernels`` runs no ladder and ``fourier_ball`` and
``vladimirov`` no kernel sweep, so the two paths share no arithmetic.
Only the level values depend on t, so ``evolve_series`` runs the chosen
path's t-free half once per call (the ladder's up-pass, or the class
sums) and then one down-pass or Horner pass per time.  Constants are
fixed points, mass is conserved (the k = 0 mode is untouched), and
every nonzero mode decays, so solutions relax to the mean at rate
p**(alpha*(1-N)) - lambda.
"""

from __future__ import annotations

import numpy as np

from .ball_model import _check_nonnegative, _check_positive, _check_times
from .fourier_ball import _ladder_apply, _ladder_averages, apply_radial
from .function_space import GridFunction, _class_sums, _radial_convolution
from .kernels import _ball_radial, _green_radial, _sweep_levels
from .vladimirov import apply_spectral, operator_levels


def evolve(u0: GridFunction, alpha: float, t: float,
           path: str = "spectral") -> GridFunction:
    """Propagate initial data by time t: the one-time ``evolve_series``,
    or a copy of ``u0`` at t = 0, which refuses an unknown path and then
    an alpha as ``evolve_series`` does."""
    _check_nonnegative("t", t)
    if t == 0.0:
        if path not in ("spectral", "kernel"):
            raise ValueError(f"unknown path {path!r}")
        _check_positive("alpha", float(alpha))
        return GridFunction(u0.model, u0.values)
    return evolve_series(u0, alpha, [t], path)[0]


def evolve_series(u0: GridFunction, alpha: float, times,
                  path: str = "spectral") -> list[GridFunction]:
    """Solution snapshots at an increasing grid of positive times.

    The spectral path takes the ladder averages of ``u0`` once and applies
    exp(-t*(e - lambda)) to them per time; the kernel path takes the
    class sums of ``u0`` once and convolves them per time with the sweep's
    levels of the ball heat kernel at t.  Each snapshot has the bits of
    its time's own ``apply_radial`` or ``convolve_radial``.
    """
    ts = _check_times(times)
    model, alpha = u0.model, float(alpha)
    if path == "spectral":
        e = operator_levels(model, alpha)
        ladders = _ladder_averages(model, u0.values)
        return [GridFunction(model, _ladder_apply(model, np.exp(-t * (e - e[-1])), ladders))
                for t in ts]
    if path == "kernel":
        _check_positive("alpha", alpha)
        sums = _class_sums(model, u0.values)
        sweeps = (_ball_radial(model.p, model.N, alpha, t) for t in ts)
        return [GridFunction(model, _radial_convolution(model, _sweep_levels(model, s), sums))
                for s in sweeps]
    raise ValueError(f"unknown path {path!r}")


def resolvent_apply(u: GridFunction, alpha: float, mu: float,
                    path: str = "spectral") -> GridFunction:
    """Apply (D - lambda + mu)^(-1) to a grid function.

    path="spectral" applies the radial multiplier 1/(m[k] - lambda + mu)
    through nested ball averages; path="kernel" convolves the class sums
    of u with the L + 1 levels of the Green sweep
    ``kernels._green_radial``, as the kernel path of ``evolve_series``
    does with the heat kernel's, and adds in place the rank-one piece
    p**(-N)/mu * integral(u) that the kernel (mean-zero by construction)
    cannot carry.  Neither path forms an S-array kernel.
    """
    _check_positive("mu", mu)
    model = u.model
    if path == "spectral":
        e = operator_levels(model, float(alpha))
        levels = 1.0 / (e - e[-1] + mu)
        return GridFunction(model, apply_radial(model, levels, u.values))
    if path == "kernel":
        levels = _sweep_levels(model, _green_radial(model.p, model.N, float(alpha), float(mu)))
        conv = _radial_convolution(model, levels, _class_sums(model, u.values))
        conv += float(model.p) ** (-model.N) / mu * u.integral()
        return GridFunction(model, conv)
    raise ValueError(f"unknown path {path!r}")


def spectral_gap(model, alpha: float) -> float:
    """Decay rate of the slowest nonzero mode, p**(alpha*(1-N)) - lambda."""
    lam = operator_levels(model, float(alpha))[-1]
    return float(model.p) ** (alpha * (1 - model.N)) - lam


def pde_residual(u0: GridFunction, alpha: float, t: float) -> float:
    """Sup-norm residual of the equation at time t.

    du/dt is approximated by a centered difference with step
    dt = 1e-5 * max(t, 1), clamped to t/2 to keep t - dt positive; the
    three evolutions are one ``evolve_series`` call, and the spatial term
    is applied exactly.  A t whose dt rounds to 0 (the least subnormal)
    is refused.  Small residual certifies a classical solution of the
    flow at that instant.
    """
    _check_positive("t", t)
    dt = min(1e-5 * max(t, 1.0), t / 2)
    if dt == 0.0:
        raise ValueError(f"t is too small for a centred difference, got {t}")
    u_min, u_mid, u_pls = evolve_series(u0, alpha, [t - dt, t, t + dt])
    du_dt = (u_pls.values - u_min.values) / (2 * dt)
    lam = operator_levels(u0.model, float(alpha))[-1]
    spatial = apply_spectral(u_mid, float(alpha)).values - lam * u_mid.values
    return float(np.max(np.abs(du_dt + spatial)))
