"""Linear heat flow on the ball: du/dt + (D - lambda)u = 0.

Two interchangeable propagation paths: the spectral path applies the
radial multiplier exp(-t*(m[k] - lambda)) through nested ball averages
(``fourier_ball.apply_radial``) and is the default; the kernel path
convolves with the ball heat kernel grid function, built from the
character sum of ``kernels.heat_kernel_ball``, by sphere sums
(``GridFunction.convolve_radial``) and is kept as an independent
check; both cost O(S).  Constants are fixed points, mass is conserved
(the k = 0 mode is untouched), and every nonzero mode decays, so
solutions relax to the mean at rate p**(alpha*(1-N)) - lambda.
"""

from __future__ import annotations

import numpy as np

from .ball_model import _check_nonnegative, _check_positive, _check_times
from .fourier_ball import apply_radial
from .function_space import GridFunction
from .kernels import ball_kernel_gridfunction
from .vladimirov import apply_spectral, operator_levels


def evolve(u0: GridFunction, alpha: float, t: float,
           path: str = "spectral") -> GridFunction:
    """Propagate initial data by time t."""
    _check_nonnegative("t", t)
    if t == 0.0:
        return GridFunction(u0.model, u0.values)
    if path == "spectral":
        e = operator_levels(u0.model, float(alpha))
        levels = np.exp(-t * (e - e[-1]))
        return GridFunction(u0.model, apply_radial(u0.model, levels, u0.values))
    if path == "kernel":
        return u0.convolve_radial(
            ball_kernel_gridfunction(u0.model, float(alpha), t))
    raise ValueError(f"unknown path {path!r}")


def evolve_series(u0: GridFunction, alpha: float, times,
                  path: str = "spectral") -> list[GridFunction]:
    """Solution snapshots at an increasing grid of positive times."""
    return [evolve(u0, alpha, t, path) for t in _check_times(times)]


def spectral_gap(model, alpha: float) -> float:
    """Decay rate of the slowest nonzero mode, p**(alpha*(1-N)) - lambda."""
    lam = operator_levels(model, float(alpha))[-1]
    return float(model.p) ** (alpha * (1 - model.N)) - lam


def pde_residual(u0: GridFunction, alpha: float, t: float) -> float:
    """Sup-norm residual of the equation at time t.

    du/dt is approximated by a centered difference with step
    dt = 1e-5 * max(t, 1), clamped to t/2 to keep t - dt positive; the
    spatial term is applied exactly.  Small residual certifies a
    classical solution of the flow at that instant.
    """
    _check_positive("t", t)
    dt = min(1e-5 * max(t, 1.0), t / 2)
    u_min = evolve(u0, alpha, t - dt)
    u_mid = evolve(u0, alpha, t)
    u_pls = evolve(u0, alpha, t + dt)
    du_dt = (u_pls.values - u_min.values) / (2 * dt)
    lam = operator_levels(u0.model, float(alpha))[-1]
    spatial = apply_spectral(u_mid, float(alpha)).values - lam * u_mid.values
    return float(np.max(np.abs(du_dt + spatial)))
