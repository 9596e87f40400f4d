"""Fractional diffusion on a p-adic ball.

A finite model of the ball carries exact p-adic arithmetic (valuations,
characters, Haar measure on cosets); on it the fractional operator of
order alpha is realized four equivalent ways, diagonalized by nested
ball averages (its symbol depends only on |xi|_p), and drives both the
linear heat semigroup and the nonlinear porous-medium flow via
backward-Euler resolvents.
"""

from .ball_model import BallModel, Constants, coefficient_ap, lambda_value
from .fourier_ball import SpectralFunction, dft_direct, forward, inverse
from .function_space import (
    GridFunction,
    ball_indicator,
    constant,
    make_initial,
    positive_bump,
    random_function,
)
from .kernels import (
    ball_kernel_gridfunction,
    global_kernel_ball_mass,
    global_kernel_mass,
    green_ball_integral,
    green_estimates_report,
    green_kernel,
    green_kernel_gridfunction,
    green_kernel_series,
    heat_kernel_ball,
    heat_kernel_global,
)
from .linear_solver import evolve, evolve_series, pde_residual, resolvent_apply, spectral_gap
from .pme_solver import (
    CLReport,
    DecayReport,
    ImplicitStepConfig,
    Nonlinearity,
    SolverError,
    crandall_liggett,
    evolve_pme,
    implicit_step,
    lgamma_decay_suite,
    pme_trajectory,
)
from .series import NonConvergenceError, c_series, heat_kernel_ball_series
from .vladimirov import (
    ConsistencyError,
    RieszDistribution,
    apply_global_restriction,
    apply_hypersingular,
    apply_spectral,
    build_matrix,
    convolve_riesz,
    domain_check,
    multiplier,
    riesz_pairing,
    spectrum_multiset,
    symbol_quadrature,
)

__version__ = "0.1.0"

__all__ = [
    "BallModel",
    "CLReport",
    "ConsistencyError",
    "Constants",
    "DecayReport",
    "GridFunction",
    "ImplicitStepConfig",
    "NonConvergenceError",
    "Nonlinearity",
    "RieszDistribution",
    "SolverError",
    "SpectralFunction",
    "apply_global_restriction",
    "apply_hypersingular",
    "apply_spectral",
    "ball_indicator",
    "ball_kernel_gridfunction",
    "build_matrix",
    "c_series",
    "coefficient_ap",
    "constant",
    "convolve_riesz",
    "crandall_liggett",
    "dft_direct",
    "domain_check",
    "evolve",
    "evolve_pme",
    "evolve_series",
    "forward",
    "global_kernel_ball_mass",
    "global_kernel_mass",
    "green_ball_integral",
    "green_estimates_report",
    "green_kernel",
    "green_kernel_gridfunction",
    "green_kernel_series",
    "heat_kernel_ball",
    "heat_kernel_ball_series",
    "heat_kernel_global",
    "implicit_step",
    "inverse",
    "lambda_value",
    "lgamma_decay_suite",
    "make_initial",
    "multiplier",
    "pde_residual",
    "pme_trajectory",
    "positive_bump",
    "random_function",
    "resolvent_apply",
    "riesz_pairing",
    "spectral_gap",
    "spectrum_multiset",
    "symbol_quadrature",
]
