import inspect

import padic_heat

# The parameter names of every public name, so that a new parameter,
# keyword or field of the public API is an edit of this table.  None marks
# an exception class that keeps Exception's own constructor.
PARAMETERS = {
    "BallModel": ("p", "N", "M"),
    "CLReport": ("step_counts", "l1_differences", "ratios", "converged"),
    "ConsistencyError": None,
    "Constants": ("p", "alpha", "N"),
    "DecayReport": ("gammas", "times", "norms", "violations"),
    "GridFunction": ("model", "values"),
    "ImplicitStepConfig": ("newton_tol", "max_newton", "max_halvings"),
    "NonConvergenceError": None,
    "Nonlinearity": ("kind", "exponent", "knots_x", "knots_y"),
    "RieszDistribution": ("model", "alpha", "sign"),
    "SolverError": ("message", "residual"),
    "SpectralFunction": ("model", "coeffs"),
    "apply_global_restriction": ("u", "alpha"),
    "apply_hypersingular": ("u", "alpha"),
    "apply_spectral": ("u", "alpha"),
    "ball_indicator": ("model", "center", "radius_exp"),
    "ball_kernel_gridfunction": ("model", "alpha", "t"),
    "build_matrix": ("model", "alpha"),
    "c_series": ("p", "N", "alpha", "t"),
    "coefficient_ap": ("p", "alpha"),
    "constant": ("model", "c"),
    "convolve_riesz": ("u", "alpha"),
    "crandall_liggett": ("u0", "t", "alpha", "phi", "tol", "k_cap", "config"),
    "dft_direct": ("values", "sign"),
    "domain_check": ("u", "alpha", "levels", "base_model"),
    "evolve": ("u0", "alpha", "t", "path"),
    "evolve_pme": ("u0", "t", "k", "alpha", "phi", "config"),
    "evolve_series": ("u0", "alpha", "times", "path"),
    "forward": ("u",),
    "global_kernel_ball_mass": ("p", "N", "alpha", "t"),
    "global_kernel_mass": ("p", "alpha", "t"),
    "green_ball_integral": ("p", "N", "alpha", "mu"),
    "green_estimates_report": ("p", "N", "alpha", "mu", "m_range"),
    "green_kernel": ("p", "N", "alpha", "mu", "m"),
    "green_kernel_gridfunction": ("model", "alpha", "mu"),
    "green_kernel_series": ("p", "N", "alpha", "mu", "m"),
    "heat_kernel_ball": ("p", "N", "alpha", "t", "m"),
    "heat_kernel_ball_series": ("p", "N", "alpha", "t", "m"),
    "heat_kernel_global": ("p", "alpha", "t", "m", "eps_tail"),
    "implicit_step": ("g", "h", "alpha", "phi", "config"),
    "inverse": ("f",),
    "lambda_value": ("p", "alpha", "N"),
    "lgamma_decay_suite": ("u0", "times", "gammas", "alpha", "phi", "config",
        "steps_per_interval", "slack"),
    "make_initial": ("model", "spec"),
    "multiplier": ("model", "alpha"),
    "pde_residual": ("u0", "alpha", "t"),
    "pme_trajectory": ("u0", "t", "k", "alpha", "phi", "config", "record_every"),
    "positive_bump": ("model", "center", "radius_exp"),
    "random_function": ("model", "seed"),
    "resolvent_apply": ("u", "alpha", "mu", "path"),
    "riesz_pairing": ("dist", "phi"),
    "spectral_gap": ("model", "alpha"),
    "spectrum_multiset": ("model", "alpha"),
    "symbol_quadrature": ("model", "alpha", "k"),
}


def _parameters(obj):
    try:
        return tuple(inspect.signature(obj).parameters)
    except ValueError:  # no signature of its own
        return None


def test_public_parameter_names_are_pinned():
    got = {name: _parameters(getattr(padic_heat, name)) for name in padic_heat.__all__}
    assert got == PARAMETERS
