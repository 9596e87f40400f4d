import ast
import inspect
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padic_heat import (
    BallModel,
    GridFunction,
    ImplicitStepConfig,
    Nonlinearity,
    SolverError,
    ball_indicator,
    constant,
    crandall_liggett,
    evolve,
    evolve_pme,
    evolve_series,
    implicit_step,
    lambda_value,
    lgamma_decay_suite,
    pme_trajectory,
    positive_bump,
    random_function,
    resolvent_apply,
)
from padic_heat import fourier_ball, pme_solver, vladimirov
from padic_heat.ball_model import radial_levels
from padic_heat.fourier_ball import apply_radial
from padic_heat.pme_solver import _implicit_step_info, _tree_jacobian_solve
from padic_heat.vladimirov import build_matrix, multiplier, operator_levels
from tests.conftest import alarm


# -- nonlinearity -------------------------------------------------------


def test_power_nonlinearity_round_trip():
    phi = Nonlinearity.power(2.0)
    u = np.array([-2.0, -0.5, 0.0, 0.25, 3.0])
    assert np.max(np.abs(phi.value(u) - np.sign(u) * u ** 2)) < 1e-15
    assert np.max(np.abs(phi.derivative(u) - 2.0 * np.abs(u))) < 1e-15
    with pytest.raises(ValueError):
        Nonlinearity.power(0.5)


@pytest.mark.parametrize("m", [1.0, 1.5, 2.0, 3.0])
def test_power_nonlinearity_is_bit_identical_to_its_formula(m):
    # value and derivative are formed in place; every bit, the sign of
    # zero included, equals sign(u)*|u|**m and m*|u|**(m-1)
    tiny = np.finfo(np.float64).smallest_subnormal
    u = np.concatenate([
        [0.0, -0.0, tiny, -tiny, 3 * tiny, -1e-310, 1e-310, 1e-200, -1e-200,
         1e300, -1e300, 1.0, -1.0, 0.5, -2.5],
        np.random.default_rng(0).standard_normal(64),
    ])
    phi = Nonlinearity.power(m)
    with np.errstate(over="ignore"):
        want_value = np.sign(u) * np.abs(u) ** m
        want_derivative = np.ones_like(u) if m == 1.0 else m * np.abs(u) ** (m - 1.0)
        value, derivative = phi.value(u), phi.derivative(u)
    assert np.array_equal(value.view(np.int64), want_value.view(np.int64))
    assert np.array_equal(derivative.view(np.int64), want_derivative.view(np.int64))


@pytest.mark.parametrize("m", [math.nan, math.inf])
def test_power_nonlinearity_rejects_non_finite_exponents(m):
    with pytest.raises(ValueError, match="finite"):
        Nonlinearity.power(m)


def test_identity_nonlinearity():
    phi = Nonlinearity.identity()
    u = np.linspace(-1, 1, 7)
    assert np.array_equal(phi.value(u), u)
    assert np.all(phi.derivative(u) == 1.0)


def test_identity_is_the_power_1():
    u = np.array([0.0, -0.0, 1e-310, -2.5, 1e300, np.inf, -np.inf, np.nan])
    power = Nonlinearity.power(1.0)
    assert Nonlinearity.identity() == power
    for phi in (Nonlinearity.identity(), Nonlinearity("identity")):
        assert np.array_equal(phi.value(u).view(np.int64), power.value(u).view(np.int64))
        assert np.array_equal(phi.derivative(u).view(np.int64), np.ones_like(u).view(np.int64))


def test_table_nonlinearity():
    phi = Nonlinearity.table([(-1.0, -2.0), (0.0, 0.0), (1.0, 0.5), (2.0, 3.0)])
    # exact at the knots
    assert np.max(np.abs(phi.value(np.array([-1.0, 0.0, 1.0, 2.0]))
                         - np.array([-2.0, 0.0, 0.5, 3.0]))) < 1e-15
    # piecewise-linear between, end-slope beyond
    assert abs(phi.value(np.array([0.5]))[0] - 0.25) < 1e-15
    assert abs(phi.value(np.array([3.0]))[0] - 5.5) < 1e-15
    assert abs(phi.value(np.array([-2.0]))[0] - (-4.0)) < 1e-15
    u = np.array([-1.7, -0.3, 0.4, 1.2, 2.9])
    # right-sided derivative at a kink
    assert abs(phi.derivative(np.array([1.0]))[0] - 2.5) < 1e-15
    assert np.array_equal(phi.derivative(u), [2.0, 2.0, 0.5, 2.5, 2.5])
    # value and slope read one segment index; every bit, NaN and the sign
    # of zero included, equals np.interp with end-slope extrapolation and
    # the slope of the segment searchsorted finds, clipped to the table
    tables = [
        [(-1.0, -2.0), (0.0, 0.0), (1.0, 0.5), (2.0, 3.0)],
        [(-2.0, -3.0), (-1.0, -1.0), (0.0, 0.0), (0.5, 0.2), (1.0, 2.0), (3.0, 4.0)],
        [(x, x * x) for x in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)] + [(-1.0, -1.0)],
        [(0.0, 0.0), (1e-3, 7.0)],
    ]
    rng = np.random.default_rng(35)
    for knots in tables:
        phi = Nonlinearity.table(knots)
        xs, ys = np.array(phi.knots_x), np.array(phi.knots_y)
        u = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300],
            xs, np.nextafter(xs, np.inf), np.nextafter(xs, -np.inf),
            rng.uniform(xs[0] - 2.0, xs[-1] + 2.0, 4000),
            10.0 * rng.standard_normal(1000),
        ])
        slopes = np.diff(ys) / np.diff(xs)
        with np.errstate(over="ignore", invalid="ignore"):
            want_value = np.interp(u, xs, ys)
            want_value = np.where(u < xs[0], ys[0] + slopes[0] * (u - xs[0]), want_value)
            want_value = np.where(u > xs[-1], ys[-1] + slopes[-1] * (u - xs[-1]), want_value)
            value = phi.value(u)
        want_slope = slopes[np.clip(np.searchsorted(xs, u, side="right") - 1,
                                    0, len(xs) - 2)]
        assert np.array_equal(value.view(np.int64), want_value.view(np.int64))
        assert np.array_equal(phi.derivative(u).view(np.int64), want_slope.view(np.int64))


def test_table_validation():
    with pytest.raises(ValueError):
        Nonlinearity.table([(0.0, 0.0)])
    with pytest.raises(ValueError):
        Nonlinearity.table([(0.0, 0.0), (0.0, 1.0)])
    with pytest.raises(ValueError):
        Nonlinearity.table([(0.0, 0.0), (1.0, -1.0)])
    with pytest.raises(ValueError):
        Nonlinearity.table([(-1.0, -1.0), (1.0, 1.0)])  # misses (0, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("coordinate", [0, 1])
def test_table_rejects_non_finite_knots(bad, coordinate):
    # JSON reads NaN and Infinity; such a knot passed the order checks
    # (NaN compares false) and ended the first step in SolverError
    for knot in ([2.0, 1.0], [-2.0, -1.0]):
        knot[coordinate] = bad
        with pytest.raises(ValueError, match="finite"):
            Nonlinearity.table([(-1.0, -1.0), (0.0, 0.0), (1.0, 0.5), tuple(knot)])


def _general_power_value(u, m):
    # the m = 2 path's reference: copysign(|s|**m, s), s = u + 0.0
    s = u + 0.0
    out = np.abs(s)
    out **= m
    return np.copysign(out, s, out=out)


def _general_power_derivative(u, m):
    out = np.abs(u)
    out **= m - 1.0
    out *= m
    return out


def _same_bits(a, b):
    # every bit equal, except that a NaN only has to stay a NaN
    nan = np.isnan(b)
    return (np.array_equal(np.isnan(a), nan)
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


def test_square_nonlinearity_is_bit_identical_to_the_general_power_path():
    # Phi = u**2 forms s*|s| and skips the derivative's **= 1.0: both are
    # the general formulas' bits on +-0.0, subnormals, negatives, infs
    # and NaN
    tiny = np.finfo(np.float64).smallest_subnormal
    rng = np.random.default_rng(12)
    u = np.concatenate([
        [0.0, -0.0, tiny, -tiny, 7 * tiny, -1e-310, 1e-160, -1e-160, 1e200,
         -1e200, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0, -2.5],
        rng.standard_normal(4000) * 10.0 ** rng.uniform(-200, 150, 4000),
    ])
    phi = Nonlinearity.power(2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _same_bits(phi.value(u), _general_power_value(u, 2.0))
        assert _same_bits(phi.derivative(u), _general_power_derivative(u, 2.0))
        # the other exponents keep the general path
        for m in (1.5, 3.0):
            assert _same_bits(Nonlinearity.power(m).value(u), _general_power_value(u, m))
            assert _same_bits(Nonlinearity.power(m).derivative(u),
                              _general_power_derivative(u, m))


# -- single implicit step ----------------------------------------------


def test_identity_step_matches_linear_resolvent(model_alpha):
    # v + h*D*v = g is the shifted resolvent at mu = 1/h + lambda
    model, alpha = model_alpha
    lam = lambda_value(model.p, alpha, model.N)
    g = random_function(model, 3)
    for h in (0.1, 1.0):
        v = implicit_step(g, h, alpha, Nonlinearity.identity())
        want = resolvent_apply(g, alpha, 1.0 / h + lam) * (1.0 / h)
        scale = max(float(np.max(np.abs(want.values))), 1.0)
        assert np.max(np.abs(v.values - want.values)) < 1e-11 * scale


def test_scalar_quadratic_step_pin():
    # constant data stays constant, so one step solves v + h*lam*v**2 = 1
    model = BallModel(2, 0, 6)
    lam = lambda_value(2, 1.0, 0)
    v = implicit_step(constant(model, 1.0), 1.0, 1.0, Nonlinearity.power(2.0))
    root = (-1.0 + math.sqrt(1.0 + 4.0 * lam)) / (2.0 * lam)
    assert abs(root - 0.6861406616345072) < 1e-15
    assert np.max(np.abs(v.values - root)) < 1e-12


def test_newton_jacobian_matches_finite_differences():
    model = BallModel(2, 0, 5)
    alpha, h = 1.0, 0.25
    phi = Nonlinearity.power(2.0)
    u = positive_bump(model, 1, -1)
    g = u.values
    Dmat = build_matrix(model, alpha)

    def F(v):
        return v + h * (Dmat @ phi.value(v)) - g

    v0 = g * 0.9
    J = np.eye(model.S) + h * Dmat * phi.derivative(v0)[None, :]
    eps = 1e-6
    for j in range(model.S):
        e = np.zeros(model.S)
        e[j] = eps
        col = (F(v0 + e) - F(v0 - e)) / (2 * eps)
        assert np.max(np.abs(J[:, j] - col)) < 1e-6


def test_step_preserves_order_and_positivity(model_alpha):
    model, alpha = model_alpha
    phi = Nonlinearity.power(2.0)
    lo = ball_indicator(model, 0, min(0, model.N)) * 0.5
    hi = lo + constant(model, 0.75)
    for h in (0.125, 1.0):
        lo_next = implicit_step(lo, h, alpha, phi)
        hi_next = implicit_step(hi, h, alpha, phi)
        assert np.min(lo_next.values) > -1e-12
        assert np.max(lo_next.values - hi_next.values) < 1e-10


def test_step_is_l1_contraction(model_alpha):
    model, alpha = model_alpha
    phi = Nonlinearity.power(2.0)
    u = positive_bump(model, 0, min(0, model.N))
    v = positive_bump(model, 1, min(0, model.N)) * 1.3
    d0 = (u - v).lp_norm(1)
    for h in (0.25, 2.0):
        d1 = (implicit_step(u, h, alpha, phi) - implicit_step(v, h, alpha, phi)).lp_norm(1)
        assert d1 <= d0 + 1e-10


def test_step_mass_identity(model_alpha):
    # mass_new - mass_old = -h*lambda*integral(Phi(u_new)), exactly
    model, alpha = model_alpha
    lam = lambda_value(model.p, alpha, model.N)
    phi = Nonlinearity.power(2.0)
    u = positive_bump(model, 2, min(0, model.N))
    h = 0.5
    v = implicit_step(u, h, alpha, phi)
    phi_mass = GridFunction(model, phi.value(v.values)).integral()
    assert abs(v.integral() - u.integral() + h * lam * phi_mass) < 1e-12


_MASS_PHIS = {
    "identity": Nonlinearity.identity(),
    "power:2": Nonlinearity.power(2.0),
    "power:3": Nonlinearity.power(3.0),
    "table": Nonlinearity.table([(-1.0, -2.0), (0.0, 0.0), (0.5, 0.25), (2.0, 3.0)]),
}


@st.composite
def _mass_steps(draw):
    """(g, h, alpha, phi): S = 1 and Phi'(0) = 0 on vanishing data included."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    N = draw(st.sampled_from([-2, -1, 0, 1]))
    L = draw(st.sampled_from(range(_MAX_DEPTH[p] + 1)))
    model = BallModel(p, N, L - N)
    alpha = draw(st.one_of(st.just(1.0), st.floats(0.3, 2.4)))
    h = 10.0 ** draw(st.floats(-4.0, 1.0))
    phi = _MASS_PHIS[draw(st.sampled_from(sorted(_MASS_PHIS)))]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    data = draw(st.sampled_from(["positive", "signed", "vanishing"]))
    if data == "positive":
        vals = 1.0 + 0.25 * rng.random(model.S)
    elif data == "signed":
        vals = rng.standard_normal(model.S)
    else:
        # zero off a random sub-ball, so power:3 has Phi' = 0 there
        vals = rng.random(model.S) * ball_indicator(
            model, int(rng.integers(model.S)), -int(rng.integers(0, L + 1)) + N).values
    return GridFunction(model, vals), h, alpha, phi


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_mass_steps())
@example((GridFunction(BallModel(3, 1, -1), np.array([0.7])), 0.5, 1.0, _MASS_PHIS["power:2"]))
@example((GridFunction(BallModel(3, 0, 4), ball_indicator(BallModel(3, 0, 4), 5, -2).values
                       * np.linspace(0.5, 1.5, 81)), 0.05, 1.0, _MASS_PHIS["power:3"]))
def test_step_mass_identity_over_the_model_space(case):
    # mass_new - mass_old = -h*lambda*integral(Phi(u_new)), exactly
    g, h, alpha, phi = case
    model = g.model
    lam = lambda_value(model.p, alpha, model.N)
    v = implicit_step(g, h, alpha, phi)
    phi_mass = GridFunction(model, phi.value(v.values)).integral()
    assert abs(v.integral() - g.integral() + h * lam * phi_mass) < 1e-12


def test_step_validation():
    model = BallModel(2, 0, 4)
    u = random_function(model, 0)
    phi = Nonlinearity.power(2.0)
    with pytest.raises(ValueError):
        implicit_step(u, 0.0, 1.0, phi)
    with pytest.raises(ValueError):
        implicit_step(u, -1.0, 1.0, phi)
    z = GridFunction(model, u.values.astype(np.complex128))
    with pytest.raises(ValueError):
        implicit_step(z, 1.0, 1.0, phi)
    with pytest.raises(ValueError):
        ImplicitStepConfig(newton_tol=0.0)


@pytest.mark.parametrize("kwargs", [
    {"newton_tol": math.nan}, {"newton_tol": math.inf}, {"newton_tol": -math.inf},
    {"newton_tol": -1e-12}, {"max_newton": -1}, {"max_newton": 2.5},
    {"max_newton": True}, {"max_newton": "3"}, {"max_halvings": -5},
    {"max_halvings": 1.0}, {"max_halvings": False},
], ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()))
def test_step_config_rejects_non_finite_tolerances_and_bad_budgets(kwargs):
    # an infinite newton_tol accepted g itself as the step's solution, a
    # NaN one failed every step after 0 iterations, and negative budgets
    # ran no iteration at all
    with pytest.raises(ValueError):
        ImplicitStepConfig(**kwargs)


def test_step_config_accepts_zero_budgets():
    cfg = ImplicitStepConfig(max_newton=0, max_halvings=0)
    assert (cfg.max_newton, cfg.max_halvings) == (0, 0)
    assert ImplicitStepConfig(max_newton=np.int64(3)).max_newton == 3


def test_newton_accepts_at_the_rounding_floor(monkeypatch):
    # the verify models at h = 0.5: for alpha >= 1.6 Newton can stop above
    # newton_tol, at the rounding floor of the residual
    calls = [0]
    apply_operator = pme_solver.apply_radial

    def counting(*args):
        calls[0] += 1
        return apply_operator(*args)

    monkeypatch.setattr(pme_solver, "apply_radial", counting)
    cfg = ImplicitStepConfig()
    budget = 1 + cfg.max_newton * (cfg.max_halvings + 1)
    phi = Nonlinearity.power(2.0)
    h = 0.5
    above_tol = 0
    for p, N, M in [(2, 0, 9), (2, 1, 8), (3, 0, 6), (5, 0, 4), (7, 0, 3)]:
        model = BallModel(p, N, M)
        for alpha in (1.6, 2.0, 2.4):
            eigenvalues = multiplier(model, alpha).eigenvalues
            rng = np.random.default_rng(0)
            g = GridFunction(model, 1.0 + np.abs(rng.standard_normal(model.S)))
            calls[0] = 0
            v, _, resid, _ = _implicit_step_info(g, h, alpha, phi, cfg)
            assert calls[0] <= budget
            phi_v = phi.value(v.values)
            mass = v.integral() - g.integral() \
                + h * eigenvalues[0] * GridFunction(model, phi_v).integral()
            assert abs(mass) < 1e-12
            floor = 4 * np.finfo(np.float64).eps * h * np.max(eigenvalues) \
                * np.max(np.abs(phi_v))
            assert resid <= floor
            above_tol += resid >= cfg.newton_tol * (1.0 + np.max(g.values))
    assert above_tol > 0


def test_newton_stops_at_the_rounding_floor(monkeypatch):
    # at S = 2**16 Newton reaches the floor by iteration 4; before the
    # floor stopped the loop, each further iteration ended in a failed
    # line search, 44 operator applies in all
    calls = [0]
    apply_operator = pme_solver.apply_radial

    def counting(*args):
        calls[0] += 1
        return apply_operator(*args)

    monkeypatch.setattr(pme_solver, "apply_radial", counting)
    model = BallModel(2, 0, 16)
    alpha, h = 1.3, 0.01
    phi = Nonlinearity.power(2.0)
    rng = np.random.default_rng(0)
    g = GridFunction(model, 1.0 + 0.25 * rng.random(model.S))
    v, _, resid, _ = _implicit_step_info(g, h, alpha, phi, ImplicitStepConfig())
    assert calls[0] <= 8
    lam = lambda_value(2, alpha, 0)
    phi_v = phi.value(v.values)
    mass = v.integral() - g.integral() + h * lam * GridFunction(model, phi_v).integral()
    assert abs(mass) < 1e-12
    e0 = operator_levels(model, alpha)[0]
    floor = 4 * np.finfo(np.float64).eps * h * e0 * np.max(np.abs(phi_v))
    assert resid < max(ImplicitStepConfig().newton_tol * (1.0 + np.max(g.values)), floor)


@pytest.mark.parametrize("p, N, M, alpha, h, phi, data", [
    (2, 0, 6, 2.8, 100.0, Nonlinearity.power(2.0), "positive"),
    (5, 0, 3, 6.0, 100.0, Nonlinearity.identity(), "signed"),
    (2, -2, 5, 6.0, 1.0, Nonlinearity.identity(), "signed")])
def test_newton_at_the_floor_reads_the_correction_of_the_last_iterate(p, N, M, alpha, h,
                                                                     phi, data):
    # below the floor no step size lowers the residual any more, while the
    # last step taken moved v by more than tol: the full correction Newton
    # asks of v is below tol, so v is taken, not refused
    model = BallModel(p, N, M)
    rng = np.random.default_rng(p * 10 + M)
    positive = 1.0 + rng.random(model.S)
    signed = rng.standard_normal(model.S)
    g = GridFunction(model, positive if data == "positive" else signed)
    cfg = ImplicitStepConfig()
    v, _, resid, _ = _implicit_step_info(g, h, alpha, phi, cfg)
    tol = cfg.newton_tol * (1.0 + np.max(np.abs(g.values)))
    assert resid >= tol
    lam = lambda_value(p, alpha, N)
    phi_v = phi.value(v.values)
    mass = v.integral() - g.integral() + h * lam * GridFunction(model, phi_v).integral()
    assert abs(mass) < 1e-12 * max(1.0, abs(g.integral()))
    # the dense oracle's residual stays at the rounding floor of the step
    dense = v.values + h * build_matrix(model, alpha) @ phi_v - g.values
    e0 = operator_levels(model, alpha)[0]
    floor = 4 * np.finfo(np.float64).eps * h * e0 * np.max(np.abs(phi_v))
    assert np.max(np.abs(dense)) <= 4 * floor


def test_trajectory_reads_the_phi_of_a_step_whose_last_line_search_failed():
    # the first floor case above: its last line search lowers the residual
    # at no step size, so the step forms Phi(v) as it returns, for the
    # mass row, and hands nothing over, since no D(Phi(v)) was formed
    model = BallModel(2, 0, 6)
    rng = np.random.default_rng(26)
    g = GridFunction(model, 1.0 + rng.random(model.S))
    alpha, h, phi = 2.8, 100.0, Nonlinearity.power(2.0)
    v, _, _, phi_v = _implicit_step_info(g, h, alpha, phi, ImplicitStepConfig())
    assert pme_solver._handover is None
    assert np.array_equal(phi_v, phi.value(v.values))
    states, rows = pme_trajectory(g, h, 1, alpha, phi)
    assert pme_solver._handover is None
    assert np.array_equal(states[-1].values, v.values)
    lam = lambda_value(2, alpha, 0)
    phi_mass = float(phi_v.sum() * 2.0 ** -6)
    want = v.integral() - g.integral() + h * lam * phi_mass
    assert rows[0]["mass_identity_residual"] == want
    assert abs(want) < 1e-12 * g.integral()


# -- the hand-over between steps -----------------------------------------


def _without_handover(monkeypatch):
    """Clear the hand-over before and after every step."""
    step_info = pme_solver._implicit_step_info

    def cleared(*args):
        pme_solver._handover = None
        try:
            return step_info(*args)
        finally:
            pme_solver._handover = None

    monkeypatch.setattr(pme_solver, "_implicit_step_info", cleared)


def _count_applies(monkeypatch):
    calls = [0]
    apply_operator = pme_solver.apply_radial

    def counting(*args):
        calls[0] += 1
        return apply_operator(*args)

    monkeypatch.setattr(pme_solver, "apply_radial", counting)
    return calls


def _march(u0, h, alpha, phi):
    states, rows = pme_trajectory(u0, 6 * h, 6, alpha, phi)
    final = evolve_pme(u0, 6 * h, 6, alpha, phi)
    loop = [u0]
    for _ in range(6):
        loop.append(implicit_step(loop[-1], h, alpha, phi))
    return ([u.values.tobytes() for u in states + [final] + loop[1:]], rows)


@pytest.mark.parametrize("p, N, M, alpha, phi, data", [
    (2, 0, 7, 1.3, Nonlinearity.power(2.0), "positive"),
    (3, 0, 4, 0.5, Nonlinearity.power(3.0), "indicator"),
    (5, -1, 3, 2.4, Nonlinearity.table([(-1.0, -1.0), (0.0, 0.0), (0.5, 0.25),
                                        (1.0, 1.0), (2.0, 4.0)]), "signed"),
])
def test_handover_changes_no_bit(monkeypatch, p, N, M, alpha, phi, data):
    model = BallModel(p, N, M)
    rng = np.random.default_rng(3)
    if data == "positive":
        u0 = GridFunction(model, 1.0 + 0.25 * rng.random(model.S))
    elif data == "indicator":
        u0 = ball_indicator(model, 4, -2)
    else:
        u0 = GridFunction(model, rng.standard_normal(model.S))
    with_handover = _march(u0, 0.01, alpha, phi)
    with monkeypatch.context() as patch:
        _without_handover(patch)
        without = _march(u0, 0.01, alpha, phi)
    assert with_handover == without


def test_handover_saves_one_apply_per_step(monkeypatch):
    model = BallModel(2, 0, 8)
    alpha, h = 1.3, 0.05
    phi = Nonlinearity.power(2.0)
    u0 = GridFunction(model, 1.0 + 0.25 * np.random.default_rng(1).random(model.S))
    calls = _count_applies(monkeypatch)

    def per_step():
        counts, u = [], u0
        for _ in range(6):
            before = calls[0]
            u = implicit_step(u, h, alpha, phi)
            counts.append(calls[0] - before)
        return counts

    with_handover = per_step()
    with monkeypatch.context() as patch:
        _without_handover(patch)
        without = per_step()
    assert with_handover == [without[0]] + [c - 1 for c in without[1:]]


def test_a_carried_step_holds_no_handed_over_array(monkeypatch):
    # once Newton starts, a step whose input was the last output holds the
    # handed-over Phi(v) and D(Phi(v)) no longer, as a step that formed
    # them itself would not; nor does pme_trajectory between its steps
    model = BallModel(2, 0, 8)
    alpha, h = 1.3, 0.05
    phi = Nonlinearity.power(2.0)
    u0 = GridFunction(model, 1.0 + 0.25 * np.random.default_rng(7).random(model.S))
    handed, alive = [], []
    step_info, solve = pme_solver._implicit_step_info, pme_solver._tree_jacobian_solve

    def entering(*args):
        if pme_solver._handover is not None:
            handed.extend(weakref.ref(a) for a in pme_solver._handover[2:])
        return step_info(*args)

    def solving(*args):
        alive.append(sum(ref() is not None for ref in handed))
        return solve(*args)

    monkeypatch.setattr(pme_solver, "_implicit_step_info", entering)
    monkeypatch.setattr(pme_solver, "_tree_jacobian_solve", solving)
    monkeypatch.setattr(pme_solver, "_handover", None)
    pme_trajectory(u0, 4 * h, 4, alpha, phi)
    u = u0
    for _ in range(4):
        u = implicit_step(u, h, alpha, phi)
    assert len(handed) == 14 and len(alive) >= 8 and max(alive) == 0


def test_handover_needs_the_returned_state_and_its_operator(monkeypatch):
    # an equal-valued copy of the last output, or the output itself with
    # another alpha, Phi or model, takes the cleared step's applies
    model = BallModel(2, 0, 5)
    alpha, h = 1.3, 0.05
    phi = Nonlinearity.power(2.0)
    calls = _count_applies(monkeypatch)
    v = implicit_step(positive_bump(model, 0, 0), h, alpha, phi)
    entry = pme_solver._handover
    # the same S and values on another ball: another operator
    other_model = GridFunction(BallModel(2, 1, 4), v.values)
    other_model.values = v.values

    def applies(g, alpha, phi, handover):
        monkeypatch.setattr(pme_solver, "_handover", handover)
        before = calls[0]
        out = implicit_step(g, h, alpha, phi)
        return calls[0] - before, out.values.tobytes()

    def first_residual(g, alpha, phi, handover):
        # no Newton iteration: the applies and the norm of h*D(Phi(g))
        monkeypatch.setattr(pme_solver, "_handover", handover)
        before = calls[0]
        with pytest.raises(SolverError) as info:
            implicit_step(g, h, alpha, phi, ImplicitStepConfig(max_newton=0))
        return calls[0] - before, info.value.residual

    hit, hit_bytes = applies(v, alpha, phi, entry)
    cleared, cleared_bytes = applies(v, alpha, phi, None)
    assert (hit, hit_bytes) == (cleared - 1, cleared_bytes)
    assert first_residual(v, alpha, phi, entry) == (0, first_residual(v, alpha, phi, None)[1])
    for g, a, f in [(GridFunction(model, v.values), alpha, phi),
                    (v, 1.1, phi),
                    (v, alpha, Nonlinearity.power(3.0)),
                    (other_model, alpha, phi)]:
        assert applies(g, a, f, entry) == applies(g, a, f, None)
        assert first_residual(g, a, f, entry) == first_residual(g, a, f, None)


def test_warm_implicit_step_builds_no_operator(monkeypatch):
    # the operator's levels are cached per (model, alpha): a step after
    # the first one neither builds the levels nor the multiplier
    model = BallModel(3, 0, 4)
    u0 = positive_bump(model, 0, -1)
    phi = Nonlinearity.power(2.0)
    implicit_step(u0, 0.1, 1.1, phi)
    calls = {"multiplier": 0, "radial_levels": 0, "symbol_quadrature": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for module in (pme_solver, vladimirov, fourier_ball):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    implicit_step(u0, 0.1, 1.1, phi)
    assert calls == {"multiplier": 0, "radial_levels": 0, "symbol_quadrature": 0}
    # the counters are armed: a first (model, alpha) builds the levels once,
    # one quadrature cross-check per valuation, and never the S-array
    implicit_step(u0, 0.1, 1.1357, phi)
    assert calls == {"multiplier": 0, "radial_levels": 0, "symbol_quadrature": 4}


def _dense_newton_step(g, h, alpha, phi, max_iters=50, max_halvings=30):
    """Oracle for one implicit step: damped Newton on the dense matrix,
    each Jacobian LU-solved.  Stops when a line search cannot lower the
    residual, i.e. at the rounding floor of the dense residual."""
    Dmat = build_matrix(g.model, alpha)

    def F(v):
        return v + h * (Dmat @ phi.value(v)) - g.values

    v = g.values.copy()
    rnorm = float(np.max(np.abs(F(v))))
    for _ in range(max_iters):
        J = np.eye(g.model.S) + h * Dmat * phi.derivative(v)[None, :]
        delta = np.linalg.solve(J, F(v))
        step = 1.0
        for _ in range(max_halvings + 1):
            rnorm_try = float(np.max(np.abs(F(v - step * delta))))
            if rnorm_try < rnorm:
                break
            step *= 0.5
        else:
            return v, rnorm
        v, rnorm = v - step * delta, rnorm_try
    return v, rnorm


@pytest.mark.parametrize("p, N, M, alpha, power, data, h", [
    (2, 0, 6, 1.0, 2.0, "bump", 0.5),
    # Phi'(0) = 0 off the sub-ball: sigma vanishes there
    (3, 0, 4, 0.5, 3.0, "indicator", 0.01),
    (3, 0, 4, 0.5, 3.0, "indicator", 0.5),
], ids=["p2_power2_bump_h0.5", "p3_power3_indicator_h0.01",
        "p3_power3_indicator_h0.5"])
def test_tree_newton_agrees_with_dense_newton(p, N, M, alpha, power, data, h):
    model = BallModel(p, N, M)
    phi = Nonlinearity.power(power)
    if data == "bump":
        g = positive_bump(model, 3, -2)
    else:
        g = ball_indicator(model, 4, -2)
    dense, dense_resid = _dense_newton_step(g, h, alpha, phi)
    assert dense_resid < 1e-12 * (1.0 + float(np.max(np.abs(g.values))))
    tree = implicit_step(g, h, alpha, phi)
    assert np.max(np.abs(dense - tree.values)) < 1e-10


# largest ladder depth L with p**L <= 729, so the dense oracle stays small
_MAX_DEPTH = {2: 9, 3: 6, 5: 4, 7: 3}


@st.composite
def _jacobian_problems(draw, alphas):
    """(model, alpha, h, sigma, r) over the model space, sigma >= 0 with zeros."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    N = draw(st.sampled_from([-1, 0, 1]))
    L = draw(st.integers(0, _MAX_DEPTH[p]))
    model = BallModel(p, N, L - N)
    alpha = draw(st.one_of(st.just(1.0), alphas))
    h = 10.0 ** draw(st.floats(-6.0, 3.0))
    zero_frac = draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sigma = rng.uniform(0.0, 3.0, model.S)
    sigma[rng.random(model.S) < zero_frac] = 0.0
    return model, alpha, h, sigma, rng.standard_normal(model.S)


# The dense oracle stores the diagonal as lambda - sum(w), so its
# constant mode is off by about eps*e_0 absolute; above alpha = 1.5 at the
# largest S that moves its solution by up to 1.7e-10 relative (measured
# against an extended-precision solve, which the tree solve matched to
# 1e-13).  The full alpha range is pinned by the backward-error test below.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(_jacobian_problems(st.floats(0.5, 1.5)))
def test_tree_jacobian_solve_matches_dense_lu(problem):
    model, alpha, h, sigma, r = problem
    J = np.eye(model.S) + h * build_matrix(model, alpha) * sigma[None, :]
    want = np.linalg.solve(J, r)
    got = _tree_jacobian_solve(model, operator_levels(model, alpha), h, sigma, r)
    assert got.shape == r.shape
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_jacobian_problems(st.floats(0.5, 2.4)))
def test_tree_jacobian_solve_is_backward_stable(problem):
    # normwise backward error against the band-form operator apply, with
    # ||I + h*D*diag(sigma)||_inf <= 1 + 2*h*e_0*max(sigma) since the
    # ladder values decrease from e_0
    model, alpha, h, sigma, r = problem
    x = _tree_jacobian_solve(model, operator_levels(model, alpha), h, sigma, r)
    e = radial_levels(model, multiplier(model, alpha).eigenvalues)
    resid = x + h * apply_radial(model, e, sigma * x) - r
    scale = ((1.0 + 2.0 * h * e[0] * np.max(sigma)) * np.max(np.abs(x))
             + np.max(np.abs(r)))
    assert np.max(np.abs(resid)) <= 1e-14 * scale


def test_tree_jacobian_solve_keeps_precision_when_h_e0_sigma_is_large():
    # h*e_0*sigma up to 1e10 with sigma down to 1e-4: the denominator
    # 1 + c_k*t cancels there (3.5e-12 relative error in x), its positive
    # form does not (1e-16).  Oracle: the ladder matrix solved in 40 digits.
    model = BallModel(7, 0, 2)
    alpha, h = 3.0, 1e4
    rng = np.random.default_rng(1)
    sigma = rng.uniform(0.0, 3.0, model.S) * 10.0 ** rng.uniform(-4.0, 0.0, model.S)
    r = rng.standard_normal(model.S)
    p, L, S = model.p, model.N + model.M, model.S
    e = [mpmath.mpf(v) for v in radial_levels(model, multiplier(model, alpha).eigenvalues)]
    with mpmath.workdps(40):
        J = mpmath.eye(S)
        for i in range(S):
            for j in range(S):
                d_ij = e[0] if i == j else mpmath.mpf(0)
                for k in range(1, L + 1):
                    if i % (S // p ** k) == j % (S // p ** k):
                        d_ij += (e[k] - e[k - 1]) / p ** k
                J[i, j] += h * d_ij * mpmath.mpf(sigma[j])
        want = np.array([float(v) for v in mpmath.lu_solve(J, mpmath.matrix(r.tolist()))])
    got = _tree_jacobian_solve(model, operator_levels(model, alpha), h, sigma, r)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _dense_jacobian_solve(model, alpha, h, sigma, r):
    J = np.eye(model.S) + h * build_matrix(model, alpha) * sigma[None, :]
    return np.linalg.solve(J, r)


# the ends of the model space: one point (L = 0, no level to fold in)
# and p = 7, the widest classes
@pytest.mark.parametrize("p, N, M", [(2, 0, 0), (7, -1, 1), (7, 0, 1), (7, 0, 3), (7, 1, 2)],
                         ids=["S1", "p7_L0", "p7_L1", "p7_L3", "p7_N1_L3"])
def test_tree_jacobian_solve_matches_dense_lu_at_the_ends(p, N, M):
    model = BallModel(p, N, M)
    rng = np.random.default_rng(p + 10 * M)
    for alpha in (0.5, 1.0, 1.5):
        e = operator_levels(model, alpha)
        for h in (1e-6, 0.01, 1.0, 1e3):
            sigma = rng.uniform(0.0, 3.0, model.S)
            sigma[rng.random(model.S) < 0.3] = 0.0
            r = rng.standard_normal(model.S)
            want = _dense_jacobian_solve(model, alpha, h, sigma, r)
            got = _tree_jacobian_solve(model, e, h, sigma, r)
            assert got.shape == r.shape
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_tree_coefficients_are_keyed_on_h():
    # the coefficients of one set of levels are held across calls;
    # another h on the same levels must not read them
    model = BallModel(3, 0, 4)
    e = operator_levels(model, 1.3)
    rng = np.random.default_rng(4)
    sigma, r = rng.uniform(0.0, 3.0, model.S), rng.standard_normal(model.S)
    cache = pme_solver._tree_coefficients
    cache.cache_clear()
    for h in (0.01, 5.0, 0.01, 5.0):
        before = cache.cache_info()
        got = _tree_jacobian_solve(model, e, h, sigma, r)
        after = cache.cache_info()
        assert (after.misses, after.hits) == (before.misses + 1, before.hits)
        # a fresh solve on a cleared cache, and a writable copy, a hit
        cache.cache_clear()
        assert np.array_equal(got, _tree_jacobian_solve(model, e, h, sigma, r))
        assert np.array_equal(got, _tree_jacobian_solve(model, e.copy(), h, sigma, r))
        assert cache.cache_info().hits == 1
        want = _dense_jacobian_solve(model, 1.3, h, sigma, r)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_tree_level_stack_is_read_only_and_holds_the_level_matrices():
    # W[k-1] is [[a_k,0,b_k],[1,0,0],[0,1,0],[0,0,1],[0,c_k,0]], each column
    # repeated p times; the cache holds the stack for the level values
    pme_solver._tree_coefficients.cache_clear()
    for p, M in ((2, 7), (3, 4), (5, 3), (7, 2)):
        model = BallModel(p, 0, M)
        e, h = operator_levels(model, 1.3), 0.37
        c0, W = pme_solver._tree_coefficients(p, e.tobytes(), h)
        assert pme_solver._tree_coefficients(p, e.copy().tobytes(), h)[1] is W
        assert not W.flags.writeable
        assert W.shape == (M, 5, 3 * p) and c0 == h * e[0]
        for k in range(1, M + 1):
            a_k, b_k = h * e[k] / p ** k, float(p) ** -k
            c_k = h * (e[k] - e[k - 1]) / p ** k
            base = np.array([[a_k, 0, b_k], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, c_k, 0]])
            assert np.array_equal(W[k - 1], np.repeat(base, p, axis=1))
        with pytest.raises(ValueError):
            W[0, 0, 0] = 1.0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_tree_level_product_matches_the_four_call_form(p):
    # one level as one product and one division against the reduction,
    # the denominator as a gemv, the division of three rows and the
    # scaled X row
    L = {2: 8, 3: 5, 5: 3, 7: 3}[p]
    model = BallModel(p, 0, L)
    e, h = operator_levels(model, 1.1), 0.05
    _, W = pme_solver._tree_coefficients(p, e.tobytes(), h)
    rng = np.random.default_rng(p)
    eps = np.finfo(np.float64).eps
    for k in range(1, L + 1):
        n = p ** (L - k)
        rows = np.empty((3, p * n))
        rows[0] = rng.uniform(0.0, 3.0, p * n) * 10.0 ** rng.uniform(-3, 3, p * n)
        rows[1] = rng.standard_normal(p * n)
        rows[2] = rng.uniform(1e-3, 1.0, p * n)
        # level 1 of a plan at S = p*n, reached by the first level matrix given
        plan = pme_solver._tree_plan(p, p * n)
        plan.t[:], plan.sx[:], plan.m[:] = rows
        pme_solver._tree_up_pass(W[k - 1:k], plan.up)
        level = plan.up[0][1]
        tsm = np.add.reduce(rows.reshape(3, p, -1), axis=1)
        denom = np.array([h * e[k] / p ** k, float(p) ** -k]) @ tsm[::2]
        tsm /= denom
        shift = h * (e[k] - e[k - 1]) / p ** k * tsm[1]
        for got, want in ((level[0], denom), (level[1], tsm[0]), (level[3], tsm[2])):
            assert np.all(np.abs(got - want) <= 4 * eps * np.abs(want))
        # X may cancel: bound by its children's absolute sum
        x_scale = np.add.reduce(np.abs(rows[1]).reshape(p, -1), axis=0) / denom
        assert np.all(np.abs(level[2] - tsm[1]) <= 4 * eps * x_scale)
        c_k = abs(h * (e[k] - e[k - 1]) / p ** k)
        assert np.all(np.abs(level[4] - shift) <= 4 * eps * c_k * x_scale)


def test_tree_solve_is_the_same_with_the_rows_and_level_1_apart(monkeypatch):
    # above _ONE_ARRAY_BYTES the rows and level 1 are two arrays: the
    # same arithmetic, so the same bits
    rng = np.random.default_rng(9)
    for p, M in ((2, 9), (3, 5), (5, 3), (7, 3)):
        model = BallModel(p, 0, M)
        e = operator_levels(model, 0.9)
        sigma, r = rng.uniform(0.0, 3.0, model.S), rng.standard_normal(model.S)
        one = _tree_jacobian_solve(model, e, 0.2, sigma, r)
        # an empty plan dict, so that the solve forms a two-array plan and
        # does not read the held one-array plan
        monkeypatch.setattr(pme_solver, "_tree_plans", {})
        monkeypatch.setattr(pme_solver, "_ONE_ARRAY_BYTES", 0)
        two = _tree_jacobian_solve(model, e, 0.2, sigma, r)
        monkeypatch.undo()
        assert np.array_equal(one.view(np.int64), two.view(np.int64))


def _plan_bytes(p, S):
    return 8 * (3 * S + 5 * S // p)


def _solve_problem(p, M, seed, alpha=1.3, h=0.05):
    model = BallModel(p, 0, M)
    rng = np.random.default_rng(seed)
    sigma = rng.uniform(0.0, 3.0, model.S)
    sigma[rng.random(model.S) < 0.2] = 0.0
    return model, operator_levels(model, alpha), h, sigma, rng.standard_normal(model.S)


def test_held_tree_plans_give_the_bits_of_a_fresh_plan():
    # solves interleaved over p, L = 0 and 1 and sizes on both sides of
    # the keep bound, two data sets per size, read the plan another solve
    # left or form their own: each gives the bits of a solve on an empty
    # plan dict, and none changes a result returned before it
    sizes = [(2, 0), (3, 0), (2, 1), (3, 1), (5, 1), (7, 1), (2, 9), (3, 6),
             (2, 14), (2, 15), (3, 9), (3, 10), (5, 6), (5, 7), (7, 5), (7, 6)]
    kept = {_plan_bytes(p, p ** M) <= pme_solver._KEEP_PLAN_BYTES for p, M in sizes if M}
    assert kept == {True, False}
    problems = [[_solve_problem(p, M, seed=10 * p + M + 1000 * j) for j in (0, 1)]
                for p, M in sizes]
    want = []
    for pair in problems:
        for problem in pair:
            pme_solver._tree_plans.clear()
            want.append(_tree_jacobian_solve(*problem))
    order = np.random.default_rng(3).permutation(3 * len(sizes)) % len(sizes)
    got = []
    for i in [*order, *order[::-1]]:
        for j in (0, 1):
            got.append((2 * i + j, _tree_jacobian_solve(*problems[i][j])))
            assert np.array_equal(got[-1][1].view(np.int64), want[2 * i + j].view(np.int64))
            held = pme_solver._tree_plans
            assert len(held) <= 1
            assert all(plan.nbytes <= pme_solver._KEEP_PLAN_BYTES for plan in held.values())
    for i, x in got:
        assert np.array_equal(x.view(np.int64), want[i].view(np.int64))


def test_tree_solves_on_threads_give_their_serial_bits():
    # 4 threads solve their own data over and over, at a size whose plan
    # is held and at one whose plan is not: a plan in use by two solves
    # at once would mix their rows
    problems = [_solve_problem(2, M, seed=100 * M + i) for M in (12, 15) for i in range(4)]
    assert _plan_bytes(2, 2 ** 12) <= pme_solver._KEEP_PLAN_BYTES < _plan_bytes(2, 2 ** 15)
    want = [_tree_jacobian_solve(*problem) for problem in problems]
    mismatches, done = [], []

    def run(i):
        for _ in range(15):
            for j in (i, i + 4):
                if not np.array_equal(_tree_jacobian_solve(*problems[j]), want[j]):
                    mismatches.append(j)
        done.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(done) == [0, 1, 2, 3] and not mismatches


@pytest.mark.parametrize("M", [14, 15])
def test_a_warm_tree_solve_allocates_its_result_and_no_held_scratch(M):
    # with its plan held, a warm solve allocates d alone, besides one
    # ufunc buffer and small objects; above the keep bound it allocates
    # the scratch too, as every solve did before plans
    problem = _solve_problem(2, M, seed=M)
    S = problem[0].S
    _tree_jacobian_solve(*problem)
    tracemalloc.start()
    try:
        _tree_jacobian_solve(*problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    scratch = 0 if _plan_bytes(2, S) <= pme_solver._KEEP_PLAN_BYTES else _plan_bytes(2, S)
    assert scratch == (0 if M == 14 else 8 * (3 * S + S // 2 * 5))
    assert 8 * S + scratch <= peak <= 8 * S + scratch + 8 * np.getbufsize() + 32768


_THREAD_HASH = """
import hashlib, numpy as np
from padic_heat import BallModel
from padic_heat.pme_solver import _tree_jacobian_solve
from padic_heat.vladimirov import operator_levels
model = BallModel(2, 0, 19)
rng = np.random.default_rng(19)
sigma = rng.uniform(0.0, 3.0, model.S)
sigma[rng.random(model.S) < 0.2] = 0.0
r = rng.standard_normal(model.S)
x = _tree_jacobian_solve(model, operator_levels(model, 1.3), 0.01, sigma, r)
print(hashlib.sha256(x.tobytes()).hexdigest())
"""


def test_tree_solve_is_bit_identical_under_one_and_two_blas_threads():
    # at S = 2**19 the finer levels' products are past OpenBLAS's
    # single-thread cutoff, so two threads split them
    src = os.path.dirname(os.path.dirname(os.path.abspath(pme_solver.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [q for q in os.environ.get("PYTHONPATH", "").split(os.pathsep) if q]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run([sys.executable, "-c", _THREAD_HASH], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_tree_solve_reads_a_writable_level_array_afresh():
    # a writable array may change in place between calls: the second
    # call must see its new values, not coefficients formed for the old
    model = BallModel(2, 0, 6)
    rng = np.random.default_rng(6)
    sigma, r = rng.uniform(0.0, 3.0, model.S), rng.standard_normal(model.S)
    pme_solver._tree_coefficients.cache_clear()
    e = operator_levels(model, 0.8).copy()
    first = _tree_jacobian_solve(model, e, 0.1, sigma, r)
    e[:] = operator_levels(model, 1.7)
    second = _tree_jacobian_solve(model, e, 0.1, sigma, r)
    assert np.array_equal(second, _tree_jacobian_solve(model, e.copy(), 0.1, sigma, r))
    assert not np.array_equal(first, second)
    # the new values formed their own stack; only the copy found it
    info = pme_solver._tree_coefficients.cache_info()
    assert (info.misses, info.hits) == (2, 1)


def test_equal_level_values_share_the_cached_tree_stack():
    # a writable copy of the operator levels, and the slice levels[2:] of
    # a deeper ladder with the same values, find the stack already
    # formed, and give the bits of a solve made on a cleared cache
    model = BallModel(3, 0, 5)
    rng = np.random.default_rng(15)
    sigma, r = rng.uniform(0.0, 3.0, model.S), rng.standard_normal(model.S)
    e = operator_levels(model, 1.3)
    deeper = operator_levels(BallModel(3, 0, 7), 1.3)[2:]
    assert np.array_equal(deeper, e)
    pme_solver._tree_coefficients.cache_clear()
    want = _tree_jacobian_solve(model, e, 0.05, sigma, r)
    for levels in (e.copy(), deeper):
        got = _tree_jacobian_solve(model, levels, 0.05, sigma, r)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    info = pme_solver._tree_coefficients.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_trajectory_rows_are_bit_identical_to_their_formulas():
    # the mass identity sums the handed-over Phi(v) in place; l1 skips
    # its powers: both give the bits of the GridFunction forms
    model = BallModel(2, 0, 8)
    u0 = GridFunction(model, 1.0 + 0.25 * np.random.default_rng(31).random(model.S))
    for phi in (Nonlinearity.power(2.0), Nonlinearity.power(3.0)):
        states, rows = pme_trajectory(u0, 0.03, 3, 1.3, phi)
        lam = float(operator_levels(model, 1.3)[-1])
        u_old = u0
        for row, u in zip(rows, states):
            phi_mass = GridFunction(model, phi.value(u.values)).integral()
            want = u.integral() - u_old.integral() + (0.03 / 3) * lam * phi_mass
            assert row["mass_identity_residual"] == want
            meas = float(model.p) ** (-model.M)
            assert row["l1"] == float((meas * (np.abs(u.values) ** 1).sum()) ** (1.0 / 1))
            u_old = u


def test_step_uses_no_dense_linear_algebra(monkeypatch):
    # no O(S**2) path in the step: pme_solver neither imports nor calls
    # build_matrix or np.linalg.solve
    tree = ast.parse(inspect.getsource(pme_solver))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
              for a in n.names}
    assert "build_matrix" not in names
    assert "solve" not in names and "linalg" not in names

    def forbidden(*args, **kwargs):
        raise AssertionError("dense linear algebra in the implicit step")

    monkeypatch.setattr(vladimirov, "build_matrix", forbidden)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    model = BallModel(3, 0, 4)
    g = ball_indicator(model, 4, -2)
    _, rows = pme_trajectory(g, 0.5, 4, 0.5, Nonlinearity.power(3.0))
    assert all(row["step_residual"] < 1e-10 for row in rows)


def test_solver_error_carries_residual():
    model = BallModel(2, 0, 4)
    g = positive_bump(model, 0, 0)
    cfg = ImplicitStepConfig(max_newton=0)
    with pytest.raises(SolverError) as info:
        implicit_step(g, 1.0, 1.0, Nonlinearity.power(2.0), config=cfg)
    assert info.value.residual is not None and info.value.residual > 0
    assert "rounding floor" in str(info.value)


def test_max_norm_keeps_a_nan():
    # two reductions in place of np.max(np.abs(r)): the same value,
    # NaN wherever the array holds one, +0.0 for an all-zero array
    rng = np.random.default_rng(2)
    for a in (rng.standard_normal(50), -np.abs(rng.standard_normal(50)),
              np.array([-0.0, -0.0]), np.array([0.0, -0.0]), np.array([-np.inf, 1.0])):
        got, want = pme_solver._max_abs(a), float(np.max(np.abs(a)))
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)
    for i in (0, 25, 49):
        a = rng.standard_normal(50)
        a[i] = np.nan
        assert math.isnan(pme_solver._max_abs(a))


@pytest.mark.parametrize("where", [0, 17, 31])
def test_nan_in_the_residual_ends_the_step_in_solver_error(monkeypatch, where):
    apply_operator = pme_solver.apply_radial

    def poisoned(*args):
        out = apply_operator(*args)
        out[where] = np.nan
        return out

    monkeypatch.setattr(pme_solver, "apply_radial", poisoned)
    model = BallModel(2, 0, 5)
    with pytest.raises(SolverError) as info:
        implicit_step(positive_bump(model, 0, 0), 0.1, 1.0, Nonlinearity.power(2.0))
    assert math.isnan(info.value.residual)


def test_step_info_reports_converged_residual():
    model = BallModel(2, 0, 4)
    g = positive_bump(model, 0, 0)
    phi = Nonlinearity.power(2.0)
    v, iters, resid, phi_v = _implicit_step_info(g, 0.5, 1.0, phi, ImplicitStepConfig())
    assert iters >= 1
    # the returned Phi(v) is that of the returned state, bit for bit
    assert np.array_equal(phi_v, phi.value(v.values))
    assert resid < 1e-12 * (1.0 + float(np.max(np.abs(g.values))))


# -- time marching ------------------------------------------------------


def test_constant_data_follows_scalar_ode():
    # u' = -lambda*u**2 with u(0) = 1 has u(t) = 1/(1 + lambda*t)
    model = BallModel(2, 0, 6)
    lam = lambda_value(2, 1.0, 0)
    t, k = 1.0, 2048
    u = evolve_pme(constant(model, 1.0), t, k, 1.0, Nonlinearity.power(2.0))
    want = 1.0 / (1.0 + lam * t)
    rel = float(np.max(np.abs(u.values - want))) / want
    assert rel < 1e-4


def test_step_splitting_is_first_order():
    # one step of h vs two of h/2: the defect shrinks by ~4 per halving
    model = BallModel(2, 0, 6)
    phi = Nonlinearity.power(2.0)
    u0 = positive_bump(model, 0, 0)
    ds = []
    for e in (7, 8, 9, 10):
        h = 2.0 ** -e
        one = implicit_step(u0, h, 1.0, phi)
        two = implicit_step(implicit_step(u0, h / 2, 1.0, phi), h / 2, 1.0, phi)
        ds.append((one - two).lp_norm(1))
    for a, b in zip(ds, ds[1:]):
        assert 3.5 < a / b < 4.5


def test_identity_flow_converges_to_linear_solution_at_first_order():
    model = BallModel(2, 0, 6)
    alpha, t = 1.0, 1.0
    lam = lambda_value(2, alpha, 0)
    u0 = positive_bump(model, 0, 0)
    ref = GridFunction(model, math.exp(-lam * t) * evolve(u0, alpha, t).values)
    errs = []
    for k in (64, 128, 256, 512):
        uk = evolve_pme(u0, t, k, alpha, Nonlinearity.identity())
        errs.append((uk - ref).lp_norm(1))
    for a, b in zip(errs, errs[1:]):
        order = math.log2(a / b)
        assert 0.8 < order < 1.2


def test_trajectory_diagnostics(model_alpha):
    model, alpha = model_alpha
    phi = Nonlinearity.power(2.0)
    u0 = positive_bump(model, 0, min(0, model.N))
    states, rows = pme_trajectory(u0, 1.0, 16, alpha, phi, record_every=4)
    assert len(rows) == 16
    assert len(states) == 4
    masses = [r["mass"] for r in rows]
    for a, b in zip(masses, masses[1:]):
        assert b < a  # mass strictly decreases for positive data
    for r in rows:
        assert abs(r["mass_identity_residual"]) < 1e-12
        assert r["newton_iters"] >= 0
        assert r["step_residual"] < 1e-10
        # positive data on a ball: mass = l1, and norms are ordered
        assert abs(r["l1"] - r["mass"]) < 1e-12 * max(r["mass"], 1.0)
        assert r["l2"] <= (r["l1"] * r["sup_norm"]) ** 0.5 + 1e-12
    assert np.array_equal(states[-1].values,
                          evolve_pme(u0, 1.0, 16, alpha, phi).values)


def test_crandall_liggett_doubling():
    model = BallModel(2, 0, 6)
    phi = Nonlinearity.power(2.0)
    u0 = positive_bump(model, 0, 0)
    u, report = crandall_liggett(u0, 1.0, 1.0, phi, tol=2.5e-4)
    assert report.converged
    assert report.l1_differences[-1] < 2.5e-4
    # first-order scheme: increments halve with each doubling
    for r in report.ratios:
        assert r <= 0.75
    for a, b in zip(report.l1_differences, report.l1_differences[1:]):
        assert b < a
    d = report.as_dict()
    assert d["step_counts"] == report.step_counts
    assert d["converged"] is True


def test_crandall_liggett_cap_raises():
    model = BallModel(2, 0, 4)
    u0 = positive_bump(model, 0, 0)
    with pytest.raises(SolverError):
        crandall_liggett(u0, 1.0, 1.0, Nonlinearity.power(2.0),
                         tol=1e-14, k_cap=64)
    with pytest.raises(ValueError):
        crandall_liggett(u0, 1.0, 1.0, Nonlinearity.power(2.0), tol=0.0)


def test_crandall_liggett_rejects_a_nan_tol_before_any_step(monkeypatch):
    # NaN passes "tol <= 0"; before the check it doubled the step count
    # to k_cap before raising SolverError
    def refuse(*args):
        raise AssertionError("operator applied for a non-positive tol")

    monkeypatch.setattr(pme_solver, "apply_radial", refuse)
    model = BallModel(2, 0, 4)
    u0 = positive_bump(model, 0, 0)
    for tol in (math.nan, -1.0, 0.0, -math.inf):
        with pytest.raises(ValueError, match="tol"):
            crandall_liggett(u0, 0.1, 1.0, Nonlinearity.power(2.0), tol=tol, k_cap=64)


def test_crandall_liggett_refuses_an_infinite_tol_before_any_step(monkeypatch):
    # every L1 increment is below inf: it reported converged=True after
    # k = 16 with nothing checked
    calls = []
    monkeypatch.setattr(pme_solver, "evolve_pme", lambda *args: calls.append(args))
    model = BallModel(2, 0, 4)
    with alarm(5):
        with pytest.raises(ValueError, match="^tol must be positive and finite, got inf$"):
            crandall_liggett(positive_bump(model, 0, 0), 0.1, 1.0, Nonlinearity.power(2.0),
                             tol=math.inf)
    assert calls == []


@pytest.mark.parametrize("k_cap", [math.nan, math.inf, -math.inf])
def test_crandall_liggett_refuses_a_non_finite_cap_before_any_step(monkeypatch, k_cap):
    # "k > k_cap" is False for a NaN or infinite cap, so the doubling never stopped
    calls = []
    monkeypatch.setattr(pme_solver, "evolve_pme", lambda *args: calls.append(args))
    model = BallModel(2, 0, 4)
    with pytest.raises(ValueError, match="k_cap must be finite"):
        crandall_liggett(positive_bump(model, 0, 0), 0.1, 1.0, Nonlinearity.power(2.0),
                         k_cap=k_cap)
    assert calls == []


def test_crandall_liggett_takes_a_finite_float_cap():
    model = BallModel(2, 0, 4)
    u0, phi = positive_bump(model, 0, 0), Nonlinearity.power(2.0)
    u, report = crandall_liggett(u0, 1.0, 1.0, phi, tol=1e-3, k_cap=1e6)
    want, _ = crandall_liggett(u0, 1.0, 1.0, phi, tol=1e-3)
    assert report.converged and np.array_equal(u.values, want.values)


def test_evolve_pme_validation():
    model = BallModel(2, 0, 4)
    u0 = positive_bump(model, 0, 0)
    with pytest.raises(ValueError):
        evolve_pme(u0, 1.0, 0, 1.0, Nonlinearity.power(2.0))
    with pytest.raises(ValueError):
        evolve_pme(u0, 0.0, 4, 1.0, Nonlinearity.power(2.0))
    for record_every in (0, -2):
        with pytest.raises(ValueError, match="record_every"):
            pme_trajectory(u0, 0.5, 4, 1.0, Nonlinearity.power(2.0),
                           record_every=record_every)


def test_non_finite_step_size_is_rejected_before_any_solve(monkeypatch):
    # NaN passes "h <= 0"; before the check it ran Newton on a NaN residual
    def refuse(*args):
        raise AssertionError("operator applied for a non-finite step size")

    monkeypatch.setattr(pme_solver, "apply_radial", refuse)
    model = BallModel(2, 0, 3)
    u0 = positive_bump(model, 0, 0)
    phi = Nonlinearity.power(2.0)
    for h in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            implicit_step(u0, h, 1.0, phi)
        with pytest.raises(ValueError, match="finite"):
            evolve_pme(u0, h, 4, 1.0, phi)


def test_lgamma_decay_suite():
    model = BallModel(2, 0, 6)
    phi = Nonlinearity.power(2.0)
    u0 = positive_bump(model, 0, 0)
    times = [0.05 * j for j in range(1, 21)]
    report = lgamma_decay_suite(u0, times, [1.0, 2.0, 4.0, math.inf], 1.0, phi,
                                steps_per_interval=8)
    assert report.all_nonincreasing
    for g in (1.0, 2.0, 4.0, math.inf):
        seq = report.norms[g]
        assert len(seq) == 21
        assert seq[-1] < seq[0]
    with pytest.raises(ValueError):
        lgamma_decay_suite(ball_indicator(model, 0, -1), times, [1.0], 1.0, phi)
    with pytest.raises(ValueError):
        lgamma_decay_suite(u0, [0.5, 0.25], [1.0], 1.0, phi)


@pytest.mark.parametrize("steps, slack", [(-3, 1e-12), (0, 1e-12), (2.5, 1e-12),
                                          (8, math.nan), (8, -1.0), (8, math.inf)],
                         ids=["steps-3", "steps0", "steps2.5", "slack_nan",
                              "slack-1", "slack_inf"])
def test_lgamma_decay_suite_rejects_bad_arguments_before_stepping(monkeypatch, steps, slack):
    # -3 used to report constant norms as nonincreasing, 0 raised
    # ZeroDivisionError, and a NaN slack hid every violation
    def forbidden(*args, **kwargs):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(pme_solver, "implicit_step", forbidden)
    model = BallModel(2, 0, 4)
    with pytest.raises(ValueError, match="steps_per_interval|slack"):
        lgamma_decay_suite(positive_bump(model, 0, 0), [0.1, 0.2], [1.0], 1.0,
                           Nonlinearity.power(2.0), steps_per_interval=steps, slack=slack)


@pytest.mark.parametrize("call, name", [
    (lambda u, phi: pme_trajectory(u, 0.1, 2.0, 1.0, phi), "k"),
    (lambda u, phi: evolve_pme(u, 0.1, 2.5, 1.0, phi), "k"),
    (lambda u, phi: pme_trajectory(u, 0.1, True, 1.0, phi), "k"),
    (lambda u, phi: evolve_pme(u, 0.1, np.int64(0), 1.0, phi), "k"),
    (lambda u, phi: pme_trajectory(u, 0.1, 4, 1.0, phi, record_every=1.5), "record_every"),
    (lambda u, phi: pme_trajectory(u, 0.1, 4, 1.0, phi, record_every=True), "record_every"),
], ids=["trajectory_k2.0", "evolve_k2.5", "trajectory_kTrue", "evolve_k_int64_0",
        "record_every1.5", "record_everyTrue"])
def test_step_counts_must_be_integers(monkeypatch, call, name):
    # a float count raised a bare TypeError from range(), k=True ran one
    # step, and record_every=1.5 recorded steps 3 and 4 of 4
    def forbidden(*args, **kwargs):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(pme_solver, "implicit_step", forbidden)
    monkeypatch.setattr(pme_solver, "_implicit_step_info", forbidden)
    model = BallModel(2, 0, 4)
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
        call(positive_bump(model, 0, 0), Nonlinearity.power(2.0))


def test_step_counts_accept_numpy_integers():
    model = BallModel(2, 0, 3)
    u0, phi = positive_bump(model, 0, 0), Nonlinearity.power(2.0)
    states, rows = pme_trajectory(u0, 0.1, np.int64(4), 1.0, phi, record_every=np.int64(2))
    assert [r["step"] for r in rows] == [1, 2, 3, 4] and len(states) == 2
    assert np.array_equal(evolve_pme(u0, 0.1, np.int64(4), 1.0, phi).values, states[-1].values)


@pytest.mark.parametrize("times", [[0.5, 0.25], [0.1, math.nan], [math.inf], [0.0, 0.1],
                                   [0.1, 0.1]])
def test_lgamma_decay_suite_reads_the_time_grid_rule_of_evolve_series(monkeypatch, times):
    # a NaN or infinite time passed its own check and failed inside the
    # first step past it, with the step's message
    def forbidden(*args, **kwargs):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(pme_solver, "implicit_step", forbidden)
    model = BallModel(2, 0, 4)
    u0 = positive_bump(model, 0, 0)
    message = "^times must be finite, strictly increasing and positive$"
    with pytest.raises(ValueError, match=message):
        lgamma_decay_suite(u0, times, [1.0], 1.0, Nonlinearity.power(2.0))
    with pytest.raises(ValueError, match=message):
        evolve_series(u0, 1.0, times)


def test_lgamma_decay_suite_refuses_a_nan_gamma(monkeypatch):
    # NaN norms compare False, so a NaN gamma used to report no violation
    def forbidden(*args, **kwargs):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(pme_solver, "implicit_step", forbidden)
    model = BallModel(2, 0, 4)
    with pytest.raises(ValueError, match="gamma must be >= 1 or inf"):
        lgamma_decay_suite(positive_bump(model, 0, 0), [0.1, 0.2], [math.nan], 1.0,
                           Nonlinearity.power(2.0), steps_per_interval=4)


def test_table_nonlinearity_drives_the_solver():
    # a monotone piecewise-linear Phi close to u**2 on [0, 2]
    knots = [(x, x * x) for x in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)]
    knots.append((-1.0, -1.0))
    phi = Nonlinearity.table(knots)
    model = BallModel(2, 0, 5)
    u0 = positive_bump(model, 0, 0)
    states, rows = pme_trajectory(u0, 0.5, 8, 1.0, phi)
    assert rows[-1]["mass"] < u0.integral()
    assert abs(rows[-1]["mass_identity_residual"]) < 1e-12
