import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padic_heat.vladimirov as vlad
from padic_heat import fourier_ball, linear_solver
from padic_heat import (
    BallModel,
    ConsistencyError,
    GridFunction,
    RieszDistribution,
    apply_global_restriction,
    apply_hypersingular,
    apply_spectral,
    build_matrix,
    constant,
    convolve_riesz,
    dft_direct,
    domain_check,
    evolve,
    lambda_value,
    multiplier,
    random_function,
    resolvent_apply,
    riesz_pairing,
    spectrum_multiset,
    symbol_quadrature,
)
from padic_heat.ball_model import coefficient_ap, point_abs_table, radial_levels, valuation_table
from tests.conftest import STANDARD_MODELS, alarm, rel_linf


def test_symbol_quadrature_pins():
    # p = 2, alpha = 1, N = 0: lambda = 2/3, so the symbol alone is
    # |xi| - 2/3 at each nonzero frequency
    model = BallModel(2, 0, 3)
    assert symbol_quadrature(model, 1.0, 0) == 0.0
    k_abs1 = 2 ** 2  # valuation 2 -> |xi| = 2
    assert abs(symbol_quadrature(model, 1.0, k_abs1) - 4.0 / 3.0) < 1e-13
    k_abs2 = 2 ** 1  # valuation 1 -> |xi| = 4
    assert abs(symbol_quadrature(model, 1.0, k_abs2) - 10.0 / 3.0) < 1e-13


def test_symbol_identity_all_frequencies(model_alpha):
    # quadrature + lambda reproduces the closed-form multiplier
    model, alpha = model_alpha
    lam = lambda_value(model.p, alpha, model.N)
    eig = multiplier(model, alpha).eigenvalues
    for k in range(model.S):
        quad = symbol_quadrature(model, alpha, k) + (lam if k else 0.0)
        want = eig[k] if k else 0.0
        assert abs(quad - want) < 1e-11 * max(abs(want), 1.0)


def test_two_by_two_matrix_pin():
    A = build_matrix(BallModel(2, 0, 1), 1.0)
    want = np.array([[4.0 / 3.0, -2.0 / 3.0], [-2.0 / 3.0, 4.0 / 3.0]])
    assert np.max(np.abs(A - want)) < 1e-14
    eigs = np.sort(np.linalg.eigvalsh(A))
    assert np.max(np.abs(eigs - np.array([2.0 / 3.0, 2.0]))) < 1e-14


def test_four_representations_agree(model_alpha):
    model, alpha = model_alpha
    A = build_matrix(model, alpha)
    for seed in range(5):
        u = random_function(model, seed)
        routes = [
            apply_spectral(u, alpha).values,
            apply_hypersingular(u, alpha).values,
            apply_global_restriction(u, alpha).values,
            convolve_riesz(u, alpha).values,
            A @ u.values,
        ]
        ref = routes[0]
        for other in routes[1:]:
            assert rel_linf(ref, other) < 1e-10


def test_spectrum_matches_dense_matrix(model_alpha):
    model, alpha = model_alpha
    computed = np.sort(np.linalg.eigvalsh(build_matrix(model, alpha)))
    expected = spectrum_multiset(model, alpha)
    assert computed.shape == expected.shape
    assert np.max(np.abs(computed - expected)) < 1e-9


def test_spectrum_multiset_structure():
    model = BallModel(2, 0, 6)
    eigs = spectrum_multiset(model, 1.0)
    lam = lambda_value(2, 1.0, 0)
    assert eigs.size == model.S
    assert np.min(eigs) == lam
    # each scale 2**k appears 2**(k-1) times, k = 1..M
    for k in range(1, 7):
        assert int(np.sum(np.abs(eigs - 2.0 ** k) < 1e-12)) == 2 ** (k - 1)


def test_constant_functions_are_eigenfunctions(model_alpha):
    model, alpha = model_alpha
    lam = lambda_value(model.p, alpha, model.N)
    c = constant(model, 3.5)
    for route in (apply_spectral, apply_hypersingular,
                  apply_global_restriction, convolve_riesz):
        out = route(c, alpha)
        assert np.max(np.abs(out.values - lam * 3.5)) < 1e-10 * max(lam * 3.5, 1.0)


def test_riesz_pairing_pins():
    model = BallModel(2, 0, 4)
    one = constant(model, 1.0)
    # the operator kernel sees only the point mass on constants
    got = riesz_pairing(RieszDistribution(model, 2.0, -1), one)
    assert abs(got - lambda_value(2, 2.0, 0)) < 1e-14
    # the inverse kernel pin: (1 - 1/p) / (1 - p**(alpha-1)) at p = 2, alpha = 2, N = 0
    got = riesz_pairing(RieszDistribution(model, 2.0, +1), one)
    assert abs(got - (-0.5)) < 1e-14


def test_riesz_pairing_on_characters_gives_multiplier():
    model = BallModel(3, 0, 3)
    alpha = 1.5
    eig = multiplier(model, alpha).eigenvalues
    dist = RieszDistribution(model, alpha, -1)
    n = np.arange(model.S)
    for k in (0, 1, 3, 9, 13):
        chi = GridFunction(model, np.exp(2j * np.pi * n * k / model.S))
        got = riesz_pairing(dist, chi)
        assert abs(got - eig[k]) < 1e-12 * max(eig[k], 1.0)


def test_riesz_plus_kernel_inverts_on_mean_zero():
    # convolving with the +alpha kernel undoes the operator on mean-zero data
    for p, N, M, alpha in ((2, 0, 4, 2.0), (3, 0, 3, 0.5), (5, -1, 2, 1.5)):
        model = BallModel(p, N, M)
        u = random_function(model, 7)
        mean = u.integral() / float(p) ** N
        u = GridFunction(model, u.values - mean)
        du = apply_spectral(u, alpha)
        dist = RieszDistribution(model, alpha, +1)
        base = np.arange(model.S)
        back = np.array([
            riesz_pairing(dist, GridFunction(model, du.values[(n - base) % model.S]))
            for n in range(model.S)
        ])
        assert np.max(np.abs(back - u.values)) < 1e-12


def test_riesz_validation():
    model = BallModel(2, 0, 3)
    with pytest.raises(ValueError):
        RieszDistribution(model, 1.0, +1)  # normaliser vanishes at alpha = 1
    with pytest.raises(ValueError):
        RieszDistribution(model, -1.0, -1)
    with pytest.raises(ValueError):
        RieszDistribution(model, 1.0, 0)
    dist = RieszDistribution(model, 1.0, -1)
    with pytest.raises(ValueError):
        riesz_pairing(dist, constant(BallModel(2, 0, 2), 1.0))


def test_matrix_symmetry_and_row_sums(model_alpha):
    model, alpha = model_alpha
    A = build_matrix(model, alpha)
    assert np.max(np.abs(A - A.T)) < 1e-12
    lam = lambda_value(model.p, alpha, model.N)
    assert np.max(np.abs(A.sum(axis=1) - lam)) < 1e-11


def test_matrix_cap():
    with pytest.raises(ValueError, match="dense-matrix cap 4096"):
        build_matrix(BallModel(2, 0, 13), 1.0)


def test_operator_commutes_with_refinement():
    # data resolved at level M stays resolved: the fine-grid operator
    # agrees with the coarse result re-expressed on the fine grid
    model = BallModel(2, 0, 4)
    alpha = 1.0
    u = random_function(model, 21)
    coarse_then_refine = apply_spectral(u, alpha).refine(2)
    refine_then_apply = apply_spectral(u.refine(2), alpha)
    assert np.max(np.abs(coarse_then_refine.values - refine_then_apply.values)) < 1e-11


def test_domain_check_resolved_data():
    model = BallModel(2, 0, 4)
    u = random_function(model, 5)
    report = domain_check(u, 1.0, levels=3)
    assert report.bounded
    assert report.levels == [4, 5, 6, 7]
    spread = max(report.norms) - min(report.norms)
    assert spread < 1e-10 * max(report.norms)


def test_domain_check_callable_profile():
    base = BallModel(2, 0, 3)

    def profile(m):
        # a sub-ball indicator sampled at each resolution: resolved, so bounded
        from padic_heat import ball_indicator
        return ball_indicator(m, center=0, radius_exp=-1)

    report = domain_check(profile, 1.5, levels=3, base_model=base)
    assert report.bounded
    with pytest.raises(ValueError):
        domain_check(profile, 1.5)


@pytest.mark.parametrize("levels", [-1, 0, 1.5, True])
def test_domain_check_refuses_a_report_without_a_refinement(levels):
    # levels = -1 returned DomainReport([], [], [], bounded=True), a
    # "bounded" verdict on no data, and 1.5 a bare TypeError
    u = random_function(BallModel(2, 0, 4), 5)
    with alarm(5):
        with pytest.raises(ValueError, match="^levels must be an integer >= 1"):
            domain_check(u, 1.0, levels=levels)


def test_domain_check_flags_rough_profile():
    base = BallModel(2, 0, 3)

    def noise(m):
        return random_function(m, m.M)

    report = domain_check(noise, 2.0, levels=4, base_model=base)
    # fresh noise at every level keeps energy at the top frequencies,
    # where the multiplier grows by p**alpha per refinement
    assert not report.bounded
    assert report.norms[-1] > 2.0 * report.norms[0]


def test_multiplier_validation_and_consistency_gate(monkeypatch):
    with pytest.raises(ValueError):
        multiplier(BallModel(2, 0, 3), 0.0)
    with pytest.raises(ValueError):
        multiplier(BallModel(2, 0, 3), -2.0)
    # sabotage the quadrature cross-check to prove the gate is armed
    monkeypatch.setattr(vlad, "symbol_quadrature", lambda m, a, k: 1e6)
    with pytest.raises(ConsistencyError):
        multiplier(BallModel(2, 0, 3), 1.234567)


LEVEL_MODELS = STANDARD_MODELS + [
    (2, 0, 0, 1.0),   # S = 1
    (3, -1, 1, 0.7),  # S = 1 with a negative N
    (3, -2, 4, 1.6),
    (7, 0, 3, 1.3),
    (7, 1, 1, 2.4),
    (2, 0, 9, 2.8),   # (p**j)**alpha and p**(alpha*j) round apart here
    (5, -1, 6, 2.4),
]


@pytest.mark.parametrize("p, N, M, alpha", LEVEL_MODELS,
                         ids=[f"p{p}_N{N}_M{M}_a{a}" for p, N, M, a in LEVEL_MODELS])
def test_operator_levels_are_the_multiplier_levels(p, N, M, alpha):
    model = BallModel(p, N, M)
    eig = multiplier(model, alpha).eigenvalues
    levels = vlad.operator_levels(model, alpha)
    assert np.array_equal(levels, radial_levels(model, eig))
    assert levels.shape == (N + M + 1,)
    assert levels[-1] == eig[0] == lambda_value(p, alpha, N)
    assert np.array_equal(np.sort(eig), spectrum_multiset(model, alpha))
    # one cached array is shared by every solver, so it must stay read-only
    assert vlad.operator_levels(model, alpha) is levels
    with pytest.raises(ValueError):
        levels[0] = 0.0


def test_matrix_row_sums_round_at_the_scale_of_the_weights():
    # row sums are lambda only in exact arithmetic: the diagonal
    # lambda - sum(w) and the row's own sum round at the scale of sum(w)
    eps = np.finfo(np.float64).eps
    for (p, N, M), alpha in (((2, -1, 10), 2.4), ((5, 0, 4), 2.22),
                             ((3, -2, 7), 2.4), ((7, 1, 2), 1.0), ((2, 2, 8), 3.0)):
        model = BallModel(p, N, M)
        w = vlad.matrix_row(model, alpha)[1:]
        assert not w.flags.writeable
        A = build_matrix(model, alpha)
        lam = lambda_value(p, alpha, N)
        assert np.max(np.abs(A.sum(axis=1) - lam)) <= 16 * eps * np.abs(w).sum()


# -- the O(S^2) oracles against their roll-loop definitions ----------


def _roll_hypersingular(u, alpha):
    model = u.model
    w = np.zeros(model.S)
    w[1:] = (coefficient_ap(model.p, alpha) * float(model.p) ** (-model.M)
             * point_abs_table(model)[1:] ** (-alpha - 1.0))
    acc = np.zeros_like(u.values)
    for j in range(1, model.S):
        acc += w[j] * np.roll(u.values, j)
    lam = lambda_value(model.p, alpha, model.N)
    return lam * u.values + acc - float(w.sum()) * u.values


def _roll_global_restriction(u, alpha):
    model = u.model
    p = model.p
    a_p = coefficient_ap(p, alpha)
    vt = valuation_table(model)
    acc = np.zeros_like(u.values)
    weight_total = 0.0
    for l in range(-model.M + 1, model.N + 1):
        idx = np.nonzero(vt == model.N - l)[0]
        idx = idx[idx != 0]
        weight = a_p * float(p) ** (-model.M) * float(p) ** (-l * (alpha + 1.0))
        for j in idx:
            acc += weight * np.roll(u.values, j)
        weight_total += weight * idx.size
    tail = -a_p * (1.0 - 1.0 / p) * float(p) ** (-alpha * (model.N + 1)) / (
        1.0 - float(p) ** (-alpha))
    return tail * u.values + acc - weight_total * u.values


def _roll_convolve(u, v):
    acc = np.zeros(u.model.S, dtype=np.result_type(u.values, v.values))
    for m in range(u.model.S):
        acc += v.values[m] * np.roll(u.values, m)
    return acc * float(u.model.p) ** (-u.model.M)


# largest ladder depth L with p**L <= 2401
_ORACLE_DEPTH = {2: 11, 3: 7, 5: 4, 7: 4}


@st.composite
def _oracle_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    N = draw(st.sampled_from([-1, 0, 1]))
    L = draw(st.integers(0, _ORACLE_DEPTH[p]))
    model = BallModel(p, N, L - N)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    complex_u, complex_v = draw(st.booleans()), draw(st.booleans())
    u = rng.standard_normal(model.S) + (1j * rng.standard_normal(model.S) if complex_u else 0)
    v = rng.standard_normal(model.S) + (1j * rng.standard_normal(model.S) if complex_v else 0)
    alpha = draw(st.floats(0.3, 2.4))
    return GridFunction(model, u), GridFunction(model, v), alpha


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_oracle_cases())
def test_circulant_oracles_match_their_roll_loops(case):
    # one circulant matvec replaces S np.roll calls; the sum order changes
    u, v, alpha = case
    assert rel_linf(_roll_hypersingular(u, alpha),
                    apply_hypersingular(u, alpha).values, floor=1e-300) < 1e-13
    assert rel_linf(_roll_global_restriction(u, alpha),
                    apply_global_restriction(u, alpha).values, floor=1e-300) < 1e-13
    assert rel_linf(_roll_convolve(u, v), u.convolve(v).values, floor=1e-300) < 1e-13


def test_oracles_use_neither_the_transform_nor_the_ladder(monkeypatch):
    model = BallModel(3, -1, 5)
    u = random_function(model, 11)
    want = (apply_hypersingular(u, 1.3).values, apply_global_restriction(u, 1.3).values,
            dft_direct(u.values, +1), dft_direct(u.values, -1))

    def refuse(*args, **kwargs):
        raise AssertionError("an O(S^2) oracle reached the spectral path")

    for name in ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
                 "fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2"):
        monkeypatch.setattr(np.fft, name, refuse)
    for module in (fourier_ball, vlad, linear_solver):
        monkeypatch.setattr(module, "apply_radial", refuse)
    with pytest.raises(AssertionError):
        apply_spectral(u, 1.3)
    got = (apply_hypersingular(u, 1.3).values, apply_global_restriction(u, 1.3).values,
           dft_direct(u.values, +1), dft_direct(u.values, -1))
    for a, b in zip(want, got):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_non_finite_alpha_is_refused(alpha):
    # NaN passed "alpha <= 0" and the quadrature cross-check, so the
    # levels came back [nan ...] and alpha = inf [inf ... nan]: evolve
    # and apply_spectral returned all NaN without an error
    model = BallModel(2, 0, 4)
    u = GridFunction(model, np.arange(16.0))
    calls = [lambda: vlad.operator_levels(model, alpha),
             lambda: evolve(u, alpha, 1.0),
             lambda: evolve(u, alpha, 1.0, path="kernel"),
             lambda: apply_spectral(u, alpha),
             lambda: resolvent_apply(u, alpha, 0.9)]
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()
