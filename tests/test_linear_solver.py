import hashlib
import math
import warnings

import numpy as np
import pytest

from padic_heat import (
    BallModel,
    GridFunction,
    ball_indicator,
    constant,
    evolve,
    evolve_series,
    multiplier,
    pde_residual,
    positive_bump,
    random_function,
    spectral_gap,
)
from padic_heat import linear_solver
from padic_heat.fourier_ball import apply_radial
from padic_heat.kernels import ball_kernel_gridfunction
from padic_heat.vladimirov import apply_spectral, operator_levels


def test_constants_are_fixed_points(model_alpha):
    model, alpha = model_alpha
    c = constant(model, 2.5)
    for t in (0.1, 1.0, 50.0):
        out = evolve(c, alpha, t)
        assert np.max(np.abs(out.values - 2.5)) < 1e-12


def test_characters_decay_at_multiplier_rate():
    model = BallModel(2, 0, 5)
    alpha = 1.0
    eig = multiplier(model, alpha).eigenvalues
    lam = eig[0]
    n = np.arange(model.S)
    for k in (1, 2, 8, 16):
        chi = GridFunction(model, np.exp(2j * np.pi * n * k / model.S))
        for t in (0.3, 2.0):
            out = evolve(chi, alpha, t)
            want = math.exp(-t * (eig[k] - lam)) * chi.values
            assert np.max(np.abs(out.values - want)) < 1e-13


def test_mass_is_conserved(model_alpha):
    model, alpha = model_alpha
    u = positive_bump(model, 0, min(0, model.N))
    m0 = u.integral()
    for t in (0.1, 1.0, 10.0, 1000.0):
        assert abs(evolve(u, alpha, t).integral() - m0) < 1e-13 * max(abs(m0), 1.0)


def test_positivity_is_preserved(model_alpha):
    model, alpha = model_alpha
    u = ball_indicator(model, center=1, radius_exp=min(0, model.N))
    for t in (0.01, 1.0, 100.0):
        assert evolve(u, alpha, t).values.min() > -1e-12


def test_l1_contraction_between_solutions(model_alpha):
    model, alpha = model_alpha
    u = random_function(model, 1)
    v = random_function(model, 2)
    gap0 = (u - v).lp_norm(1)
    prev = gap0
    for t in (0.1, 0.5, 2.0, 10.0):
        d = (evolve(u, alpha, t) - evolve(v, alpha, t)).lp_norm(1)
        assert d <= prev + 1e-12 * max(gap0, 1.0)
        prev = d


def test_l2_norm_nonincreasing(model_alpha):
    model, alpha = model_alpha
    u = random_function(model, 3)
    norms = [evolve(u, alpha, t).lp_norm(2) for t in (0.0, 0.2, 1.0, 5.0, 25.0)]
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-12 * max(norms[0], 1.0)


def test_two_paths_agree(model_alpha):
    model, alpha = model_alpha
    u = random_function(model, 7)
    scale = max(float(np.max(np.abs(u.values))), 1.0)
    for t in (0.1, 1.0, 10.0):
        a = evolve(u, alpha, t, path="spectral")
        b = evolve(u, alpha, t, path="kernel")
        assert np.max(np.abs(a.values - b.values)) < 1e-9 * scale


def test_semigroup_property(model_alpha):
    model, alpha = model_alpha
    u = random_function(model, 11)
    two_steps = evolve(evolve(u, alpha, 0.4), alpha, 1.1)
    one_step = evolve(u, alpha, 1.5)
    assert np.max(np.abs(two_steps.values - one_step.values)) < 1e-12


def test_long_time_limit_is_the_mean(model_alpha):
    model, alpha = model_alpha
    u = random_function(model, 5)
    mean = u.integral() / float(model.p) ** model.N
    gap = spectral_gap(model, alpha)
    assert gap > 0
    # after 60 gap-times every mode has decayed below doubles resolution
    t = 60.0 / gap
    out = evolve(u, alpha, t)
    assert np.max(np.abs(out.values - mean)) < 1e-12 * max(abs(mean), 1.0)


def test_decay_rate_matches_spectral_gap():
    model = BallModel(2, 0, 4)
    alpha = 1.0
    gap = spectral_gap(model, alpha)
    eig = multiplier(model, alpha).eigenvalues
    assert abs(gap - (np.min(eig[1:]) - eig[0])) < 1e-14
    u = random_function(model, 9)
    mean = u.integral()
    d1 = np.max(np.abs(evolve(u, alpha, 1.0).values - mean))
    d2 = np.max(np.abs(evolve(u, alpha, 2.0).values - mean))
    # one extra unit of time costs exactly one factor exp(-gap) on the
    # slowest mode; faster modes only help
    assert d2 <= d1 * math.exp(-gap) * (1 + 1e-9)


def test_pde_residual_small(model_alpha):
    model, alpha = model_alpha
    u = random_function(model, 13)
    scale = max(float(np.max(np.abs(u.values))), 1.0)
    for t in (0.5, 2.0):
        assert pde_residual(u, alpha, t) < 1e-6 * scale


def test_evolve_series_matches_pointwise():
    model = BallModel(3, 0, 3)
    u = random_function(model, 4)
    times = [0.2, 0.7, 1.5]
    snaps = evolve_series(u, 1.5, times)
    assert len(snaps) == 3
    for t, snap in zip(times, snaps):
        direct = evolve(u, 1.5, t)
        assert np.max(np.abs(snap.values - direct.values)) < 1e-14


def test_validation_errors():
    model = BallModel(2, 0, 3)
    u = random_function(model, 0)
    with pytest.raises(ValueError):
        evolve(u, 1.0, -0.5)
    with pytest.raises(ValueError):
        evolve(u, 1.0, 1.0, path="magic")
    with pytest.raises(ValueError):
        evolve_series(u, 1.0, [0.5, 0.5])
    with pytest.raises(ValueError):
        evolve_series(u, 1.0, [0.0, 1.0])
    with pytest.raises(ValueError):
        pde_residual(u, 1.0, 0.0)
    out = evolve(u, 1.0, 0.0)
    assert np.array_equal(out.values, u.values)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_times_are_refused(t):
    # NaN passed every "t < 0" check and came back as all NaN, and t = inf
    # met inf*0 = NaN at the k = 0 level of the spectral path
    model = BallModel(2, 0, 4)
    u = GridFunction(model, np.arange(16.0))
    calls = [lambda: evolve(u, 1.3, t), lambda: evolve(u, 1.3, t, path="kernel"),
             lambda: evolve_series(u, 1.3, [t]), lambda: evolve_series(u, 1.3, [0.5, t]),
             lambda: pde_residual(u, 1.3, t), lambda: ball_kernel_gridfunction(model, 1.3, t)]
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()


# -- one pass per call: evolve_series against the per-time formulas ----


def _spectral_at(u, alpha, t):
    # the spectral path's own formula at one time
    e = operator_levels(u.model, float(alpha))
    return apply_radial(u.model, np.exp(-t * (e - e[-1])), u.values)


def _kernel_at(u, alpha, t):
    # the kernel path's own formula at one time
    return u.convolve_radial(ball_kernel_gridfunction(u.model, float(alpha), t)).values


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


SERIES_TIMES = [1e-300, 1e-12, 0.1, 1.0, 7.5, 1e3]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_evolve_series_has_the_bits_of_the_per_time_formulas(p):
    # the up-pass and the class sums are shared across the times, and
    # each time's own pass is the one-time formula's: every snapshot
    # keeps its bits, at S = 1 too
    # S = 1, and a ladder of more than one block
    L = {2: 8, 3: 6, 5: 3, 7: 3}[p]
    for N in range(-2, 2):
        for M in (-N, L - N):
            model = BallModel(p, N, M)
            real = random_function(model, 17 + N)
            imag = random_function(model, 29 + N)
            data = [real, GridFunction(model, real.values + 1j * imag.values)]
            for alpha in (0.35, 1.0, 2.4):
                for u in data:
                    for path, formula in (("spectral", _spectral_at), ("kernel", _kernel_at)):
                        got = [s.values for s in evolve_series(u, alpha, SERIES_TIMES, path)]
                        want = [formula(u, alpha, t) for t in SERIES_TIMES]
                        assert [a.dtype for a in got] == [a.dtype for a in want]
                        assert _digest(got) == _digest(want), (model, alpha, path)


def test_evolve_series_runs_each_t_free_pass_once(monkeypatch):
    # the ladder's up-pass and the class sums depend on u0 alone, so a
    # call runs its path's once however many times it is asked for
    calls = {"up": 0, "sums": 0, "down": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(linear_solver, "_ladder_averages",
                        counted("up", linear_solver._ladder_averages))
    monkeypatch.setattr(linear_solver, "_ladder_apply",
                        counted("down", linear_solver._ladder_apply))
    monkeypatch.setattr(linear_solver, "_class_sums",
                        counted("sums", linear_solver._class_sums))
    model = BallModel(3, 0, 4)
    for u in (random_function(model, 3),
              GridFunction(model, random_function(model, 4).values * (1 + 2j))):
        for n in (1, 3, 7):
            times = [0.25 * (k + 1) for k in range(n)]
            for path, want in (("spectral", {"up": 1, "sums": 0, "down": n}),
                               ("kernel", {"up": 0, "sums": 1, "down": 0})):
                calls.update(up=0, sums=0, down=0)
                evolve_series(u, 1.3, times, path)
                assert calls == want, (path, n)


def test_every_entry_refuses_an_unknown_path():
    # evolve at t = 0 returned a copy of u0 under any path
    u = random_function(BallModel(2, 0, 3), 5)
    calls = [lambda: evolve(u, 1.0, 0.0, "bogus"),
             lambda: evolve(u, 1.0, 0.5, "bogus"),
             lambda: evolve_series(u, 1.0, [0.5, 1.0], "bogus"),
             lambda: evolve_series(u, 1.0, [], "bogus"),
             lambda: linear_solver.resolvent_apply(u, 1.0, 0.9, "bogus")]
    for call in calls:
        with pytest.raises(ValueError, match="^unknown path 'bogus'$"):
            call()


def _per_time_pde_residual(u, alpha, t):
    # the residual's formula with one evolution per time
    dt = min(1e-5 * max(t, 1.0), t / 2)
    u_min, u_mid, u_pls = (_spectral_at(u, alpha, s) for s in (t - dt, t, t + dt))
    lam = operator_levels(u.model, float(alpha))[-1]
    spatial = apply_spectral(GridFunction(u.model, u_mid), float(alpha)).values - lam * u_mid
    return float(np.max(np.abs((u_pls - u_min) / (2 * dt) + spatial)))


def test_pde_residual_refuses_a_time_whose_step_rounds_to_zero():
    # at the least subnormal t, dt = min(1e-5, t/2) rounds to 0.0, and the
    # centred difference was 0/0: NaN and a RuntimeWarning
    model = BallModel(2, 0, 4)
    u = random_function(model, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="too small"):
            pde_residual(u, 1.0, 5e-324)
        for t in (1e-320, 1e-300, 0.5, 2.0):
            got = pde_residual(u, 1.0, t)
            assert got == _per_time_pde_residual(u, 1.0, t) and math.isfinite(got)
