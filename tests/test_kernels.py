import itertools
import math
import sys
import threading

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from padic_heat import (
    BallModel,
    GridFunction,
    NonConvergenceError,
    Nonlinearity,
    ball_kernel_gridfunction,
    c_series,
    constant,
    evolve,
    evolve_series,
    green_ball_integral,
    green_estimates_report,
    green_kernel,
    green_kernel_gridfunction,
    green_kernel_series,
    heat_kernel_ball,
    heat_kernel_ball_series,
    heat_kernel_global,
    global_kernel_ball_mass,
    global_kernel_mass,
    lambda_value,
    lgamma_decay_suite,
    random_function,
    resolvent_apply,
    symbol_quadrature,
)
from padic_heat import fourier_ball, kernels, linear_solver, series, vladimirov
from padic_heat.ball_model import Constants, coefficient_ap, freq_abs_table, valuation_table
from padic_heat.vladimirov import (
    RieszDistribution,
    apply_hypersingular,
    apply_spectral,
    build_matrix,
    spectrum_multiset,
)

from tests.conftest import alarm


# -- whole-field heat kernel -------------------------------------------


@pytest.mark.parametrize("m", [0, None])
@pytest.mark.parametrize("eps_tail", [0.0, -1e-16, math.nan, math.inf])
def test_global_kernel_refuses_a_tail_cut_it_never_meets(eps_tail, m):
    # p**l only falls to 0.0, so a cut of 0 or below, or NaN, was never
    # met and the sphere loop ran forever
    with alarm(5):
        with pytest.raises(ValueError, match="eps_tail"):
            heat_kernel_global(2, 1.0, 1.0, m, eps_tail)


def test_global_kernel_value_pin():
    # p = 2, alpha = 1, t = 1, |x| = 1: the sphere sum written out by hand
    want = math.fsum(0.5 * 2.0 ** l * math.exp(-(2.0 ** l)) for l in range(0, -80, -1))
    want -= math.exp(-2.0)
    got = heat_kernel_global(2, 1.0, 1.0, 0)
    assert abs(got - want) < 1e-15


def fft_oracle(p, N, M, alpha, t):
    # high-resolution synthesis of the oscillatory integral, with the
    # zero-frequency coset integrated exactly instead of flattened
    model = BallModel(p, N, M)
    fa = freq_abs_table(model)
    coeffs = np.exp(-t * fa ** alpha)
    q = 1.0 - 1.0 / p
    parts = []
    l = -N
    while float(p) ** l > 1e-30:
        parts.append(q * float(p) ** l * math.exp(-t * float(p) ** (alpha * l)))
        l -= 1
    coeffs[0] = float(p) ** N * math.fsum(parts)
    return model, float(p) ** (-N) * np.fft.fft(coeffs).real


def test_global_kernel_against_fft_oracle():
    cases = [(2, 12, 6, 1.0, 0.5), (2, 12, 6, 1.0, 2.0), (3, 7, 4, 2.0, 1.0)]
    for p, N, M, alpha, t in cases:
        model, vals = fft_oracle(p, N, M, alpha, t)
        for m in range(-4, 5):
            n = p ** (N - m)
            got = heat_kernel_global(p, alpha, t, m)
            want = float(vals[n % model.S])
            assert abs(got - want) < 1e-9 * abs(want)
        assert abs(heat_kernel_global(p, alpha, t, None) - vals[0]) < 1e-12


def test_global_kernel_mass_is_one():
    for p in (2, 3, 5):
        for alpha in (0.5, 1.0, 2.0):
            for t in (0.1, 1.0, 10.0):
                assert abs(global_kernel_mass(p, alpha, t) - 1.0) < 1e-12


@pytest.mark.parametrize("alpha, t, top", [(0.05, 1e10, 1731), (0.05, 1.0, 1067),
                                           (0.0522, 1.0, 1022)])
def test_global_kernel_mass_refuses_spheres_past_float_range(alpha, t, top):
    # a bare OverflowError came from the weight 2**top past float range, and
    # at top = 1022 the tail cut 1e-16/2**top rounded to 0.0, which
    # heat_kernel_global refused as an eps_tail the caller never passed
    with pytest.raises(ValueError, match=rf"up to 2\*\*{top}, past about 4e307"):
        global_kernel_mass(2, alpha, t)
    # top = 1020, just below the limit, still sums to 1
    assert abs(global_kernel_mass(2, 0.0523, 1.0) - 1.0) < 1e-12


@pytest.mark.parametrize("p, alpha, t", [(2, 0.5, 1e-3), (2, 0.35, 1e-2), (7, 0.35, 1e-4)])
def test_global_masses_at_small_times(p, alpha, t):
    # the kernel near x = 0 grows like t**(-1/alpha), so a sum cut at a
    # fixed radius p**m < 1e-16 misses up to 7e-6 of the mass here; the
    # sphere sum must stop relative to its largest term.  The ball's mass
    # and the mass outside it, summed sphere by sphere, add to 1.
    q = 1.0 - 1.0 / p
    assert abs(global_kernel_mass(p, alpha, t) - 1.0) < 1e-12
    outside = math.fsum(q * float(p) ** m * heat_kernel_global(p, alpha, t, m, 1e-16 * float(p) ** -m)
                        for m in range(1, 120))
    assert abs(global_kernel_ball_mass(p, 0, alpha, t) + outside - 1.0) < 1e-12


def test_global_ball_mass_against_fft_oracle():
    p, N, M, alpha, t = 2, 12, 6, 1.0, 1.0
    model, vals = fft_oracle(p, N, M, alpha, t)
    # mass over the unit ball: points with valuation >= N, coset measure p**-M
    sub = vals[::p ** N]
    want = float(np.sum(sub)) * float(p) ** (-M)
    got = global_kernel_ball_mass(p, 0, alpha, t)
    assert abs(got - want) < 1e-11


def test_global_kernel_positivity_and_monotone_tail():
    for t in (0.05, 1.0, 20.0):
        vals = [heat_kernel_global(2, 1.0, t, m) for m in range(-10, 11)]
        assert min(vals) > 0.0
        # the radial profile decays like |x|^(-alpha-1) far out
        assert vals[-1] < vals[len(vals) // 2]


def test_global_kernel_validation():
    with pytest.raises(ValueError):
        heat_kernel_global(2, 1.0, 0.0, 0)
    with pytest.raises(ValueError):
        heat_kernel_global(2, 0.0, 1.0, 0)


def _heat_kernel_global_per_term(p, alpha, t, m, eps_tail=1e-16):
    """heat_kernel_global as it summed before its per-call constants were
    hoisted: log(p), log(t) and float(p) formed again in every term."""
    def exp_neg(exponent):
        logarg = exponent * math.log(p) + math.log(t)
        if logarg > 709.0:
            return 0.0
        return math.exp(-t * float(p) ** exponent)

    q = 1.0 - 1.0 / p
    if m is None:
        l = int(math.ceil(math.log(745.0 / t) / (alpha * math.log(p)))) + 1
        acc = 0.0
    else:
        e_bnd = exp_neg(alpha * (1 - m))
        acc = -float(p) ** (-m) * e_bnd if e_bnd > 0.0 else 0.0
        l = -m
    while True:
        acc += q * float(p) ** l * exp_neg(alpha * l)
        if float(p) ** l < eps_tail:
            return acc
        l -= 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 5, 7]), st.floats(0.3, 2.8), st.floats(-3.0, 2.5),
       st.one_of(st.none(), st.integers(-8, 8)))
def test_global_kernel_bit_equals_the_per_term_loop(p, alpha, log_t, m):
    t = 10.0 ** log_t
    got = heat_kernel_global(p, alpha, t, m)
    assert got.hex() == _heat_kernel_global_per_term(p, alpha, t, m).hex()


def _global_kernel_at_zero_mp(p, alpha, t):
    """The x = 0 sphere sum of the whole-field kernel at 30 digits, from
    its peak sphere, where t*alpha*p**(alpha*l) = 1, up until a term falls
    below 1e-35 of the peak's and down until the weight p**l does."""
    with mp.workdps(30):
        P, A, T = mp.mpf(p), mp.mpf(alpha), mp.mpf(t)
        q = 1 - 1 / P
        top = math.floor(-math.log(t * alpha) / (alpha * math.log(p)))
        peak = q * P ** top * mp.exp(-T * P ** (A * top))
        acc = mp.mpf(0)
        for step in (1, -1):
            l = top if step == 1 else top - 1
            while True:
                term = q * P ** l * mp.exp(-T * P ** (A * l))
                acc += term
                if (term if step == 1 else P ** l) < peak * mp.mpf(10) ** -35:
                    break
                l += step
        return acc


@pytest.mark.parametrize("p, alpha, t", [(2, 0.006, 1.0), (2, 0.006, 10.0), (2, 0.009, 0.1),
                                         (2, 0.009, 1.0), (3, 0.009, 1.0), (7, 0.009, 1.0)])
def test_global_kernel_at_zero_answers_where_its_start_weight_overflows(p, alpha, t):
    # the x = 0 sum starts where the decay underflows, at 2**1062 for
    # (2, 0.009, 1): forming that weight raised OverflowError, though the
    # value, 2.1e180 there, fits in a double
    with alarm(10):
        got = heat_kernel_global(p, alpha, t, None)
    want = _global_kernel_at_zero_mp(p, alpha, t)
    assert abs(got - want) < 1e-13 * want


@pytest.mark.parametrize("p, alpha, t", [(2, 0.001, 1.0), (2, 0.006, 0.1), (2, 0.00585, 1.0)])
def test_global_kernel_at_zero_raises_past_float_range(p, alpha, t):
    # these sums pass float range themselves: a term past it raises, and
    # at (2, 0.00585, 1) every term fits but their sum, which read inf
    with alarm(10):
        with pytest.raises(OverflowError):
            heat_kernel_global(p, alpha, t, None)


# -- additive constant of the ball kernel ------------------------------


def c_mass_identity_oracle(p, N, alpha, t, dps=120):
    # c(t) from the normalisation of the ball kernel: the restricted
    # global mass and the additive constant must integrate to 1.  By
    # Parseval the restricted mass is a single frequency-sphere sum,
    # p**N * sum_{l <= -N} (1-1/p) p**l exp(-t p**(alpha*l)).
    with mp.workdps(dps):
        P, T, A = mp.mpf(p), mp.mpf(t), mp.mpf(alpha)
        q = 1 - 1 / P
        lam = (P - 1) / (P ** (A + 1) - 1) * P ** (A * (1 - N))
        tiny = mp.mpf(10) ** (-dps - 10)
        mass = mp.mpf(0)
        l = -N
        while True:
            mass += q * P ** l * mp.e ** (-T * P ** (A * l))
            if P ** l < tiny:
                break
            l -= 1
        mass *= P ** N
        return float(P ** (-N) * (1 - mp.e ** (lam * T) * mass))


def test_c_series_against_mass_identity():
    for p, N, alpha in ((2, 0, 1.0), (3, 0, 2.0), (5, -1, 1.5), (2, 1, 0.5)):
        for t in (0.1, 1.0, 10.0):
            got = c_series(p, N, alpha, t)
            want = c_mass_identity_oracle(p, N, alpha, t)
            assert abs(got - want) < 1e-13 * max(abs(want), 1e-6)


def test_c_series_small_time_limit():
    # c(0+) = 0; at t = 1e-8 the constant is O(t)
    assert abs(c_series(2, 0, 1.0, 1e-8)) < 1e-6


def test_c_series_at_a_hump_that_underflows():
    # x = t*p**(-N*alpha) is 0.0 in float here, and the term cap takes
    # no logarithm of it
    assert abs(c_series(7, 5, 6.0, 1e-300)) < 1e-290


def test_c_series_term_cap():
    # the cap follows the stopping rule, as on the series route:
    # lambda*t = 427 and hump x = 640 need about 2150 terms, past
    # the fixed 500 that once refused this case.  The reference is the
    # term-by-term mpmath sum, 30 digits past the evaluator's, stopped 30
    # digits further down
    p, N, alpha, t = 2, -3, 1.0, 80.0
    with alarm(30):
        got = c_series(p, N, alpha, t)
    with mp.workdps(series._series_dps(p, N, alpha, t) + 30):
        P, A = mp.mpf(p), mp.mpf(alpha)
        grow = mp.e ** ((P - 1) / (P ** (A + 1) - 1) * P ** (A * (1 - N)) * t)
        total, _, last = _c_total_power_per_term(p, N, alpha, t,
                                                 mp.mpf(10) ** (-46) / grow, 10 ** 4)
        want = float(P ** (-N) * (1 - (1 - 1 / P) * grow * total))
    assert last > 2000
    assert abs(got - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("t", [2e6, 1e12])
def test_c_series_refuses_a_huge_hump_at_once(t):
    # x = t: its floor(x) + 3 terms alone pass the work budget at the
    # digits the hump needs, so the sum is refused before the term cap's
    # loop or any arithmetic at that precision (1.4 million digits at 2e6)
    with alarm(1):
        with pytest.raises(NonConvergenceError, match="work budget"):
            c_series(2, 0, 1.0, t)


def _c_total_at(p, N, alpha, t, eps_increment, term_cap, dps):
    """``series._c_total`` at ``dps`` digits with the stopping threshold
    ``eps_increment``, its hump and ratio formed as ``_grow_and_c`` forms
    them, its integers read as mpmath numbers, exactly."""
    B = series._fixed_bits(dps)
    eps = int(mp.ceil(mp.ldexp(eps_increment, B)))
    R, H = series._p_powers(p, N, alpha, B)
    t_num, t_den = t.as_integer_ratio()
    return mp.ldexp(series._c_total(p, H * t_num // t_den, R, B, eps, term_cap), -B)


def _c_total_power_per_term(p, N, alpha, t, eps_increment, term_cap):
    """``series._c_total`` as it summed before the running product, one
    mpmath power per term; also returns the sum of |increments| and the
    index of the last term."""
    P = mp.mpf(p)
    x = mp.mpf(t) * P ** (-N * alpha)
    hump = float(x)
    term_base = mp.mpf(1)
    total = mp.mpf(0)
    size = mp.mpf(0)
    n = 0
    while True:
        inc = term_base / (1 - P ** (-mp.mpf(alpha) * n - 1))
        total += inc
        size += abs(inc)
        if abs(inc) < eps_increment and n > hump:
            return total, size, n
        n += 1
        if n > term_cap:
            raise NonConvergenceError(f"no convergence in {term_cap} terms")
        term_base *= -x / n


def _c_total_mp(p, alpha, x, ratio, eps_increment, term_cap):
    """The fixed-point sum as the series layer ran it with mpmath around
    it: x and ratio = p**(-alpha), mpmath numbers at the working
    precision, rounded to integers scaled by 2**B, B = prec + 64, and the
    total converted back."""
    B = mp.mp.prec + 64
    one = 1 << B
    X = int(mp.nint(mp.ldexp(x, B)))
    R = int(mp.nint(mp.ldexp(ratio, B)))
    eps = int(mp.ceil(mp.ldexp(mp.mpf(eps_increment), B)))
    hump = float(x)
    term = one
    power = one // p
    total = 0
    n = 0
    while True:
        inc = (term << B) // (one - power) if power else term
        total += inc
        if abs(inc) < eps and n > hump:
            return mp.ldexp(total, -B)
        n += 1
        assert n <= term_cap
        term = -((term * X) >> B) // n
        power = (power * R) >> B


def _grow_and_c_mp(p, N, alpha, t, dps):
    """exp(lambda*t) and c(t) as mpmath numbers at ``dps`` digits, as the
    series layer formed them before its integers: p**alpha from mpmath's
    exp and log, exp(lambda*t) and c(t) from mpmath arithmetic around the
    fixed-point sum, under the same work budget."""
    x = t * float(p) ** (-N * alpha)
    series._check_series_work(math.floor(x) + 3, dps)
    cap = series._series_term_cap(x, math.log(1e-16) - lambda_value(p, alpha, N) * t)
    series._check_series_work(cap, dps)
    with mp.workdps(dps):
        p_alpha = mp.exp(mp.mpf(alpha) * mp.log(p))
        p_hump = p_alpha ** (-N)
        grow = mp.exp((p - 1) / (p * p_alpha - 1) * p_alpha * p_hump * t)
        total = _c_total_mp(p, alpha, t * p_hump, 1 / p_alpha, mp.mpf(10) ** (-16) / grow, cap)
        return grow, mp.mpf(p) ** (-N) * (1 - (1 - mp.mpf(1) / p) * grow * total)


def test_integer_series_rounds_as_the_mpmath_evaluator():
    # exp(lambda*t) and c(t) in integers against the mpmath evaluator
    # they replace, at c_series's digits: the same doubles, and the same
    # 21 inputs refused.  c near 0 cancels to below the mpmath evaluator's
    # own rounding, so there the two agree to 1e-25, not to the bit
    refused = 0
    for p, N, alpha, t in itertools.product([2, 3, 5, 7], range(-2, 3),
                                            [0.35, 0.7, 1.0, 1.3, 2.4, 2.8],
                                            [0.1, 1.0, 4.0, 10.0, 30.0]):
        dps = series._series_dps(p, N, alpha, t)
        try:
            grow_want, c_want = _grow_and_c_mp(p, N, alpha, t, dps)
        except NonConvergenceError:
            refused += 1
            with pytest.raises(NonConvergenceError, match="work budget"):
                c_series(p, N, alpha, t)
            continue
        B = series._fixed_bits(dps)
        grow, c = series._grow_and_c(p, N, alpha, t, dps)
        assert series._to_float(grow, B) == float(grow_want)
        if abs(c_want) < 1e-12:
            with mp.workdps(dps):
                assert abs(mp.ldexp(c, -B) - c_want) < 1e-25
        else:
            assert c_series(p, N, alpha, t) == float(c_want)
    assert refused == 21
    # c(t) is about -5.7e556 and -8.3e577 here: a plain integer division
    # raises OverflowError, and the double is -inf, as mpmath rounds it
    assert c_series(7, -2, 1.0, 30.0) == -math.inf
    assert c_series(3, -2, 2.4, 10.0) == -math.inf


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(-2, 1), st.floats(0.35, 2.4),
       st.floats(0.01, 30.0))
def test_c_series_running_product_matches_power_per_term(p, N, alpha, t):
    # the evaluator's rule: increments below 1e-16/exp(lambda*t), at most
    # the ``_series_term_cap`` terms of that rule; a hump below 500 keeps
    # the per-term mpmath reference quick
    x = t * float(p) ** (-N * alpha)
    assume(x < 500)
    cap = series._series_term_cap(x, math.log(1e-16) - lambda_value(p, alpha, N) * t)
    dps = series._series_dps(p, N, alpha, t)
    with mp.workdps(dps):
        P, A = mp.mpf(p), mp.mpf(alpha)
        grow = mp.e ** ((P - 1) / (P ** (A + 1) - 1) * P ** (A * (1 - N)) * t)
        eps = mp.mpf(10) ** (-16) / grow
        want, size, last = _c_total_power_per_term(p, N, alpha, t, eps, cap)
        got = _c_total_at(p, N, alpha, t, eps, cap, dps)
        # the running power carries last + 1 roundings where mpmath's power
        # carries one, and the partial sums round differently: a few
        # 2**-prec per term, relative to the sum of |increments|; about
        # one draw in thirty differs at all
        assert abs(got - want) <= 4 * (last + 2) * mp.eps * size
        c_want = float(P ** (-N) * (1 - (1 - 1 / P) * grow * want))
    assert c_series(p, N, alpha, t) == c_want


@pytest.mark.parametrize("p, N, alpha, times", [
    pytest.param(3, 0, 0.43, (0.1, 1.0, 10.0), id="p3_N0_a0.43"),
    pytest.param(3, -1, 1.57, (10.0, 20.0), id="p3_N-1_a1.57"),
])  # alphas no other test sums the series for
def test_series_route_sums_c_once_per_time(monkeypatch, p, N, alpha, times):
    # c(t) does not depend on the radius, so the radii of one time share
    # one summation of its series, at lambda*t from 0.08 to 80
    calls = [0]
    c_total = series._c_total

    def counting(*args):
        calls[0] += 1
        return c_total(*args)

    monkeypatch.setattr(series, "_c_total", counting)
    for t in times:
        for m in list(range(N, N - 7, -1)) + [None]:
            a = heat_kernel_ball(p, N, alpha, t, m)
            b = heat_kernel_ball_series(p, N, alpha, t, m)
            assert abs(a - b) < 1e-10 * max(abs(a), 1.0)
    assert calls[0] == len(times)


@st.composite
def _series_route_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    N = draw(st.integers(-3, 2))
    alpha = draw(st.floats(0.03, 2.8))
    t = draw(st.floats(0.1, 20.0))
    return p, N, alpha, t


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_series_route_cases())
def test_series_route_matches_the_character_sum(case):
    # at lambda*t <= 30 the route once summed in double: it lost eps*|c|
    # at N < 0, where |c| reaches 1e10, and at N >= 0 multiplied the
    # global kernel's 1e-16 tail cut by exp(lambda*t), 3.3e-4 off at worst
    p, N, alpha, t = case
    assume(lambda_value(p, alpha, N) * t <= 30.0)
    with alarm(30):
        for m in list(range(N, N - 7, -1)) + [None]:
            a = heat_kernel_ball(p, N, alpha, t, m)
            b = heat_kernel_ball_series(p, N, alpha, t, m)
            assert abs(a - b) < 1e-10 * max(abs(a), 1.0)


@pytest.mark.parametrize("alpha, t", [(0.03, 0.1), (0.03, 1.0), (0.01, 1.0)])
def test_series_route_at_x0_counts_each_sphere_weight(alpha, t):
    # at small alpha the x = 0 sum peaks far above the ball's top, its
    # weights p**l past 1e100: a cut on the decay alone missed by 2.5e-5
    # at alpha = 0.03 and by almost the whole value at 0.01, and decays
    # below 2**-B rounded to 0 missed by 6.5e-5 at 0.01
    with alarm(30):
        a = heat_kernel_ball(2, 0, alpha, t, None)
        b = heat_kernel_ball_series(2, 0, alpha, t, None)
    assert abs(a - b) < 1e-10 * max(abs(a), 1.0)


def test_series_route_refuses_an_x0_sum_past_the_work_budget():
    # alpha = 0.001: the x = 0 sum runs to sphere 13166 at about 4000
    # digits; refused before any sphere is formed, naming that sum
    with alarm(5):
        with pytest.raises(NonConvergenceError, match="x = 0 sphere sum.*work budget"):
            heat_kernel_ball_series(2, 0, 0.001, 1.0, None)
    assert heat_kernel_ball_series(2, 0, 0.001, 1.0, -5) > 0.0


@pytest.mark.parametrize("t", [10.0, 30.0])
def test_series_route_at_negative_N(t):
    # the series terms reach t*p**(-alpha*(N+1)) >= t at N < 0, so an
    # exponent rounded in float put the route off by 2e6 at t = 10
    p, N, alpha = 3, -1, 1.6
    assert lambda_value(p, alpha, N) * t > 30.0
    for m in list(range(N, N - 7, -1)) + [None]:
        a = heat_kernel_ball(p, N, alpha, t, m)
        b = heat_kernel_ball_series(p, N, alpha, t, m)
        assert abs(a - b) < 1e-10 * max(abs(a), 1.0)


# mpmath sphere terms of ``_per_radius_series`` by (p, alpha, t, dps, l):
# the radii of one time add the same terms, each formed once
_SPHERE_TERMS = {}


def _per_radius_series(p, N, alpha, t, m):
    """The series route with every sphere summed again for this radius."""
    lam = lambda_value(p, alpha, N)
    tail_digits = 15 + int(math.ceil(lam * t * math.log10(math.e)))
    dps = series._series_dps(p, N, alpha, t) + tail_digits
    B = series._fixed_bits(dps)
    grow, c = series._grow_and_c(p, N, alpha, t, dps)
    with mp.workdps(dps):
        # from the evaluator's integers into mpmath, exactly
        grow, c = mp.ldexp(grow, -B), mp.ldexp(c, -B)
        P = mp.mpf(p)
        q = 1 - 1 / P
        T = mp.mpf(t)
        if m is None:
            # up from the ball's top sphere until a sphere's weight times
            # its decay, past their peak, falls below 10**(-tail_digits-10)
            l = -N
            while (t * alpha * p ** (alpha * l) < 1.0 or l * math.log(p)
                   - t * p ** (alpha * l) >= -(tail_digits + 10) * math.log(10)):
                l += 1
            acc = mp.mpf(0)
        else:
            acc = -P ** (-m) * mp.e ** (-T * P ** (alpha * (1 - m)))
            l = -m
        cutoff = mp.mpf(10) ** (-tail_digits)
        while True:
            key = (p, alpha, t, dps, l)
            if key not in _SPHERE_TERMS:
                _SPHERE_TERMS[key] = q * P ** l * mp.e ** (-T * P ** (mp.mpf(alpha) * l))
            acc += _SPHERE_TERMS[key]
            if P ** l < cutoff:
                return float(grow * acc + c)
            l -= 1


# drawn past lambda*t = 30 only: below it the mirror's spheres, rounded
# at dps digits, can land one ulp from the route's integers, as at
# (2, 0, 0.3, 1.1877476036437644), radii -2 and -5, where the route's
# 1.3430775119503886 is a 60-digit character sum's
@st.composite
def _extended_series_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    N = draw(st.integers(-2, 1))
    alpha = draw(st.floats(0.3, 2.4))
    lam_t = draw(st.floats(30.0, 200.0, exclude_min=True))
    return p, N, alpha, lam_t / lambda_value(p, alpha, N)


@settings(max_examples=24, deadline=None, derandomize=True)
@given(_extended_series_cases())
def test_extended_series_shares_its_spheres_across_radii(case):
    # one call sums the spheres below the ball's top once and each sphere
    # above it once, and reads every radius off their prefix sums; each
    # radius, alone or in that call, keeps the float of its own spheres
    p, N, alpha, t = case
    assume(30.0 < lambda_value(p, alpha, N) * t <= 200.0)
    radii = list(range(N, N - 6, -1)) + [None]
    want = [_per_radius_series(p, N, alpha, t, m) for m in radii]
    assert [heat_kernel_ball_series(p, N, alpha, t, m) for m in radii] == want
    read = series._series_reader(p, N, alpha, t, N - 5, True)
    assert [read(m) for m in radii] == want


def _series_outcome(f, *args):
    """f(*args), its floats as hex strings, or the message of its refusal."""
    try:
        out = f(*args)
    except NonConvergenceError as e:
        return str(e)
    return [b.hex() for b in out] if isinstance(out, list) else out.hex()


@st.composite
def _series_reader_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    N = draw(st.integers(-3, 2))
    alpha = draw(st.floats(0.03, 2.8))
    lam_t = draw(st.floats(0.01, 120.0))
    radii = draw(st.permutations(list(range(N, N - 7, -1)) + [None]))
    return p, N, alpha, lam_t / lambda_value(p, alpha, N), radii


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_series_reader_cases())
@example((2, 0, 0.001, 1.0, [0, None, -5]))  # x = 0 past the work budget
def test_one_series_call_over_many_radii_gives_each_radius_its_bits(case):
    # one call reads every radius, in any order, off one list of prefix
    # sums: radius m takes prefix -m less its edge sphere, x = 0 the
    # prefix at its own top, above or below the deepest radius's edge
    # sphere.  A refused call gives the refusal of one radius alone
    p, N, alpha, t, radii = case
    deepest = min(m for m in radii if m is not None)

    def one_call():
        read = series._series_reader(p, N, alpha, t, deepest, True)
        return [read(m) for m in radii]

    with alarm(60):
        one = _series_outcome(one_call)
        each = [_series_outcome(heat_kernel_ball_series, p, N, alpha, t, m) for m in radii]
    if isinstance(one, str):
        assert one in each
    else:
        assert one == each


def test_series_call_forms_one_exp_per_sphere(monkeypatch):
    # p**(alpha*l) is one running product, so each sphere costs its own
    # exp alone; a second exp per sphere above the ball formed
    # p**(alpha*l), 75 calls for 64 spheres here
    args = (2, 0, 0.7, 1.0, -3, True)
    series._series_reader(*args)  # warms _grow_and_c
    calls = {"_exp": 0, "_sphere": 0}

    def counted(name):
        original = getattr(series, name)

        def wrapper(*a):
            calls[name] += 1
            return original(*a)
        return wrapper

    for name in calls:
        monkeypatch.setattr(series, name, counted(name))
    with alarm(30):
        list(map(series._series_reader(*args), (0, -3, None)))
    assert calls["_sphere"] > 0
    # the two of _p_powers besides
    assert calls["_exp"] == calls["_sphere"] + 2


@pytest.mark.parametrize("p, N, alpha, t", [(1009, 0, 40.0, 1.0), (7, 0, 80.0, 1.0),
                                            (1009, 1, 40.0, 1.0), (1009, 2, 20.0, 1.0),
                                            (7, 3, 30.0, 0.5)])
def test_series_running_product_holds_where_p_to_the_alpha_passes_its_bits(p, N, alpha, t):
    # p**(-alpha) rounds to 0 at (1009, 0, 40), and its reciprocal divided
    # by zero; p**(-N*alpha) keeps too few bits at (1009, 2, 20) for a
    # product up from it to reach the spheres above the ball
    radii = [N, N - 1, N - 3, None]
    with alarm(30):
        read = series._series_reader(p, N, alpha, t, N - 3, True)
        got = [read(m) for m in radii]
    want = [heat_kernel_ball(p, N, alpha, t, m) for m in radii]
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-12 * max(abs(w), float(p) ** -N)


@pytest.mark.parametrize("case, without_mpmath", [
    ((2, -3, 1.0, 80.0), True),
    ((5, -1, 2.2, 30.0), False),
    ((7, -1, 2.0, 10.0), False),
])
def test_extended_series_in_integers_matches_the_mpmath_sum(case, without_mpmath,
                                                            monkeypatch):
    # the sphere sums in fixed-point integers against every sphere summed
    # in mpmath, bit for bit, at lambda*t = 427, 833 and 421, past the
    # draws above; one case runs from cold caches with mpmath unimportable
    p, N, alpha, t = case
    assert lambda_value(p, alpha, N) * t > 200.0
    radii = list(range(N, N - 7, -1)) + [None]
    want = [_per_radius_series(p, N, alpha, t, m) for m in radii]
    if without_mpmath:
        _clear_series_caches()
        monkeypatch.setitem(sys.modules, "mpmath", None)
    with alarm(30):
        assert [heat_kernel_ball_series(p, N, alpha, t, m) for m in radii] == want


@pytest.mark.parametrize("t", [1.0, 30.0])
def test_series_route_refuses_radii_outside_the_ball(t):
    # the shared sphere sums start at the ball's top sphere l = -N
    with pytest.raises(ValueError, match="must be <= N"):
        heat_kernel_ball_series(3, -1, 1.6, t, 0)


@pytest.mark.parametrize("m", [-3, None])
def test_series_route_term_cap_follows_the_stopping_rule(m):
    # lambda*t = 427, hump x = 640: the series needs 2153 terms, more
    # than a fixed cap of 2000 allowed
    p, N, alpha, t = 2, -3, 1.0, 80.0
    a = heat_kernel_ball(p, N, alpha, t, m)
    b = heat_kernel_ball_series(p, N, alpha, t, m)
    assert abs(a - b) < 1e-10 * max(abs(a), 1.0)


@pytest.mark.parametrize("dps, case", [
    (30, (2, 0, 1.3, 4.0)),
    (200, (5, -1, 0.9, 25.0)),
    (650, (3, -2, 1.1, 40.0)),
])
def test_fixed_point_c_total_matches_an_mpmath_sum(dps, case):
    # the fixed-point sum against mpmath's own, one power per term, at
    # the same precision and stopping threshold; mpmath's rounding of a
    # few 2**-prec per term, relative to the sum of |increments|, bounds
    # the gap
    p, N, alpha, t = case
    with mp.workdps(dps):
        eps = mp.mpf(10) ** (20 - dps)
        x = t * float(p) ** (-N * alpha)
        cap = series._series_term_cap(x, float(mp.log(eps)))
        want, size, last = _c_total_power_per_term(p, N, alpha, t, eps, cap)
        got = _c_total_at(p, N, alpha, t, eps, cap, dps)
        assert last > x
        assert abs(got - want) <= 4 * (last + 2) * mp.eps * size


@pytest.mark.parametrize("alpha, t", [(1.3, 10.0), (2.8, 2.0)])
def test_series_route_forms_the_hump_exponent_in_working_precision(alpha, t):
    # -N*alpha rounded in float (3*2.8 = 8.399999999999999) set the two
    # summands apart from their 17th digit: the route gave 6.4e23 at
    # alpha=1.3, t=10 and -1.3e142 at alpha=2.8, t=2
    p, N = 2, -3
    with alarm(30):
        a = heat_kernel_ball(p, N, alpha, t, N)
        b = heat_kernel_ball_series(p, N, alpha, t, N)
    assert abs(a - b) < 1e-10 * max(abs(a), 1.0)


def test_series_route_sizes_its_precision_with_no_cap():
    # c(t) here needs 3447 digits; a silent cap of 2000 returned -1.33e20
    # against the character sum's 9.0.  The sum must now agree, or refuse
    # within the work budget, never run for minutes.
    p, N, alpha, t = 3, -2, 2.8, 10.0
    assert series._series_dps(p, N, alpha, t) >= 3447
    a = heat_kernel_ball(p, N, alpha, t, N)
    with alarm(30):
        try:
            b = heat_kernel_ball_series(p, N, alpha, t, N)
        except NonConvergenceError:
            return
    assert abs(a - b) < 1e-10 * max(abs(a), 1.0)


def test_series_route_sums_the_largest_budgeted_case():
    # the case the work budget is sized to admit: about 8700 terms at
    # 2479 digits, and some 2150 spheres
    p, N, alpha, t = 2, -3, 2.8, 8.0
    with alarm(30):
        b = heat_kernel_ball_series(p, N, alpha, t, N)
    assert abs(heat_kernel_ball(p, N, alpha, t, N) - b) < 1e-10 * 8.0


def test_series_work_budget_refuses_before_summing():
    # 83582 terms at 28396 digits: refused before exp(lambda*t) is formed;
    # and a term cap of about 20 terms at two million digits, refused on
    # the cap before any arithmetic at that precision
    with alarm(30):
        with pytest.raises(NonConvergenceError, match="work budget"):
            heat_kernel_ball_series(7, -2, 2.0, 10.0, -2)
        with pytest.raises(NonConvergenceError, match="work budget"):
            series._grow_and_c(2, 0, 1.0, 1.0, 2 * 10**6)


@pytest.mark.parametrize("B", [140, 233, 1396])
def test_fixed_point_exp_matches_mpmath(B):
    # exp(y/2**B)*2**B against mpmath at B + 64 bits, within the
    # docstring's bound: |k| units of 2**-B, relative, k = round(y/ln 2),
    # plus a few units.  The arguments: the least negative y, one inside
    # (-ln 2, 0), a moderate and a large negative one, where the value
    # falls below 2**(-B-1) and shifts to 0, and two positive ones
    ys = [-1] + [n * 2 ** B // d for n, d in
                 (x.as_integer_ratio() for x in (-0.4, -20.7, 5.3, 37.9))]
    ys.append(-((B + 3) * series._ln(2, B)))
    with alarm(5), mp.workprec(B + 64):
        for y in ys:
            got = series._exp(y, B)
            want = mp.exp(mp.mpf(y) / 2 ** B) * 2 ** B
            k = abs(round(y / 2 ** B / math.log(2)))
            assert abs(got - want) <= (k + 4) * max(want / 2 ** B, 1)
    assert got == 0


def _series_bits(p, N, alpha, t, m):
    """The series route and c(t) as hex strings, "refused" where the work
    budget refuses."""
    bits = []
    for f, args in ((heat_kernel_ball_series, (p, N, alpha, t, m)), (c_series, (p, N, alpha, t))):
        try:
            bits.append(f(*args).hex())
        except NonConvergenceError:
            bits.append("refused")
    return bits


def _clear_series_caches():
    for f in (series._ln_at, series._grow_and_c):
        f.cache_clear()


def test_series_on_threads_give_their_serial_bits():
    # 4 threads sum distinct series at once, from cold caches, at
    # lambda*t from 0.002 to 1147 and at N < 0: on one precision shared
    # by the threads a sum rounds at another's digits, and a sphere list
    # shared by two sums mixes their spheres.  Afterwards the caches the
    # threads filled must give the serial bits too
    cases = [(p, N, alpha, t, m) for p in (2, 3, 5) for N in (-1, 0, 1)
             for alpha in (0.7, 1.3, 2.4) for t in (0.1, 1.0, 10.0, 30.0)
             for m in (N - 1, None)]
    assert min(lambda_value(p, a, N) * t for p, N, a, t, _ in cases) <= 30.0 < \
        max(lambda_value(p, a, N) * t for p, N, a, t, _ in cases)
    _clear_series_caches()
    want = [_series_bits(*case) for case in cases]
    _clear_series_caches()
    got, done = {}, []

    def run(i):
        for j in range(i, len(cases), 4):
            got[j] = _series_bits(*cases[j])
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
    assert sorted(done) == [0, 1, 2, 3]
    assert [got[j] for j in range(len(cases))] == want
    assert [_series_bits(*case) for case in cases] == want


# -- ball heat kernel ---------------------------------------------------


def _exp_shifted(t, lam, p, exponent):
    """exp(t*(lam - p**exponent)), 0.0 past float range of p**exponent."""
    if exponent * math.log(p) > 709.0:
        return 0.0
    arg = t * (lam - float(p) ** exponent)
    return math.exp(arg) if arg > -745.0 else 0.0


def _heat_kernel_ball_loops(p, N, alpha, t, m):
    """heat_kernel_ball as it summed before the radial sweep: the
    character sum from scratch at each radius, and at x = 0 upward until
    the decays underflow."""
    q = 1.0 - 1.0 / p
    lam = lambda_value(p, alpha, N)
    acc = 0.0
    if m is None:
        l = -N + 1
        while True:
            e = _exp_shifted(t, lam, p, alpha * l)
            if e == 0.0:
                break
            acc += q * float(p) ** l * e
            l += 1
    else:
        for l in range(-N + 1, -m + 1):
            acc += q * float(p) ** l * _exp_shifted(t, lam, p, alpha * l)
        e_bnd = _exp_shifted(t, lam, p, alpha * (1 - m))
        if e_bnd > 0.0:
            acc -= float(p) ** (-m) * e_bnd
    return float(p) ** (-N) + acc


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ball_kernel_sweep_bit_equals_the_per_radius_loops(p):
    # the sweep carries one prefix across radii and ends where its decays
    # underflow; every radius, x = 0, the grid function's spheres and its
    # zero coset (p**(-N) plus the prefix of all L terms) keep their bits,
    # at N < 0 and at S = 1 too
    for N in range(-2, 3):
        for alpha in (0.35, 0.7, 1.0, 1.3, 2.4, 2.8):
            for t in (0.01, 0.1, 1.0, 10.0, 100.0):
                for m in [None] + list(range(N, N - 8, -1)):
                    got = heat_kernel_ball(p, N, alpha, t, m)
                    assert got.hex() == _heat_kernel_ball_loops(p, N, alpha, t, m).hex()
                for L in (0, 1, 3):
                    model = BallModel(p, N, L - N)
                    spheres = [_heat_kernel_ball_loops(p, N, alpha, t, N - v) for v in range(L)]
                    q, lam = 1.0 - 1.0 / p, lambda_value(p, alpha, N)
                    prefix = 0.0
                    for l in range(1 - N, L - N + 1):
                        prefix += q * float(p) ** l * _exp_shifted(t, lam, p, alpha * l)
                    want = np.array(spheres + [float(p) ** (-N) + prefix])[valuation_table(model)]
                    assert np.array_equal(ball_kernel_gridfunction(model, alpha, t).values, want)


def test_ball_kernel_closed_form_pin():
    # p = 2, N = 0, alpha = 1, |x| = 1: Z(t) = 1 - exp(t*(2/3 - 2))
    for t in (0.25, 1.0, 4.0):
        want = 1.0 - math.exp(t * (2.0 / 3.0 - 2.0))
        assert abs(heat_kernel_ball(2, 0, 1.0, t, 0) - want) < 1e-14
    pinned = 1.0 - math.exp(2.0 / 3.0 - 2.0)
    assert abs(pinned - 0.7364028618842733) < 1e-15
    assert abs(heat_kernel_ball(2, 0, 1.0, 1.0, 0) - pinned) < 1e-9


def test_ball_kernel_two_formulas_agree(model_alpha):
    model, alpha = model_alpha
    p, N = model.p, model.N
    for t in (0.1, 1.0, 10.0):
        for m in [None] + list(range(N, N - 7, -1)):
            a = heat_kernel_ball(p, N, alpha, t, m)
            b = heat_kernel_ball_series(p, N, alpha, t, m)
            assert abs(a - b) < 1e-10 * max(abs(a), 1e-12)


def test_ball_kernel_positivity(model_alpha):
    model, alpha = model_alpha
    p, N = model.p, model.N
    for t in (0.01, 1.0, 100.0):
        for m in [None] + list(range(N, N - 12, -1)):
            assert heat_kernel_ball(p, N, alpha, t, m) > -1e-12


def test_ball_kernel_mass_is_one(model_alpha):
    model, alpha = model_alpha
    p, N = model.p, model.N
    q = 1.0 - 1.0 / p
    for t in (0.1, 1.0, 10.0):
        parts = [q * float(p) ** m * heat_kernel_ball(p, N, alpha, t, m)
                 for m in range(N, N - 50, -1)]
        # remainder ball of radius p**(N-50): the kernel is bounded there
        parts.append(float(p) ** (N - 50) * heat_kernel_ball(p, N, alpha, t, None))
        assert abs(math.fsum(parts) - 1.0) < 1e-10


def test_ball_kernel_long_time_flattens(model_alpha):
    model, alpha = model_alpha
    p, N = model.p, model.N
    flat = float(p) ** (-N)
    for m in (None, N, N - 3):
        got = heat_kernel_ball(p, N, alpha, 1e6, m)
        assert abs(got - flat) < 1e-12 * flat


def test_ball_kernel_series_guard_digit_refusal():
    # lambda*t so large that the compensated series would need an absurd
    # working precision (2.7e5, and 5.3e4 with some 23000 guard digits), a
    # hump of 1e308, whose digits pass float range as bits, or a hump past
    # float range at lambda*t = 1.3e308, where c(t) raised OverflowError:
    # the work budget refuses each at once, before any arithmetic at that
    # precision; the character-sum route stays available
    with alarm(1):
        for N, t in [(-10, 400.0), (-3, 1e4), (0, 1e308), (-1, 1e308)]:
            with pytest.raises(NonConvergenceError, match="work budget"):
                heat_kernel_ball_series(2, N, 1.0, t)
        with pytest.raises(NonConvergenceError, match="work budget"):
            c_series(2, -1, 1.0, 1e308)
    assert heat_kernel_ball(2, -10, 1.0, 400.0, -10) > 0.0


def _ball_mp(p, N, alpha, t, radii):
    # the character sum at 30 digits on each radius of ``radii`` (None for
    # x = 0), summed upward past the lowest radius and the peak of
    # p**l * exp(-t*p**(alpha*l)) until a term falls below 1e-40 of the sum
    with mp.workdps(30):
        P, q, a = mp.mpf(p), 1 - 1 / mp.mpf(p), mp.mpf(alpha)
        lam = mp.mpf(lambda_value(p, alpha, N))

        def term(c, e, l):
            return c * P ** e * mp.exp(t * (lam - P ** (a * l)))

        bottom = -min(m for m in radii if m is not None)
        prefix, acc, l = {}, mp.mpf(0), 1 - N
        while True:
            inc = term(q, l, l)
            acc += inc
            prefix[l] = acc
            if l > bottom and inc < mp.mpf(10) ** -40 * acc and inc < term(q, l - 1, l - 1):
                break
            l += 1
        return [P ** -N + (acc if m is None else prefix[-m] - term(1, -m, 1 - m))
                for m in radii]


@pytest.mark.parametrize("t", [0.1, 1.0])
def test_ball_kernel_at_small_alpha_past_float_range_of_a_sphere_weight(t):
    # at alpha = 0.01 the weight p**l of a sphere below m = -1023 passes
    # float range while its decay does not vanish (t = 0.1 sums up to
    # l = 1287); formed as one power, the term stays a double.  At t = 1
    # the decays underflow near l = 955, so these radii take the value at
    # x = 0.  The sweep raised OverflowError at p**1024
    radii = [-1023, -1024, -1050, -1100, -1300, None]
    with alarm(10):
        want = _ball_mp(2, 0, 0.01, t, radii)
        for m, w in zip(radii, want):
            assert abs(heat_kernel_ball(2, 0, 0.01, t, m) - w) < 1e-12 * w


def test_ball_kernel_raises_where_its_sweep_prefix_passes_float_range():
    # at alpha = 0.00585 every term of the prefix fits in a double but
    # their sum does not; the kernel read inf at x = 0.  The sphere m = 0
    # forms no prefix and still answers
    with alarm(10):
        assert math.isfinite(heat_kernel_ball(2, 0, 0.00585, 1.0, 0))
        with pytest.raises(OverflowError):
            heat_kernel_ball(2, 0, 0.00585, 1.0, None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 5, 7, 1009]), st.floats(0.01, 20.0), st.integers(-3, 3),
       st.floats(1e-3, 1e3))
def test_lambda_t_stays_below_the_series_hump(p, alpha, N, t):
    # lambda*t / x = (p-1)/(p - p**(-alpha)) < 1 at the hump
    # x = t*p**(-N*alpha): any lambda*t whose guard digits pass 20000 has
    # a hump whose c(t) series passes the work budget first, so the
    # budget is the series route's one refusal
    assert lambda_value(p, alpha, N) * t < t * float(p) ** (-N * alpha)


def test_grid_kernel_matches_radial_values(model_alpha):
    model, alpha = model_alpha
    p, N, M = model.p, model.N, model.M
    t = 0.7
    grid = ball_kernel_gridfunction(model, alpha, t)
    vt = valuation_table(model)
    for n in (1, 2, 3, model.S // 2, model.S - 1):
        want = heat_kernel_ball(p, N, alpha, t, N - int(vt[n]))
        assert abs(grid.values[n] - want) < 1e-10 * max(abs(want), 1e-12)
    # zero coset holds the average over the inner sub-ball
    q = 1.0 - 1.0 / p
    parts = [q * float(p) ** m * heat_kernel_ball(p, N, alpha, t, m)
             for m in range(-M, -M - 45, -1)]
    parts.append(float(p) ** (-M - 45) * heat_kernel_ball(p, N, alpha, t, None))
    want0 = float(p) ** M * math.fsum(parts)
    assert abs(grid.values[0] - want0) < 1e-9 * max(abs(want0), 1.0)
    assert abs(grid.integral() - 1.0) < 1e-12


def test_grid_kernel_chapman_kolmogorov(model_alpha):
    model, alpha = model_alpha
    for t1, t2 in ((0.3, 0.5), (1.0, 2.0)):
        w1 = ball_kernel_gridfunction(model, alpha, t1)
        w2 = ball_kernel_gridfunction(model, alpha, t2)
        both = w1.convolve(w2)
        direct = ball_kernel_gridfunction(model, alpha, t1 + t2)
        assert np.max(np.abs(both.values - direct.values)) < 1e-9


@st.composite
def _kernel_models(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    N = draw(st.integers(-2, 1))
    L = draw(st.sampled_from(range({2: 12, 3: 7, 5: 5, 7: 4}[p] + 1)))
    alpha = draw(st.one_of(st.just(1.0), st.floats(0.3, 2.8)))
    t = 10.0 ** draw(st.floats(-3.0, 1.5))
    return BallModel(p, N, L - N), alpha, t


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_kernel_models())
def test_grid_kernel_is_the_character_sum_on_every_sphere(case):
    model, alpha, t = case
    p, N, M = model.p, model.N, model.M
    L = N + M
    grid = ball_kernel_gridfunction(model, alpha, t).values
    # bit-radial: one value per sphere, read at n = p**v
    spheres = grid[np.append(p ** np.arange(L), 0)]
    assert np.array_equal(grid, spheres[valuation_table(model)])
    want = [heat_kernel_ball(p, N, alpha, t, N - v) for v in range(L)]
    assert spheres[:L].tolist() == want
    # zero coset: p**M times the sphere sum below -M, the centre value
    # closing the tail
    q = 1.0 - 1.0 / p
    parts = [q * float(p) ** m * heat_kernel_ball(p, N, alpha, t, m)
             for m in range(-M, -M - 60, -1)]
    parts.append(float(p) ** (-M - 60) * heat_kernel_ball(p, N, alpha, t, None))
    want0 = float(p) ** M * math.fsum(parts)
    assert abs(spheres[L] - want0) <= 1e-13 * abs(want0)


NO_LADDER_MODELS = ((2, 0, 9), (3, -1, 5), (7, 1, 2), (5, 0, 0))


def _kernel_path_values(model):
    """The values of every kernel path on one model: the two grid kernels,
    ``convolve_radial`` with the ball kernel, and the kernel paths of the
    semigroup and of the resolvent."""
    u = random_function(model, 5)
    grid = ball_kernel_gridfunction(model, 1.3, 0.4)
    return [grid.values, green_kernel_gridfunction(model, 1.3, 0.9).values,
            u.convolve_radial(grid).values, resolvent_apply(u, 1.3, 0.9, path="kernel").values,
            *(g.values for g in evolve_series(u, 1.3, [0.1, 0.4, 2.5], path="kernel"))]


def test_grid_kernel_runs_no_ladder(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the kernel path ran the ball-average ladder")

    unpatched = [_kernel_path_values(BallModel(*pnm)) for pnm in NO_LADDER_MODELS]
    ladder = ("apply_radial", "_ladder_averages", "_ladder_apply")
    for module, names in ((fourier_ball, ladder), (vladimirov, ("apply_radial", "operator_levels")),
                          (linear_solver, ladder + ("operator_levels",))):
        for name in names:
            monkeypatch.setattr(module, name, forbidden)
    for (p, N, M), want in zip(NO_LADDER_MODELS, unpatched):
        model = BallModel(p, N, M)
        grid = ball_kernel_gridfunction(model, 1.3, 0.4)
        assert abs(grid.integral() - 1.0) < 1e-12
        # every kernel path gives its unpatched bits, S = 1 included
        got = _kernel_path_values(model)
        assert len(got) == len(want) == 7
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


# -- Green function -----------------------------------------------------


def test_green_kernel_unit_sphere_pin():
    # p = 2, N = 0, alpha = 1, mu = 1: K(|x| = 1) = -1/(2 - 2/3 + 1) = -3/7
    got = green_kernel(2, 0, 1.0, 1.0, 0)
    assert abs(got - (-3.0 / 7.0)) < 1e-12


def test_green_progression_matches_sphere_series():
    # both names against the 30-digit sums of _green_mp; green_kernel_series
    # is green_kernel with its alpha > 1 refusal, so it returns the same bits
    for alpha in (1.5, 2.0, 3.0):
        for p, N in ((2, 0), (3, 1)):
            for mu in (0.5, 1.0):
                for m in [None] + list(range(N, N - 11, -1)):
                    want = float(_green_mp(p, N, alpha, mu, m))
                    a = green_kernel(p, N, alpha, mu, m)
                    b = green_kernel_series(p, N, alpha, mu, m)
                    assert abs(a - want) < 1e-13 * max(abs(want), 1e-9)
                    assert b == a


# each radial evaluator as a function of one radius exponent m, its value
# a float or a list of floats
RADIUS_CALLS = {
    "heat_kernel_ball": lambda m: heat_kernel_ball(2, 0, 1.0, 1.0, m),
    "heat_kernel_ball_series": lambda m: heat_kernel_ball_series(2, 0, 1.0, 1.0, m),
    "heat_kernel_global": lambda m: heat_kernel_global(2, 1.0, 1.0, m),
    "green_kernel": lambda m: green_kernel(2, 0, 1.0, 1.0, m),
    "green_kernel_series": lambda m: green_kernel_series(2, 0, 1.5, 1.0, m),
    "green_estimates_report m_lo": lambda m: [
        row["K"] for row in green_estimates_report(2, 0, 1.5, 1.0, (m, 0))],
    "green_estimates_report m_hi": lambda m: [
        row["K"] for row in green_estimates_report(2, 0, 1.5, 1.0, (-3, m))],
}


@pytest.mark.parametrize("bad", [-1.5, -1.0, True])
@pytest.mark.parametrize("name", list(RADIUS_CALLS))
def test_radius_exponents_must_be_integers(name, bad):
    # no point lies at radius 2**-1.5, -1.0 raised islice's TypeError or a
    # bare one, and True read as m = 1
    with pytest.raises(ValueError, match="must be an integer|bad m_range"):
        RADIUS_CALLS[name](bad)


@pytest.mark.parametrize("name", list(RADIUS_CALLS))
def test_numpy_integer_radius_gives_the_int_bits(name):
    got, want = (np.asarray(RADIUS_CALLS[name](m), dtype=np.float64) for m in (np.int64(-2), -2))
    assert got.tobytes() == want.tobytes()


def test_numpy_integer_model_gives_the_int_kernel_bits():
    for N, M in ((0, 5), (-1, 3)):
        want = ball_kernel_gridfunction(BallModel(3, N, M), 1.3, 0.4).values
        got = ball_kernel_gridfunction(BallModel(3, np.int64(N), np.int64(M)), 1.3, 0.4).values
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [1, 2, 5])
def test_green_kernel_series_refuses_a_radius_outside_the_ball(m):
    # its own sphere sum returned 0.0 for m > N, where green_kernel refuses
    with pytest.raises(ValueError, match="radius exponent m must be <= N = 0"):
        green_kernel_series(2, 0, 2.0, 1.0, m)


def test_green_center_requires_alpha_above_one():
    with pytest.raises(ValueError):
        green_kernel(2, 0, 1.0, 1.0, None)
    with pytest.raises(ValueError):
        green_kernel(2, 0, 0.5, 1.0, None)
    with pytest.raises(ValueError):
        green_kernel_series(2, 0, 1.0, 1.0, 0)
    with pytest.raises(ValueError):
        green_kernel(2, 0, 1.0, 0.0, 0)
    with pytest.raises(ValueError):
        green_kernel(2, 0, 1.0, 1.0, 1)  # m above the ball radius


def test_green_ball_integral_vanishes():
    for alpha in (1.0, 1.5, 2.0):
        for p, N, mu in ((2, 0, 1.0), (3, 1, 0.5), (5, -1, 2.0)):
            assert abs(green_ball_integral(p, N, alpha, mu)) < 1e-10
    # alpha < 1 decays slowly; the adaptive descent runs past m = -40
    assert abs(green_ball_integral(2, 0, 0.5, 1.0)) < 1e-10


def _over_d(c, p, a, b, lam, mu):
    # c * p**a / (p**b - lam + mu); past float range of p**a or p**b, as
    # c * p**(a - b) / (1 + (mu - lam) * p**(-b))
    try:
        return c * float(p) ** a / (float(p) ** b - lam + mu)
    except OverflowError:
        return c * float(p) ** (a - b) / (1.0 + (mu - lam) * float(p) ** (-b))


def _green_progression(p, N, alpha, mu, m):
    # the finite progression at one radius, summed from scratch
    q = 1.0 - 1.0 / p
    lam = lambda_value(p, alpha, N)
    acc = 0.0
    for l in range(-N + 1, -m + 1):
        acc += _over_d(q, p, l, alpha * l, lam, mu)
    acc -= _over_d(1.0, p, -m, alpha * (1 - m), lam, mu)
    return acc


def _sphere_sum(p, N, alpha, mu, m_top, stop):
    # sum of (1-1/p) p**m K(m) down from m_top, until stop(term, scale, m)
    acc = 0.0
    scale = 0.0
    m = m_top
    while True:
        term = (1.0 - 1.0 / p) * float(p) ** m * _green_progression(p, N, alpha, mu, m)
        acc += term
        scale = max(scale, abs(term))
        if stop(term, scale, m):
            return acc
        m -= 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_green_sweeps_equal_the_per_radius_sums(p):
    # the sweeps carry one prefix sum across radii; each value must be
    # the from-scratch progression bit for bit
    for N in (-1, 0, 2):
        for alpha in (0.42, 1.0, 1.7):
            for mu in (0.1, 2.0):
                for m in range(N, N - 30, -1):
                    assert green_kernel(p, N, alpha, mu, m) == _green_progression(p, N, alpha, mu, m)
                assert green_ball_integral(p, N, alpha, mu) == _sphere_sum(
                    p, N, alpha, mu, N,
                    lambda term, scale, m: abs(term) < 1e-18 * max(scale, 1e-300) and m <= -8)
                rows = green_estimates_report(p, N, alpha, mu, (-12, min(N, 0)))
                assert [r["K"] for r in rows] == [
                    _green_progression(p, N, alpha, mu, r["m"]) for r in rows]
                for M in range(-N, 4 - N):
                    model = BallModel(p, N, M)
                    want = np.empty(model.S)
                    radial = [_green_progression(p, N, alpha, mu, N - v) for v in range(N + M)]
                    want[1:] = np.array(radial)[valuation_table(model)[1:]]
                    want[0] = _green_prefix(p, N, alpha, mu, -M)
                    got = green_kernel_gridfunction(model, alpha, mu).values
                    assert np.array_equal(got, want)


def _green_prefix(p, N, alpha, mu, m):
    # the mean of K over |x| <= p**m, (1-1/p) * sum_{l=-N+1}^{-m} p**l / d(l),
    # summed from scratch in the sweep's order
    q = 1.0 - 1.0 / p
    lam = lambda_value(p, alpha, N)
    acc = 0.0
    for l in range(-N + 1, -m + 1):
        acc += q * float(p) ** l / (float(p) ** (alpha * l) - lam + mu)
    return acc


def test_green_zero_coset_is_the_adaptive_sub_ball_mean():
    # the finite prefix is the exact mean over the sub-ball |x| <= p**(-M),
    # p**M times the integral of K there, summed sphere by sphere
    for p in (2, 3, 5, 7):
        for N in range(-2, 3):
            for M in (0, 1, 3, 5):
                if N + M < 0:
                    continue
                model = BallModel(p, N, M)
                for alpha in (0.35, 0.7, 1.0, 1.4, 2.1, 2.8):
                    for mu in (0.01, 1.0, 10.0):
                        got = green_kernel_gridfunction(model, alpha, mu).values
                        adaptive = float(p) ** M * _sphere_sum(
                            p, N, alpha, mu, -M,
                            lambda term, scale, m: abs(term) < 1e-18 * max(scale, 1e-300)
                            and m <= -M - 8)
                        scale = max(float(np.max(np.abs(got))), 1.0)
                        assert abs(got[0] - adaptive) <= 1e-14 * scale


def _green_mp(p, N, alpha, mu, m):
    # the finite progression at radius p**m, or the center sum at m = None,
    # at 30 digits
    with mp.workdps(30):
        P, q = mp.mpf(p), 1 - 1 / mp.mpf(p)
        lam = mp.mpf(lambda_value(p, alpha, N))

        def over_d(c, a, l):
            return c * P ** a / (P ** (alpha * l) - lam + mu)

        if m is None:
            # the terms up to |mu - lambda| < 1e-45 * p**(alpha*top), then
            # the rest, sum_{l >= top} p**(l*(1-alpha)) / (1 + c*p**(-alpha*l))
            # with c = mu - lambda, expanded in powers of -c: each power's
            # sum over l is geometric, and the third adds below 1e-90
            c = mu - lam
            top = -N + 1
            while abs(c) >= mp.mpf(10) ** -45 * P ** (alpha * top):
                top += 1
            head = mp.fsum(over_d(1, l, l) for l in range(-N + 1, top))
            tail = mp.fsum((-c) ** k * P ** (top * (1 - alpha * (k + 1)))
                           / -mp.expm1((1 - alpha * (k + 1)) * mp.log(P)) for k in range(3))
            return q * (head + tail)
        return (mp.fsum(over_d(q, l, l) for l in range(-N + 1, -m + 1))
                - over_d(1, -m, 1 - m))


def test_green_past_float_range_of_its_denominators():
    # p**(alpha*l) and p**l pass float range while their quotient does
    # not: 1009**(2.8*41) at the ball integral's m = -40, and the center
    # sum at alpha = 1.01, which runs to p**l ~ 2**1100 before it stops
    cases = [(1009, 0, 2.8, 1.0, -40), (2 ** 61 - 1, 0, 1.0, 1.0, -40),
             (2 ** 61 - 1, -1, 1.01, 0.5, -44), (2 ** 61 - 1, 0, 0.7, 1.0, -30),
             (2, 0, 1.01, 1.0, None), (3, 1, 1.01, 2.0, None), (2 ** 61 - 1, 0, 1.6, 1.0, None)]
    for p, N, alpha, mu, m in cases:
        want = float(_green_mp(p, N, alpha, mu, m))
        assert abs(green_kernel(p, N, alpha, mu, m) - want) < 1e-13 * abs(want)
    assert abs(green_ball_integral(1009, 0, 2.8, 1.0)) < 1e-10
    # at alpha < 1 the Green function itself passes float range
    with pytest.raises(OverflowError):
        green_kernel(2 ** 61 - 1, 0, 0.3, 1.0, -25)


@pytest.mark.parametrize("alpha", [1 + 1e-10, 1 + 1e-6, 1.00001])
def test_green_center_near_alpha_one_ends_in_bounded_time(alpha):
    # the center sum ran term by term until the geometric bound on the
    # rest fell below 1e-17: 1.2 s at alpha = 1.0001, past 10 s at
    # 1.00001; the sweep's prefix plus the closed-form tail reads a
    # bounded number of radii
    with alarm(5):
        for p, N, mu in ((2, 0, 1.0), (3, -1, 1e6), (7, 2, 1e-3), (1009, 1, 10.0)):
            want = _green_mp(p, N, alpha, mu, None)
            got = green_kernel(p, N, alpha, mu)
            assert abs(got - want) < 1e-13 * abs(want)


def test_green_sweep_yields_a_radius_before_its_next_prefix_term():
    # K(-157) = 3.2e306, while the prefix term it hands to K(-158),
    # 1009**158 / d(158), passes float range: a sweep that formed that
    # term before yielding K(-157) raised OverflowError
    p, N, alpha, mu, m = 1009, -3, 0.35, 1.0, -157
    want = float(_green_mp(p, N, alpha, mu, m))
    assert want > 1e306
    assert abs(green_kernel(p, N, alpha, mu, m) - want) < 1e-13 * want
    rows = green_estimates_report(p, N, alpha, mu, (m, m))
    assert [r["K"] for r in rows] == [green_kernel(p, N, alpha, mu, m)]


def test_green_sweep_runs_on_past_a_term_that_underflows():
    # at p = 1009, alpha = 2.8 the terms fall like 1009**(-1.8*l) and
    # round to 0.0 from the radius m = -59 on; the Green sweep has no
    # end, so a sweep that stopped on a term of 0.0 left K(-100) and
    # every radius below it unanswered
    p, N, alpha, mu = 1009, 0, 2.8, 1.0
    assert _green_progression(p, N, alpha, mu, -70) == _green_progression(p, N, alpha, mu, -69)
    with alarm(10):
        assert len(list(itertools.islice(kernels._green_radial(p, N, alpha, mu), 121))) == 121
        for m in range(N, -121, -1):
            assert green_kernel(p, N, alpha, mu, m) == _green_progression(p, N, alpha, mu, m)
        rows = green_estimates_report(p, N, alpha, mu, (-120, 0))
        assert [r["K"] for r in rows] == [_green_progression(p, N, alpha, mu, m)
                                          for m in range(0, -121, -1)]
        assert green_ball_integral(p, N, alpha, mu) == _sphere_sum(
            p, N, alpha, mu, N,
            lambda term, scale, m: abs(term) < 1e-18 * max(scale, 1e-300) and m <= -8)
    assert green_kernel(p, N, alpha, mu, -100) == 3.913514686329951e-06


def test_green_continuity_at_center():
    # alpha > 1: the radial values converge to the center value
    center = green_kernel(2, 0, 2.0, 1.0, None)
    assert abs(green_kernel(2, 0, 2.0, 1.0, -60) - center) < 1e-12
    center15 = green_kernel(2, 0, 1.5, 1.0, None)
    assert abs(green_kernel(2, 0, 1.5, 1.0, -60) - center15) < 1e-8


def test_green_regime_report_alpha_below_one():
    rows = green_estimates_report(2, 0, 0.5, 1.0, m_range=(-25, 0))
    assert rows[0]["m"] == 0 and rows[-1]["m"] == -25
    # |K| * p**(m*(1-alpha)) settles to a constant: ratio -> 1
    assert abs(rows[-1]["ratio"] - 1.0) < 1e-3
    for row in rows:
        assert row["abs_x"] == 2.0 ** row["m"]


def test_green_regime_report_alpha_one():
    rows = green_estimates_report(2, 0, 1.0, 1.0, m_range=(-25, 0))
    weighted = [r["weighted"] for r in rows]
    # |K| grows no faster than log(1/|x|): the weighted values stay bounded
    assert max(weighted) < 10.0
    assert abs(rows[-1]["ratio"] - 1.0) < 0.01


def test_green_regime_report_alpha_above_one():
    rows = green_estimates_report(2, 0, 2.0, 1.0, m_range=(-25, 0))
    center = abs(green_kernel(2, 0, 2.0, 1.0, None))
    # bounded kernel: the raw values approach |K(0)|
    assert abs(rows[-1]["weighted"] - center) < 1e-6 * center
    assert abs(rows[-1]["ratio"] - 1.0) < 1e-6
    with pytest.raises(ValueError):
        green_estimates_report(2, 0, 2.0, 1.0, m_range=(0, -25))


# -- resolvent ----------------------------------------------------------


def test_resolvent_two_paths_agree():
    model = BallModel(2, 0, 4)
    for alpha in (0.5, 1.0, 2.0):
        for mu in (0.25, 1.0, 4.0):
            for seed in (0, 1):
                u = random_function(model, seed)
                a = resolvent_apply(u, alpha, mu, path="spectral")
                b = resolvent_apply(u, alpha, mu, path="kernel")
                scale = max(float(np.max(np.abs(a.values))), 1.0)
                assert np.max(np.abs(a.values - b.values)) < 1e-10 * scale


def test_resolvent_inverts_shifted_operator(model_alpha):
    model, alpha = model_alpha
    mu = 1.0
    lam = lambda_value(model.p, alpha, model.N)
    u = random_function(model, 13)
    v = resolvent_apply(u, alpha, mu)
    back = apply_spectral(v, alpha).values + (mu - lam) * v.values
    assert np.max(np.abs(back - u.values)) < 1e-9 * max(float(np.max(np.abs(u.values))), 1.0)


def test_resolvent_on_constants():
    model = BallModel(3, 0, 3)
    for mu in (0.5, 2.0):
        c = constant(model, 4.2)
        for path in ("spectral", "kernel"):
            out = resolvent_apply(c, 1.5, mu, path=path)
            assert np.max(np.abs(out.values - 4.2 / mu)) < 1e-11


def test_resolvent_validation():
    model = BallModel(2, 0, 3)
    u = random_function(model, 0)
    with pytest.raises(ValueError):
        resolvent_apply(u, 1.0, 0.0)
    with pytest.raises(ValueError):
        resolvent_apply(u, 1.0, 1.0, path="magic")


@pytest.mark.parametrize("alpha, mu", [(1.5, math.nan), (1.5, math.inf), (math.nan, 1.0),
                                       (math.inf, 1.0)])
def test_green_and_resolvent_refuse_non_finite_parameters(alpha, mu):
    # NaN passed "mu <= 0" and "alpha <= 0": the spectral resolvent came
    # back all NaN, green_kernel at m = -3 NaN, and the sphere sums ran
    # into an OverflowError
    model = BallModel(2, 0, 4)
    u = GridFunction(model, np.arange(16.0))
    calls = [lambda: resolvent_apply(u, alpha, mu),
             lambda: resolvent_apply(u, alpha, mu, path="kernel"),
             lambda: green_kernel(2, 0, alpha, mu, None),
             lambda: green_kernel(2, 0, alpha, mu, -3),
             lambda: green_kernel_series(2, 0, alpha, mu, None),
             lambda: green_kernel_series(2, 0, alpha, mu, -3),
             lambda: green_ball_integral(2, 0, alpha, mu),
             lambda: green_kernel_gridfunction(model, alpha, mu),
             lambda: green_estimates_report(2, 0, alpha, mu)]
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_kernels_refuse_non_finite_times(t):
    # NaN passed "t <= 0": heat_kernel_ball returned 1.0 at t = nan and
    # t = inf, heat_kernel_global NaN, and the series routes and
    # global_kernel_mass failed deep inside on converting NaN (or inf) to
    # an integer
    calls = [lambda: heat_kernel_ball(2, 0, 1.3, t, 0),
             lambda: heat_kernel_ball(2, 0, 1.3, t, None),
             lambda: heat_kernel_global(2, 1.3, t, 0),
             lambda: c_series(2, 0, 1.3, t),
             lambda: heat_kernel_ball_series(2, 0, 1.3, t, 0),
             lambda: global_kernel_mass(2, 1.3, t)]
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.0])
def test_scalar_routes_refuse_non_finite_alpha(alpha):
    # NaN and inf passed "alpha <= 0": heat_kernel_ball returned 1.0,
    # heat_kernel_global, lambda_value, spectrum_multiset and build_matrix
    # NaN, coefficient_ap(2, inf) -inf, and the series route failed on
    # converting NaN to an integer
    model = BallModel(2, 0, 3)
    u = GridFunction(model, np.arange(8.0))
    calls = [lambda: lambda_value(2, alpha, 0),
             lambda: coefficient_ap(2, alpha),
             lambda: heat_kernel_ball(2, 0, alpha, 1.0, 0),
             lambda: heat_kernel_ball(2, 0, alpha, 1.0, None),
             lambda: heat_kernel_ball_series(2, 0, alpha, 1.0, 0),
             lambda: heat_kernel_global(2, alpha, 1.0, 0),
             lambda: c_series(2, 0, alpha, 1.0),
             lambda: spectrum_multiset(model, alpha),
             lambda: build_matrix(model, alpha),
             lambda: apply_hypersingular(u, alpha),
             lambda: RieszDistribution(model, alpha, -1),
             lambda: Constants(2, alpha, 0),
             # these stopped on their own checks, with other messages
             lambda: global_kernel_mass(2, alpha, 1.0),
             lambda: green_kernel(2, 0, alpha, 1.0, None),
             lambda: green_kernel_series(2, 0, alpha, 1.0, None)]
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()
    # shortcuts at t = 0, k = 0 or no time returned without reading alpha;
    # each is refused with its general path's message
    shortcuts = [lambda: evolve(u, alpha, 0.0),
                 lambda: c_series(2, 0, alpha, 0.0),
                 lambda: symbol_quadrature(model, alpha, 0),
                 lambda: evolve_series(u, alpha, [], "kernel"),
                 lambda: lgamma_decay_suite(GridFunction(model, np.arange(1.0, 9.0)), [],
                                            [2.0], alpha, Nonlinearity.power(2.0))]
    for call in shortcuts:
        with pytest.raises(ValueError, match=f"^alpha must be positive and finite, got {alpha}$"):
            call()


def test_resolvent_is_laplace_transform_of_semigroup():
    from scipy.integrate import quad
    model = BallModel(2, 0, 3)
    alpha, mu = 1.0, 1.0
    K = green_kernel_gridfunction(model, alpha, mu)
    shift = float(model.p) ** (-model.N) / mu
    for n in range(model.S):
        val, _ = quad(
            lambda t: math.exp(-mu * t) * ball_kernel_gridfunction(model, alpha, t).values[n],
            0, np.inf, limit=200)
        assert abs(val - (K.values[n] + shift)) < 1e-6
