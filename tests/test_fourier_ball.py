import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_heat import (
    BallModel,
    GridFunction,
    SpectralFunction,
    dft_direct,
    forward,
    inverse,
    random_function,
)
from padic_heat import fourier_ball
from padic_heat.fourier_ball import apply_multiplier, apply_radial
from padic_heat.ball_model import radial_levels, valuation_table
from padic_heat.vladimirov import multiplier, operator_levels

from tests.conftest import STANDARD_MODELS, rel_linf


def test_delta_transform():
    model = BallModel(2, 0, 4)
    S = model.S
    for n0 in (0, 1, 7):
        vals = np.zeros(S)
        vals[n0] = 1.0
        f = forward(GridFunction(model, vals))
        k = np.arange(S)
        want = np.exp(2j * np.pi * n0 * k / S) / S
        assert np.max(np.abs(f.coeffs - want)) < 1e-14


def test_character_transform_is_frequency_delta():
    model = BallModel(3, 1, 3)
    S = model.S
    n = np.arange(S)
    for k0 in (0, 1, 5, S - 1):
        u = GridFunction(model, np.exp(-2j * np.pi * n * k0 / S))
        f = forward(u)
        want = np.zeros(S)
        want[k0] = 1.0
        assert np.max(np.abs(f.coeffs - want)) < 1e-12
        # and synthesis of the frequency delta reproduces the character
        back = inverse(SpectralFunction(model, want))
        assert np.max(np.abs(back.values - u.values)) < 1e-12


def test_round_trip_and_plancherel_large():
    # up to S = 3**8 = 6561, the identities must hold to 1e-12
    cases = [(2, 0, 12), (3, 0, 8), (5, 1, 4), (7, 0, 3)]
    for p, N, levels in cases:
        model = BallModel(p, N, levels)
        u = random_function(model, p + levels)
        f = forward(u)
        back = inverse(f)
        scale = float(np.max(np.abs(u.values)))
        assert np.max(np.abs(back.values - u.values)) < 1e-12 * scale
        # p**(-N) * integral |u|^2 equals the coefficient power sum
        lhs = float(model.p) ** (-model.N - model.M) * float(np.sum(np.abs(u.values) ** 2))
        rhs = float(np.sum(np.abs(f.coeffs) ** 2))
        assert abs(lhs - rhs) < 1e-12 * max(lhs, 1.0)


def test_fft_matches_direct_dft():
    cases = [(2, 8), (3, 5), (5, 3), (7, 2)]
    for p, levels in cases:
        model = BallModel(p, 0, levels)
        u = random_function(model, levels)
        for sign in (+1, -1):
            fast = (
                forward(u).coeffs * model.S
                if sign > 0
                else inverse(SpectralFunction(model, u.values)).values
            )
            slow = dft_direct(u.values, sign)
            scale = float(np.max(np.abs(slow)))
            assert np.max(np.abs(fast - slow)) < 1e-12 * scale


def _dft_full_table(values, sign):
    """dft_direct evaluated over the whole S x S index table at once."""
    v = np.asarray(values, dtype=np.complex128)
    S = v.size
    table = np.exp((1 if sign > 0 else -1) * 2j * np.pi * np.arange(S) / S)
    return table[np.outer(np.arange(S), np.arange(S)) % S] @ v


def test_dft_direct_rows_in_blocks_equal_the_full_table():
    # at S = 313 and 541, gathers of 2**15 entries would leave the last
    # row alone, which numpy sums as a dot product and rounds differently
    rng = np.random.default_rng(5)
    for S in (1, 7, 313, 512, 541, 729, 2401):
        values = rng.standard_normal(S) + 1j * rng.standard_normal(S)
        for sign in (+1, -1):
            assert np.array_equal(dft_direct(values, sign), _dft_full_table(values, sign))


def test_dft_direct_keeps_its_memory_linear():
    # S = 4096, the largest model verify accepts: the full index table
    # and its complex gather would hold about 400 MB; one block's index
    # table and fold (2 * 256 KiB) and a 2**15-entry gather, about 1 MiB
    model = BallModel(2, 0, 12)
    u = random_function(model, 9)
    tracemalloc.start()
    try:
        got = dft_direct(u.values, +1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert rel_linf(model.S * forward(u).coeffs, got) < 1e-12


def test_dft_direct_refuses_orders_past_int32_before_forming_a_table():
    # the index products n*k reach (S - 1)**2, within int32 up to S = 46341
    assert fourier_ball._DFT_MAX_ORDER == 46341
    assert (46341 - 1) ** 2 <= np.iinfo(np.int32).max
    assert 46341 ** 2 > np.iinfo(np.int32).max
    # one block's index sum stays below 2 * 46341, within uint32
    assert 2 * 46341 <= np.iinfo(np.uint32).max
    values = np.ones(46342, dtype=np.complex128)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="46341"):
            dft_direct(values, +1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the exponential table alone would hold 46342 * 16 bytes
    assert peak < 2 ** 14


def test_forward_agrees_with_numpy_ifft():
    # third oracle: numpy's ifft uses the same kernel and 1/S scale
    for p, levels in ((2, 6), (3, 4), (5, 3)):
        model = BallModel(p, 0, levels)
        u = random_function(model, 2 * p)
        got = forward(u).coeffs
        want = np.fft.ifft(u.values)
        assert np.max(np.abs(got - want)) < 1e-13


def test_convolution_theorem():
    # forward(u * v) = p**N * forward(u) * forward(v), with the
    # measure-weighted convolution computed by cyclic shifts
    for p, N, M in ((2, 0, 5), (3, 1, 3), (5, -1, 2)):
        model = BallModel(p, N, M)
        u = random_function(model, 31)
        v = random_function(model, 32)
        lhs = forward(u.convolve(v)).coeffs
        rhs = float(p) ** N * forward(u).coeffs * forward(v).coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_conjugate_symmetry_for_real_input():
    model = BallModel(2, 0, 6)
    u = random_function(model, 12)
    c = forward(u).coeffs
    S = model.S
    assert abs(c[0].imag) < 1e-15
    for k in range(1, S):
        assert abs(c[k] - np.conj(c[(S - k) % S])) < 1e-13


def test_linearity():
    model = BallModel(3, 0, 4)
    u = random_function(model, 1)
    v = random_function(model, 2)
    lhs = forward(GridFunction(model, 2.0 * u.values - 0.5 * v.values)).coeffs
    rhs = 2.0 * forward(u).coeffs - 0.5 * forward(v).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_apply_multiplier_identity_and_dtype():
    model = BallModel(2, 1, 5)
    u = random_function(model, 3)
    ones = np.ones(model.S)
    out = apply_multiplier(model, ones, u.values)
    assert not np.iscomplexobj(out)
    assert np.max(np.abs(out - u.values)) < 1e-13
    z = u.values.astype(np.complex128) * (1 + 2j)
    out_c = apply_multiplier(model, ones, z)
    assert np.iscomplexobj(out_c)
    assert np.max(np.abs(out_c - z)) < 1e-13


def test_apply_multiplier_matches_manual_path():
    model = BallModel(3, 0, 4)
    u = random_function(model, 44)
    rng = np.random.default_rng(45)
    factors = rng.uniform(0.5, 2.0, model.S)
    got = apply_multiplier(model, factors, u.values)
    f = forward(u)
    want = inverse(SpectralFunction(model, f.coeffs * factors)).values.real
    assert np.max(np.abs(got - want)) < 1e-13


def test_spectral_function_validation():
    model = BallModel(2, 0, 3)
    with pytest.raises(ValueError):
        SpectralFunction(model, np.zeros(model.S - 1))
    f = SpectralFunction(model, np.zeros(model.S))
    with pytest.raises(ValueError):
        f.coeffs[0] = 1.0


# -- the ball-average ladder for radial multipliers -----------------------


def _radial_oracles(model, factors, values):
    """apply_multiplier and a dft_direct product for the same factors."""
    fast = apply_multiplier(model, factors, values)
    coeffs = dft_direct(values, +1) / model.S
    direct = dft_direct(coeffs * factors, -1)
    if not np.iscomplexobj(values):
        direct = direct.real
    return fast, direct


def _radial_factor_sets(model, alpha, rng):
    """The operator, a semigroup step, a resolvent and a generic radial factor."""
    eig = multiplier(model, alpha).eigenvalues
    lam = eig[0]
    radial = rng.uniform(0.5, 2.0, model.N + model.M + 1)
    return [eig, np.exp(-0.3 * (eig - lam)), 1.0 / (eig - lam + 0.9),
            radial[valuation_table(model)]]


LADDER_MODELS = STANDARD_MODELS + [
    (2, 0, 0, 1.0),   # S = 1
    (3, -1, 1, 0.7),  # S = 1 with a negative N
    (7, 0, 3, 1.3),
    (7, 1, 1, 2.5),
]


@pytest.mark.parametrize("p, N, M, alpha", LADDER_MODELS,
                         ids=[f"p{p}_N{N}_M{M}_a{a}" for p, N, M, a in LADDER_MODELS])
def test_apply_radial_matches_transform_oracles(p, N, M, alpha):
    model = BallModel(p, N, M)
    factor_sets = _radial_factor_sets(model, alpha, np.random.default_rng(p * 100 + M))
    u = random_function(model, p + M).values
    z = u + 1j * random_function(model, p + M + 1).values
    for factors in factor_sets:
        levels = radial_levels(model, factors)
        for values in (u, z):
            got = apply_radial(model, levels, values)
            assert got.dtype == values.dtype
            fast, direct = _radial_oracles(model, factors, values)
            assert rel_linf(fast, got) <= 1e-13
            assert rel_linf(direct, got) <= 1e-13


# deepest ladder per p with S <= 8192: the draws run full blocks, partial
# last blocks and one-level steps
_RADIAL_DEPTH = {2: 13, 3: 8, 5: 5, 7: 4}


@st.composite
def _radial_problems(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    N = draw(st.integers(-2, 1))
    L = draw(st.sampled_from(range(_RADIAL_DEPTH[p] + 1)))
    alpha = draw(st.one_of(st.just(1.0), st.floats(0.3, 2.4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.standard_normal(p ** L)
    if draw(st.booleans()):
        values = values + 1j * rng.standard_normal(p ** L)
    return BallModel(p, N, L - N), alpha, rng, values


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_radial_problems())
def test_blocked_ladder_matches_apply_multiplier(problem):
    model, alpha, rng, values = problem
    for factors in _radial_factor_sets(model, alpha, rng):
        got = apply_radial(model, radial_levels(model, factors), values)
        assert got.dtype == values.dtype
        assert rel_linf(apply_multiplier(model, factors, values), got) <= 1e-13


# past the serial BLAS cutoff: the finest levels take one-level steps
@pytest.mark.parametrize("p, N, M", [(2, 0, 15), (3, -1, 10)], ids=["p2_M15", "p3_M10"])
def test_ladder_falls_back_to_one_level_steps_above_the_cutoff(p, N, M):
    model = BallModel(p, N, M)
    widths = fourier_ball._ladder_widths(p, N + M)
    assert widths[0] == 1 and max(widths) > 1
    rng = np.random.default_rng(M)
    u = rng.standard_normal(model.S)
    for values in (u, u + 1j * rng.standard_normal(model.S)):
        for factors in _radial_factor_sets(model, 1.3, rng):
            got = apply_radial(model, radial_levels(model, factors), values)
            assert rel_linf(apply_multiplier(model, factors, values), got) <= 1e-13


def test_ladder_blocks_stay_single_threaded():
    # every block product (p**w)**2 * S/p**(r+w) stays at or below 2**18
    # multiply-adds, and only one-level steps run above it
    for p in (2, 3, 5, 7):
        for L in range(0, int(math.log(2 ** 22, p)) + 1):
            widths = fourier_ball._ladder_widths(p, L)
            assert sum(widths) == L
            r = 0
            for w in widths:
                assert w == 1 or p ** (L - r + w) <= 2 ** 18
                assert p ** w <= 32
                r += w
    # S = 8192 at p = 2: blocks only
    assert fourier_ball._ladder_widths(2, 13) == (5, 5, 3)


def _ladder_with_bands_per_call(model, levels, values):
    """apply_radial with every block's band formed inside the call;
    complex values by their real and imaginary parts."""
    if np.iscomplexobj(values):
        out = np.empty(values.shape, dtype=np.complex128)
        out.real = _ladder_with_bands_per_call(model, levels, values.real)
        out.imag = _ladder_with_bands_per_call(model, levels, values.imag)
        return out
    p, L = model.p, model.N + model.M
    widths = fourier_ball._ladder_widths(p, L)
    averages = [np.asarray(values)]
    for w in widths:
        averages.append(np.add.reduce(averages[-1].reshape(p ** w, -1), axis=0) / p ** w)
    out = levels[L] * averages[-1]
    r = L
    for i in range(len(widths) - 1, -1, -1):
        w = widths[i]
        q = p ** w
        r -= w
        detail = averages[i].reshape(q, -1) - averages[i + 1]
        if w == 1:
            detail -= np.add.reduce(detail, axis=0) / p
            detail *= levels[r]
        else:
            band = (levels[r:r + w] @ fourier_ball._band_basis(p, w)).reshape(q, q)
            detail = band @ detail
        detail += out
        if w > 1 and (i == 0 or widths[i - 1] == 1):
            fourier_ball._restore_class_sums(detail, out)
        out = detail.reshape(-1)
    return out


# every p, with blocks only and (p = 2, 3, 5) with one-level steps
# below the blocks; p = 7 takes one-level steps throughout
_HELD_BAND_MODELS = [(2, 0, 7), (2, -1, 15), (3, 0, 5), (3, 0, 10), (5, 0, 4), (5, 1, 5),
                     (7, 0, 3)]


@pytest.mark.parametrize("p, N, M", _HELD_BAND_MODELS,
                         ids=[f"p{p}_N{N}_M{M}" for p, N, M in _HELD_BAND_MODELS])
def test_held_bands_change_no_bit(p, N, M):
    model = BallModel(p, N, M)
    fourier_ball._ladder_bands.cache_clear()
    rng = np.random.default_rng(p * 100 + M)
    u = rng.standard_normal(model.S)
    frozen = radial_levels(model, multiplier(model, 1.3).eigenvalues)
    frozen.setflags(write=False)
    for values in (u, u + 1j * rng.standard_normal(model.S)):
        want = _ladder_with_bands_per_call(model, frozen, values)
        # a miss, a hit, and a writable copy of the same values, a hit
        for levels in (frozen, frozen, frozen.copy()):
            got = apply_radial(model, levels, values)
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.float64), want.view(np.float64))
    # one entry: the three real calls and the six calls on the parts of
    # the complex data share one ladder
    info = fourier_ball._ladder_bands.cache_info()
    assert (info.misses, info.hits) == (1, 8)


# every p with its first block's product p**(L + k), k levels per block,
# below 2**18 and above it, where the finest levels take one-level steps;
# p = 7 takes one-level steps throughout
_PARTS_MODELS = [(2, 0, 9, False), (2, 0, 15, True), (3, 0, 6, False), (3, -1, 10, True),
                 (5, 0, 4, False), (5, 0, 7, True), (7, 0, 3, False), (7, -1, 7, True)]


@pytest.mark.parametrize("p, N, M, above", _PARTS_MODELS,
                         ids=[f"p{p}_N{N}_M{M}" for p, N, M, _ in _PARTS_MODELS])
def test_complex_data_takes_the_real_ladder_by_parts(p, N, M, above):
    model = BallModel(p, N, M)
    k = {2: 5, 3: 3, 5: 2, 7: 1}[p]
    assert (p ** (N + M + k) > fourier_ball._SERIAL_PRODUCT) == above
    rng = np.random.default_rng(p * 100 + M)
    a, b = rng.standard_normal(model.S), rng.standard_normal(model.S)
    z = np.empty(model.S, dtype=np.complex128)
    z.real, z.imag = a, b
    for factors in _radial_factor_sets(model, 1.3, rng):
        levels = radial_levels(model, factors)
        got = apply_radial(model, levels, z)
        assert got.dtype == np.complex128
        assert np.array_equal(got.real, apply_radial(model, levels, a))
        assert np.array_equal(got.imag, apply_radial(model, levels, b))
    # an infinite imaginary part stays out of the real part; forming the
    # result as a + 1j*b would turn that into NaN
    z.imag[5] = np.inf
    with np.errstate(invalid="ignore"):
        got = apply_radial(model, levels, z)
    assert np.array_equal(got.real, apply_radial(model, levels, a))
    assert not np.isfinite(got.imag).all()


def test_apply_radial_reads_a_writable_level_array_afresh():
    # a writable array may change in place between calls: the second
    # call must see its new values, not bands formed for the old
    model = BallModel(2, 0, 9)
    fourier_ball._ladder_bands.cache_clear()
    u = np.random.default_rng(9).standard_normal(model.S)
    levels = radial_levels(model, multiplier(model, 0.8).eigenvalues)
    first = apply_radial(model, levels, u)
    levels[:] = radial_levels(model, multiplier(model, 1.7).eigenvalues)
    second = apply_radial(model, levels, u)
    assert np.array_equal(second, _ladder_with_bands_per_call(model, levels, u))
    assert not np.array_equal(first, second)
    # the new values formed their own bands: two misses, no hit
    info = fourier_ball._ladder_bands.cache_info()
    assert (info.misses, info.hits) == (2, 0)


def test_equal_level_values_share_the_cached_bands():
    # a writable copy of the operator levels, and the slice levels[3:] of
    # a deeper ladder with the same values, find the bands already formed,
    # and give the bits of a call made on a cleared cache
    model = BallModel(2, 0, 9)
    rng = np.random.default_rng(12)
    u = rng.standard_normal(model.S)
    e = operator_levels(model, 1.3)
    deeper = operator_levels(BallModel(2, 0, 12), 1.3)[3:]
    assert np.array_equal(deeper, e)
    for values in (u, u + 1j * rng.standard_normal(model.S)):
        fourier_ball._ladder_bands.cache_clear()
        want = apply_radial(model, e, values)
        for levels in (e.copy(), deeper):
            got = apply_radial(model, levels, values)
            assert np.array_equal(got.view(np.float64), want.view(np.float64))
        # complex data takes the ladder once per part
        calls = 3 * (2 if np.iscomplexobj(values) else 1)
        info = fourier_ball._ladder_bands.cache_info()
        assert (info.misses, info.hits) == (1, calls - 1)


def test_apply_radial_keeps_the_mean_at_large_eigenvalues():
    # p**(alpha*M) = 2**38.4: rounding in the details, multiplied by the
    # top eigenvalues, must not leak into the mean of D u = lambda*mean(u).
    # The Fourier path lands near 1e-10 relative here; a telescoped sum
    # of eigenvalue differences misses by about 3e-6.
    def mean_errors(model, alpha, u):
        eig = multiplier(model, alpha).eigenvalues
        want = float(eig[0]) * math.fsum(u) / model.S

        def error(du):
            return abs(math.fsum(du) / model.S - want) / abs(want)

        return (error(apply_radial(model, radial_levels(model, eig), u)),
                error(apply_multiplier(model, eig, u)))

    model = BallModel(2, 0, 16)
    rng = np.random.default_rng(0)
    u = 1.0 + 1e-3 * rng.standard_normal(model.S)
    err_ladder, err_fft = mean_errors(model, 2.4, u)
    assert err_ladder <= 4.0 * err_fft
    assert err_ladder < 1e-9

    # u a function of the top digits: every column of the finest block is
    # the same, so the rounding of its product does not average out over
    # the columns.  With exact class sums the ladder stays below 0.4x the
    # Fourier path's error; re-centring each column instead leaves up to
    # 38x, no correction up to 168x, and one-level steps throughout 12x.
    for p, M in ((2, 13), (3, 8)):
        model = BallModel(p, 0, M)
        assert fourier_ball._ladder_widths(p, M)[0] > 1
        for seed in range(3):
            g = np.random.default_rng(seed).standard_normal(32)
            u = 1.0 + 1e-3 * g[np.arange(model.S) * 32 // model.S]
            err_ladder, err_fft = mean_errors(model, 2.8, u)
            assert err_ladder <= 4.0 * err_fft


def test_restored_class_sums_are_exact():
    # a block whose columns sum to q*coarse up to rounding comes back with
    # exact column sums, within one rounding of the first row
    rng = np.random.default_rng(5)
    q, C = 32, 64
    z = 1e8 * rng.standard_normal((q, C))
    z -= np.add.reduce(z, axis=0) / q
    coarse = rng.standard_normal(C)
    z += coarse
    fourier_ball._restore_class_sums(z, coarse)
    for c in range(C):
        excess = math.fsum(z[:, c]) - math.fsum([q * coarse[c]])
        assert abs(excess) <= np.spacing(abs(z[0, c]))
    zero = np.zeros((q, C))
    fourier_ball._restore_class_sums(zero, np.zeros(C))
    assert not zero.any()
