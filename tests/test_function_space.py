import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padic_heat import (
    BallModel,
    GridFunction,
    ball_indicator,
    ball_kernel_gridfunction,
    constant,
    green_kernel_gridfunction,
    make_initial,
    positive_bump,
    random_function,
    resolvent_apply,
)
from padic_heat import function_space
from padic_heat.ball_model import valuation_table
from padic_heat.cli import main
from padic_heat.function_space import circulant_apply
from padic_heat.linear_solver import evolve
from tests.conftest import rel_linf


def brute_convolve(u, v):
    # independent double-loop oracle for the measure-weighted convolution
    model = u.model
    S = model.S
    out = np.zeros(S, dtype=np.result_type(u.values, v.values))
    for n in range(S):
        acc = 0.0
        for m in range(S):
            acc += u.values[(n - m) % S] * v.values[m]
        out[n] = acc * float(model.p) ** (-model.M)
    return GridFunction(model, out)


def test_integral_of_constant_is_ball_measure(model_alpha):
    model, _ = model_alpha
    one = constant(model, 1.0)
    assert abs(one.integral() - float(model.p) ** model.N) < 1e-12


def test_lp_norms_direct():
    model = BallModel(2, 0, 4)
    u = random_function(model, 3)
    meas = 2.0 ** (-4)
    for gamma in (1.0, 2.0, 3.0, 4.0):
        direct = (meas * np.sum(np.abs(u.values) ** gamma)) ** (1 / gamma)
        assert abs(u.lp_norm(gamma) - direct) < 1e-13
    assert u.lp_norm(math.inf) == np.abs(u.values).max()
    with pytest.raises(ValueError):
        u.lp_norm(0.5)


def test_lp_norm_refuses_a_nan_gamma():
    # NaN passes "gamma < 1" and used to return a NaN norm
    u = random_function(BallModel(2, 0, 4), 3)
    with pytest.raises(ValueError, match="gamma must be >= 1 or inf"):
        u.lp_norm(math.nan)


def test_l1_norm_is_bit_identical_to_the_general_formula():
    # gamma = 1 skips both powers, which are the identity there: the same
    # bits on +-0.0, subnormals, negatives and NaN, real or complex
    model = BallModel(3, 0, 5)
    tiny = np.finfo(np.float64).smallest_subnormal
    rng = np.random.default_rng(21)
    vals = rng.standard_normal(model.S) * 10.0 ** rng.uniform(-300, 300, model.S)
    vals[:8] = [0.0, -0.0, tiny, -tiny, -5e-310, 1e-310, -1.0, 2.0]
    meas = float(model.p) ** (-model.M)
    plain = rng.standard_normal(model.S)
    for v in (vals, -np.abs(vals), plain, np.zeros(model.S), -np.zeros(model.S),
              np.full(model.S, tiny), vals + 1j * vals[::-1], plain - 1j * plain[::-1]):
        for gamma in (1, 1.0):
            u = GridFunction(model, v)
            want = float((meas * (np.abs(u.values) ** gamma).sum()) ** (1.0 / gamma))
            assert np.float64(u.lp_norm(gamma)).view(np.int64) == np.float64(want).view(np.int64)
    nan = vals.copy()
    nan[17] = np.nan
    assert math.isnan(GridFunction(model, nan).lp_norm(1))


def test_norm_inequalities():
    model = BallModel(3, 0, 3)
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = GridFunction(model, rng.standard_normal(model.S))
        v = GridFunction(model, rng.standard_normal(model.S))
        # triangle inequality and Cauchy-Schwarz on the unit-measure ball
        assert (u + v).lp_norm(2) <= u.lp_norm(2) + v.lp_norm(2) + 1e-12
        prod = GridFunction(model, u.values * v.values)
        assert prod.lp_norm(1) <= u.lp_norm(2) * v.lp_norm(2) + 1e-12
        # norms are nondecreasing in gamma when the total measure is 1
        assert u.lp_norm(1) <= u.lp_norm(2) + 1e-12
        assert u.lp_norm(2) <= u.lp_norm(4) + 1e-12
        assert u.lp_norm(4) <= u.lp_norm(math.inf) + 1e-12


def test_convolution_matches_brute_force():
    for p, N, M in ((2, 0, 4), (3, 1, 2), (5, -1, 2)):
        model = BallModel(p, N, M)
        u = random_function(model, 5)
        v = random_function(model, 6)
        got = u.convolve(v)
        want = brute_convolve(u, v)
        assert np.max(np.abs(got.values - want.values)) < 1e-12
        # commutative
        flipped = v.convolve(u)
        assert np.max(np.abs(got.values - flipped.values)) < 1e-12


def test_convolution_identity_element():
    model = BallModel(2, 0, 5)
    u = random_function(model, 9)
    delta = np.zeros(model.S)
    delta[0] = float(model.p) ** model.M  # unit mass at the origin
    e = GridFunction(model, delta)
    out = u.convolve(e)
    assert np.max(np.abs(out.values - u.values)) < 1e-12


def test_convolution_complex_values():
    model = BallModel(2, 0, 3)
    rng = np.random.default_rng(2)
    u = GridFunction(model, rng.standard_normal(model.S) + 1j * rng.standard_normal(model.S))
    v = random_function(model, 3)
    got = u.convolve(v)
    want = brute_convolve(u, v)
    assert np.max(np.abs(got.values - want.values)) < 1e-12


# largest ladder depth L with p**L near 2187, so the O(S^2) oracle stays quick
_MAX_DEPTH = {2: 11, 3: 7, 5: 4, 7: 4}


def _roll_circulant(w, u):
    acc = np.zeros(u.size, dtype=np.result_type(u, w))
    for j in range(u.size):
        acc += w[j] * np.roll(u, j)
    return acc


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.tuples(st.sampled_from([2, 3, 5, 7]), st.sampled_from([-1, 0, 1]),
                 st.integers(0, 11), st.integers(0, 2 ** 32 - 1),
                 st.booleans(), st.booleans()))
@example((7, -1, 0, 1, True, True))  # S = 1
@example((7, -1, 4, 2, True, True))
@example((7, -1, 3, 3, True, False))
@example((2, -1, 9, 4, False, True))
def test_circulant_apply_matches_the_roll_loop(case):
    # sum_j w[j] u[(n - j) mod S], with no conjugation of complex w
    p, N, L, seed, complex_w, complex_u = case
    model = BallModel(p, N, min(L, _MAX_DEPTH[p]) - N)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(model.S) + (1j * rng.standard_normal(model.S) if complex_w else 0)
    u = rng.standard_normal(model.S) + (1j * rng.standard_normal(model.S) if complex_u else 0)
    got = circulant_apply(w, u)
    assert got.shape == (model.S,)
    assert rel_linf(_roll_circulant(w, u), got, floor=1e-300) < 1e-13


@st.composite
def _radial_convolutions(draw):
    """(u, kernel) over the model space: heat, Green and random radial kernels."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    N = draw(st.sampled_from([-1, 0, 1]))
    L = draw(st.integers(0, _MAX_DEPTH[p]))
    model = BallModel(p, N, L - N)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = rng.standard_normal(model.S)
    if draw(st.booleans()):
        u = u + 1j * rng.standard_normal(model.S)
    kind = draw(st.sampled_from(["heat", "green", "random"]))
    alpha = draw(st.floats(0.35, 2.4).filter(lambda a: a != 1.0))
    if kind == "heat":
        kernel = ball_kernel_gridfunction(model, alpha, 10.0 ** draw(st.floats(-3.0, 1.0)))
    elif kind == "green":
        kernel = green_kernel_gridfunction(model, alpha, draw(st.floats(0.1, 10.0)))
    else:
        # entry v of the values lands on the sphere of valuation v, entry L on 0
        kernel = GridFunction(model, rng.standard_normal(L + 1)[valuation_table(model)])
    return GridFunction(model, u), kernel


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_radial_convolutions())
def test_convolve_radial_matches_the_oracle(case):
    u, kernel = case
    want = u.convolve(kernel).values
    assert rel_linf(want, u.convolve_radial(kernel).values, floor=1e-300) < 1e-12


def test_convolve_radial_rejects_non_radial_kernels():
    model = BallModel(3, 0, 3)
    u = random_function(model, 1)
    kernel = ball_kernel_gridfunction(model, 1.2, 0.5)
    # one point moved off its sphere's value by one unit in the last place
    vals = kernel.values.copy()
    vals[2] = np.nextafter(vals[2], np.inf)
    with pytest.raises(ValueError, match="not radial"):
        u.convolve_radial(GridFunction(model, vals))
    with pytest.raises(ValueError, match="not radial"):
        u.convolve_radial(random_function(model, 2))
    other = ball_kernel_gridfunction(BallModel(3, 1, 2), 1.2, 0.5)
    with pytest.raises(ValueError, match="different models"):
        u.convolve_radial(other)


def test_production_paths_never_call_the_convolve_oracle(monkeypatch, tmp_path):
    def refuse(self, other):
        raise AssertionError("GridFunction.convolve is a test oracle")

    monkeypatch.setattr(GridFunction, "convolve", refuse)
    model = BallModel(2, 0, 6)
    u = random_function(model, 4)
    spectral = evolve(u, 1.3, 0.5, path="spectral")
    assert rel_linf(spectral.values, evolve(u, 1.3, 0.5, path="kernel").values) < 1e-12
    r1 = resolvent_apply(u, 1.3, 0.9, path="spectral")
    assert rel_linf(r1.values, resolvent_apply(u, 1.3, 0.9, path="kernel").values) < 1e-10
    assert main(["verify", "--p", "2", "--N", "0", "--M", "6", "--alpha", "1.3",
                 "--out", str(tmp_path)]) == 0


def test_refine_coarsen_round_trip():
    model = BallModel(3, 1, 2)
    u = random_function(model, 8)
    for levels in (1, 2):
        fine = u.refine(levels)
        assert fine.model.M == model.M + levels
        # refinement reproduces values on sub-cosets and keeps the integral
        assert abs(fine.integral() - u.integral()) < 1e-12
        for gamma in (1.0, 2.0, math.inf):
            assert abs(fine.lp_norm(gamma) - u.lp_norm(gamma)) < 1e-12
        back = fine.coarsen(levels)
        assert back.model == model
        assert np.max(np.abs(back.values - u.values)) < 1e-13


def test_coarsen_preserves_integral():
    model = BallModel(2, 0, 6)
    u = random_function(model, 4)
    for levels in (1, 3, 6):
        down = u.coarsen(levels)
        assert abs(down.integral() - u.integral()) < 1e-12
    with pytest.raises(ValueError):
        u.coarsen(7)
    with pytest.raises(ValueError):
        u.coarsen(-1)
    with pytest.raises(ValueError):
        u.refine(-1)


@pytest.mark.parametrize("change, levels", [("refine", True), ("refine", 1.5),
                                            ("coarsen", 1.5), ("coarsen", True),
                                            ("refine", -1), ("coarsen", -1)])
def test_resolution_changes_take_integer_levels(change, levels):
    # refine(True) ran as refine(1), and 1.5 ended in a bare TypeError
    u = random_function(BallModel(2, 0, 4), 3)
    with pytest.raises(ValueError, match="^levels must be an integer >= 0"):
        getattr(u, change)(levels)


def test_ball_indicator_measure_pin():
    model = BallModel(2, 1, 4)
    # indicator of a radius p**r sub-ball integrates to p**r
    for r in (-4, -2, 0, 1):
        ind = ball_indicator(model, center=3, radius_exp=r)
        assert abs(ind.integral() - 2.0 ** r) < 1e-12
        assert set(np.unique(ind.values)) <= {0.0, 1.0}
    full = ball_indicator(model, radius_exp=model.N)
    assert np.all(full.values == 1.0)
    with pytest.raises(ValueError):
        ball_indicator(model, radius_exp=model.N + 1)
    with pytest.raises(ValueError):
        ball_indicator(model, radius_exp=-model.M - 1)


def test_ball_indicator_membership():
    model = BallModel(2, 0, 5)
    ind = ball_indicator(model, center=4, radius_exp=-2)
    q = 2 ** 2
    for n in range(model.S):
        assert ind.values[n] == (1.0 if (n - 4) % q == 0 else 0.0)


def test_default_radius_is_the_unit_ball_or_the_whole_ball():
    # radius_exp defaults to min(0, N): 0 at N >= 0, the whole ball at N < 0
    for model, r in ((BallModel(2, 1, 4), 0), (BallModel(3, 0, 3), 0),
                     (BallModel(3, -1, 4), -1), (BallModel(2, -3, 5), -3)):
        assert np.array_equal(ball_indicator(model, 1).values,
                              ball_indicator(model, 1, r).values)
        assert np.array_equal(positive_bump(model).values,
                              positive_bump(model, 0, r).values)
        assert np.array_equal(make_initial(model, {"kind": "bump"}).values,
                              positive_bump(model, 0, r).values)


def test_default_radius_at_negative_M_is_one_coset():
    # at M < 0 the unit ball lies below the resolution: the default radius
    # is -M, one coset, where a default of min(0, N) = 0 was refused
    for model in (BallModel(5, 2, -1), BallModel(7, 1, -1), BallModel(2, 3, -2)):
        one = np.zeros(model.S)
        one[0] = 1.0
        assert np.array_equal(ball_indicator(model).values, one)
        assert np.array_equal(ball_indicator(model).values,
                              ball_indicator(model, 0, -model.M).values)
        assert np.array_equal(positive_bump(model).values, 1.0 + one)
        assert np.array_equal(make_initial(model, {"kind": "bump"}).values, 1.0 + one)
        assert np.array_equal(make_initial(model, {"kind": "indicator"}).values, one)


def test_make_initial_kinds():
    model = BallModel(2, 0, 4)
    c = make_initial(model, {"kind": "constant", "value": 2.5})
    assert np.all(c.values == 2.5)
    ind = make_initial(model, {"kind": "indicator", "center": 1, "radius_exp": -1})
    assert np.max(np.abs(ind.values - ball_indicator(model, 1, -1).values)) == 0.0
    r1 = make_initial(model, {"kind": "random", "seed": 42})
    r2 = make_initial(model, {"kind": "random", "seed": 42})
    assert np.array_equal(r1.values, r2.values)
    b = make_initial(model, {"kind": "bump", "center": 0, "radius_exp": 0})
    assert np.max(np.abs(b.values - positive_bump(model, 0, 0).values)) == 0.0
    assert b.values.min() >= 1.0
    with pytest.raises(ValueError):
        make_initial(model, {"value": 1.0})
    with pytest.raises(ValueError):
        make_initial(model, {"kind": "sine"})
    with pytest.raises(ValueError):
        make_initial(model, {"kind": "constant", "amplitude": 2.0})


def test_initial_data_refuses_non_integers_and_non_finite_values():
    model = BallModel(2, 0, 3)
    for spec in ({"kind": "constant", "value": math.nan},
                 {"kind": "constant", "value": math.inf},
                 {"kind": "constant", "value": "2"},
                 {"kind": "constant", "value": True},
                 {"kind": "indicator", "center": 1.5},
                 {"kind": "indicator", "center": True},
                 {"kind": "indicator", "radius_exp": -1.5},
                 {"kind": "bump", "radius_exp": math.nan},
                 {"kind": "random", "seed": 2.5},
                 {"kind": "random", "seed": None}):
        with pytest.raises(ValueError, match="finite number|integer"):
            make_initial(model, spec)
    with pytest.raises(ValueError, match="integer"):
        ball_indicator(model, 1.5)
    # an integral float reads as the integer
    assert np.array_equal(make_initial(model, {"kind": "random", "seed": 2.0}).values,
                          random_function(model, 2).values)
    assert np.array_equal(ball_indicator(model, 2.0, -2.0).values,
                          ball_indicator(model, 2, -2).values)


def test_csv_round_trip_exact(tmp_path):
    model = BallModel(3, 0, 3)
    u = random_function(model, 17)
    path = tmp_path / "u.csv"
    u.to_csv(path)
    back = GridFunction.from_csv(path, model)
    assert np.array_equal(back.values, u.values)
    header = path.read_text().splitlines()[0]
    assert header == "index,valuation,value"


def test_csv_round_trip_complex(tmp_path):
    model = BallModel(2, 0, 3)
    rng = np.random.default_rng(7)
    u = GridFunction(model, rng.standard_normal(model.S) + 1j * rng.standard_normal(model.S))
    path = tmp_path / "u.csv"
    u.to_csv(path)
    back = GridFunction.from_csv(path, model)
    assert np.array_equal(back.values, u.values)


def _per_row_csv(u, path):
    # the per-row csv.writer that GridFunction.to_csv once was
    vt = valuation_table(u.model)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "valuation", "value"])
        for n in range(u.model.S):
            x = u.values[n]
            w.writerow([n, "inf" if n == 0 else str(int(vt[n])),
                        repr(complex(x)) if np.iscomplexobj(x) else repr(float(x))])


@pytest.mark.parametrize("p, N, M", [(2, 0, 6), (3, -1, 4), (5, -2, 4), (7, 1, 1),
                                     (3, 0, 0), (2, -3, 3)])
@pytest.mark.parametrize("complex_values", [False, True])
@pytest.mark.parametrize("block", [5, None])
def test_csv_bytes_equal_the_per_row_writer(tmp_path, monkeypatch, p, N, M,
                                            complex_values, block):
    # p = 7, N < 0 and S = 1, real and complex values with signed zeros,
    # infinities and NaN; block 5 splits every model of S > 5 into blocks
    if block is not None:
        monkeypatch.setattr(function_space, "_CSV_BLOCK", block)
    model = BallModel(p, N, M)
    rng = np.random.default_rng(p * 100 + M)
    special = [-0.0, math.inf, -math.inf, math.nan, 1e-310, -1.5e300, 2.0, 0.1]
    vals = rng.standard_normal(model.S) * 10.0 ** rng.integers(-20, 20, model.S)
    vals[:len(special)] = special[:model.S]
    if complex_values:
        vals = vals.astype(np.complex128)
        vals.imag = np.roll(vals.real, 3)
    u = GridFunction(model, vals)
    u.to_csv(tmp_path / "block.csv")
    _per_row_csv(u, tmp_path / "row.csv")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()


def test_csv_header_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,inf,1.0\n")
    with pytest.raises(ValueError):
        GridFunction.from_csv(path, BallModel(2, 0, 0))


def test_json_round_trip(tmp_path):
    model = BallModel(5, -1, 3)
    u = random_function(model, 23)
    path = tmp_path / "u.json"
    u.to_json(path)
    back = GridFunction.from_json(path)
    assert back.model == model
    assert np.array_equal(back.values, u.values)


@pytest.mark.parametrize("kind", ["float", "complex", "int", "read-only"])
def test_grid_function_owns_frozen_values(kind):
    model = BallModel(3, 0, 2)
    data = {
        "float": np.linspace(0.0, 1.0, model.S),
        "complex": np.linspace(0.0, 1.0, model.S) * (1 + 2j),
        "int": np.arange(model.S),
        "read-only": np.linspace(0.0, 1.0, model.S),
    }[kind]
    if kind == "read-only":
        data.setflags(write=False)
    g = GridFunction(model, data)
    assert not np.shares_memory(g.values, data)
    assert g.values.dtype == (np.complex128 if kind == "complex" else np.float64)
    assert np.array_equal(g.values, data)
    assert not g.values.flags.writeable
    with pytest.raises(ValueError):
        g.values[0] = 5.0
    if data.flags.writeable:
        data[0] = 7
        assert g.values[0] == 0.0


def test_algebra_and_errors():
    model = BallModel(2, 0, 3)
    u = random_function(model, 1)
    v = random_function(model, 2)
    w = 2.0 * u + v - u * 3.0
    assert np.max(np.abs(w.values - (2 * u.values + v.values - 3 * u.values))) < 1e-15
    assert np.array_equal((-u).values, -u.values)
    other = random_function(BallModel(2, 0, 2), 1)
    with pytest.raises(ValueError):
        u + other
    with pytest.raises(ValueError):
        GridFunction(model, np.zeros(model.S + 1))
    with pytest.raises(ValueError):
        u.values[0] = 99.0  # stored array is read-only
