"""The S-arrays of radial functions, each one gather of L + 1 values.

Every table below is pinned bit for bit to the S-entry formula it was
formed by before it became a gather of per-valuation values, and the
valuation table they gather through is held for one model at a time.
The resolvent's kernel path, which convolves the Green sweep's levels
without forming an S-array kernel, is pinned to the S-array route.
"""

import numpy as np
import pytest

from padic_heat import (
    BallModel,
    GridFunction,
    ball_kernel_gridfunction,
    green_kernel_gridfunction,
    multiplier,
    resolvent_apply,
)
from padic_heat.ball_model import (
    coefficient_ap,
    freq_abs_table,
    lambda_value,
    point_abs_table,
    valuation_table,
)
from padic_heat.kernels import _ball_radial, _green_radial, _sweep_levels
from padic_heat.vladimirov import matrix_row, operator_levels

ALPHAS = (0.35, 1.0, 2.8, 6.0)

# p in {2, 3, 5, 7}, N in -2..1, each at S = 1, S = p and the largest
# S <= 729
MODELS = [BallModel(p, N, L - N)
          for p, top in ((2, 9), (3, 6), (5, 4), (7, 3))
          for N in range(-2, 2)
          for L in (0, 1, top)]


def _abs_formula(model, top):
    # |x|_p (top = N) or |xi|_p (top = M) over the S indices, one power each
    v = valuation_table(model)
    t = np.power(float(model.p), top - v.astype(np.float64))
    t[0] = 0.0
    return t


def _row_formula(model, alpha):
    row = np.zeros(model.S, dtype=np.float64)
    if model.S > 1:
        row[1:] = (coefficient_ap(model.p, alpha) * float(model.p) ** (-model.M)
                   * _abs_formula(model, model.N)[1:] ** (-alpha - 1.0))
    row[0] = lambda_value(model.p, alpha, model.N) - float(row.sum())
    return row


def _same_bits(got, want):
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"p{m.p}_N{m.N}_M{m.M}")
def test_radial_arrays_keep_the_bits_of_their_s_entry_formulas(model):
    assert _same_bits(point_abs_table(model), _abs_formula(model, model.N))
    assert _same_bits(freq_abs_table(model), _abs_formula(model, model.M))
    vt = valuation_table(model)
    for alpha in ALPHAS:
        assert _same_bits(matrix_row(model, alpha), _row_formula(model, alpha))
        assert _same_bits(multiplier(model, alpha).eigenvalues,
                          operator_levels(model, alpha)[vt])
        for t in (0.1, 2.0):
            sweep = _ball_radial(model.p, model.N, alpha, t)
            assert _same_bits(ball_kernel_gridfunction(model, alpha, t).values,
                              _sweep_levels(model, sweep)[vt])
        sweep = _green_radial(model.p, model.N, alpha, 1.0)
        assert _same_bits(green_kernel_gridfunction(model, alpha, 1.0).values,
                          _sweep_levels(model, sweep)[vt])


def test_one_valuation_table_is_held_and_every_table_is_read_only():
    for model in (BallModel(2, 0, 10), BallModel(3, -1, 6), BallModel(7, 1, 2)):
        tables = [point_abs_table(model), freq_abs_table(model),
                  matrix_row(model, 1.3), multiplier(model, 1.3).eigenvalues,
                  ball_kernel_gridfunction(model, 1.3, 0.5).values,
                  green_kernel_gridfunction(model, 1.3, 1.0).values,
                  valuation_table(model)]
        assert valuation_table.cache_info().currsize <= 1
        assert valuation_table(model) is tables[-1]
        for table in tables:
            assert table.shape == (model.S,)
            assert not table.flags.writeable


def _resolvent_kernel_formula(u, alpha, mu):
    # the kernel path through the S-array Green kernel, read back by
    # convolve_radial, plus the mean part
    model = u.model
    kernel = green_kernel_gridfunction(model, alpha, mu)
    mean_part = float(model.p) ** (-model.N) / mu * u.integral()
    return u.convolve_radial(kernel).values + mean_part


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"p{m.p}_N{m.N}_M{m.M}")
def test_resolvent_kernel_path_keeps_the_bits_of_the_s_array_kernel(model):
    rng = np.random.default_rng([model.p, model.N + 2, model.M + 2])
    real = rng.standard_normal(model.S)
    for values in (real, real + 1j * rng.standard_normal(model.S)):
        u = GridFunction(model, values)
        for alpha in ALPHAS[:3]:
            for mu in (1e-3, 0.9, 50.0):
                got = resolvent_apply(u, alpha, mu, path="kernel").values
                assert _same_bits(got, _resolvent_kernel_formula(u, alpha, mu))
