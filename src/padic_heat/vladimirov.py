"""The fractional operator of order alpha on the ball, in four equivalent forms.

On the finite model the operator acts on grid functions and can be
evaluated through any of:

1. spectral multiplication: eigenvalue lambda on the zero frequency and
   |xi|_p**alpha on every other frequency, applied through nested ball
   averages since the symbol is radial (``apply_spectral``);
2. the hypersingular difference sum with weights a_p * |y|^(-alpha-1),
   which is exact on level-M functions because the inner coset
   contributes nothing (``apply_hypersingular``);
3. pairing translates of the input against the radial distribution
   kernel (``convolve_riesz`` / ``riesz_pairing``);
4. extending by zero to the whole field, applying the global difference
   operator, and restricting; the far field contributes a pure
   multiple of the input, a geometric tail that reproduces lambda
   (``apply_global_restriction``).

``operator_levels`` builds and caches the L + 1 ladder values that the
solvers read, cross-checking the closed-form symbol against an exact
sphere-by-sphere quadrature of the oscillatory integral and refusing to
hand out an inconsistent operator; ``multiplier`` spreads them over the
S frequencies.  Forms 2 and 4 are O(S^2) oracles, each one circulant
matvec.  ``build_matrix`` copies the dense symmetric matrix of small
models from its first row (``matrix_row``), the oracle for spectrum
tests, and ``spectrum_multiset`` lists the expected eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ball_model import (
    BallModel,
    _abs_levels,
    _check_count,
    _check_positive,
    _radial_array,
    coefficient_ap,
    lambda_value,
    point_abs_table,
)
from .fourier_ball import apply_radial
from .function_space import GridFunction, circulant_apply

DEFAULT_MATRIX_CAP = 4096


class ConsistencyError(Exception):
    """Two evaluation routes that must agree did not."""


@dataclass(eq=False)
class SpectralMultiplier:
    """Eigenvalues of the operator on the frequency basis."""

    model: BallModel
    alpha: float
    eigenvalues: np.ndarray


def symbol_quadrature(model: BallModel, alpha: float, k: int) -> float:
    """Symbol at frequency k via exact sphere-by-sphere quadrature.

    Integrates a_p * |y|^(-alpha-1) * (character(y, xi) - 1) over the
    ball using the closed character integrals over spheres |y| = p**l:
    the spheres with p**l <= 1/|xi| cancel, the critical sphere
    p**l = p/|xi| contributes -p**(-alpha*l), and every larger sphere
    contributes -(1 - 1/p) * p**(-alpha*l).  Returns 0 at k = 0.
    """
    model._check_index(k)
    _check_positive("alpha", alpha)
    if k == 0:
        return 0.0
    p = model.p
    s = model.M - model.valuation(k)  # |xi| = p**s
    l0 = 1 - s
    total = -float(p) ** (-alpha * l0)
    geom = math.fsum(float(p) ** (-alpha * l) for l in range(l0 + 1, model.N + 1))
    total -= (1.0 - 1.0 / p) * geom
    return coefficient_ap(p, alpha) * total


@lru_cache(maxsize=128)
def operator_levels(model: BallModel, alpha: float) -> np.ndarray:
    """The L + 1 per-valuation values of the operator, read-only.

    Entry r < L = N + M is |xi|**alpha = p**(alpha*(M - r)) on the
    frequencies of valuation r, formed exactly as ``spectrum_multiset``
    forms it; entry L is lambda.  Each entry r < L is checked against
    ``symbol_quadrature`` at k = p**r plus lambda, and a relative
    disagreement above 1e-10 raises ConsistencyError.  Cached, so a
    solver fetches the operator once per (model, alpha) instead of once
    per apply.
    """
    p, M, L = model.p, model.M, model.N + model.M
    lam = lambda_value(p, alpha, model.N)
    levels = np.array([float(p) ** (alpha * (M - r)) for r in range(L)] + [lam])
    for r in range(L):
        closed = levels[r]
        quad = symbol_quadrature(model, alpha, p ** r) + lam
        if abs(quad - closed) > 1e-10 * max(abs(closed), 1.0):
            raise ConsistencyError(
                f"symbol mismatch at |xi| = p**{M - r}: "
                f"closed form {closed!r}, quadrature {quad!r}"
            )
    levels.setflags(write=False)
    return levels


def multiplier(model: BallModel, alpha: float) -> SpectralMultiplier:
    """Spectral multiplier: m[0] = lambda and m[k] = |xi_k|**alpha otherwise.

    The ``_radial_array`` of ``operator_levels``, whose entry L at k = 0
    is lambda; the levels carry the quadrature cross-check.  Only
    ``spectrum``, ``verify`` and the oracles read the full S-array; the
    solvers read the levels.
    """
    return SpectralMultiplier(model, alpha, _radial_array(model, operator_levels(model, alpha)))


def apply_spectral(u: GridFunction, alpha: float) -> GridFunction:
    """Apply the operator through its symbol, level by level of the ball ladder."""
    levels = operator_levels(u.model, float(alpha))
    return GridFunction(u.model, apply_radial(u.model, levels, u.values))


def apply_hypersingular(u: GridFunction, alpha: float) -> GridFunction:
    """Apply the operator as lambda*u plus the weighted difference sum.

    result[n] = lambda*u[n]
              + a_p * p**(-M) * sum_{j != 0} |y_j|^(-alpha-1) * (u[n-j] - u[n]).

    Exact on level-M functions: the inner coset drops out because the
    difference vanishes there.  The sum is one O(S^2) circulant matvec
    (``circulant_apply``) with ``matrix_row``, free of the transform and
    the ladder, so this stays an independent oracle.
    """
    return GridFunction(u.model, circulant_apply(matrix_row(u.model, alpha), u.values))


def apply_global_restriction(u: GridFunction, alpha: float) -> GridFunction:
    """Zero-extend to the whole field, apply the global operator, restrict.

    Inside the ball the difference sum is organised sphere by sphere:
    every point of the sphere |y| = p**l carries the weight
    a_p * p**(-M) * p**(-l*(alpha+1)), and the translate sum over all
    spheres is one O(S^2) circulant matvec (``circulant_apply``).
    Points y with |y| > p**N contribute in two ways: the translate term
    vanishes identically (ultrametricity pushes x - y out of the ball,
    where the extension is zero), and the -u(x) term integrates to a
    geometric series whose sum reproduces lambda.  That tail coefficient
    is computed here from the series, independently of ``lambda_value``.
    """
    model = u.model
    p, L = model.p, model.N + model.M
    a_p = coefficient_ap(p, alpha)
    # sphere weights by valuation v = N - l; the zero coset (v = L) gets 0
    sphere_weight = np.zeros(L + 1)
    weight_total = 0.0
    for l in range(-model.M + 1, model.N + 1):
        v = model.N - l
        sphere_weight[v] = a_p * float(p) ** (-model.M) * float(p) ** (-l * (alpha + 1.0))
        weight_total += sphere_weight[v] * (p - 1) * p ** (L - v - 1)
    acc = circulant_apply(_radial_array(model, sphere_weight), u.values)
    # far field: a_p * integral_{|y| > p**N} |y|^(-alpha-1) dy, summed exactly
    tail = -a_p * (1.0 - 1.0 / p) * float(p) ** (-alpha * (model.N + 1)) / (
        1.0 - float(p) ** (-alpha))
    return GridFunction(model, tail * u.values + acc - weight_total * u.values)


@dataclass(frozen=True)
class RieszDistribution:
    """Radial distribution kernel |x|^(sign*alpha - 1) with its point mass.

    sign = -1 is the kernel whose convolution realises the operator;
    sign = +1 is its convolution inverse on mean-zero data.  The +1
    branch is undefined at alpha = 1, where its normalising denominator
    1 - p**(alpha-1) vanishes; construction rejects that case.
    """

    model: BallModel
    alpha: float
    sign: int

    def __post_init__(self) -> None:
        _check_positive("alpha", self.alpha)
        if self.sign not in (-1, 1):
            raise ValueError("sign must be -1 or +1")
        if self.sign == 1 and self.alpha == 1.0:
            raise ValueError("the +alpha kernel is not defined at alpha = 1")


def riesz_pairing(dist: RieszDistribution, phi: GridFunction) -> float | complex:
    """Pair the distribution against a test function on the ball.

    sign = -1:  lambda*phi(0) + a_p * int (phi - phi(0)) |x|^(-alpha-1) dx
    sign = +1:  (1-1/p)/(1-p**(alpha-1)) * p**(alpha*N) * phi(0)
              + (1-p**(-alpha))/(1-p**(alpha-1)) * int (phi - phi(0)) |x|^(alpha-1) dx

    Both integrals are exact coset sums: the zero coset drops out of the
    difference.
    """
    model = dist.model
    if phi.model != model:
        raise ValueError("test function lives on a different model")
    p = model.p
    absx = point_abs_table(model)
    vals = phi.values
    diff = vals[1:] - vals[0]
    meas = float(p) ** (-model.M)
    scalar = complex if np.iscomplexobj(vals) else float
    if dist.sign == -1:
        lam = lambda_value(p, dist.alpha, model.N)
        a_p = coefficient_ap(p, dist.alpha)
        integral = meas * scalar((diff * absx[1:] ** (-dist.alpha - 1.0)).sum())
        return lam * scalar(vals[0]) + a_p * integral
    denom = 1.0 - float(p) ** (dist.alpha - 1.0)
    point_coeff = (1.0 - 1.0 / p) / denom * float(p) ** (dist.alpha * model.N)
    int_coeff = (1.0 - float(p) ** (-dist.alpha)) / denom
    integral = meas * scalar((diff * absx[1:] ** (dist.alpha - 1.0)).sum())
    return point_coeff * scalar(vals[0]) + int_coeff * integral


def convolve_riesz(u: GridFunction, alpha: float) -> GridFunction:
    """Apply the operator by pairing the kernel with translates of u.

    result[n] pairs the sign = -1 distribution against x -> u(n - x);
    expanding the pairing gives exactly the hypersingular sum.
    """
    model = u.model
    dist = RieszDistribution(model, alpha, -1)
    S = model.S
    out = np.empty(S, dtype=u.values.dtype)
    base = np.arange(S)
    for n in range(S):
        translated = u.values[(n - base) % S]
        out[n] = riesz_pairing(dist, GridFunction(model, translated))
    return GridFunction(model, out)


def matrix_row(model: BallModel, alpha: float) -> np.ndarray:
    """Row 0 of ``build_matrix``, read-only, in O(S) at any order: the
    difference weights w_j = a_p * p**(-M) * |y_j|^(-alpha-1), even in j,
    with lambda - sum(w) at j = 0.

    The weights depend only on the valuation of j, so the row is the
    ``_radial_array`` of L + 1 weights, one per sphere.  It is gathered
    twice: once with 0 at j = 0, to take the sum of the S weights, and
    once with lambda minus that sum.  It is formed per call and held by
    no cache: a row is 8 MB at S = 2**20, and its one repeat read, the
    second of ``verify``, costs 10 to 20 microseconds at verify sizes."""
    alpha = float(alpha)
    L = model.N + model.M
    w = np.zeros(L + 1)
    # no weights at S = 1, where p**(-M) may pass float range
    if L:
        w[:L] = (coefficient_ap(model.p, alpha) * float(model.p) ** (-model.M)
                 * _abs_levels(model, model.N)[:L] ** (-alpha - 1.0))
    w[L] = lambda_value(model.p, alpha, model.N) - float(_radial_array(model, w).sum())
    return _radial_array(model, w)


def build_matrix(model: BallModel, alpha: float) -> np.ndarray:
    """Dense symmetric matrix of the operator; refuses orders above
    ``DEFAULT_MATRIX_CAP``.

    The matrix is circulant, A[i, j] = row[(j - i) mod S] for the
    ``matrix_row``, copied in one go from the windows of the row written
    twice.  Every row sums to lambda, the eigenvalue on constants, up to
    a few eps*sum(w): the diagonal's subtraction and the row's sum both
    round at the scale of sum(w), which can pass lambda by far.
    """
    if model.S > DEFAULT_MATRIX_CAP:
        raise ValueError(f"group order {model.S} exceeds the dense-matrix cap "
                         f"{DEFAULT_MATRIX_CAP}")
    row = matrix_row(model, alpha)
    S = model.S
    # window k of the doubled row starts at entry k; row i is window S - i
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((row, row)), S)
    return windows[S:0:-1].copy()


def spectrum_multiset(model: BallModel, alpha: float) -> np.ndarray:
    """Sorted expected eigenvalues: lambda once, then p**(alpha*k) with
    multiplicity p**(N+k-1) * (p-1) for k = -N+1, ..., M."""
    p = model.p
    ks = range(-model.N + 1, model.M + 1)
    out = np.sort(np.repeat(
        [lambda_value(p, alpha, model.N)] + [float(p) ** (alpha * k) for k in ks],
        [1] + [p ** (model.N + k - 1) * (p - 1) for k in ks]))
    if out.size != model.S:
        raise AssertionError("multiplicity bookkeeping is wrong")
    return out


@dataclass(eq=False)
class DomainReport:
    """L^1 norms of the applied operator across refinement levels."""

    levels: list[int]
    norms: list[float]
    ratios: list[float]
    bounded: bool


def domain_check(u, alpha: float, levels: int = 3,
                 base_model: BallModel | None = None) -> DomainReport:
    """Track ||D u||_1 across refinements; boundedness signals domain membership.

    ``u`` is either a GridFunction (refined exactly, so the sequence is
    flat for resolved data) or a callable model -> GridFunction that
    resamples a profile at each finer resolution, in which case
    ``base_model`` fixes the starting resolution.  Diagnostic only; the
    ``bounded`` flag records whether no step grew by more than a
    rounding margin, so at least one refinement ``levels`` is required.
    """
    _check_count("levels", levels, 1)
    if callable(u):
        if base_model is None:
            raise ValueError("base_model is required when passing a profile callable")
        start = base_model
    else:
        start = u.model

    def sample(lev: int) -> GridFunction:
        if callable(u):
            m = BallModel(start.p, start.N, start.M + lev)
            return u(m)
        return u.refine(lev)

    norms: list[float] = []
    lvls: list[int] = []
    for lev in range(levels + 1):
        du = apply_spectral(sample(lev), alpha)
        norms.append(du.lp_norm(1))
        lvls.append(start.M + lev)
    ratios = [
        norms[i + 1] / norms[i] if norms[i] > 0.0 else 1.0
        for i in range(len(norms) - 1)
    ]
    bounded = all(r <= 1.0 + 1e-8 for r in ratios)
    return DomainReport(lvls, norms, ratios, bounded)
