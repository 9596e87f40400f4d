"""Heat kernels and the Green function on the ball.

Sign convention, fixed across the package: the operator D of order
alpha is positive; A = D - lambda*I kills constants; the semigroup is
T(t) = exp(-t*(D - lambda*I)); the resolvent (A + mu)^(-1) divides
spectrally by (m[k] - lambda + mu).

Radial evaluators work directly in the radius variable: an argument
``m`` denotes the sphere |x|_p = p**m, and ``m=None`` denotes the point
x = 0 (where defined).  The ball heat kernel and the Green function are
the kernels of radial symbols phi of the ball's frequencies, so each is
one finite progression on the sphere |x| = p**m,

    p**(-N)*phi(0) + (1-1/p) * sum_{l=1-N}^{-m} p**l * phi(p**l)
    - p**(-m) * phi(p**(1-m)),

and one generator, ``_radial_sweep``, yields it with the mean over the
ball |x| <= p**m for m = N, N-1, ...  Each kernel gives only its zero
frequency's share and its frequency-sphere term; the heat term ends the
sweep where its decay underflows, and the Green term never does.  One
factory, ``_heat_term``, forms the heat term for the ball's sweep and,
at lambda = 0, every sphere of the whole-field kernel
``heat_kernel_global``.  A term whose weight p**a passes float range
while the term itself does not is formed in one power, so
``heat_kernel_ball`` answers at alpha down to 0.01, and the whole-field
kernel at x = 0 wherever its value fits in a double.  Grid-level
kernels return GridFunctions whose coset values are the exact coset
averages of the radial profiles, read off the sweep: the zero coset
takes its finite mean over the sub-ball |x| <= p**(-M).

``heat_kernel_ball`` is the first of the ball heat kernel's two
independent routes; the second, exp(lambda*t) times the whole-field
kernel plus the correction c(t) in fixed-point integers, is the
``series`` module, which this module does not import, so the two
routes share no arithmetic.  Everything here runs in doubles: the
ball and whole-field heat kernels, their mass sums, the Green function
and the grid kernels.

This module holds the kernel values alone and imports only
``ball_model`` and ``function_space``: it runs no ball-average ladder
and no convolution.  ``linear_solver`` convolves the sweeps' levels by
class sums, the kernel path of the semigroup and of the resolvent, and
sets them against the ladder path there.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .ball_model import (DEFAULT_ORDER_CAP, BallModel, _check_nonnegative, _check_positive,
                         _check_radius, _is_integer, _radial_array, lambda_value)
from .function_space import GridFunction

DEFAULT_EPS_TAIL = 1e-16


def _finite(total: float) -> float:
    """A sum of finite terms, or the OverflowError a term past float range
    raises where the sum itself passes it."""
    if math.isinf(total):
        raise OverflowError(34, "Numerical result out of range")
    return total


def heat_kernel_global(p: int, alpha: float, t: float, m: int | None = None,
                       eps_tail: float = DEFAULT_EPS_TAIL) -> float:
    """Heat kernel on the whole field at radius p**m (m=None for x = 0).

    Sphere decomposition of the oscillatory integral:

        Z(t, |x| = p**m) = sum_{l <= -m} (1-1/p) p**l exp(-t p**(alpha*l))
                           - p**(-m) exp(-t p**(alpha*(1-m)))

    and for x = 0 the full two-sided sphere sum, started above the
    superexponential cutoff of exp(-t p**(alpha*l)): the same sum at the
    radius m just below that start sphere, whose edge term -p**(-m)
    exp(-t p**(alpha*(1-m))) underflows.  Each sphere is the
    heat term of ``_heat_term`` at lambda = 0, the one the ball kernel's
    sweep forms, and a term of None, a decay that underflows, adds 0.0;
    so a start sphere whose weight p**l passes float range forms no
    p**l, and the x = 0 sum answers wherever its terms fit in a double.
    The downward tail is truncated once its geometric bound p**l drops
    below ``eps_tail``, a bound compared only once p**l is below e**709.
    ``eps_tail`` must be positive and finite, since p**l only falls to
    0.0, and m an integer: no point lies at a radius p**(-1.5).
    """
    _check_positive("t", t)
    _check_positive("alpha", alpha)
    _check_positive("eps_tail", eps_tail)
    _check_radius(None, m)
    q, log_p = 1.0 - 1.0 / p, math.log(p)
    term = _heat_term(p, alpha, t, 0.0)
    if m is None:
        # the radius below the start sphere: its edge term has
        # t*p**(alpha*(1-m)) > 745, so it is None and adds -0.0
        m = -(int(math.ceil(math.log(745.0 / t) / (alpha * log_p))) + 1)
    acc = -(term(1.0, -m, 1 - m) or 0.0)
    l = -m
    while True:
        acc += term(q, l, l) or 0.0
        if l * log_p < 709.0 and float(p) ** l < eps_tail:
            return _finite(acc)
        l -= 1


def _radial_integral(p: int, top: int, radial, m_floor: int) -> float:
    """sum_{m <= top} (1-1/p) p**m K(p**m), the integral of a radial K over
    the ball |x| <= p**top, K read off the sweep ``radial`` from radius
    p**top down.

    Every kernel here is bounded or, near x = 0, grows slower than
    |x|**(-1), so past the largest term the terms shrink geometrically:
    like p**m for a bounded K and like p**(m*min(alpha, 1)), log factor
    aside, for the Green function.  The sum stops at the first term below
    1e-18 times the largest one once m <= ``m_floor``.
    """
    q = 1.0 - 1.0 / p
    acc = 0.0
    scale = 0.0
    for m, K in zip(itertools.count(top, -1), radial):
        term = q * float(p) ** m * K
        acc += term
        scale = max(scale, abs(term))
        if abs(term) < 1e-18 * max(scale, 1e-300) and m <= m_floor:
            return acc


def global_kernel_mass(p: int, alpha: float, t: float) -> float:
    """Sphere-sum of the global kernel over the whole field; should be 1.

    Upward spheres contribute ~ t*(1-p**(-alpha))*p**(-alpha*m), so the
    sum starts where that falls to 1e-16, a cutoff that scales with
    log(t/eps); above it the summand is rounding noise of the sphere
    evaluator.  ``_radial_integral`` descends from there past m = 0.
    """
    # the cutoff below turns a NaN or infinite t into an integer
    _check_positive("t", t)
    _check_positive("alpha", alpha)
    top = int(math.ceil(math.log(max(t, 1.0) * float(p) ** alpha / 1e-16)
                        / (alpha * math.log(p)))) + 2
    # the tail cut DEFAULT_EPS_TAIL/p**m below rounds to 0.0, which
    # heat_kernel_global refuses, once p**m passes 2**1075 * 1e-16 (4e307),
    # before the weight p**m itself leaves float range
    if top * math.log(p) > math.log(DEFAULT_EPS_TAIL) + 1075 * math.log(2):
        raise ValueError(
            f"global kernel mass at alpha = {alpha}, t = {t} sums spheres up to "
            f"{p}**{top}, past about 4e307, where the tail cut "
            f"{DEFAULT_EPS_TAIL}/p**m rounds to 0.0 and p**m nears float range")
    # cut each sphere's own tail relative to its p**(-m) scale, since the
    # weight p**m amplifies absolute truncation error
    radial = (heat_kernel_global(p, alpha, t, m, DEFAULT_EPS_TAIL / float(p) ** max(m, 0))
              for m in itertools.count(top, -1))
    return _radial_integral(p, top, radial, 0)


def global_kernel_ball_mass(p: int, N: int, alpha: float, t: float) -> float:
    """Sphere-sum of the global kernel over the radius-p**N ball,
    ``_radial_integral`` from the radius p**N down past m = min(N, 0)."""
    radial = (heat_kernel_global(p, alpha, t, m) for m in itertools.count(N, -1))
    return _radial_integral(p, N, radial, min(N, 0))


def _radial_sweep(p: int, N: int, base: float, term):
    """Yield (K(|x| = p**m), the mean of K over |x| <= p**m) for
    m = N, N-1, N-2, ..., for the radial kernel K of a radial symbol phi:

        K(|x| = p**m) = base + (1-1/p) * sum_{l=1-N}^{-m} p**l * phi(p**l)
                        - p**(-m) * phi(p**(1-m)),

    ``base`` the zero frequency's share p**(-N) * phi(0) and
    ``term(c, a, l)`` = c * p**a * phi(p**l), a frequency sphere's term.
    The prefix, the sum over the frequencies |xi| <= p**(-m), is carried
    from one radius to the next, so a sweep over R radii costs O(R); base
    plus the prefix is the mean over the ball.  Each radius forms its
    boundary term p**(-m) * phi(p**(1-m)) before its pair is yielded and
    the prefix term of radius m-1 after, so a sweep raises only when
    asked for a radius whose own value passes float range.  A term of
    None ends the sweep: phi vanishes to double precision from that
    sphere on, so the last pair holds base plus the prefix twice, the
    value at x = 0, which the kernel also takes on every smaller sphere.
    """
    q = 1.0 - 1.0 / p
    prefix = 0.0
    for m in itertools.count(N, -1):
        edge = term(1.0, -m, 1 - m)
        if edge is None:
            yield base + prefix, base + prefix
            return
        yield base + (prefix - edge), base + prefix
        prefix = _finite(prefix + term(q, 1 - m, 1 - m))


def _sweep_pairs(sweep, count: int | None) -> list:
    """The first ``count`` pairs of a ``_radial_sweep``, all of them at
    None.  A sweep that ends early holds its last pair, the value at
    x = 0, on every smaller radius."""
    pairs = list(itertools.islice(sweep, count))
    return pairs + pairs[-1:] * (0 if count is None else count - len(pairs))


def _heat_term(p: int, alpha: float, t: float, lam: float):
    """The heat term of a frequency sphere, term(c, a, l) =
    c * p**a * exp(t*(lam - p**(alpha*l))), or None where the decay
    underflows: the one rule of the ball kernel's sweep (lam = lambda)
    and of the whole-field kernel's spheres (lam = 0).

    The decay is None once alpha*l*log(p) passes 709, before
    p**(alpha*l) can overflow, or once its argument falls to -745.
    Where p**a passes float range and the decay does not vanish, the
    term is c * p**(a + arg/log(p)), arg the decay's argument; a term
    past float range itself raises OverflowError.
    """
    fp, log_p = float(p), math.log(p)

    def term(c: float, a: int, l: int) -> float | None:
        arg = -math.inf if alpha * l * log_p > 709.0 else t * (lam - fp ** (alpha * l))
        if arg <= -745.0:
            return None
        try:
            return c * fp ** a * math.exp(arg)
        except OverflowError:
            return c * fp ** (a + arg / log_p)

    return term


def _ball_radial(p: int, N: int, alpha: float, t: float):
    """``_radial_sweep`` of the ball heat kernel, phi(xi) =
    exp(-t*(|xi|**alpha - lambda)) on the ball's frequencies: base p**(-N)
    and the ``_heat_term`` at lambda, computed once.

    Every frequency has p**(alpha*l) > lambda, so each decay is at most
    1, and the sweep is overflow-free for arbitrarily large t.  It ends
    where the term's decay underflows.
    """
    term = _heat_term(p, alpha, t, lambda_value(p, alpha, N))
    return _radial_sweep(p, N, float(p) ** (-N), term)


def heat_kernel_ball(p: int, N: int, alpha: float, t: float,
                     m: int | None = None) -> float:
    """Ball heat kernel at radius p**m (m=None for x = 0), by finite character sum.

        Z_ball(t, |x| = p**m) = p**(-N) + exp(lambda*t) *
            [ sum_{l=-N+1}^{-m} (1-1/p) p**l exp(-t p**(alpha*l))
              - p**(-m) exp(-t p**(alpha*(1-m))) ]

    Every frequency in the sum has p**(alpha*l) > lambda, so the
    exp(lambda*t) prefactor folds into each term as a pure decay
    exp(t*(lambda - p**(alpha*l))).  The value is read off the radial
    sweep ``_ball_radial`` at m, or at its end, where those decays
    underflow, for x = 0 and for the spheres past it.
    """
    _check_positive("t", t)
    _check_radius(N, m)
    return _sweep_pairs(_ball_radial(p, N, alpha, t), None if m is None else N - m + 1)[-1][0]


def _sweep_levels(model: BallModel, sweep) -> np.ndarray:
    """The L + 1 level values (see ``radial_levels``) of a radial sweep of
    (value on the sphere |x| = p**m, mean over |x| <= p**m) pairs from
    m = N down.

    The sphere of valuation v < L = N + M takes the value at radius
    p**(N - v); the zero coset takes the mean over the sub-ball
    |x| <= p**(-M), the exact coset average.
    """
    L = model.N + model.M
    pairs = _sweep_pairs(sweep, L + 1)
    return np.array([value for value, _ in pairs[:L]] + [pairs[L][1]])


def _radial_gridfunction(model: BallModel, sweep) -> GridFunction:
    """The grid function of a radial sweep: the ``_radial_array`` of its
    ``_sweep_levels``."""
    return GridFunction(model, _radial_array(model, _sweep_levels(model, sweep)))


def ball_kernel_gridfunction(model: BallModel, alpha: float, t: float) -> GridFunction:
    """Ball heat kernel as a grid function, from its character sum.

    Fourier coefficients p**(-N) * exp(-t*(m[k] - lambda)), so convolving
    with it realises exp(-t*(D - lambda*I)) on level-M data.  The sphere
    of valuation v takes the value at radius p**(N - v) of the sweep
    ``_ball_radial``, which ``heat_kernel_ball`` reads; the zero coset
    takes the sweep's mean over the sub-ball |x| <= p**(-M), p**(-N) plus
    its L terms, the exact coset average.  Past the sweep's end every
    value is its last.  The ``_radial_array`` of those L + 1 levels
    (``_sweep_levels``) makes the kernel bit for bit constant on
    every sphere, as ``GridFunction.convolve_radial`` requires; the
    kernel paths of ``linear_solver`` convolve the levels themselves.
    It runs no ladder, so it stays a check of the spectral path.
    """
    _check_nonnegative("t", t)
    return _radial_gridfunction(model, _ball_radial(model.p, model.N, float(alpha), t))


# -- Green function -----------------------------------------------------


def _green_radial(p: int, N: int, alpha: float, mu: float):
    """``_radial_sweep`` of the Green function, phi(xi) =
    1/(|xi|**alpha - lambda + mu) with the zero mode dropped: base 0.0
    and the term c * p**a / d(l), d(l) = p**(alpha*l) - lambda + mu,
    lambda computed once.  Past float range of p**a or p**(alpha*l) the
    term is c * p**(a - alpha*l) / (1 + (mu - lambda) * p**(-alpha*l)); a
    term past float range itself raises OverflowError.  Every term is a
    number, however far it underflows, so the sweep never ends.
    """
    _check_positive("mu", mu)
    fp = float(p)
    lam = lambda_value(p, alpha, N)

    def term(c: float, a: int, l: int) -> float:
        b = alpha * l
        try:
            return c * fp ** a / (fp ** b - lam + mu)
        except OverflowError:
            return c * fp ** (a - b) / (1.0 + (mu - lam) * fp ** (-b))

    return _radial_sweep(p, N, 0.0, term)


def green_kernel(p: int, N: int, alpha: float, mu: float,
                 m: int | None = None) -> float:
    """Green function of (D - lambda + mu) at radius p**m.

    Finite progression for a point on the sphere |x| = p**m:

        K(|x| = p**m) = (1-1/p) * sum_{l=-N+1}^{-m} p**l / d(l)
                        - p**(-m) / d(1-m),
        d(l) = p**(alpha*l) - lambda + mu,

    read off the radial sweep ``_green_radial`` at m.  ``m=None``
    evaluates at x = 0, defined only for alpha > 1, as the whole upward
    sum (1-1/p) * sum_{l > -N} p**l / d(l).  Past l1, the least l > -N
    with |mu - lambda| <= 2**-60 * p**(alpha*l), every term is
    p**(l*(1-alpha)) to within 2**-60, so the sum is the sweep's mean
    over |x| <= p**(1-l1), the terms below l1, plus the geometric tail
    (1-1/p) * p**(l1*(1-alpha)) / (1 - p**(1-alpha)): a bounded number
    of radii however close alpha is to 1.
    """
    _check_positive("mu", mu)
    _check_positive("alpha", alpha)
    if m is None:
        if alpha <= 1:
            raise ValueError("the Green function is unbounded at x = 0 for alpha <= 1")
        gap = abs(mu - lambda_value(p, alpha, N))
        l1 = 1 - N
        if gap > 0:
            l1 = max(l1, math.ceil((math.log(gap) + 60 * math.log(2)) / (alpha * math.log(p))))
        mean = _sweep_pairs(_green_radial(p, N, alpha, mu), N + l1)[-1][1]
        return mean + ((1.0 - 1.0 / p) * float(p) ** (l1 * (1 - alpha))
                       / -math.expm1((1 - alpha) * math.log(p)))
    _check_radius(N, m)
    return _sweep_pairs(_green_radial(p, N, alpha, mu), N - m + 1)[-1][0]


def green_kernel_series(p: int, N: int, alpha: float, mu: float,
                        m: int | None = None) -> float:
    """``green_kernel`` for alpha > 1: summed frequency sphere by frequency
    sphere, the Green function adds the sweep's terms in the sweep's order."""
    _check_positive("alpha", alpha)
    if alpha <= 1:
        raise ValueError("the sphere series requires alpha > 1")
    return green_kernel(p, N, alpha, mu, m)


def green_ball_integral(p: int, N: int, alpha: float, mu: float) -> float:
    """Sphere-sum of the Green function over the ball; should vanish.

    ``_radial_integral`` of the sphere values from the radius p**N down:
    it descends past m = -8 until a term falls below 1e-18 times the
    largest.  It never reads the sweep's means, whose value over the
    ball is 0 by construction.
    """
    return _radial_integral(p, N, (K for K, _ in _green_radial(p, N, alpha, mu)), -8)


def green_kernel_gridfunction(model: BallModel, alpha: float, mu: float) -> GridFunction:
    """Green function as a grid function of exact coset averages.

    Nonzero cosets take the radial value on their sphere, read off the
    sweep ``_green_radial`` as ``green_kernel`` reads it; the zero coset
    takes the sweep's mean over the sub-ball |x| <= p**(-M), its finite
    prefix of L = N + M terms.
    """
    return _radial_gridfunction(model, _green_radial(model.p, model.N, alpha, mu))


# -- regime tables ------------------------------------------------------


def green_estimates_report(p: int, N: int, alpha: float, mu: float,
                           m_range: tuple[int, int] = (-25, 0)) -> list[dict]:
    """Tabulate |K| against its regime weight on spheres p**m, m in m_range.

    Weights: max(1, |m|*log p) for alpha = 1 (logarithmic growth),
    p**(m*(alpha-1)) for alpha < 1 (power growth), 1 for alpha > 1
    (bounded, continuous at 0).  Rows carry the weighted value and the
    ratio of consecutive weighted values, which should settle near 1 as
    m decreases.  Both ends must be integers (``_is_integer``).  A sweep
    of more than ``DEFAULT_ORDER_CAP`` radii, from p**N down to p**lo, is
    refused with ValueError before it starts.
    """
    lo, hi = m_range
    if not (_is_integer(lo) and _is_integer(hi)) or lo > hi or hi > N:
        raise ValueError(f"bad m_range {m_range}")
    if N - lo + 1 > DEFAULT_ORDER_CAP:
        raise ValueError(f"m_range {m_range} sweeps {N - lo + 1} radii from p**{N}, "
                         f"past the cap {DEFAULT_ORDER_CAP}")
    rows = []
    prev_weighted = None
    sweep = _sweep_pairs(_green_radial(p, N, alpha, mu), N - lo + 1)[N - hi:]
    for m, (K, _) in zip(range(hi, lo - 1, -1), sweep):
        if alpha == 1.0:
            weight = max(1.0, abs(m) * math.log(p))
        elif alpha < 1.0:
            weight = float(p) ** (m * (alpha - 1.0))
        else:
            weight = 1.0
        weighted = abs(K) / weight
        ratio = weighted / prev_weighted if prev_weighted not in (None, 0.0) else math.nan
        rows.append({
            "m": m,
            "abs_x": float(p) ** m,
            "K": K,
            "weight": weight,
            "weighted": weighted,
            "ratio": ratio,
        })
        prev_weighted = weighted
    return rows
