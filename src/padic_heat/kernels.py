"""Heat kernels, the Green function, and the resolvent on the ball.

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

The ball heat kernel has two independent evaluation routes:

* ``heat_kernel_ball``: a finite character sum over the ball's own
  frequencies, exact up to exp() rounding;
* ``heat_kernel_ball_series``: exp(lambda*t) times the global kernel
  plus the correction c(t), with c(t) summed from its alternating
  series.

The alternating series cancels catastrophically once t is a few units
(terms swell to about e^t before the signs bite), so one evaluator,
``_grow_and_c``, sums it in fixed-point Python integers scaled by 2**B
at a precision scaled to the hump, stopping relative to exp(lambda*t),
which it forms in the same integers, as it does every logarithm and
power of p.  The series route reads exp(lambda*t) and c(t) from it, and
``c_series`` rounds its c(t) to a double.  At every time the series
route sums the global kernel's spheres in the same integers too and
rounds once, so it runs one arithmetic and loads no package beyond
numpy.  One call, ``_series_radii``, forms each sphere once for a whole
list of radii and reads every radius off their prefix sums; each
sphere's p**(alpha*l) is one running product from p**0 = 1, down by
p**(-alpha) and up by p**alpha, so a sphere costs one exponential, its
decay.  The
integer layer keeps two caches, ``_ln_at`` and ``_grow_and_c``; each
holds a value that depends only on its key and never changes once
cached, and the spheres live only in their call, so the route is safe
to call from several threads without a lock.  Every stored value in
this package remains float64.  A sum whose terms times digits pass
``SERIES_WORK_BUDGET``, the c(t) series, the global kernel's sphere sum
at x = 0 or its sphere sum down to the deepest radius, is refused with
NonConvergenceError.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .ball_model import (BallModel, _check_nonnegative, _check_positive, _radial_array,
                         lambda_value)
from .fourier_ball import apply_radial
from .function_space import GridFunction
from .vladimirov import operator_levels

DEFAULT_EPS_TAIL = 1e-16

# Work a series sum may take, terms times working digits: a few seconds
# of fixed-point sums
SERIES_WORK_BUDGET = 3 * 10**7


class NonConvergenceError(Exception):
    """An adaptive series failed to meet its stopping rule within the cap."""


def _check_radius(N: int, m: int | None) -> None:
    """Refuse a sphere |x| = p**m outside the ball |x| <= p**N; m=None,
    the point x = 0, lies in every ball."""
    if m is not None and m > N:
        raise ValueError(f"radius exponent m must be <= N = {N}, got {m}")


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
    0.0.
    """
    _check_positive("t", t)
    _check_positive("alpha", alpha)
    _check_positive("eps_tail", eps_tail)
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


def _check_series_work(terms: int, dps: int, what: str = "c(t) series") -> None:
    """Refuse a sum of ``terms`` terms at ``dps`` digits once terms times
    digits pass ``SERIES_WORK_BUDGET``; ``what`` names the sum, the c(t)
    series, the x = 0 sphere sum or the radius sphere sum."""
    if terms * dps > SERIES_WORK_BUDGET:
        raise NonConvergenceError(
            f"{what}: {terms} terms at {dps} digits pass the "
            f"work budget of {SERIES_WORK_BUDGET} digit-terms; use the "
            f"character-sum route instead")


def _fixed_bits(dps: int) -> int:
    """B, the scale 2**B of the series layer's fixed-point integers at
    ``dps`` digits: the binary precision mpmath gives ``dps`` digits, plus
    64 guard bits."""
    return max(1, round((dps + 1) * 3.3219280948873626)) + 64


def _atanh(a: int, b: int, B: int) -> int:
    """atanh(a/b) * 2**B for 0 <= a/b <= 1/3, each term floored: the
    series sum_k (a/b)**(2k+1)/(2k+1), off by at most one unit per term."""
    power = (a << B) // b
    a2, b2 = a * a, b * b
    total = 0
    k = 1
    while power:
        total += power // k
        power = power * a2 // b2
        k += 2
    return total


def _ln(p: int, B: int) -> int:
    """ln p * 2**B, ``_ln_at``'s value at B rounded up to a multiple of 128
    bits, shifted down: every precision in a band of 128 bits shares one
    cached logarithm, and the shift adds at most one unit."""
    C = -(-B // 128) * 128
    return _ln_at(p, C) >> (C - B)


@lru_cache(maxsize=64)
def _ln_at(p: int, B: int) -> int:
    """ln p * 2**B: ln 2 = 18*atanh(1/26) - 2*atanh(1/4801) +
    8*atanh(1/8749), a Machin-like formula whose series converge about
    twice as fast as 2*atanh(1/3)'s, and otherwise k*ln 2 +
    2*atanh((p - 2**k)/(p + 2**k)) at k = floor(log2 p), whose argument
    is an exact rational of at most 1/3.  Each atanh is summed with 16
    guard bits, so ln 2 is off by a unit or two and ln p by about k+2."""
    W = B + 16
    if p == 2:
        return 18 * _atanh(1, 26, W) - 2 * _atanh(1, 4801, W) + 8 * _atanh(1, 8749, W) >> 16
    k = p.bit_length() - 1
    return k * _ln_at(2, B) + (2 * _atanh(p - (1 << k), p + (1 << k), W) >> 16)


def _exp(y: int, B: int) -> int:
    """exp(y / 2**B) * 2**B for an integer y.

    y = k*ln 2 + r with -ln 2/2 <= r < ln 2/2.  z = r/2**s is summed by
    its Taylor series at B + s + 8 bits as j interleaved series in z**j
    (Smith's concurrent series: one full product per j terms, the rest
    divisions by small integers), then squared s times and shifted by k.
    j grows like sqrt(B), and so does s, less one squaring per leading
    zero bit of |r|, which is already that much smaller.  A negative r
    is summed as it is: its terms change sign only where z**j < 0, so a
    floored term stuck at -1 floors to 0 at the next product.  A value
    below 2**(-B-1), which the sum would shift to 0, is 0 without a sum.
    The result is off by about |k| units of 2**-B, relative, from
    ``_ln``'s rounding of ln 2, plus a few units."""
    ln2 = _ln(2, B)
    k, r = divmod(y + (ln2 >> 1), ln2)
    r -= ln2 >> 1
    if k < -B - 1:
        return 0
    s = max(math.isqrt(B) // 4 + 4 - (B - abs(r).bit_length()), 0)
    j = math.isqrt(B) // 16 + 2
    g = s + 8
    W = B + g
    z = r << 8  # r / 2**s at W bits
    powers = [1 << W]  # z**i, i < j
    for _ in range(j):
        powers.append(powers[-1] * z >> W)
    z_j = powers.pop()
    sums = [0] * j  # sums[i] = sum_m z**(j*m) / (j*m + i)!
    term = 1 << W
    n = 0
    while term:
        for i in range(j):
            sums[i] += term
            n += 1
            term //= n
        term = term * z_j >> W
    total = sum(z_i * s_i for z_i, s_i in zip(powers, sums)) >> W
    for _ in range(s):
        total = total * total >> W
    return total << (k - g) if k >= g else total >> (g - k)


def _to_float(value: int, B: int) -> float:
    """value / 2**B correctly rounded to a double, +-inf past float range."""
    try:
        return value / (1 << B)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _c_total(p: int, X: int, R: int, B: int, eps: int, term_cap: int) -> int:
    """Alternating series sum_{n>=0} (-x)**n/n! / (1 - p**(-alpha*n-1)).

    The hump x = t*p**(-N*alpha) and the ratio R = p**(-alpha) come as
    ``_grow_and_c`` forms them, integers X and R scaled by 2**B, as are
    the terms, ``eps`` and the total; the n = 0 term carries
    1/(1 - p**(-1)) literally.  Stops once the increment drops below
    ``eps`` past the hump; a sum that needs more than ``term_cap`` terms
    raises NonConvergenceError.

    Each term costs two integer products and two integer divisions, each
    rounded to the floor.  Term n is off by at most about n units of
    2**-B and the total by about terms**2/2, below the rounding of an
    mpmath loop at the same precision for up to 2**32 terms.
    """
    hump = _to_float(X, B)
    one = 1 << B
    term = one  # (-x)**n / n!
    power = one // p  # p**(-alpha*n - 1)
    total = 0
    n = 0
    while True:
        # once p**(-alpha*n-1) falls below 2**-B the quotient is the term
        inc = (term << B) // (one - power) if power else term
        total += inc
        if abs(inc) < eps and n > hump:
            return total
        n += 1
        if n > term_cap:
            raise NonConvergenceError(
                f"c(t) series: increment {_to_float(abs(inc), B)!r} "
                f"after {term_cap} terms"
            )
        term = -((term * X) >> B) // n
        power = (power * R) >> B


def _p_powers(p: int, N: int, alpha: float, B: int) -> tuple[int, int]:
    """p**(-alpha) and p**(-N*alpha) scaled by 2**B, the exponentials of
    -a and -N*a for a = alpha*ln p, formed exactly from ``_ln``'s one
    logarithm of p.  -N*a is an integer multiple of a, never the power of
    -N*alpha rounded in float (3*2.8 = 8.399999999999999), which parted
    the series route's summands at the 17th digit.  At N = -1 they are
    the steps p**(-alpha) and p**alpha of the series route's running
    product."""
    a_num, a_den = alpha.as_integer_ratio()
    a = _ln(p, B) * a_num // a_den
    return _exp(-a, B), _exp(-N * a, B)


def _series_term_cap(x: float, log_eps: float) -> int:
    """Terms ``_c_total`` needs to stop below exp(log_eps) at hump x.

    Its increments are x**n/n! over denominators of at least 1/2, and
    past the hump x**n/n! falls monotonically, so the first n > x with
    2*x**n/n! < exp(log_eps) meets the stopping rule.  Two terms of
    margin cover the float rounding of x and lgamma; a hump that
    underflows to 0.0 stops after its first term.
    """
    log_x = math.log(x) if x > 0.0 else -math.inf
    n = math.floor(x) + 1
    while math.log(2.0) + n * log_x - math.lgamma(n + 1) >= log_eps:
        n += 1
    return n + 2


def _series_dps(p: int, N: int, alpha: float, t: float) -> int:
    """Digits the c(t) series needs: 25 beyond its largest term, e**x at
    the hump x, times exp(lambda*t), the factor its total is multiplied
    by.  There is no cap: ``_grow_and_c`` refuses a sum whose terms
    times digits pass ``SERIES_WORK_BUDGET``, so a precision too large to
    afford raises NonConvergenceError instead of rounding the answer
    away.  A hump past float range has no finite digit count, and its
    terms pass the budget at any precision, so it is refused here."""
    hump = t * float(p) ** (-N * alpha)
    if hump == math.inf:
        _check_series_work(math.inf, math.inf)
    lam = lambda_value(p, alpha, N)
    return 25 + int(math.ceil((hump + lam * t) * math.log10(math.e)))


@lru_cache(maxsize=64)
def _grow_and_c(p: int, N: int, alpha: float, t: float, dps: int) -> tuple[int, int]:
    """exp(lambda*t) and

        c(t) = p**(-N) * (1 - (1-1/p) * exp(lambda*t)
               * sum_{n>=0} (-x)**n / n! / (1 - p**(-alpha*n-1))),   x = t*p**(-N*alpha)

    as integers scaled by 2**B, B = ``_fixed_bits(dps)``: the one
    evaluation of c(t).  ``c_series`` rounds its c, and
    ``_series_radii`` uses both.  Neither depends on the radius,
    so the series is summed once per time.  lambda*t is
    (p-1)*x/(p - p**(-alpha)), from ``_p_powers``, so every power of p
    comes from one logarithm of p.  The total is multiplied by
    exp(lambda*t), so the sum stops once an increment falls below
    1e-16/exp(lambda*t), and its term cap follows from that rule.  The
    work budget is checked before any arithmetic at ``dps`` digits: first
    on floor(x) + 3 terms, the least cap ``_series_term_cap`` returns, so
    a huge hump x never runs its loop, then on the cap itself.  The hump
    X, the ratio R and the scale B formed here are handed to ``_c_total``.
    """
    x = t * float(p) ** (-N * alpha)
    _check_series_work(math.floor(x) + 3, dps)
    cap = _series_term_cap(x, math.log(1e-16) - lambda_value(p, alpha, N) * t)
    _check_series_work(cap, dps)
    B = _fixed_bits(dps)
    one = 1 << B
    R, H = _p_powers(p, N, alpha, B)
    t_num, t_den = t.as_integer_ratio()
    grow = _exp(((p - 1) * H * t_num << B) // (t_den * ((p << B) - R)), B)
    # ceil(2**B * 1e-16 / exp(lambda*t))
    eps = -(-(one << B) // (grow * 10 ** 16))
    total = _c_total(p, H * t_num // t_den, R, B, eps, cap)
    c = one - (p - 1) * (grow * total >> B) // p
    return grow, c * p ** -N if N <= 0 else c // p ** N


def c_series(p: int, N: int, alpha: float, t: float) -> float:
    """Spatially constant correction c(t) relating global and ball kernels,
    ``_grow_and_c``'s c at the digits ``_series_dps`` sizes, rounded to a
    double, or +-inf where it passes float range.  Raises
    NonConvergenceError where that sum passes ``SERIES_WORK_BUDGET``.
    """
    _check_nonnegative("t", t)
    if t == 0.0:
        return 0.0
    dps = _series_dps(p, N, alpha, t)
    return _to_float(_grow_and_c(p, N, alpha, t, dps)[1], _fixed_bits(dps))


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


def _sphere(p: int, l: int, y: int, tail_digits: int, B: int) -> int:
    """p**(l-1) * exp(-y) scaled by 2**B, the global kernel's sphere l over
    its weight p - 1, from its decay argument y = t*p**(alpha*l) scaled
    by 2**B.  The spheres' sum is multiplied by exp(lambda*t), about
    10**(tail_digits - 15), so the exponential, weighted by p**(l-1), is
    formed at W bits, tail_digits + 20 + l*log10(p) digits (at least 20).
    Below B it is shifted up to B and then weighted; a sphere l <= 0
    divides by p**(1-l).  A heavy sphere, whose W passes B, multiplies
    its exponential by the weight at W bits and shifts down by W - B, so
    a decay below 2**-B keeps the digits its weight lifts above it."""
    W = _fixed_bits(max(tail_digits + 20 + int(l * math.log10(p)), 20))
    if W > B:
        return _exp(-(y << (W - B)), W) * p ** (l - 1) >> (W - B)
    decay = _exp(-(y >> (B - W)), W) << (B - W)
    return decay * p ** (l - 1) if l >= 1 else decay // p ** (1 - l)


def _top_sphere(p: int, N: int, alpha: float, t: float, digits: int) -> int:
    """The sphere where the x = 0 sum of ``_series_radii`` stops:
    the least l >= -N past the peak of l*ln p - t*p**(alpha*l), the log
    of sphere l's weight times its decay, where that falls below
    -digits*ln 10.  Past the peak it falls monotonically and ever
    faster, so the least such l is found by doubling and bisection,
    O(log) evaluations at any alpha."""
    log_p, log_t = math.log(p), math.log(t)
    cut = -digits * math.log(10)

    def above(l: int) -> bool:
        g = alpha * l * log_p + log_t
        return g <= 709.0 and l * log_p - math.exp(g) >= cut

    # one below the start: -N, or the peak, where t*alpha*p**(alpha*l) = 1
    lo = max(-N, math.ceil(-(log_t + math.log(alpha)) / (alpha * log_p))) - 1
    step = 1
    while above(lo + step):
        lo, step = lo + step, 2 * step
    hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return hi


def _series_radii(p: int, N: int, alpha: float, t: float, radii) -> list[float]:
    """``heat_kernel_ball_series`` at each radius p**m of ``radii`` (None
    for x = 0), every radius read off one list of spheres.

    The global kernel scaled by 2**B is

        (p-1) * sum_{l <= -m} _sphere(l) - _sphere(1 - m),

    so with prefix(l) the ``_sphere``s up to l summed, the spheres
    l <= -N once, as every radius shares them, and each sphere from 1-N
    to the top once, a radius takes (p-1)*prefix(-m) minus its edge
    sphere prefix(1-m) - prefix(-m).  Integer sums are exact in any
    grouping, so each value has the bits of a sum of its own spheres.
    x = 0 has no edge sphere, and its sum ends at ``_top_sphere``, where
    a sphere's weight times its decay falls below 10**(-tail_digits-10).
    Each sphere's p**(alpha*l) is one running product from p**0 = 1:
    down by p**(-alpha) and up by p**alpha, both formed at full relative
    precision from one a = alpha*ln p by ``_p_powers``, so every sphere
    costs one ``_exp``, its decay of t*p**(alpha*l).  Started at 1, the
    product is off by a few units of 2**-B per step, absolute below 1
    and relative above it, also where p**(-alpha) or p**(-N*alpha) falls below 2**-B
    and keeps none of the bits a product up from it would need.
    t, every radius, exp(lambda*t) and c(t) come first; then the x = 0
    sum and the radii's sum, up to sphere 1 - min(m), are each refused by
    ``_check_series_work``, their spheres times the digits of their
    heaviest, before any sphere is formed.
    """
    _check_positive("t", t)
    for m in radii:
        _check_radius(N, m)
    lam_t = lambda_value(p, alpha, N) * t
    tail_digits = 15 + int(math.ceil(lam_t * math.log10(math.e)))
    dps = _series_dps(p, N, alpha, t) + tail_digits
    grow, c = _grow_and_c(p, N, alpha, t, dps)
    # only now: a dps the budget refuses can pass float range in _fixed_bits
    B = _fixed_bits(dps)
    # the last sphere of each sum; -N, no sphere above the ball, where
    # radii holds no x = 0 or no radius
    top0 = _top_sphere(p, N, alpha, t, tail_digits + 10) if None in radii else -N
    top = max([1 - m for m in radii if m is not None], default=-N)
    for last, what in ((top0, "x = 0 sphere sum"), (top, "radius sphere sum")):
        _check_series_work(last + N, tail_digits + 20 + int(last * math.log10(p)), what)
    # the spheres lo..hi: down to the first l < 0 with p**l < 10**(-tail_digits)
    # and up to the last sphere of either sum
    cutoff = 10 ** tail_digits
    lo = min(-N, -next(k for k in itertools.count(1) if p ** k > cutoff))
    hi = max(top0, top)
    # p**(alpha*l) scaled by 2**B is one running product from p**0 = 1:
    # down by p**(-alpha) and up by p**alpha, the exponentials of -a and a;
    # scales[l - lo] is p**(alpha*l)
    ratio, rise = _p_powers(p, -1, alpha, B)
    down, up = (list(itertools.accumulate(itertools.repeat(r, n), lambda s, f: s * f >> B,
                                          initial=1 << B))
                for r, n in ((ratio, -lo), (rise, max(hi, 0))))
    scales = down[:0:-1] + up
    t_num, t_den = t.as_integer_ratio()
    spheres = [_sphere(p, l, scales[l - lo] * t_num // t_den, tail_digits, B)
               for l in range(lo, hi + 1)]
    # prefix[l - lo] sums the spheres up to l
    prefix = list(itertools.accumulate(spheres))
    # (p-1)*prefix(-m) less the edge sphere prefix(1-m) - prefix(-m)
    Z = [(p - 1) * prefix[top0 - lo] if m is None
         else p * prefix[-m - lo] - prefix[1 - m - lo] for m in radii]
    return [_to_float((grow * z >> B) + c, B) for z in Z]


def heat_kernel_ball_series(p: int, N: int, alpha: float, t: float,
                            m: int | None = None) -> float:
    """Ball heat kernel via exp(lambda*t) * global kernel + c(t).

    Independent route from ``heat_kernel_ball``; the two must agree to
    tight tolerance on every radius and time.  It takes exp(lambda*t)
    and c(t) from ``_grow_and_c``.  The two summands grow like
    exp(lambda*t) while their sum stays order p**(-N), and c(t) reaches
    about 1e10 at N < 0 however small lambda*t is, so at every time the
    whole combination is formed in the fixed-point integers, the global
    kernel by ``_series_radii``, and rounded once.  It works
    ``tail_digits`` = 15 + lambda*t*log10(e) guard digits past c(t)'s,
    so the global kernel survives multiplication by exp(lambda*t).  The
    route refuses by one rule, NonConvergenceError where c(t), the x = 0
    sphere sum or the sphere sum down to a deep radius needs more work
    than ``SERIES_WORK_BUDGET``: lambda*t stays below the series' hump x,
    so any lambda*t whose guard digits would cost more than the budget
    comes with a c(t) series that passes it first.
    """
    return _series_radii(p, N, alpha, t, [m])[0]


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
    kernel path of ``linear_solver.evolve_series`` convolves the levels
    themselves.  It runs no ladder, so it stays a check of the spectral
    path.
    """
    _check_nonnegative("t", t)
    return _radial_gridfunction(model, _ball_radial(model.p, model.N, float(alpha), t))


# -- Green function and resolvent --------------------------------------


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


def resolvent_apply(u: GridFunction, alpha: float, mu: float,
                    path: str = "spectral") -> GridFunction:
    """Apply (D - lambda + mu)^(-1) to a grid function.

    path="spectral" applies the radial multiplier 1/(m[k] - lambda + mu)
    through nested ball averages; path="kernel" convolves with the Green
    grid function and adds the rank-one piece p**(-N)/mu * integral(u)
    that the kernel (mean-zero by construction) cannot carry.
    """
    _check_positive("mu", mu)
    model = u.model
    if path == "spectral":
        e = operator_levels(model, float(alpha))
        levels = 1.0 / (e - e[-1] + mu)
        return GridFunction(model, apply_radial(model, levels, u.values))
    if path == "kernel":
        kg = green_kernel_gridfunction(model, float(alpha), float(mu))
        mean_part = float(model.p) ** (-model.N) / mu * u.integral()
        conv = u.convolve_radial(kg)
        return GridFunction(model, conv.values + mean_part)
    raise ValueError(f"unknown path {path!r}")


# -- regime tables ------------------------------------------------------


def green_estimates_report(p: int, N: int, alpha: float, mu: float,
                           m_range: tuple[int, int] = (-25, 0)) -> list[dict]:
    """Tabulate |K| against its regime weight on spheres p**m, m in m_range.

    Weights: max(1, |m|*log p) for alpha = 1 (logarithmic growth),
    p**(m*(alpha-1)) for alpha < 1 (power growth), 1 for alpha > 1
    (bounded, continuous at 0).  Rows carry the weighted value and the
    ratio of consecutive weighted values, which should settle near 1 as
    m decreases.
    """
    lo, hi = m_range
    if lo > hi or hi > N:
        raise ValueError(f"bad m_range {m_range}")
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
