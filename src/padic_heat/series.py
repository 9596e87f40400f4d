"""The ball heat kernel's second route, in fixed-point integers.

The ball heat kernel has two independent evaluation routes:

* ``kernels.heat_kernel_ball``: a finite character sum over the ball's
  own frequencies, exact up to exp() rounding;
* ``heat_kernel_ball_series``, here: exp(lambda*t) times the global
  kernel plus the correction c(t), with c(t) summed from its alternating
  series.

The two are compared by ``heat-kernel`` and by ``verify``'s "ball kernel
two formulas" check, so they share no arithmetic: this module imports
nothing from the package but ``ball_model``'s refusal rules and
``lambda_value``, and ``kernels`` imports nothing from it.

The alternating series cancels catastrophically once t is a few units
(terms swell to about e^t before the signs bite), so one evaluator,
``_grow_and_c``, sums it in fixed-point Python integers scaled by 2**B
at a precision scaled to the hump, stopping relative to exp(lambda*t),
which it forms in the same integers, as it does every logarithm and
power of p.  The series route reads exp(lambda*t) and c(t) from it, and
``c_series`` rounds its c(t) to a double.  At every time the series
route sums the global kernel's spheres in the same integers too and
rounds once, so it runs one arithmetic and loads no package beyond
numpy.  The route has one entry, ``_series_reader``: one call per time
refuses its own t and deepest radius, forms each sphere once for every
radius down to that deepest one and reads each radius off their prefix
sums.  ``heat_kernel_ball_series`` is one read of it, and
``heat-kernel`` reads every row of a time off one call.  Each sphere's
p**(alpha*l) is one running product from p**0 = 1, down by p**(-alpha)
and up by p**alpha, so a sphere costs one exponential, its decay.  The
integer layer keeps two caches, ``_ln_at`` and ``_grow_and_c``; each
holds a value that depends only on its key and never changes once
cached, and the spheres live only in their call, so the route is safe
to call from several threads without a lock.  Every value it returns
is a float64.  A sum whose terms times digits pass
``SERIES_WORK_BUDGET``, the c(t) series, the global kernel's sphere sum
at x = 0 or its sphere sum down to the deepest radius, is refused with
NonConvergenceError before any sphere is formed, and so before any work
per radius.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .ball_model import _check_nonnegative, _check_positive, _check_radius, lambda_value

# Work a series sum may take, terms times working digits: a few seconds
# of fixed-point sums
SERIES_WORK_BUDGET = 3 * 10**7


class NonConvergenceError(Exception):
    """An adaptive series failed to meet its stopping rule within the cap."""


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
    ``_series_reader`` uses both.  Neither depends on the radius,
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
    _check_positive("alpha", alpha)
    if t == 0.0:
        return 0.0
    dps = _series_dps(p, N, alpha, t)
    return _to_float(_grow_and_c(p, N, alpha, t, dps)[1], _fixed_bits(dps))



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
    """The sphere where the x = 0 sum of ``_series_reader`` stops:
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


def _series_reader(p: int, N: int, alpha: float, t: float, deepest: int | None,
                   zero: bool):
    """``heat_kernel_ball_series`` as a function of m, for every radius
    p**m from p**N down to p**deepest (None for no radius) and, where
    ``zero``, for x = 0 (m = None), every value read off one list of
    spheres.  It is the series route's one entry, so it refuses its own
    input before any work: t, by ``_check_positive``, then ``deepest``,
    by ``_check_radius`` (an integer, at most N), then alpha, by
    ``lambda_value``.  The function it returns reads only those radii.

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
    exp(lambda*t) and c(t) come first; then the x = 0 sum and the radii's
    sum, up to sphere 1 - deepest, are each refused by
    ``_check_series_work``, their spheres times the digits of their
    heaviest, before any sphere is formed.  Those checks read only
    ``deepest`` and ``zero``, so a deep radius is refused in O(1), before
    any work per radius.
    """
    _check_positive("t", t)
    _check_radius(N, deepest)
    lam_t = lambda_value(p, alpha, N) * t
    tail_digits = 15 + int(math.ceil(lam_t * math.log10(math.e)))
    dps = _series_dps(p, N, alpha, t) + tail_digits
    grow, c = _grow_and_c(p, N, alpha, t, dps)
    # only now: a dps the budget refuses can pass float range in _fixed_bits
    B = _fixed_bits(dps)
    # the last sphere of each sum; -N, no sphere above the ball, where
    # there is no x = 0 or no radius
    top0 = _top_sphere(p, N, alpha, t, tail_digits + 10) if zero else -N
    top = -N if deepest is None else 1 - deepest
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

    def value(m: int | None) -> float:
        # (p-1)*prefix(-m) less the edge sphere prefix(1-m) - prefix(-m)
        z = (p - 1) * prefix[top0 - lo] if m is None else p * prefix[-m - lo] - prefix[1 - m - lo]
        return _to_float((grow * z >> B) + c, B)

    return value


def heat_kernel_ball_series(p: int, N: int, alpha: float, t: float,
                            m: int | None = None) -> float:
    """Ball heat kernel via exp(lambda*t) * global kernel + c(t).

    Independent route from ``heat_kernel_ball``; the two must agree to
    tight tolerance on every radius and time.  It takes exp(lambda*t)
    and c(t) from ``_grow_and_c``.  The two summands grow like
    exp(lambda*t) while their sum stays order p**(-N), and c(t) reaches
    about 1e10 at N < 0 however small lambda*t is, so at every time the
    whole combination is formed in the fixed-point integers, the global
    kernel by one ``_series_reader`` read, and rounded once.  It works
    ``tail_digits`` = 15 + lambda*t*log10(e) guard digits past c(t)'s,
    so the global kernel survives multiplication by exp(lambda*t).  The
    route refuses by one rule, NonConvergenceError where c(t), the x = 0
    sphere sum or the sphere sum down to a deep radius needs more work
    than ``SERIES_WORK_BUDGET``: lambda*t stays below the series' hump x,
    so any lambda*t whose guard digits would cost more than the budget
    comes with a c(t) series that passes it first.
    """
    return _series_reader(p, N, alpha, t, m, m is None)(m)

