"""Finite model of a p-adic ball and its dual group.

The ball of radius p**N in the field of p-adic numbers is a compact
additive group.  Functions constant on cosets of the sub-ball of radius
p**(-M) form a finite-dimensional space indexed by the quotient group,
which is cyclic of order S = p**(N+M).  Coset representatives are the
points x = p**(-N) * n for n in {0, ..., S-1}; dual frequencies are
xi = p**(-M) * k for k in {0, ..., S-1}.  The pairing of a point with a
frequency is exp(2*pi*i * n*k / S), with the integer product reduced
mod S exactly before any floating-point call.

Absolute values are p-adic: |x|_p = p**(N - v) where v is the p-adic
valuation of the representative integer n.  The zero coset is reported
with the sentinel 0.0 (it stands for the whole sub-ball, where the
radial profile is not resolved).

Everything here is exact integer combinatorics plus the scalar
constants of the fractional operator of order alpha:

* ``lambda_value(p, alpha, N)``, the smallest eigenvalue, attained on
  constants, and
* ``coefficient_ap(p, alpha)``, the negative normalisation of the
  hypersingular difference form.

Every S-array the package forms from a radial function, a function of
|x|_p or |xi|_p alone, is fixed by its L + 1 per-valuation values.
``_radial_array`` gathers those values through ``valuation_table`` into
a read-only S-array, and ``radial_levels`` reads them back off one.
The point and frequency tables are such gathers of ``_abs_levels``.
Only the last model's valuation table is cached: it is 8 MB at S =
2**20, and a process that visits several models holds one.  The input
refusals of the whole package live here too, one rule each:
``_is_integer`` (which ``BallModel`` applies to N and M),
``_check_positive``, ``_check_nonnegative``, ``_check_radius``,
``_check_count`` and ``_check_times``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_ORDER_CAP = 1 << 20


# Miller-Rabin on these bases decides every n below the limit
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses n >= ``_PRIME_TEST_LIMIT`` (3.3e24)."""
    if n >= _PRIME_TEST_LIMIT:
        raise ValueError(f"p = {n} is too large to test for primality (limit {_PRIME_TEST_LIMIT})")
    if n < 2 or any(n % a == 0 for a in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BallModel:
    """Quotient of the radius-p**N ball by the radius-p**(-M) sub-ball.

    Parameters
    ----------
    p : prime.
    N : ball radius exponent, an integer (may be negative).
    M : resolution exponent, an integer (may be negative); N + M >= 0 is
        required.

    Group orders p**(N+M) above ``DEFAULT_ORDER_CAP`` are refused.

    Instances are immutable and hashable.  Derived lookup tables
    (valuations, point and frequency absolute values) are read-only, and
    the last model's valuation table is cached and shared, so models are
    safe to use concurrently.
    """

    p: int
    N: int
    M: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int):
            raise ValueError(f"p must be a prime integer, got {self.p!r}")
        if not (_is_integer(self.N) and _is_integer(self.M)):
            raise ValueError(f"N and M must be integers, got N={self.N!r}, M={self.M!r}")
        # as Python ints: p**L of NumPy integers wraps past 2**63
        L = int(self.N) + int(self.M)
        if L < 0:
            raise ValueError(f"need N + M >= 0, got N={self.N}, M={self.M}")
        # The order is refused before p is tested, and one past 4096 bits
        # without forming it (p**L of a huge L runs for hours): p**L passes
        # the cap once L passes the cap's bit length (p >= 2) or p the cap.
        cap = DEFAULT_ORDER_CAP
        if L >= 1 and self.p >= 2:
            huge = ((L > cap.bit_length() or self.p > cap)
                    and L * self.p.bit_length() > 4096)
            order = f"{self.p}**{L}" if huge else self.p ** L
            if huge or order > cap:
                raise ValueError(f"group order p**(N+M) = {order} exceeds the cap {cap}")
        if not _is_prime(self.p):
            raise ValueError(f"p must be a prime integer, got {self.p!r}")

    @property
    def S(self) -> int:
        """Group order p**(N+M)."""
        return self.p ** (self.N + self.M)

    def _check_index(self, n: int) -> None:
        if not 0 <= n < self.S:
            raise IndexError(f"index {n} out of range [0, {self.S})")

    def valuation(self, n: int) -> int:
        """p-adic valuation of the representative integer n.

        The zero representative is mapped to N + M, one more than any
        nonzero representative can reach.
        """
        self._check_index(n)
        if n == 0:
            return self.N + self.M
        v = 0
        while n % self.p == 0:
            n //= self.p
            v += 1
        return v

    def point_abs(self, n: int) -> float:
        """|x|_p of the point x = p**(-N) * n; 0.0 for the zero coset."""
        self._check_index(n)
        if n == 0:
            return 0.0
        return float(self.p) ** (self.N - self.valuation(n))

    def freq_abs(self, k: int) -> float:
        """|xi|_p of the frequency xi = p**(-M) * k; 0.0 for k = 0."""
        self._check_index(k)
        if k == 0:
            return 0.0
        return float(self.p) ** (self.M - self.valuation(k))

    def character(self, n: int, k: int) -> complex:
        """Pairing exp(2*pi*i * n*k / S); the product n*k is reduced mod S exactly."""
        self._check_index(n)
        self._check_index(k)
        r = (n * k) % self.S
        return cmath.exp(2j * math.pi * (r / self.S))


# one entry: a unit of work reads one model's table many times in a
# row, and the table is 8 MB at S = 2**20
@lru_cache(maxsize=1)
def valuation_table(model: BallModel) -> np.ndarray:
    """Valuations of all S representatives; entry 0 holds the sentinel N + M."""
    S = model.S
    val = np.zeros(S, dtype=np.int64)
    q = model.p
    while q < S:
        val[q::q] += 1
        q *= model.p
    val[0] = model.N + model.M
    return _readonly(val)


def radial_levels(model: BallModel, factors: np.ndarray) -> np.ndarray:
    """Per-valuation values of a radial array over the S indices, the
    inverse of ``_radial_array``.

    Entry r < L = N + M is the value at every index of valuation r, read
    at p**r; entry L is the value at index 0.
    """
    L = model.N + model.M
    k = model.p ** np.arange(L + 1)
    k[L] = 0
    return np.asarray(factors)[k]


def _radial_array(model: BallModel, levels: np.ndarray) -> np.ndarray:
    """The read-only S-array whose index n holds ``levels[v]``, v the
    valuation of n: one gather through ``valuation_table``, whose
    sentinel L puts entry L at index 0.  The inverse of ``radial_levels``."""
    return _readonly(levels[valuation_table(model)])


def _abs_levels(model: BallModel, top: int) -> np.ndarray:
    """p**(top - r) for each valuation r < L = N + M, and 0.0 at r = L:
    the levels of |x|_p at top = N and of |xi|_p at top = M."""
    L = model.N + model.M
    levels = np.power(float(model.p), top - np.arange(L + 1, dtype=np.float64))
    levels[L] = 0.0
    return levels


def point_abs_table(model: BallModel) -> np.ndarray:
    """|x|_p for every representative, with 0.0 at the zero coset; formed
    per call, read-only."""
    return _radial_array(model, _abs_levels(model, model.N))


def freq_abs_table(model: BallModel) -> np.ndarray:
    """|xi|_p for every frequency index, with 0.0 at k = 0; formed per
    call, read-only."""
    return _radial_array(model, _abs_levels(model, model.M))


def _check_positive(name: str, value: float) -> None:
    """Refuse a ``value`` that is not finite and positive."""
    # NaN passes "value <= 0", and alpha = inf makes lambda NaN
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_nonnegative(name: str, value: float) -> None:
    """Refuse a ``value`` that is not finite and >= 0."""
    # NaN passes "value < 0", and t = inf meets inf*0 = NaN at the k = 0 level
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _is_integer(value) -> bool:
    """The package's one integer rule: an int or a NumPy integer, never a
    bool, since range() raises a bare TypeError on 2.0 and True counts as 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_radius(N: int | None, m: int | None) -> None:
    """Refuse a radius exponent m that is not an integer (``_is_integer``),
    or a sphere |x| = p**m outside the ball |x| <= p**N; N=None, the whole
    field, and m=None, the point x = 0, bound nothing."""
    if m is not None and not _is_integer(m):
        raise ValueError(f"radius exponent m must be an integer, got {m!r}")
    if m is not None and N is not None and m > N:
        raise ValueError(f"radius exponent m must be <= N = {N}, got {m}")


def _check_count(name: str, value, least: int) -> None:
    """Refuse a count that is not an integer (``_is_integer``) or is
    below ``least``."""
    if not _is_integer(value) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_times(times) -> list[float]:
    """The time grid ``times`` as floats; refuses one that is not finite,
    strictly increasing and positive."""
    ts = [float(t) for t in times]
    if (not all(math.isfinite(t) and t > 0 for t in ts)
            or any(b <= a for a, b in zip(ts, ts[1:]))):
        raise ValueError("times must be finite, strictly increasing and positive")
    return ts


def lambda_value(p: int, alpha: float, N: int) -> float:
    """Smallest eigenvalue of the ball operator of order alpha.

    Equals (p-1)/(p**(alpha+1)-1) * p**(alpha*(1-N)).  It is attained
    exactly on constant functions and is strictly below the smallest
    nonzero-frequency eigenvalue p**(alpha*(1-N)).
    """
    _check_positive("alpha", alpha)
    return (p - 1) / (float(p) ** (alpha + 1) - 1.0) * float(p) ** (alpha * (1 - N))


def coefficient_ap(p: int, alpha: float) -> float:
    """Normalisation (1 - p**alpha)/(1 - p**(-alpha-1)) of the difference form; negative."""
    _check_positive("alpha", alpha)
    return (1.0 - float(p) ** alpha) / (1.0 - float(p) ** (-alpha - 1.0))


@dataclass(frozen=True)
class Constants:
    """Scalar constants of the order-alpha operator on the radius-p**N ball."""

    p: int
    alpha: float
    N: int

    def __post_init__(self) -> None:
        if not (isinstance(self.p, int) and _is_prime(self.p)):
            raise ValueError(f"p must be prime, got {self.p!r}")
        _check_positive("alpha", self.alpha)

    @property
    def lam(self) -> float:
        return lambda_value(self.p, self.alpha, self.N)

    @property
    def a_p(self) -> float:
        return coefficient_ap(self.p, self.alpha)
