"""Fourier analysis on the finite ball model.

Sign and scaling convention, used everywhere in this package:

* forward:  coeffs[k] = p**(-N-M) * sum_n exp(+2*pi*i*n*k/S) * u[n]
* inverse:  u[n]      =             sum_k exp(-2*pi*i*n*k/S) * coeffs[k]

The forward kernel carries the PLUS sign, matching the point-frequency
pairing of the ball model, and the 1/S = p**(-N-M) scale sits entirely
on the forward side.  Consequences worth remembering:

* Plancherel:   p**(-N) * integral(|u|^2) = sum_k |coeffs[k]|^2
* convolution:  forward(u * v) = p**N * forward(u) * forward(v)
  for the measure-weighted convolution of the function space.

With this convention ``forward`` is numpy's ``ifft`` and ``inverse`` is
numpy's ``fft``.  ``dft_direct`` is the O(S^2) reference transform kept
as an oracle.

Every multiplier this package applies depends on k only through
|xi_k|_p, i.e. through the valuation of k.  Such a multiplier is
diagonal in the nested ball averages of the point domain: the
frequencies with p**r | k are exactly those that survive averaging u
over the classes n mod p**(L-r), L = N + M.  ``apply_radial`` applies it
through that ladder of averages in O(S) real arithmetic, with no
transform, from the multiplier's L + 1 level values (``radial_levels``;
``vladimirov.operator_levels`` caches the operator's); ``apply_multiplier``
stays for general factors.

The ladder walks k = floor(log_p 32) levels per numpy call (5 for
p = 2, 3 for p = 3, 2 for p = 5, 1 for p = 7).  A block views the finer
average as a (p**k, -1) array whose columns are the classes of the
coarser one and applies all k levels' details by one p**k x p**k band
matrix, formed once per set of level values (``_ladder_bands``).  The
finest block's column sums are then taken exactly and set to p**k times
the coarser result (``_restore_class_sums``), so the product's rounding
does not pile up in the class means and mean(D u) stays within the
Fourier path's error.  A block whose product would pass 2**18
multiply-adds takes its levels one at a time, so every product stays
below OpenBLAS's single-thread cutoff and runs on the calling thread.
The one-level steps reduce with bare ``np.add.reduce`` and update their
details in place.  The ladder is real: complex data goes through it
twice, once for its real part and once for its imaginary part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ball_model import BallModel, _readonly
from .function_space import GridFunction


@dataclass(eq=False)
class SpectralFunction:
    """Fourier coefficients of a grid function, indexed by frequency k."""

    model: BallModel
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        # np.array copies, so the caller's input is never shared
        c = np.array(self.coeffs, dtype=np.complex128)
        if c.shape != (self.model.S,):
            raise ValueError(
                f"coeffs must have shape ({self.model.S},), got {c.shape}"
            )
        self.coeffs = _readonly(c)


def forward(u: GridFunction) -> SpectralFunction:
    """Fourier coefficients with the +2*pi*i kernel and 1/S scale."""
    return SpectralFunction(u.model, np.fft.ifft(u.values))


def inverse(f: SpectralFunction) -> GridFunction:
    """Synthesis with the -2*pi*i kernel; exact inverse of ``forward``."""
    return GridFunction(f.model, np.fft.fft(f.coeffs))


def apply_multiplier(model: BallModel, factors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Pointwise spectral multiplication; returns values in the point domain.

    Real input comes back real (the imaginary residue of the synthesis
    is dropped; multipliers used in this package are even in k).
    """
    out = np.fft.fft(np.fft.ifft(values) * factors)
    if not np.iscomplexobj(values):
        return out.real
    return out


# A block of the ladder spans at most this many classes per column
_BLOCK_CLASSES = 32
# OpenBLAS runs a product of at most this many multiply-adds on one
# thread; a larger block product would go multi-threaded
_SERIAL_PRODUCT = 2 ** 18
# kernel entries ``dft_direct`` gathers at a time: 512 KiB of complex128
_DFT_BLOCK = 2 ** 15
# the largest S whose index products n*k <= (S - 1)**2 fit int32
_DFT_MAX_ORDER = 46341


@lru_cache(maxsize=None)
def _ladder_widths(p: int, L: int) -> tuple[int, ...]:
    """Levels per step of the ladder, finest first.

    Blocks of k = floor(log_p 32) levels, the last one partial, except
    that a block whose band product (p**k)**2 * S/p**(r+k) at level r
    would exceed ``_SERIAL_PRODUCT`` becomes a one-level step.
    """
    k = 1
    while p ** (k + 1) <= _BLOCK_CLASSES:
        k += 1
    widths, r = [], 0
    while r < L:
        w = min(k, L - r)
        if p ** (L - r + w) > _SERIAL_PRODUCT:
            w = 1
        widths.append(w)
        r += w
    return tuple(widths)


@lru_cache(maxsize=None)
def _band_basis(p: int, k: int) -> np.ndarray:
    """Rows Q_j - Q_{j+1}, j < k, each a flattened p**k x p**k matrix.

    Q_j averages a column of p**k classes over the residues mod
    p**(k-j): Q_0 is the identity and Q_k the full mean.  The band
    matrix of levels e_r..e_{r+k-1} is ``e[r:r+k] @ basis``.
    """
    a = np.arange(p ** k)
    q = [(a[:, None] % p ** (k - j) == a[None, :] % p ** (k - j)) / float(p) ** j
         for j in range(k + 1)]
    basis = np.stack([q[j] - q[j + 1] for j in range(k)]).reshape(k, -1)
    basis.setflags(write=False)
    return basis


def _restore_class_sums(z: np.ndarray, coarse: np.ndarray) -> None:
    """Make each column of the (q, C) array z sum to q * coarse.

    The column sums are taken without rounding error: with sigma a power
    of two at least (q + 2) * max|z|, the high parts (z + sigma) - sigma
    lie on the grid of ulp(sigma) and add exactly, and the low parts
    z - high lie below that grid, so their sums round far below ulp(z)
    (the ExtractScalar split of Rump, Ogita and Oishi).  The excess over
    q * coarse comes off the first row, in one rounding.  A block that
    is zero, not finite, or too large for sigma is left as it is.
    """
    q = z.shape[0]
    high = np.abs(z)
    top = float(np.maximum.reduce(high, axis=None))
    if not 0.0 < top < 2.0 ** 1000:
        return
    sigma = math.ldexp(1.0, math.frexp(top)[1] + (q + 2).bit_length())
    np.add(z, sigma, out=high)
    high -= sigma
    excess = np.add.reduce(high, axis=0)
    excess -= q * coarse
    high -= z
    excess -= np.add.reduce(high, axis=0)
    z[0] -= excess


@lru_cache(maxsize=8)
def _ladder_bands(p: int, widths: tuple[int, ...], levels: bytes) -> tuple:
    """Each step's band ``e[r:r+w] @ _band_basis(p, w)`` as p**w x p**w.

    ``levels`` is the float64 bytes of the level values e, so equal
    values share one entry whatever array holds them; bands[i] belongs
    to the i-th step of ``widths`` (None for a one-level step).
    """
    e = np.frombuffer(levels)
    bands, r = [], 0
    for w in widths:
        band = None
        if w > 1:
            band = (e[r:r + w] @ _band_basis(p, w)).reshape(p ** w, p ** w)
            band.setflags(write=False)
        bands.append(band)
        r += w
    return tuple(bands)


def _ladder_averages(model: BallModel, values: np.ndarray) -> list[list[np.ndarray]]:
    """The up-pass of ``apply_radial``: the ladder averages of ``values``.

    One list per real part (one for real values, the real and the
    imaginary part for complex ones), each the averages A_0 = values,
    A_{r+w}, ... taken in the steps of ``_ladder_widths``.  They depend
    only on ``values``, so one up-pass serves any number of level sets.
    """
    values = np.asarray(values)
    parts = (values.real, values.imag) if np.iscomplexobj(values) else (values,)
    p = model.p
    ladders = []
    for part in parts:
        # np.add.reduce(x, axis=0) / q is the arithmetic of x.mean(axis=0)
        # without its Python wrapper, which dominates at small S
        averages = [part]
        for w in _ladder_widths(p, model.N + model.M):
            q = p ** w
            averages.append(np.add.reduce(averages[-1].reshape(q, -1), axis=0) / q)
        ladders.append(averages)
    return ladders


def _ladder_apply(model: BallModel, levels: np.ndarray,
                  ladders: list[list[np.ndarray]]) -> np.ndarray:
    """The down-pass of ``apply_radial``: the radial multiplier of level
    values ``levels`` applied to the ladder averages of
    ``_ladder_averages``, which it leaves unchanged.  One ladder gives a
    real result; two give the real and the imaginary part of a complex
    one, each written into one complex128 array."""
    if len(ladders) == 1:
        return _ladder_down(model, levels, ladders[0])
    out = np.empty(ladders[0][0].shape, dtype=np.complex128)
    out.real = _ladder_down(model, levels, ladders[0])
    out.imag = _ladder_down(model, levels, ladders[1])
    return out


def _ladder_down(model: BallModel, levels: np.ndarray,
                 averages: list[np.ndarray]) -> np.ndarray:
    """One real part's down-pass, coarse to fine (see ``apply_radial``)."""
    p, L = model.p, model.N + model.M
    widths = _ladder_widths(p, L)
    bands = _ladder_bands(p, widths, np.asarray(levels, dtype=np.float64).tobytes())
    out = levels[L] * averages[-1]
    r = L
    for i in range(len(widths) - 1, -1, -1):
        w = widths[i]
        q = p ** w
        r -= w
        detail = averages[i].reshape(q, -1) - averages[i + 1]
        if w == 1:
            # Band form, re-centred, for precision when the level values
            # are large (up to 2**38.4 at p=2, M=16, alpha=2.4, on
            # 1 + 1e-3*noise): a telescoped sum of value differences times
            # whole averages loses 3e-6 of lambda*mean(u) there, and
            # without re-centring the rounding residue of A_{r+1} in the
            # detail's class sums leaks 1.6e-7 into the mean.  This form
            # and the Fourier path both stay near 1e-10 on that data.
            detail -= np.add.reduce(detail, axis=0) / p
            detail *= levels[r]
        else:
            detail = bands[i] @ detail
        detail += out
        # the finest block: the last of the ladder or the first above
        # its one-level steps
        if w > 1 and (i == 0 or widths[i - 1] == 1):
            _restore_class_sums(detail, out)
        out = detail.reshape(-1)
    return out


def apply_radial(model: BallModel, levels: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Apply a radial multiplier through nested ball averages, in O(S).

    ``levels`` holds the L + 1 real per-valuation values (see
    ``radial_levels``).  The up-pass (``_ladder_averages``) builds the
    averages A_r over the classes n mod p**(L-r) coarse-to-fine; the
    down-pass (``_ladder_apply``) comes back fine, scaling each level's
    detail A_r - A_{r+1}, which carries exactly the frequencies of
    valuation r, by that level's value and the mean A_L by the k = 0
    value.  The up-pass depends only on ``values``, so a caller with
    several sets of level values (``linear_solver.evolve_series``) runs
    it once and the down-pass once per set.  The result equals
    ``apply_multiplier`` with the full factor array, and has the dtype
    of ``values`` (real in, real out).  Complex values take the real
    ladder by parts, the real and the imaginary part each written into
    one complex128 array, never summed as a + 1j*b, which would turn an
    infinite imaginary part into a NaN real part.

    The levels are walked in the steps of ``_ladder_widths``.  A block of
    w levels from r subtracts the coarse average A_{r+w} from A_r viewed
    as (p**w, -1), multiplies once by the band matrix
    sum_j e_{r+j} (Q_j - Q_{j+1}) from ``_ladder_bands`` (cached on the
    level values), and adds the coarser result; the finest block then
    has its column sums restored exactly by ``_restore_class_sums``.
    """
    return _ladder_apply(model, levels, _ladder_averages(model, values))


def dft_direct(values: np.ndarray, sign: int) -> np.ndarray:
    """O(S^2) reference transform: sum with kernel exp(sign*2*pi*i*n*k/S).

    Carries no 1/S scale; the caller applies the forward normalisation.
    The index products n*k are int32, exact up to S = 46341; a larger S
    raises ValueError before any table is formed.  The rows are indexed
    in blocks of at most 2**16 entries: the first block's products by
    ``np.multiply.outer`` reduced mod S, each later one the previous plus
    rows*k, folded back into [0, S) by a uint32 subtract of S and a
    minimum, with no integer division.  A block is gathered from the
    exponential table and summed by one product per half, at most
    ``_DFT_BLOCK`` = 2**15 entries (512 KiB) each once it holds 4 rows.
    No half holds one row, which numpy sums as a dot product with other
    rounding, so each row keeps the full table's bits, bar a lone last row.
    """
    v = np.asarray(values, dtype=np.complex128)
    S = v.size
    if S > _DFT_MAX_ORDER:
        raise ValueError(f"dft_direct takes at most {_DFT_MAX_ORDER} points, got {S}")
    s = +1 if sign > 0 else -1
    table = np.exp(s * 2j * np.pi * np.arange(S) / S)
    n = np.arange(S, dtype=np.int32)
    rows = max(1, 2 * _DFT_BLOCK // max(S, 1))
    idx = np.multiply.outer(n[:rows], n)
    np.remainder(idx, S, out=idx)
    idx = idx.view(np.uint32)
    step = (rows * n % S).view(np.uint32)
    wrapped = np.empty_like(idx)
    out = np.empty(S, dtype=np.complex128)
    for start in range(0, S, rows):
        if start:
            idx += step
            np.subtract(idx, S, out=wrapped)
            np.minimum(idx, wrapped, out=idx)
        block = idx[:S - start]
        k = len(block)
        for lo, hi in ((0, k // 2), (k // 2, k)) if k >= 4 else ((0, k),):
            out[start + lo:start + hi] = np.take(table, block[lo:hi]) @ v
    return out
