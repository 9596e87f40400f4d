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
stays for general factors.  At small S the ladder's cost is per numpy
call, so it reduces with bare ``np.add.reduce`` (the arithmetic of
``mean``, without its Python wrapper) and updates its details in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ball_model import BallModel
from .function_space import GridFunction


@dataclass(eq=False)
class SpectralFunction:
    """Fourier coefficients of a grid function, indexed by frequency k."""

    model: BallModel
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.model.S,):
            raise ValueError(
                f"coeffs must have shape ({self.model.S},), got {c.shape}"
            )
        c = c.copy()
        c.setflags(write=False)
        self.coeffs = c


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


def radial_levels(model: BallModel, factors: np.ndarray) -> np.ndarray:
    """Per-valuation values of a radial factor array, for ``apply_radial``.

    Entry r < L = N + M is the factor at every frequency of valuation r,
    read at k = p**r; entry L is the factor at k = 0.
    """
    L = model.N + model.M
    k = model.p ** np.arange(L + 1)
    k[L] = 0
    return np.asarray(factors)[k]


def apply_radial(model: BallModel, levels: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Apply a radial multiplier through nested ball averages, in O(S).

    ``levels`` holds the L + 1 real per-valuation values (see
    ``radial_levels``).  The averages A_r over the classes n mod p**(L-r)
    are built coarse-to-fine; coming back fine, each level's detail
    A_r - A_{r+1}, which carries exactly the frequencies of valuation r,
    is scaled by that level's value and the mean A_L by the k = 0 value.
    The result equals ``apply_multiplier`` with the full factor array,
    and has the dtype of ``values`` (real in, real out).
    """
    p, L = model.p, model.N + model.M
    # np.add.reduce(x, axis=0) / p is the arithmetic of x.mean(axis=0)
    # without its Python wrapper, which dominates at small S
    averages = [np.asarray(values)]
    for _ in range(L):
        averages.append(np.add.reduce(averages[-1].reshape(p, -1), axis=0) / p)
    out = levels[L] * averages[L]
    for r in range(L - 1, -1, -1):
        detail = averages[r].reshape(p, -1) - averages[r + 1]
        # Band form, re-centred, for precision when the level values are
        # large (up to 2**38.4 at p=2, M=16, alpha=2.4, on 1 + 1e-3*noise):
        # a telescoped sum of value differences times whole averages
        # loses 3e-6 of lambda*mean(u) there, and without re-centring the
        # rounding residue of A_{r+1} in the detail's class sums leaks
        # 1.6e-7 into the mean.  This form and the Fourier path both stay
        # near 1e-10.
        detail -= np.add.reduce(detail, axis=0) / p
        detail *= levels[r]
        detail += out
        out = detail.reshape(-1)
    return out


def dft_direct(values: np.ndarray, sign: int) -> np.ndarray:
    """O(S^2) reference transform: sum with kernel exp(sign*2*pi*i*n*k/S).

    Carries no 1/S scale; the caller applies the forward normalisation.
    Index products are reduced mod S exactly before the exponential.
    """
    v = np.asarray(values, dtype=np.complex128)
    S = v.size
    s = +1 if sign > 0 else -1
    table = np.exp(s * 2j * np.pi * np.arange(S) / S)
    idx = (np.outer(np.arange(S), np.arange(S))) % S
    return table[idx] @ v
