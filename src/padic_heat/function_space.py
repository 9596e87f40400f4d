"""Locally constant functions on the ball, stored as value vectors.

A ``GridFunction`` holds one value per coset of the sub-ball of radius
p**(-M), i.e. a vector of length S = p**(N+M).  Each coset carries Haar
measure p**(-M), so the integral over the ball is p**(-M) times the
plain sum and the total measure is p**N.  Convolution is taken with
respect to the same measure:

    (u * v)[n] = p**(-M) * sum_m u[(n - m) mod S] * v[m].

Values are float64, or complex128 where a routine needs them; arrays
are copied on construction and frozen, so grid functions behave as
immutable values.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .ball_model import BallModel, _check_count, _readonly, radial_levels, valuation_table


# Rows ``GridFunction.to_csv`` forms and writes at a time.  A block's
# strings are well under 1 MB; blocks of 2**16 rows raised the peak RSS
# of solve-linear --dump-state at S = 2**20 from 179 to 187 MB.
_CSV_BLOCK = 1 << 12


def circulant_apply(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_j w[j] * u[(n - j) mod S] for every n: one circulant matvec, O(S^2).

    u twice, less its first entry, is a[i] = u[(i + 1) mod S], and the
    "valid" part of the linear convolution of a with w is, at output n,
    sum_j w[j] * a[n + S - 1 - j] = sum_j w[j] * u[(n - j) mod S].
    numpy's ``convolve`` evaluates that as a direct sum, one dot product
    per output, with no conjugation of complex w, and holds O(S) memory.
    No transform is involved (a convolution that may switch to an FFT,
    such as ``scipy.signal.convolve``, would not do), so the O(S^2)
    oracles built on it stay independent of the spectral path.
    """
    return np.convolve(np.concatenate((u, u))[1:], w, "valid")


@dataclass(eq=False)
class GridFunction:
    """A function on the ball resolved at level M, one value per coset."""

    model: BallModel
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        if v.shape != (self.model.S,):
            raise ValueError(
                f"values must have shape ({self.model.S},), got {v.shape}"
            )
        if np.iscomplexobj(v):
            v = v.astype(np.complex128)
        else:
            v = v.astype(np.float64)
        # astype returns a fresh array, so the caller's input is never shared
        self.values = _readonly(v)

    # -- measure-aware reductions ------------------------------------

    def integral(self) -> float | complex:
        """Haar integral over the ball, p**(-M) times the value sum."""
        total = self.values.sum() * float(self.model.p) ** (-self.model.M)
        return total if np.iscomplexobj(self.values) else float(total)

    def lp_norm(self, gamma: float) -> float:
        """L^gamma norm for gamma in [1, inf]; gamma = math.inf gives the sup norm."""
        if gamma == math.inf:
            return float(np.abs(self.values).max())
        # NaN passes "gamma < 1"
        if not gamma >= 1:
            raise ValueError(f"gamma must be >= 1 or inf, got {gamma}")
        meas = float(self.model.p) ** (-self.model.M)
        if gamma == 1:
            # both powers are the identity at gamma = 1
            return float(meas * np.abs(self.values).sum())
        return float((meas * (np.abs(self.values) ** gamma).sum()) ** (1.0 / gamma))

    # -- algebra -------------------------------------------------------

    def _require_same_model(self, other: "GridFunction") -> None:
        if self.model != other.model:
            raise ValueError("grid functions live on different models")

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._require_same_model(other)
        return GridFunction(self.model, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._require_same_model(other)
        return GridFunction(self.model, self.values - other.values)

    def __mul__(self, scalar) -> "GridFunction":
        return GridFunction(self.model, self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.model, -self.values)

    def real(self) -> "GridFunction":
        return GridFunction(self.model, np.real(self.values))

    def convolve(self, other: "GridFunction") -> "GridFunction":
        """Measure-weighted circular convolution; the O(S^2) oracle.

        One circulant matvec (``circulant_apply``), deliberately free of
        any Fourier machinery so that convolution identities can serve as
        an independent cross-check of the transform.  Production paths
        use ``convolve_radial``; this stays for tests.
        """
        self._require_same_model(other)
        acc = circulant_apply(other.values, self.values)
        return GridFunction(self.model, acc * float(self.model.p) ** (-self.model.M))

    def convolve_radial(self, kernel: "GridFunction") -> "GridFunction":
        """Measure-weighted convolution with a radial kernel, in O(S).

        A radial kernel takes one value K_v on each sphere of valuation
        v < L = N + M and K_L on the zero coset, so the convolution only
        needs the sums of u over the spheres around each point.  With
        B_v the class sums of u over n mod p**v (B_L = u), the sphere of
        valuation v sums to B_v - B_{v+1}, and

            u * K = p**(-M) * (K_L*u + sum_v K_v*(B_v - B_{v+1}))
                  = p**(-M) * sum_v (K_v - K_{v-1})*B_v,   K_{-1} = 0,

        evaluated coarse-to-fine in Horner form.  The class sums
        (``_class_sums``) depend only on u and the Horner pass
        (``_radial_convolution``) only on the kernel's L + 1 levels, so a
        caller with several kernels (``linear_solver.evolve_series``)
        takes the sums once and the pass once per kernel.  Raises
        ValueError unless the kernel is exactly (bit for bit) constant on
        every sphere.  Uses no transform, so it stays an independent
        check of the spectral path.
        """
        self._require_same_model(kernel)
        levels = radial_levels(self.model, kernel.values)
        if not np.array_equal(kernel.values[1:], levels[valuation_table(self.model)[1:]]):
            raise ValueError("kernel is not radial: its values vary on a sphere")
        sums = _class_sums(self.model, self.values)
        return GridFunction(self.model, _radial_convolution(self.model, levels, sums))

    # -- resolution changes -------------------------------------------

    def refine(self, levels: int = 1) -> "GridFunction":
        """Re-express at resolution M + levels; fine index n maps to n mod S."""
        _check_count("levels", levels, 0)
        fine = BallModel(self.model.p, self.model.N, self.model.M + levels)
        return GridFunction(fine, np.tile(self.values, self.model.p ** levels))

    def coarsen(self, levels: int = 1) -> "GridFunction":
        """Average sub-cosets down to resolution M - levels; preserves the integral."""
        _check_count("levels", levels, 0)
        if self.model.N + self.model.M - levels < 0:
            raise ValueError("cannot coarsen below the one-coset model")
        coarse = BallModel(self.model.p, self.model.N, self.model.M - levels)
        folded = self.values.reshape(self.model.p ** levels, coarse.S)
        return GridFunction(coarse, folded.mean(axis=0))

    # -- serialization --------------------------------------------------

    def to_csv(self, path) -> None:
        """Write columns index, valuation, value; doubles round-trip exactly.

        The valuation is named through a table of L + 1 names, "inf" for
        the zero coset's sentinel L, and the value is the repr of its
        entry of ``values.tolist()``.  repr of a float or complex holds no
        delimiter, quote or line break, so rows joined by "," and ended by
        "\r\n" are the bytes ``csv.writer`` writes.  Rows are formed and
        written _CSV_BLOCK at a time.
        """
        S, L = self.model.S, self.model.N + self.model.M
        names = [str(v) for v in range(L)] + ["inf"]
        vt = valuation_table(self.model)
        with open(path, "w", newline="") as fh:
            fh.write("index,valuation,value\r\n")
            for start in range(0, S, _CSV_BLOCK):
                block = slice(start, start + _CSV_BLOCK)
                fh.write("".join([f"{n},{names[v]},{x!r}\r\n" for n, v, x in zip(
                    range(start, S), vt[block].tolist(), self.values[block].tolist())]))

    @classmethod
    def from_csv(cls, path, model: BallModel) -> "GridFunction":
        rows: list[complex | float] = []
        with open(path, newline="") as fh:
            r = csv.reader(fh)
            header = next(r)
            if header[:3] != ["index", "valuation", "value"]:
                raise ValueError(f"unexpected CSV header {header!r}")
            for row in r:
                rows.append(_parse_value(row[2]))
        if any(isinstance(x, complex) for x in rows):
            return cls(model, np.array(rows, dtype=np.complex128))
        return cls(model, np.array(rows, dtype=np.float64))

    def to_json(self, path) -> None:
        """Write model parameters and values; doubles round-trip exactly."""
        payload = {
            "p": self.model.p,
            "N": self.model.N,
            "M": self.model.M,
            "complex": bool(np.iscomplexobj(self.values)),
        }
        if payload["complex"]:
            payload["values_re"] = [float(x) for x in self.values.real]
            payload["values_im"] = [float(x) for x in self.values.imag]
        else:
            payload["values"] = [float(x) for x in self.values]
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def from_json(cls, path) -> "GridFunction":
        with open(path) as fh:
            payload = json.load(fh)
        model = BallModel(payload["p"], payload["N"], payload["M"])
        if payload.get("complex"):
            vals = np.array(payload["values_re"], dtype=np.float64) + 1j * np.array(
                payload["values_im"], dtype=np.float64)
            return cls(model, vals)
        return cls(model, np.array(payload["values"], dtype=np.float64))


def _class_sums(model: BallModel, values: np.ndarray) -> list[np.ndarray]:
    """The class sums of ``convolve_radial``: entry j is B_{L-j}, the sums
    of ``values`` over n mod p**(L-j), from B_L = values down to B_0."""
    sums = [values]
    for _ in range(model.N + model.M):
        sums.append(np.add.reduce(sums[-1].reshape(model.p, -1), axis=0))
    return sums


def _radial_convolution(model: BallModel, levels: np.ndarray,
                        sums: list[np.ndarray]) -> np.ndarray:
    """The Horner pass of ``convolve_radial``: the values of the
    convolution with the radial kernel of L + 1 level values ``levels``
    (see ``radial_levels``) from the ``_class_sums`` of the data, which it
    leaves unchanged.  The S-array is the caller's own, so a caller wraps
    it in one GridFunction, or adds to it in place first."""
    p, L = model.p, model.N + model.M
    acc = levels[0] * sums[L]
    for v in range(1, L + 1):
        # (K_v - K_{v-1})*B_v + acc, formed in the product's own array
        term = (levels[v] - levels[v - 1]) * sums[L - v].reshape(p, -1)
        term += acc
        acc = term.reshape(-1)
    acc *= float(p) ** (-model.M)
    return acc


def _parse_value(s: str):
    if "j" in s:
        return complex(s)
    return float(s)


# -- canonical initial data -------------------------------------------


def constant(model: BallModel, c: float) -> GridFunction:
    return GridFunction(model, np.full(model.S, float(c)))


def _integer(key: str, value):
    """``value`` as an int where it is an integral float (2.0 reads as 2).

    None, a bool and a fractional, NaN or infinite float are refused;
    any other value is handed back for the caller's own use to refuse.
    """
    if (value is None or isinstance(value, bool)
            or isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value) if isinstance(value, float) else value


def ball_indicator(model: BallModel, center: int = 0,
                   radius_exp: int | None = None) -> GridFunction:
    """Indicator of the sub-ball of radius p**radius_exp around coset ``center``.

    radius_exp must lie in [-M, N]; the sub-ball then consists of the
    p**(M + radius_exp) cosets whose representatives are congruent to
    ``center`` modulo p**(N - radius_exp).  It defaults to
    max(-M, min(0, N)): the unit ball, or the whole ball where that is
    smaller, or one coset where the unit ball lies below the resolution
    (M < 0).  A center or radius_exp that is not an integer is refused.
    """
    if radius_exp is None:
        radius_exp = max(-model.M, min(0, model.N))
    center, radius_exp = _integer("center", center), _integer("radius_exp", radius_exp)
    if not (-model.M <= radius_exp <= model.N):
        raise ValueError(
            f"radius_exp must be in [{-model.M}, {model.N}], got {radius_exp}"
        )
    model._check_index(center)
    q = model.p ** (model.N - radius_exp)
    member = ((np.arange(model.S) - center) % model.S) % q == 0
    return GridFunction(model, member.astype(np.float64))


def random_function(model: BallModel, seed: int) -> GridFunction:
    """Standard normal values, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    return GridFunction(model, rng.standard_normal(model.S))


def positive_bump(model: BallModel, center: int = 0,
                  radius_exp: int | None = None) -> GridFunction:
    """1 plus a sub-ball indicator, by default of ``ball_indicator``'s
    default radius max(-M, min(0, N)): strictly positive data with a
    localized excess."""
    return constant(model, 1.0) + ball_indicator(model, center, radius_exp)


def make_initial(model: BallModel, spec: dict) -> GridFunction:
    """Build initial data from a plain dict, as used by config files.

    Kinds: {"kind": "constant", "value": c}
           {"kind": "indicator", "center": n0, "radius_exp": r}
           {"kind": "random", "seed": s}
           {"kind": "bump", "center": n0, "radius_exp": r}

    c must be a finite number; n0, r and s integers, where an integral
    float such as 2.0 reads as 2.
    """
    if "kind" not in spec:
        raise ValueError("initial-data spec needs a 'kind'")
    kind = spec["kind"]
    extra = set(spec) - {"kind", "value", "center", "radius_exp", "seed"}
    if extra:
        raise ValueError(f"unknown initial-data keys {sorted(extra)}")
    if kind == "constant":
        value = spec.get("value", 1.0)
        try:
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # not a number, or an int past float range
            finite = False
        if not finite:
            raise ValueError(f"value must be a finite number, got {value!r}")
        return constant(model, value)
    if kind == "indicator":
        return ball_indicator(model, spec.get("center", 0), spec.get("radius_exp"))
    if kind == "random":
        return random_function(model, _integer("seed", spec.get("seed", 0)))
    if kind == "bump":
        return positive_bump(model, spec.get("center", 0), spec.get("radius_exp"))
    raise ValueError(f"unknown initial-data kind {kind!r}")
