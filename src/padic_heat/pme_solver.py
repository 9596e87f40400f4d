"""Nonlinear diffusion du/dt + D(Phi(u)) = 0 by backward Euler.

The operator here is the full positive D (its action on constants is
lambda times the identity), so mass decays for positive data; the mass
bookkeeping per implicit step is exact:

    integral(u_new) - integral(u_old) = -h * lambda * integral(Phi(u_new)).

Each step solves v + h*D(Phi(v)) = g by damped Newton.  It applies D
1 + iterations + line-search halvings times, at most
1 + max_newton*(max_halvings + 1), and one time fewer when g is the
state the previous accepted step returned, for the same model, alpha
and Phi: that step hands over its Phi(v) and D(Phi(v)), which are
Phi(g) and D(Phi(g)) here, to the next step's first residual.  The
hand-over holds two S-arrays and a reference to the last returned
state until the next step; it is keyed on the identity of that state's
frozen values array, and any other input recomputes, so no result
depends on it.  A step also returns its Phi(v), which
``pme_trajectory`` sums for its mass row.  Newton stops once
the residual is below the tolerance, or below its own rounding floor,
the size of eps times the h*D(Phi(v)) term it cancels, once the last
Newton correction is below the tolerance too: where h*e_0 is large the
floor passes a fraction of |Phi(v)|, and a residual under it alone does
not show that v solves the step.  The last correction is the last one
taken, max|step*delta|, or, where no step size lowers the residual any
more, the full correction max|delta| that Newton asked of v.  A step
that ends otherwise raises SolverError.  D is a radial multiplier, applied
through nested ball averages by ``fourier_ball.apply_radial`` from its
ladder values, which a step reads once from ``vladimirov.operator_levels``.
The same ladder writes D as a diagonal plus one rank-1 term per class
of the nested p-ary partition, so the Newton Jacobian
I + h*D*diag(Phi'(v)) is solved exactly by Sherman-Morrison, level by
level, in O(S) at every size: per level of the up-pass one BLAS product
of a (5, 3p) level matrix, formed once per step, with the finer level's
rows, and one division.  A solve allocates its result and, unless a
plan is held for its (p, S), a plan: a scratch of 3S + 5S/p floats and
the views its passes write through.  A plan of at most _KEEP_PLAN_BYTES
(1 MiB: p = 2 up to S = 2**14) is held between solves, for one (p, S) at
a time; a larger one is dropped after its solve.  A solve takes the held
plan out while it runs, so solves on other threads form their own and
never share scratch, and no result lies in a plan's memory.
The Crandall-Liggett construction doubles the step count until
successive solutions stop moving in L1.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .ball_model import (BallModel, _check_count, _check_nonnegative, _check_positive,
                         _check_times)
from .fourier_ball import apply_radial
from .function_space import GridFunction
from .vladimirov import operator_levels


class SolverError(Exception):
    """Inner solver failed to converge; carries the final residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


# -- nonlinearities -----------------------------------------------------


@dataclass(frozen=True)
class Nonlinearity:
    """Strictly increasing Phi with Phi(0) = 0, of two kinds.

    kind "table" is a monotone piecewise-linear graph through (0,0).
    Value and slope read one segment index per u: the last knot at or
    left of u, the first knot below the table.  Each knot carries its
    right slope and the last knot the last segment's, so the end
    segments extend past the table and the slope at a kink is the
    right one.  Every other kind is the power at ``exponent``: the
    sign-preserving odd extension sign(u)|u|**m, so negative data stays
    admissible.  ``identity()`` is the power 1, Phi(u) = u, which Newton
    solves in one iteration, the Jacobian being exact.
    """

    kind: str
    exponent: float = 1.0
    knots_x: tuple = ()
    knots_y: tuple = ()

    @staticmethod
    def power(m: float) -> "Nonlinearity":
        # NaN passes "m < 1", and inf makes |u|**m 0 or inf
        if not (math.isfinite(m) and m >= 1):
            raise ValueError(f"power exponent must be finite and >= 1, got {m}")
        return Nonlinearity("power", exponent=float(m))

    @staticmethod
    def identity() -> "Nonlinearity":
        return Nonlinearity.power(1.0)

    @staticmethod
    def table(knots) -> "Nonlinearity":
        pts = [(float(x), float(y)) for x, y in knots]
        # JSON reads NaN and Infinity: a NaN knot survives the order checks
        # below and makes every residual NaN, an infinite one makes Phi inf
        if not all(math.isfinite(x) and math.isfinite(y) for x, y in pts):
            raise ValueError(f"table knots must be finite, got {pts}")
        pts.sort()
        xs = tuple(x for x, _ in pts)
        ys = tuple(y for _, y in pts)
        if len(xs) < 2:
            raise ValueError("table needs at least two knots")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("knot abscissae must be strictly increasing")
        if any(b <= a for a, b in zip(ys, ys[1:])):
            raise ValueError("table must be strictly increasing")
        if (0.0, 0.0) not in pts:
            raise ValueError("table must pass through (0, 0)")
        return Nonlinearity("table", knots_x=xs, knots_y=ys)

    def _segments(self, u: np.ndarray) -> tuple:
        """The table's knots, each knot's right slope (the last knot's is
        the last segment's) and, per u, the index of its segment."""
        xs, ys = np.asarray(self.knots_x), np.asarray(self.knots_y)
        slopes = np.diff(ys) / np.diff(xs)
        slopes = np.append(slopes, slopes[-1])
        i = np.clip(np.searchsorted(xs, u, side="right") - 1, 0, xs.size - 1)
        return xs, ys, slopes, i

    def value(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        if self.kind == "table":
            xs, ys, slopes, i = self._segments(u)
            return ys[i] + slopes[i] * (u - xs[i])
        # copysign(|u|**m, u), the sign taken from u + 0.0 so that
        # u = -0.0 gives +0.0, as sign(u)*|u|**m does; at m = 2 the
        # product s*|s| has those bits, in one pass fewer
        s = u + 0.0
        out = np.abs(s)
        if self.exponent == 2.0:
            return np.multiply(s, out, out=out)
        out **= self.exponent
        return np.copysign(out, s, out=out)

    def derivative(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        if self.kind == "table":
            _, _, slopes, i = self._segments(u)
            return slopes[i]
        # m*|u|**(m-1), which is 1.0 at m = 1 for every u, NaN and inf too
        m = self.exponent
        out = np.abs(u)
        if m != 2.0:
            out **= m - 1.0
        out *= m
        return out


# -- implicit step ------------------------------------------------------


@dataclass(frozen=True)
class ImplicitStepConfig:
    newton_tol: float = 1e-12
    max_newton: int = 50
    max_halvings: int = 30

    def __post_init__(self):
        # an infinite tolerance accepts any g as its own solution, a NaN one
        # fails every step
        _check_positive("newton_tol", self.newton_tol)
        _check_count("max_newton", self.max_newton, 0)
        _check_count("max_halvings", self.max_halvings, 0)


DEFAULT_CONFIG = ImplicitStepConfig()


@lru_cache(maxsize=1)
def _tree_coefficients(p: int, levels: bytes, h: float) -> tuple:
    """(h*e_0, W) of the tree solve for the levels e and step h.

    ``levels`` is the float64 bytes of e.  W is the read-only (L, 5, 3p)
    stack of the level matrices: W[k-1] is
    [[a_k, 0, b_k], [1, 0, 0], [0, 1, 0], [0, 0, 1], [0, c_k, 0]] with
    each column repeated p times, a_k = h*e_k/p**k, b_k = p**-k and
    c_k = h*(e_k - e_{k-1})/p**k, for k = 1..L.  Applied to the finer
    level's t, sx and m rows viewed as (3p, -1), it gives the class's
    [denominator, T, X, M, c_k*X].  The stack is filled by broadcasting
    in a few numpy calls and cached on (p, e, h), so the Newton loop
    pays it once per step.
    """
    e = np.frombuffer(levels)
    k = np.arange(1, e.size)
    pk = float(p) ** k
    base = np.zeros((e.size - 1, 5, 3))
    base[:, 0, 0] = h * e[1:] / pk
    base[:, 0, 2] = float(p) ** -k
    base[:, 1:4] = np.eye(3)
    base[:, 4, 1] = h * np.diff(e) / pk
    stack = np.repeat(base, p, axis=2)
    stack.setflags(write=False)
    return h * float(e[0]), stack


# A tree solve allocates its result and, unless a plan is held for its
# (p, S), its scratch: the finest rows (3S floats) and level 1 (5S/p), with
# levels 2..L written over the spent rows.  A scratch of at most
# _KEEP_PLAN_BYTES is held between solves, taken out by the one solve that
# uses it (see _tree_plans), so threads never share it.  The scratch is
# one array up to _ONE_ARRAY_BYTES and two beyond.  glibc's malloc
# maps a larger array afresh on every call, so its pages fault in each
# time; a smaller one it serves from a heap it keeps, and gives the
# heap's free top back to the system once that passes twice the largest
# array freed so far.  With the rows and level 1 as one array, what else
# a solve frees stays under that bound; as two arrays, solves repeated at
# S = 2**16 faulted in 3 MB each and took twice as long.  Only p = 2 at
# S = 2**20 passes this size, and there the two are apart.
_ONE_ARRAY_BYTES = 32 << 20

# The largest scratch a plan keeps between solves, about half the L2 of
# one core: p = 2 up to S = 2**14 (704 KiB).  A larger plan is formed for
# its solve and dropped after it, as the scratch was before plans.  Kept
# at every size, plans made a carried step (p = 2, one thread) fault in
# 480 pages at S = 2**15, 900 at 2**16 and 4200 at 2**18, where a step
# faulted none, took 20-70% longer, and raised the peak RSS at S = 2**20
# from 133 to 161 MB.
_KEEP_PLAN_BYTES = 1 << 20


class _TreePlan(NamedTuple):
    """The scratch of a tree solve at one (p, S), S = p**L > 1, and every
    view of it the solve reads or writes, so that a solve forms none.

    t, sx and m are the finest rows, one (3, S) array, and t_by_class is
    t as (p, -1).  up[k-1] is level k's (finer rows as (3p, -1), level as
    (5, S/p**k), its rows 1-4, its row 0): level 1 lies after the rows and
    levels 2..L one after another in the rows' memory, each clear of the
    level it reads.  down holds, for k = L..2, (level k's shift row, the
    correction added to it, 0.0 at L and else its T row, that T row,
    level k-1's denominator and T rows as (p, -1)); finish is the first
    three for level 1.  nbytes is the scratch's size.
    """

    t: np.ndarray
    sx: np.ndarray
    m: np.ndarray
    up: tuple
    down: tuple
    finish: tuple
    t_by_class: np.ndarray
    nbytes: int


def _tree_plan(p: int, S: int) -> _TreePlan:
    size = 3 * S + 5 * S // p
    if 8 * size <= _ONE_ARRAY_BYTES:
        block = np.empty(size)
        spent, level = block[:3 * S], block[3 * S:]
    else:
        spent, level = np.empty(3 * S), np.empty(5 * S // p)
    tsm = spent.reshape(3, S)
    rows, n, start = spent.reshape(3 * p, -1), S // p, 0
    level = level.reshape(5, n)
    up, shifts, sums, by_class = [], [], [], []
    while True:
        up.append((rows, level, level[1:], level[0]))
        shifts.append(level[4])
        sums.append(level[1])
        if n == 1:
            break
        # level k as (5p, -1): the next level's rows, and the denominators
        # and T row over the next level's classes for the down-pass
        classes = level.reshape(5 * p, -1)
        rows, n = classes[p:4 * p], n // p
        by_class.append((classes[:p], classes[p:2 * p]))
        level = spent[start:start + 5 * n].reshape(5, n)
        start += 5 * n
    # level k adds its shift to the correction from level k+1 (none from
    # L), held in its T row, and divides the sum into level k-1's T row
    L = len(up)
    down = tuple((shifts[k], sums[k] if k < L - 1 else 0.0, sums[k], *by_class[k - 1])
                 for k in range(L - 1, 0, -1))
    return _TreePlan(tsm[0], tsm[1], tsm[2], tuple(up), down,
                     (shifts[0], sums[0] if L > 1 else 0.0, sums[0]),
                     tsm[0].reshape(p, -1), 8 * size)


# The last held plan, keyed on (p, S).  A solve pops it and, done, puts it
# back as the only entry, so a solve running alongside on another thread
# finds no plan and forms its own: no two solves share scratch.  Never an
# lru_cache, which would hand one plan to two threads at once.
_tree_plans: dict = {}


def _tree_up_pass(W: np.ndarray, up: tuple) -> None:
    """The up-pass of the tree solve over the plan's levels ``up``.

    Level k is one product of W[k-1] with level k-1's divided rows,
    giving [denominator, T, X, M, c_k*X] per class, and one division of
    its rows 1-4 by row 0; its rows 1-3 are the next level's rows.
    """
    for W_k, (rows, level, divided, denominator) in zip(W, up):
        np.matmul(W_k, rows, out=level)
        np.divide(divided, denominator, out=divided)


def _tree_jacobian_solve(model: BallModel, e: np.ndarray, h: float,
                         sigma: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve (I + h*D*diag(sigma)) x = r exactly, for sigma >= 0, in O(S).

    With e the ``operator_levels`` of D, D = e_0*I + sum_k (e_k - e_{k-1})*P_k,
    P_k the average over the classes ``reshape(p**k, -1)``.  Each class C
    of level k adds c_k * 1_C (sigma 1_C)^T, c_k = h*(e_k - e_{k-1})/p**k,
    to a matrix block diagonal over its subclasses, and Sherman-Morrison
    folds it in: x -= w*c_k*sx/(1 + c_k*t) and w /= 1 + c_k*t, where
    w = A^{-1} 1_C, t = (sigma.w)_C and sx = (sigma.x)_C.  Both updates
    scale t and sx by one factor per class, so the class sums go up the
    tree and the corrections come back down it.  The denominator is built
    as the positive sum of h*e_k/p**k * t + p**-k * m over the p
    subclasses, where m, the class sum of the subclasses' divided m rows
    (m = 1/d at the points), makes p**-k * m = 1 - h*e_{k-1}*t/p**k
    without a subtraction: 1 + c_k*t itself cancels when h*e_0*sigma is
    large.

    The rows t, sx and m start as sigma/d, sigma*r/d and 1/d, and go up
    the tree together (``_tree_up_pass``): per level one BLAS product of
    the level matrix from ``_tree_coefficients`` with the finer level's
    rows, giving the denominator, the class sums T, X, M and the shift
    c_k*X, and one division of the last four by the denominator.  The
    down-pass takes two array operations per level.
    """
    p, S = model.p, sigma.size
    c0, W = _tree_coefficients(p, e.tobytes(), h)
    d = c0 * sigma
    d += 1.0
    if S == 1:
        return np.divide(r, d, out=d)
    # A solve allocates d and, unless it finds a held plan, the plan's
    # scratch; the result is formed in d's place, never in the plan's.
    plan = _tree_plans.pop((p, S), None) or _tree_plan(p, S)
    t, sx, m = plan.t, plan.sx, plan.m
    np.divide(sigma, d, out=t)
    np.multiply(sigma, r, out=sx)
    np.divide(sx, d, out=sx)
    np.divide(1.0, d, out=m)
    _tree_up_pass(W, plan.up)
    # x*d = r - sum_k shift_k / (the denominators of the finer classes),
    # each class's correction broadcast over its p subclasses; the sums
    # are formed in the T rows, which the up-pass has spent
    for shift, g, acc, denominator, out in plan.down:
        np.add(shift, g, out=acc)
        np.divide(acc, denominator, out=out)
    shift, g, acc = plan.finish
    np.add(shift, g, out=acc)
    np.subtract(r.reshape(p, -1), acc, out=plan.t_by_class)
    x = np.divide(t, d, out=d)
    if plan.nbytes <= _KEEP_PLAN_BYTES:
        _tree_plans.clear()
        _tree_plans[p, S] = plan
    return x


def _max_abs(a: np.ndarray) -> float:
    """max |a| from two reductions and no temporary; NaN if a holds one."""
    # abs() only maps a -0.0 maximum to +0.0, as np.max(np.abs(a)) has it
    return abs(max(float(np.maximum.reduce(a)), -float(np.minimum.reduce(a))))


# The last accepted step's (v, (model, alpha, Phi), Phi(v), D(Phi(v))),
# v the returned GridFunction's frozen values array, held so that its
# identity names that output and no other.  Every step drops it as it
# starts; D(Phi(v)) depends on neither h nor the config.
_handover: tuple | None = None


def _implicit_step_info(g: GridFunction, h: float, alpha: float,
                        phi: Nonlinearity,
                        config: ImplicitStepConfig
                        ) -> tuple[GridFunction, int, float, np.ndarray]:
    """Solve v + h*D(Phi(v)) = g; returns (v, newton_iterations, residual,
    Phi(v))."""
    global _handover
    # a NaN h would run Newton on a NaN residual
    _check_positive("step size", h)
    if np.iscomplexobj(g.values):
        raise ValueError("implicit stepping is defined for real data")
    model = g.model
    gvals = g.values
    e = operator_levels(model, alpha)
    tol = config.newton_tol * (1.0 + _max_abs(gvals))
    # the residual's rounding floor, eps times the h*D(Phi(v)) term it
    # cancels: Newton stops there even above tol, once its last correction
    # is below tol
    floor_scale = 4.0 * np.finfo(np.float64).eps * h * float(e[0])

    def residual(v, d_phi):
        # h*D(Phi(v)) + v - g in one array
        r = h * d_phi
        r += v
        r -= gvals
        return r, _max_abs(r)

    def floor_of(rnorm, phi_v):
        # only read when the residual is not below tol
        return 0.0 if rnorm < tol else floor_scale * _max_abs(phi_v)

    def converged():
        # at the rounding floor the residual no longer shows how far v is
        # from the solution, so the last correction must be small too
        return rnorm < tol or (rnorm <= floor and moved <= tol)

    phi_v = d_phi = None
    if (_handover is not None and _handover[0] is gvals
            and _handover[1] == (model, alpha, phi)):
        phi_v, d_phi = _handover[2:]
    _handover = None
    if phi_v is None:
        phi_v = phi.value(gvals)
        d_phi = apply_radial(model, e, phi_v)
    # v is never written in place, so it may start as g's frozen array
    v = gvals
    r, rnorm = residual(v, d_phi)
    floor = floor_of(rnorm, phi_v)
    # max|step*delta| of the last accepted correction, or max|delta| of
    # one that no step size could take
    moved = math.inf
    iters = 0
    while not converged() and iters < config.max_newton:
        # only the last iterate's Phi(v) and D(Phi(v)) are handed over;
        # this one's go now, so the iteration holds no more arrays than
        # it would without the hand-over
        phi_v = d_phi = phi_try = d_try = None
        delta = _tree_jacobian_solve(model, e, h, phi.derivative(v), r)
        step = 1.0
        improved = False
        for _ in range(config.max_halvings + 1):
            v_try = v - delta if step == 1.0 else v - step * delta
            phi_try = phi.value(v_try)
            d_try = apply_radial(model, e, phi_try)
            r_try, rnorm_try = residual(v_try, d_try)
            if rnorm_try < rnorm:
                v, r, rnorm = v_try, r_try, rnorm_try
                floor = floor_of(rnorm, phi_try)
                # read only at the floor, so formed only there
                moved = step * _max_abs(delta) if rnorm <= floor else math.inf
                phi_v, d_phi = phi_try, d_try
                improved = True
                break
            step *= 0.5
        iters += 1
        if not improved:
            # v stays, and the correction Newton asked of it measures how
            # far it is from the solution
            moved = _max_abs(delta)
            break
    if converged():
        out = GridFunction(model, v)
        if phi_v is None:
            # the last line search found no better v, and v's Phi(v) went
            # as that iteration began; no D(Phi(v)) is formed to hand over
            phi_v = phi.value(v)
        else:
            _handover = (out.values, (model, alpha, phi), phi_v, d_phi)
        return out, iters, rnorm, phi_v
    raise SolverError(
        f"Newton failed: residual {rnorm:.3e} after {iters} iterations "
        f"(tolerance {tol:.3e}, rounding floor {floor:.3e}, last correction "
        f"{moved:.3e})", residual=rnorm)


def implicit_step(g: GridFunction, h: float, alpha: float, phi: Nonlinearity,
                  config: ImplicitStepConfig = DEFAULT_CONFIG) -> GridFunction:
    """Backward-Euler resolvent: the v solving v + h*D(Phi(v)) = g.

    Applies D 1 + iterations + halvings times, one fewer when g is the
    state the previous step returned (same model, alpha and Phi).
    """
    v, _, _, _ = _implicit_step_info(g, h, float(alpha), phi, config)
    return v


def evolve_pme(u0: GridFunction, t: float, k: int, alpha: float,
               phi: Nonlinearity,
               config: ImplicitStepConfig = DEFAULT_CONFIG) -> GridFunction:
    """k backward-Euler steps of size t/k."""
    _check_count("k", k, 1)
    _check_positive("t", t)
    h = t / k
    u = u0
    for _ in range(k):
        u = implicit_step(u, h, float(alpha), phi, config)
    return u


def pme_trajectory(u0: GridFunction, t: float, k: int, alpha: float,
                   phi: Nonlinearity,
                   config: ImplicitStepConfig = DEFAULT_CONFIG,
                   record_every: int = 1):
    """March k steps, recording per-step diagnostics.

    Returns (states, rows): states are the recorded GridFunctions
    (every ``record_every`` steps, always including the last), rows are
    dicts with step index, time, mass, L^1/L^2/sup norms, Newton
    iterations, and the residual of the per-step mass identity
    mass_new - mass_old + h*lambda*integral(Phi(u_new)).
    """
    _check_count("k", k, 1)
    _check_count("record_every", record_every, 1)
    h = t / k
    lam = float(operator_levels(u0.model, float(alpha))[-1])
    u = u0
    states, rows = [], []
    for j in range(1, k + 1):
        mass_old = u.integral()
        u, iters, resid, phi_u = _implicit_step_info(u, h, float(alpha), phi, config)
        mass_new = u.integral()
        # the integral of Phi(u), summed in place as GridFunction.integral does
        phi_mass = float(phi_u.sum() * float(u.model.p) ** (-u.model.M))
        # not held through the next step, which drops it after its first residual
        del phi_u
        rows.append({
            "step": j,
            "t": j * h,
            "mass": mass_new,
            "l1": u.lp_norm(1),
            "l2": u.lp_norm(2),
            "sup_norm": float(np.max(np.abs(u.values))),
            "newton_iters": iters,
            "step_residual": resid,
            "mass_identity_residual": mass_new - mass_old + h * lam * phi_mass,
        })
        if j % record_every == 0 or j == k:
            states.append(u)
    return states, rows


@dataclass
class CLReport:
    step_counts: list[int] = field(default_factory=list)
    l1_differences: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    converged: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


def crandall_liggett(u0: GridFunction, t: float, alpha: float,
                     phi: Nonlinearity, tol: float = 1e-8, k_cap: int = 1 << 16,
                     config: ImplicitStepConfig = DEFAULT_CONFIG
                     ) -> tuple[GridFunction, CLReport]:
    """Double the step count from 8 until the L1 increment falls below tol."""
    # a NaN tol would double the step count up to k_cap, an infinite one
    # accept the first doubling unchecked
    _check_positive("tol", tol)
    # "k > k_cap" is False for a NaN or infinite cap, and the doubling would never stop
    if not abs(k_cap) < math.inf:
        raise ValueError(f"k_cap must be finite, got {k_cap}")
    report = CLReport()
    k = 8
    u_prev = evolve_pme(u0, t, k, alpha, phi, config)
    while True:
        k *= 2
        if k > k_cap:
            raise SolverError(
                f"step doubling reached the cap {k_cap} without meeting tol {tol}",
                residual=report.l1_differences[-1] if report.l1_differences else None)
        u_next = evolve_pme(u0, t, k, alpha, phi, config)
        diff = (u_next - u_prev).lp_norm(1)
        report.step_counts.append(k)
        report.l1_differences.append(diff)
        if len(report.l1_differences) >= 2:
            prev = report.l1_differences[-2]
            report.ratios.append(diff / prev if prev > 0 else 0.0)
        if diff < tol:
            report.converged = True
            return u_next, report
        u_prev = u_next


@dataclass
class DecayReport:
    gammas: list[float]
    times: list[float]
    norms: dict
    violations: list[tuple[float, float, float]]

    @property
    def all_nonincreasing(self) -> bool:
        return not self.violations


def lgamma_decay_suite(u0: GridFunction, times, gammas, alpha: float,
                       phi: Nonlinearity,
                       config: ImplicitStepConfig = DEFAULT_CONFIG,
                       steps_per_interval: int = 32,
                       slack: float = 1e-12) -> DecayReport:
    """March through the output times checking every L^gamma norm decays.

    The data must be strictly positive.  Violations are recorded as
    (gamma, t, increase) rather than raised.
    """
    # -3 would take no step and report constant norms, and 0 divides by
    # zero; a NaN slack would hide every violation
    _check_count("steps_per_interval", steps_per_interval, 1)
    _check_nonnegative("slack", slack)
    if np.min(u0.values) <= 0:
        raise ValueError("decay suite requires strictly positive data")
    ts = _check_times(times)
    _check_positive("alpha", float(alpha))
    gs = [float(g) for g in gammas]
    norms = {g: [u0.lp_norm(g)] for g in gs}
    violations = []
    u = u0
    t_prev = 0.0
    for t_now in ts:
        u = evolve_pme(u, t_now - t_prev, steps_per_interval, alpha, phi, config)
        for g in gs:
            val = u.lp_norm(g)
            if val > norms[g][-1] + slack:
                violations.append((g, t_now, val - norms[g][-1]))
            norms[g].append(val)
        t_prev = t_now
    return DecayReport(gammas=gs, times=ts, norms=norms, violations=violations)
