"""Acceptance suite: one test per headline guarantee, pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for the one-line-per-
criterion view, add ``-s`` to see the measured worst-case numbers.
"""

import math

import numpy as np

from padic_heat import (
    BallModel,
    GridFunction,
    Nonlinearity,
    ball_kernel_gridfunction,
    build_matrix,
    constant,
    crandall_liggett,
    dft_direct,
    evolve,
    evolve_pme,
    forward,
    green_ball_integral,
    green_kernel,
    green_kernel_gridfunction,
    heat_kernel_ball,
    heat_kernel_ball_series,
    implicit_step,
    inverse,
    lambda_value,
    lgamma_decay_suite,
    multiplier,
    pme_trajectory,
    positive_bump,
    random_function,
    resolvent_apply,
    spectrum_multiset,
    symbol_quadrature,
)
from padic_heat.fourier_ball import SpectralFunction
from padic_heat.vladimirov import (
    apply_global_restriction,
    apply_hypersingular,
    apply_spectral,
    convolve_riesz,
)
from tests.conftest import STANDARD_MODELS


def report(n, verdict, detail):
    print(f"criterion {n} {verdict}: {detail}")


def test_criterion_1_exact_spectrum():
    worst = 0.0
    for p, N, M, alpha in STANDARD_MODELS:
        model = BallModel(p, N, M)
        eigs = np.sort(np.linalg.eigvalsh(build_matrix(model, alpha)))
        worst = max(worst, float(np.max(np.abs(eigs - spectrum_multiset(model, alpha)))))
    A = build_matrix(BallModel(2, 0, 1), 1.0)
    pin_matrix = float(np.max(np.abs(
        A - np.array([[4 / 3, -2 / 3], [-2 / 3, 4 / 3]]))))
    pin_eigs = float(np.max(np.abs(
        np.sort(np.linalg.eigvalsh(A)) - np.array([2 / 3, 2.0]))))
    report(1, "PASS" if worst < 1e-9 else "FAIL",
           f"spectrum deviation {worst:.3e} (tol 1e-9), "
           f"2x2 pin matrix {pin_matrix:.1e} eigs {pin_eigs:.1e}")
    assert worst < 1e-9
    assert pin_matrix < 1e-12 and pin_eigs < 1e-12


def test_criterion_2_four_representations():
    worst = 0.0
    for p, N, M, alpha in STANDARD_MODELS:
        model = BallModel(p, N, M)
        for seed in range(100):
            u = random_function(model, seed)
            a = apply_spectral(u, alpha).values
            scale = max(float(np.max(np.abs(a))), 1.0)
            for other in (apply_hypersingular(u, alpha).values,
                          convolve_riesz(u, alpha).values,
                          apply_global_restriction(u, alpha).values):
                worst = max(worst, float(np.max(np.abs(a - other))) / scale)
    report(2, "PASS" if worst < 1e-10 else "FAIL",
           f"relative L-inf disagreement {worst:.3e} over 100 draws x 4 models "
           f"(tol 1e-10)")
    assert worst < 1e-10


def test_criterion_3_symbol_identity():
    worst = 0.0
    zeros_exact = True
    for p, N, M, alpha in STANDARD_MODELS:
        model = BallModel(p, N, M)
        lam = lambda_value(p, alpha, N)
        eig = multiplier(model, alpha).eigenvalues
        zeros_exact &= symbol_quadrature(model, alpha, 0) == 0.0
        for k in range(1, model.S):
            quad = symbol_quadrature(model, alpha, k) + lam
            worst = max(worst, abs(quad - eig[k]) / abs(eig[k]))
    report(3, "PASS" if worst < 1e-11 and zeros_exact else "FAIL",
           f"symbol relative error {worst:.3e} (tol 1e-11), "
           f"P(0) exact zero: {zeros_exact}")
    assert worst < 1e-11
    assert zeros_exact


def test_criterion_4_ball_kernel_consistency():
    worst = 0.0
    worst_mass = 0.0
    for p, N, M, alpha in STANDARD_MODELS:
        for t in (0.1, 1.0, 10.0):
            for m in range(N, N - 7, -1):
                a = heat_kernel_ball(p, N, alpha, t, m)
                b = heat_kernel_ball_series(p, N, alpha, t, m)
                worst = max(worst, abs(a - b) / max(abs(a), 1.0))
            q = 1.0 - 1.0 / p
            parts = [q * float(p) ** m * heat_kernel_ball(p, N, alpha, t, m)
                     for m in range(N, N - 50, -1)]
            parts.append(float(p) ** (N - 50)
                         * heat_kernel_ball(p, N, alpha, t, None))
            worst_mass = max(worst_mass, abs(math.fsum(parts) - 1.0))
    pin = abs(heat_kernel_ball(2, 0, 1.0, 1.0, 0) - (1.0 - math.exp(2.0 / 3.0 - 2.0)))
    ok = worst < 1e-10 and worst_mass < 1e-10 and pin < 1e-9
    report(4, "PASS" if ok else "FAIL",
           f"two-formula gap {worst:.3e} (tol 1e-10), mass defect "
           f"{worst_mass:.3e} (tol 1e-10), unit-sphere pin {pin:.1e} (tol 1e-9)")
    assert worst < 1e-10
    assert worst_mass < 1e-10
    assert pin < 1e-9


def test_criterion_5_semigroup_and_resolvent():
    from scipy.integrate import quad
    worst_ck = 0.0
    worst_res = 0.0
    worst_const = 0.0
    worst_int = 0.0
    for p, N, M, alpha in STANDARD_MODELS:
        model = BallModel(p, N, M)
        w1 = ball_kernel_gridfunction(model, alpha, 0.4)
        w2 = ball_kernel_gridfunction(model, alpha, 0.7)
        w12 = ball_kernel_gridfunction(model, alpha, 1.1)
        worst_ck = max(worst_ck, float(np.max(np.abs(
            w1.convolve(w2).values - w12.values))))
        u = random_function(model, 5)
        r1 = resolvent_apply(u, alpha, 1.0, "spectral")
        r2 = resolvent_apply(u, alpha, 1.0, "kernel")
        worst_res = max(worst_res, float(np.max(np.abs(r1.values - r2.values))))
        for path in ("spectral", "kernel"):
            out = resolvent_apply(constant(model, 3.0), alpha, 2.0, path)
            worst_const = max(worst_const, float(np.max(np.abs(out.values - 1.5))))
        worst_int = max(worst_int, abs(green_ball_integral(p, N, alpha, 1.0)))
    # Laplace transform of the semigroup kernel reproduces the resolvent kernel
    model = BallModel(2, 0, 3)
    K = green_kernel_gridfunction(model, 1.0, 1.0)
    shift = 1.0
    worst_lap = 0.0
    for n in range(model.S):
        val, _ = quad(lambda t: math.exp(-t)
                      * ball_kernel_gridfunction(model, 1.0, t).values[n],
                      0, np.inf, limit=200)
        worst_lap = max(worst_lap, abs(val - (K.values[n] + shift)))
    pin = abs(green_kernel(2, 0, 1.0, 1.0, 0) - (-3.0 / 7.0))
    ok = (worst_ck < 1e-9 and worst_res < 1e-10 and worst_lap < 1e-6
          and worst_const < 1e-12 and worst_int < 1e-10 and pin < 1e-12)
    report(5, "PASS" if ok else "FAIL",
           f"Chapman-Kolmogorov {worst_ck:.3e} (tol 1e-9), resolvent paths "
           f"{worst_res:.3e} (tol 1e-10), Laplace {worst_lap:.3e} (tol 1e-6), "
           f"constants {worst_const:.1e}, mean-zero {worst_int:.3e} "
           f"(tol 1e-10), unit-sphere pin {pin:.1e} (tol 1e-12)")
    assert worst_ck < 1e-9
    assert worst_res < 1e-10
    assert worst_lap < 1e-6
    assert worst_const < 1e-12
    assert worst_int < 1e-10
    assert pin < 1e-12


def test_criterion_6_green_regimes():
    # alpha = 2: bounded kernel, continuous at the origin; the limit is
    # taken at radii far below the tabulated window (see the decisions
    # ledger: at m = -25 the gap to the center value is still 2.2e-8)
    center = green_kernel(2, 0, 2.0, 1.0, None)
    gap = abs(green_kernel(2, 0, 2.0, 1.0, -40) - center)
    # alpha = 1: logarithmic growth, weighted sup over m in [-25, 0]
    w1 = [abs(green_kernel(2, 0, 1.0, 1.0, m)) / max(1.0, abs(m))
          for m in range(0, -26, -1)]
    r1 = [b / a for a, b in zip(w1, w1[1:])]
    stab = max(abs(b - a) for a, b in zip(r1[-6:], r1[-5:]))
    # alpha = 0.5: power growth p**(m*(alpha-1)), weighted ratio -> 1
    w05 = [abs(green_kernel(2, 0, 0.5, 1.0, m)) * 2.0 ** (m * 0.5)
           for m in range(0, -26, -1)]
    r05 = [b / a for a, b in zip(w05, w05[1:])]
    dev05 = abs(r05[-1] - 1.0)
    ok = (gap < 1e-8 and max(w1) < 1.0 and stab < 1e-3
          and abs(r1[-1] - 1.0) < 0.01 and max(w05) < 2.0 and dev05 < 1e-3)
    report(6, "PASS" if ok else "FAIL",
           f"alpha=2 center gap {gap:.3e} (tol 1e-8); alpha=1 weighted sup "
           f"{max(w1):.3f}, ratio drift {stab:.1e}; alpha=0.5 ratio offset "
           f"{dev05:.3e} (tol 1e-3)")
    assert gap < 1e-8
    assert max(w1) < 1.0
    assert stab < 1e-3
    assert abs(r1[-1] - 1.0) < 0.01
    assert max(w05) < 2.0
    assert dev05 < 1e-3


def test_criterion_7_pme_properties():
    model = BallModel(2, 0, 6)
    alpha = 1.0
    phi = Nonlinearity.power(2.0)
    u0 = positive_bump(model, 0, -1)
    times = [0.1 * j for j in range(1, 21)]
    decay = lgamma_decay_suite(u0, times, [1.0, 2.0, 4.0, math.inf],
                               alpha, phi, slack=1e-12)
    # contraction and comparison on an ordered pair
    lo = positive_bump(model, 3, -2) * 0.5
    hi = lo + constant(model, 0.5)
    d0 = (lo - hi).lp_norm(1)
    worst_contract = 0.0
    worst_order = 0.0
    for h in (0.25, 1.0):
        lo1 = implicit_step(lo, h, alpha, phi)
        hi1 = implicit_step(hi, h, alpha, phi)
        worst_contract = max(worst_contract, (lo1 - hi1).lp_norm(1) - d0)
        worst_order = max(worst_order, float(np.max(lo1.values - hi1.values)))
    _, rows = pme_trajectory(u0, 1.0, 64, alpha, phi)
    worst_mass = max(abs(r["mass_identity_residual"]) for r in rows)
    lam = lambda_value(2, alpha, 0)
    u = evolve_pme(constant(model, 1.0), 1.0, 2048, alpha, phi)
    ode_rel = float(np.max(np.abs(u.values - 1.0 / (1.0 + lam)))) * (1.0 + lam)
    ok = (decay.all_nonincreasing and worst_contract < 1e-10
          and worst_order < 1e-10 and worst_mass < 1e-12 and ode_rel < 1e-4)
    report(7, "PASS" if ok else "FAIL",
           f"decay violations {len(decay.violations)}, contraction excess "
           f"{worst_contract:.1e} (slack 1e-10), comparison excess "
           f"{worst_order:.1e}, mass identity {worst_mass:.3e} (tol 1e-12), "
           f"scalar ODE rel {ode_rel:.3e} (tol 1e-4, k=2048)")
    assert decay.all_nonincreasing
    assert worst_contract < 1e-10
    assert worst_order < 1e-10
    assert worst_mass < 1e-12
    assert ode_rel < 1e-4


def test_criterion_8_crandall_liggett():
    model = BallModel(2, 0, 6)
    alpha = 1.0
    u0 = positive_bump(model, 0, -1)
    _, rep = crandall_liggett(u0, 1.0, alpha, Nonlinearity.power(2.0), tol=1e-4)
    monotone = all(b < a for a, b in
                   zip(rep.l1_differences, rep.l1_differences[1:]))
    worst_ratio = max(rep.ratios)
    lam = lambda_value(2, alpha, 0)
    t = 1.0
    ref = GridFunction(model, math.exp(-lam * t) * evolve(u0, alpha, t).values)
    errs = [(evolve_pme(u0, t, k, alpha, Nonlinearity.identity()) - ref).lp_norm(1)
            for k in (64, 128, 256, 512)]
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    ok = (monotone and worst_ratio <= 0.75
          and all(0.8 < o < 1.2 for o in orders))
    report(8, "PASS" if ok else "FAIL",
           f"doubling monotone {monotone}, worst ratio {worst_ratio:.3f} "
           f"(bound 0.75), identity-flow orders "
           f"{[round(o, 3) for o in orders]} (band [0.8, 1.2])")
    assert monotone
    assert worst_ratio <= 0.75
    for o in orders:
        assert 0.8 < o < 1.2


def test_criterion_9_transform_layer():
    worst_rt = 0.0
    worst_pl = 0.0
    for p, N, levels in ((2, 0, 12), (3, 0, 8), (5, 1, 4), (7, 0, 3)):
        model = BallModel(p, N, levels)
        u = random_function(model, p)
        f = forward(u)
        back = inverse(f)
        scale = float(np.max(np.abs(u.values)))
        worst_rt = max(worst_rt, float(np.max(np.abs(back.values - u.values))) / scale)
        lhs = float(p) ** (-N - levels) * float(np.sum(np.abs(u.values) ** 2))
        rhs = float(np.sum(np.abs(f.coeffs) ** 2))
        worst_pl = max(worst_pl, abs(lhs - rhs) / max(lhs, 1.0))
    worst_dft = 0.0
    for p, levels in ((2, 8), (3, 5), (5, 3), (7, 2)):
        model = BallModel(p, 0, levels)
        u = random_function(model, levels)
        for sign in (+1, -1):
            fast = (forward(u).coeffs * model.S if sign > 0
                    else inverse(SpectralFunction(model, u.values)).values)
            slow = dft_direct(u.values, sign)
            scale = float(np.max(np.abs(slow)))
            worst_dft = max(worst_dft, float(np.max(np.abs(fast - slow))) / scale)
    ok = worst_rt < 1e-12 and worst_pl < 1e-12 and worst_dft < 1e-12
    report(9, "PASS" if ok else "FAIL",
           f"round trip {worst_rt:.3e}, Plancherel {worst_pl:.3e}, FFT vs DFT "
           f"{worst_dft:.3e} (all tol 1e-12, S up to 6561)")
    assert worst_rt < 1e-12
    assert worst_pl < 1e-12
    assert worst_dft < 1e-12
