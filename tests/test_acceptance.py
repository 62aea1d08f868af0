"""End-to-end acceptance gates, one test per criterion.

Each test prints a single PASS/FAIL line (plus per-point detail where the
criterion is a matrix) and asserts the criterion literally, including its
runtime budget.  Criteria that fail do so for reasons documented in the
project notes; nothing here is loosened to force green.
"""

import math
import random
import time
from fractions import Fraction

from murmurations.arith import (is_prime, shared_sieve,
                                squarefree_in_class_count, sum_mu2_phi)
from murmurations.classnumbers import hurwitz_H1_certified, hurwitz_sieve
from murmurations.constants import (ZETA2, euler_constant,
                                    q_weighted_sums, qsqrt_product)
from murmurations.density import (DensityConfig, dyadic_closed_form_constants,
                                  dyadic_closed_form_k2, dyadic_density,
                                  murmuration_density,
                                  murmuration_density_bessel, smoothed_average)
from murmurations.multfns import (is_admissible, nu, phi_circ,
                                  phi_circ_bruteforce, smooth_square_gs,
                                  theta, theta_bruteforce, theta_sum_partial)
from murmurations.signcheck import (SignCheckConfig, grid_verify,
                                    second_peak_probe)
from murmurations.traceformula import TraceParams, interval_average, \
    trace_TpWN, window_density

def _report(n, ok, detail):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_01_class_number_oracle_equivalence():
    t0 = time.time()
    table = hurwitz_sieve(3, 10 ** 5)
    mismatches = sum(hurwitz_H1_certified(d) != table[d]
                     for d in range(3, 10 ** 5 + 1))
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed <= 120
    assert _report(1, ok, f"form counting vs certified H1 (conductor sum), "
                   f"d <= 1e5: {mismatches} mismatches, {elapsed:.0f}s")


def test_criterion_02_k2_integrality():
    t0 = time.time()
    rng = random.Random(20260823)
    primes = [p for p in range(3, 501) if is_prime(p)]
    checked = 0
    nonint = 0
    while checked < 200:
        N = rng.randint(1, 2000)
        P = rng.choice(primes)
        if N % P == 0 or not shared_sieve().is_squarefree(N):
            continue
        t = trace_TpWN(TraceParams(N=N, P=P, k=2))
        if not (isinstance(t, Fraction) and t.denominator == 1):
            nonint += 1
        checked += 1
    elapsed = time.time() - t0
    ok = nonint == 0 and elapsed <= 60
    assert _report(2, ok, f"200 random k=2 traces exactly integral "
                   f"({nonint} failures), {elapsed:.0f}s")


def test_criterion_03_multiplicative_function_oracles():
    t0 = time.time()
    bad = 0
    for P in (5, 7, 11, 101):
        for r in range(1, 13):
            for m in range(1, 501):
                if m % P == 0 or m % 4 == 2 or m % 8 == 4:
                    continue
                if theta(r, m, P) != theta_bruteforce(r, m, P):
                    bad += 1
    for r in range(1, 41):
        for d in range(1, 41):
            if not is_admissible(r, d):
                continue
            for g in smooth_square_gs(d, 10 ** 4):
                if g % 8 == 4:
                    continue  # g is a square: v_2(g) = 2 is outside the domain
                for P in (7, 11):
                    if d % P == 0:
                        continue
                    closed = phi_circ(r, d, g, P)
                    if closed != phi_circ_bruteforce(r, d, g, P):
                        bad += 1
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed <= 120
    assert _report(3, ok, f"exhaustive closed-form vs brute-force character "
                   f"sums: {bad} mismatches, {elapsed:.0f}s")


def test_criterion_04_triple_sum_convergence():
    t0 = time.time()
    B = euler_constant("B").value
    worst = 0.0
    for P in (10007, 100003):
        for r in (1, 2, 3, 4, 6):
            got = theta_sum_partial(r, 500, 500, P)
            worst = max(worst, abs(got - B * float(nu(r))))
    elapsed = time.time() - t0
    ok = worst <= 0.02 and elapsed <= 60
    assert _report(4, ok, f"partial triple sums vs B*nu(r): worst "
                   f"|diff| {worst:.4f} (tol 0.02), {elapsed:.0f}s")


def test_criterion_05_euler_identities():
    t0 = time.time()
    alpha = euler_constant("alpha").value
    beta = euler_constant("beta").value
    gamma = euler_constant("gamma").value
    qsum, qdsum = q_weighted_sums(10 ** 6)
    r1 = abs(qsum - beta / alpha)
    r2 = abs(alpha / gamma * qdsum - 1.0 / math.pi)
    r3 = abs(qsqrt_product(10 ** 6) - 3.0907)
    elapsed = time.time() - t0
    ok = r1 <= 1e-5 and r2 <= 1e-5 and r3 <= 1e-3 and elapsed <= 60
    assert _report(5, ok, f"sum identities {r1:.2e}, {r2:.2e} (tol 1e-5); "
                   f"sqrt-weighted partial product off 3.0907 by {r3:.2e} "
                   f"(tol 1e-3), {elapsed:.0f}s")


def test_criterion_06_chebyshev_bessel_equivalence():
    t0 = time.time()
    worst = 0.0
    worst_budget = 0.0
    for k in (2, 4, 8, 24):
        cfg = DensityConfig(k=k, pmax=2 * 10 ** 7)
        for y in (0.1, 0.5, 1.0, 2.25, 10.0):
            cheb = murmuration_density(cfg, y)
            bess, tail = murmuration_density_bessel(cfg, y)
            worst = max(worst, abs(cheb - bess))
            worst_budget = max(worst_budget, tail)
    elapsed = time.time() - t0
    ok = worst <= worst_budget <= 1e-4 and elapsed <= 60
    assert _report(6, ok, f"two density forms agree: worst |diff| "
                   f"{worst:.2e} within budget {worst_budget:.2e} "
                   f"(<= 1e-4), {elapsed:.0f}s")


def test_criterion_07_dyadic_closed_form():
    t0 = time.time()
    cfg = DensityConfig(k=2)
    worst = 0.0
    for i in range(1, 101):
        y = i / 100.0
        worst = max(worst, abs(dyadic_density(2.0, y, cfg)
                               - dyadic_closed_form_k2(y)))
    a, b, c = dyadic_closed_form_constants()
    # b = (2/3) gamma.  The source's 11.3536 is the product truncated at
    # p <= 541; tests/test_constants.py ties gamma to exact sums.
    da, db, dc = abs(a - 6.38936), abs(b - 11.3565), abs(c - 2.6436)
    elapsed = time.time() - t0
    ok = (worst <= 1e-6 and da <= 5e-5 and db <= 5e-5 and dc <= 5e-5
          and elapsed <= 60)
    assert _report(7, ok, f"quadrature vs piecewise worst {worst:.2e} "
                   f"(tol 1e-6); constants ({a:.5f}, {b:.5f}, {c:.5f}) vs "
                   f"quoted (6.38936, 11.3565, 2.6436): offsets "
                   f"({da:.1e}, {db:.1e}, {dc:.1e}) vs 5e-5, {elapsed:.0f}s")


def test_criterion_08_desk_scale_empirical_murmuration():
    t0 = time.time()
    X, Y = 10 ** 4, 10 ** 3
    primes = (1999, 4999, 10007, 19997, 29989)
    failures = []
    for k in (2, 4):
        cfg = DensityConfig(k=k)
        for P in primes:
            rep = interval_average(X, Y, P, k)
            tol = max(0.1, 0.15 * abs(rep.predicted))
            window = window_density(cfg, P, X, Y)
            good = abs(rep.residual) <= tol
            if not good:
                failures.append((k, P))
            print(f"  k={k} P={P:5d} y={P / X:.1f}: average "
                  f"{rep.average:+.4f} vs pointwise {rep.predicted:+.4f} "
                  f"(residual {rep.residual:+.4f}, tol {tol:.3f}) "
                  f"[window-averaged density {window:+.4f}] "
                  f"{'ok' if good else 'FAIL'}")
    elapsed = time.time() - t0
    ok = not failures and elapsed <= 900
    assert _report(8, ok, f"interval averages vs pointwise density at "
                   f"X=1e4, Y=1e3: {len(failures)} of 10 points outside "
                   f"tolerance {failures}, {elapsed:.0f}s")


def test_criterion_09_sign_change_certificate():
    t0 = time.time()
    cfg = SignCheckConfig()
    cert = grid_verify(cfg)
    probe = second_peak_probe()
    elapsed = time.time() - t0
    ok = (cert.error_budget <= 0.64 and cert.passed
          and abs(probe.max_value - (-0.027)) <= 0.002
          and abs(probe.error_bound - 0.022) <= 0.004
          and elapsed <= 600)
    assert _report(9, ok, f"budget {cert.error_budget:.4f} (<= 0.64), grid "
                   f"{'passed' if cert.passed else 'failed'} "
                   f"{cert.grid}x{len(cert.verdicts)}; second peak "
                   f"{probe.max_value:+.4f} vs -0.027 +/- 0.002, error bound "
                   f"{probe.error_bound:.4f} vs ~0.022, {elapsed:.0f}s")


def test_criterion_10_smoothed_limits():
    t0 = time.time()
    cfg = DensityConfig(k=6)
    y = 10 ** 4
    sharp = smoothed_average(lambda u: 1.0, y, cfg, support=(1.0, 2.0))

    def bump(u):
        import numpy as np
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        inside = (u > 1.0) & (u < 2.0)
        out[inside] = np.exp(-1.0 / ((u[inside] - 1.0) * (2.0 - u[inside])))
        return out

    smooth = smoothed_average(bump, y, cfg, support=(1.0, 2.0))
    elapsed = time.time() - t0
    ok = (abs(smooth - 0.5) <= 0.05 and abs(sharp - 0.5) <= 0.05
          and elapsed <= 120)
    assert _report(10, ok, f"k=6 smoothed averages at y=1e4: bump "
                   f"{smooth:.4f}, sharp window {sharp:.4f} vs 1/2 "
                   f"+/- 0.05, {elapsed:.0f}s")


def test_criterion_11_squarefree_main_terms():
    t0 = time.time()
    Z = 10 ** 6
    dimc = euler_constant("dimC").value
    main = Z * Z / (2 * ZETA2) * dimc
    dev1 = abs(sum_mu2_phi(Z) / main - 1.0)
    rng = random.Random(1486)
    X, Y = 10 ** 6, 10 ** 5
    worst = 0.0
    done = 0
    while done < 20:
        m = rng.randint(2, 50)
        a = rng.randint(1, m - 1)
        if math.gcd(a, m) != 1:
            continue
        count = squarefree_in_class_count(X, Y, a, m)
        expect = (Y / ZETA2 * float(shared_sieve().eta(m))
                  / shared_sieve().euler_phi(m))
        worst = max(worst, abs(count / expect - 1.0))
        done += 1
    elapsed = time.time() - t0
    ok = dev1 <= 0.01 and worst <= 0.02 and elapsed <= 60
    assert _report(11, ok, f"weighted square-free sum off main term by "
                   f"{dev1:.2%} (tol 1%); class counts worst off "
                   f"{worst:.2%} (tol 2%), {elapsed:.0f}s")
