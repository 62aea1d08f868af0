"""Density evaluation: special functions against scipy, the two analytic
forms against each other, and closed forms."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from murmurations.constants import euler_constant
from murmurations.multfns import Q, nu
from murmurations.density import (ASYMPTOTIC_DMAX, ASYMPTOTIC_SMAX, MAX_DEPTH,
                                  QUAD_TOL, DensityConfig, _kink_breakpoints,
                                  _NODES, _summed_kernel_integrand,
                                  _WG15, _WK, adaptive_quadrature,
                                  bessel_inner_sum, chebyshev_U,
                                  dyadic_closed_form_constants,
                                  dyadic_closed_form_k2, dyadic_density,
                                  murmuration_density,
                                  murmuration_density_bessel,
                                  smoothed_average, universal_asymptotic)


# -- special functions ------------------------------------------------------

@given(st.integers(0, 40), st.floats(-1.0, 1.0))
@settings(max_examples=300)
def test_chebyshev_matches_scipy(n, x):
    assert chebyshev_U(n, x) == pytest.approx(float(sp.eval_chebyu(n, x)),
                                              rel=1e-9, abs=1e-9)


def test_chebyshev_trig_identity():
    for n in (1, 2, 7, 22):
        for theta in (0.3, 1.0, 2.5):
            expect = math.sin((n + 1) * theta) / math.sin(theta)
            assert chebyshev_U(n, math.cos(theta)) == pytest.approx(expect,
                                                                    rel=1e-12)


def _chebyshev_loop(n, x):
    """The float recurrence chebyshev_U replaced."""
    x = min(1.0, max(-1.0, x))
    if n == 0:
        return 1.0
    u0, u1 = 1.0, 2.0 * x
    for _ in range(n - 1):
        u0, u1 = u1, 2.0 * x * u1 - u0
    return u1


@pytest.mark.parametrize("n", [0, 1, 2, 4, 22])
def test_chebyshev_array_matches_float_loop(n):
    xs = [-1 - 1e-13, -1.0, -0.7, -0.1, 0.0, 1e-300, 0.3, 0.999, 1.0,
          1 + 1e-13] + np.linspace(-1.0, 1.0, 101).tolist()
    want = [_chebyshev_loop(n, x) for x in xs]
    floats = [chebyshev_U(n, x) for x in xs]
    assert all(type(v) is float for v in floats)
    assert floats == want
    assert chebyshev_U(n, np.array(xs)).tolist() == want
    with pytest.raises(ValueError):
        chebyshev_U(n, np.array([0.5, 1.1]))


@pytest.mark.parametrize("n", [15, 4000])
def test_vecdot_is_per_row_dot(n):
    """adaptive_quadrature (n = 15) and universal_asymptotic (n = 4000)
    take np.vecdot over rows where they took np.dot of each row."""
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((30000 // n + 100, n))
    rows *= np.exp(rng.uniform(-20.0, 20.0, rows.shape))
    weights = (_WK, _WG15) if n == 15 else (np.arange(1.0, n + 1) ** -1.5,)
    for w in weights:
        got = np.vecdot(rows, w).tolist()
        assert got == [float(np.dot(w, r)) for r in rows]
        assert got == [float(np.dot(r, w)) for r in rows]


def test_adaptive_quadrature_known_integrals():
    val, err = adaptive_quadrature(np.sin, 0.0, math.pi, 1e-12)
    assert val == pytest.approx(2.0, abs=1e-11)
    # kinked integrand with the kink declared as a breakpoint
    f = lambda x: np.sqrt(np.abs(x - 0.3))
    val, err = adaptive_quadrature(f, 0.0, 1.0, 1e-10, breakpoints=(0.3,))
    exact = (0.3 ** 1.5 + 0.7 ** 1.5) * 2 / 3
    assert val == pytest.approx(exact, abs=1e-8)


def test_adaptive_quadrature_raises_on_undeclared_jump():
    # a jump of 1000 at 1/3: the panel holding it never meets its
    # tolerance, so the quadrature must fail rather than accept it
    step = lambda x: np.where(x > 1 / 3, 1000.0, 0.0)
    with pytest.raises(ValueError, match="bisections"):
        adaptive_quadrature(step, 0.0, 1.0, 1e-9)
    val, _ = adaptive_quadrature(step, 0.0, 1.0, 1e-9, breakpoints=(1 / 3,))
    assert val == pytest.approx(2000 / 3, abs=1e-9)


def _depth_first_quadrature(f, a, b, tol, breakpoints=()):
    """The panel-at-a-time stack loop that adaptive_quadrature replaced:
    one f call per 15-node panel, right half popped first."""
    def gk15(x0, x1):
        half = 0.5 * (x1 - x0)
        mid = 0.5 * (x0 + x1)
        y = f(mid + half * _NODES)
        k15 = half * float(np.dot(_WK, y))
        g7 = half * float(np.dot(_WG15, y))
        return k15, abs(k15 - g7)

    pts = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    total = 0.0
    err_total = 0.0
    width = b - a
    for lo, hi in zip(pts, pts[1:]):
        stack = [(lo, hi, 0)]
        while stack:
            x0, x1, depth = stack.pop()
            val, err = gk15(x0, x1)
            if err <= tol * max((x1 - x0) / width, 1e-6):
                total += val
                err_total += err
            elif depth >= MAX_DEPTH:
                raise ValueError(f"quadrature panel [{x0!r}, {x1!r}] misses "
                                 f"its tolerance after {MAX_DEPTH} bisections")
            else:
                xm = 0.5 * (x0 + x1)
                stack.append((x0, xm, depth + 1))
                stack.append((xm, x1, depth + 1))
    return total, err_total


def _kernel_breakpoints(c):
    # the log singularities bessel_inner_sum declares: c sin(t) = 2 pi j
    bps = []
    j = 1
    while 2.0 * math.pi * j < c:
        t = math.asin(2.0 * math.pi * j / c)
        bps += [t, math.pi - t]
        j += 1
    return tuple(bps)


def _dyadic_integrand(k, y):
    cfg = DensityConfig(k=k)
    return lambda u: np.array([ui * murmuration_density(cfg, y / ui)
                               for ui in u])


_QUADRATURE_CASES = [
    ("sin", lambda: (np.sin, 0.0, math.pi, 1e-12, ())),
    ("sqrt-kink", lambda: (lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0,
                           1e-10, (0.3,))),
    *[(f"kernel-{order}-{c}",
       lambda order=order, c=c: (_summed_kernel_integrand(order, c), 0.0,
                                 math.pi, QUAD_TOL, _kernel_breakpoints(c)))
      for order in (1, 2, 3, 4) for c in (3.0, 9.0, 25.5, 60.0)],
    *[(f"dyadic-{k}-{y}",
       lambda k=k, y=y: (_dyadic_integrand(k, y), 1.0, 2.0, QUAD_TOL,
                         _kink_breakpoints(y, 1.0, 2.0)))
      for k in (2, 4) for y in (0.3, 1.7, 3.1)],
]


@pytest.mark.parametrize("case", [c for _, c in _QUADRATURE_CASES],
                         ids=[name for name, _ in _QUADRATURE_CASES])
def test_adaptive_quadrature_matches_depth_first_loop(case):
    """Level-at-a-time evaluation sums the same panels in the same order:
    (value, error) equal to the last bit."""
    args = case()
    assert adaptive_quadrature(*args) == _depth_first_quadrature(*args)


def test_adaptive_quadrature_names_the_depth_first_failing_panel():
    # undeclared jumps at 0.1 and 0.3 in the first piece and at 0.9 in
    # the second: the panels holding each of them miss their tolerance at
    # MAX_DEPTH, and the stack loop reaches the one at 0.3 first
    jumps = lambda x: 1000.0 * sum(x > j for j in (0.1, 0.3, 0.9))
    with pytest.raises(ValueError) as old:
        _depth_first_quadrature(jumps, 0.0, 2.0, 1e-9, (0.55,))
    with pytest.raises(ValueError) as new:
        adaptive_quadrature(jumps, 0.0, 2.0, 1e-9, (0.55,))
    assert str(new.value) == str(old.value)
    lo = float(str(old.value).split("[")[1].split(",")[0])
    assert lo == pytest.approx(0.3, abs=1e-15)


# -- the summed Bessel kernel ----------------------------------------------

def _inner_sum_oracle(order, c, n=60000):
    # direct sum with sqrt-2 Richardson step to kill the resonant tail
    def partial(m):
        s = np.arange(1, m + 1)
        return float(np.sum(sp.jv(order, c * s) / s))
    s1, s2 = partial(n), partial(int(n * math.sqrt(2)))
    return (math.sqrt(2) * s2 - s1) / (math.sqrt(2) - 1)


def test_inner_sum_closed_forms_below_2pi():
    for order in (3, 5, 7, 23):
        for c in (0.5, 2.0, 6.0):
            assert bessel_inner_sum(order, c)[0] == pytest.approx(1 / order,
                                                                  abs=1e-12)
    for c in (0.5, 2.0, 6.0):
        assert bessel_inner_sum(1, c)[0] == pytest.approx(1 - c / 4,
                                                          abs=1e-12)


def test_inner_sum_against_direct_series():
    for order, c in ((1, 9.0), (3, 7.5), (5, 20.0), (7, 13.0)):
        assert bessel_inner_sum(order, c)[0] == pytest.approx(
            _inner_sum_oracle(order, c), abs=5e-5)


# -- the two forms of the density ------------------------------------------

@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("y", [0.5, 2.25])
def test_chebyshev_equals_bessel(k, y):
    cfg = DensityConfig(k=k)
    cheb = murmuration_density(cfg, y)
    bess, tail = murmuration_density_bessel(cfg, y)
    assert abs(cheb - bess) <= tail + 1e-7


def test_small_y_closed_form_and_positivity():
    # below y = 1/4 no oscillatory term contributes
    beta = euler_constant("beta").value
    gamma = euler_constant("gamma").value
    for y in (1e-6, 1e-3, 0.06, 0.2499):
        for k in (2, 4, 8):
            expect = beta * math.sqrt(y) / (k - 1) - (gamma * y if k == 2
                                                      else 0.0)
            got = murmuration_density(DensityConfig(k=k), y)
            assert got == pytest.approx(expect, rel=1e-12)
            if y <= 0.2:
                # positive until the linear k=2 term overtakes near y ~ 0.21
                assert got > 0


def _density_loop(cfg, y):
    """The one-y, one-r-at-a-time loop murmuration_density replaced."""
    k = cfg.k
    al = euler_constant("alpha", cfg.pmax).value
    be = euler_constant("beta", cfg.pmax).value
    ga = euler_constant("gamma", cfg.pmax).value
    two_sqrt_y = 2.0 * math.sqrt(y)
    total = 0.0
    for r in range(1, int(two_sqrt_y) + 1):
        rad = 4.0 * y - r * r
        if rad > 0.0:
            total += (float(nu(r)) * math.sqrt(rad)
                      * _chebyshev_loop(k - 2, r / two_sqrt_y))
    sign = -1.0 if k % 4 == 0 else 1.0
    value = (al * sign / (k - 1)) * total + (be / (k - 1)) * math.sqrt(y)
    return value - ga * y if k == 2 else value


@pytest.mark.parametrize("k", [2, 4, 6, 24])
def test_array_density_matches_float_loop(k):
    # every kink 4y = r^2 and its two float neighbours, y -> 0+, and a
    # spread of y up to the 1e4 of the smoothed averages
    kinks = [r * r / 4.0 for r in range(1, 41)]
    ys = (kinks + [math.nextafter(y, 0.0) for y in kinks]
          + [math.nextafter(y, math.inf) for y in kinks]
          + [5e-324, 1e-300, 1e-12, 1e-6, 0.01, 0.2499, 0.5, 7.77, 123.4,
             1e4 / 1.37, 1e4])
    cfg = DensityConfig(k=k)
    want = [_density_loop(cfg, y) for y in ys]
    floats = [murmuration_density(cfg, y) for y in ys]
    assert all(type(v) is float for v in floats)
    assert floats == want
    assert murmuration_density(cfg, np.array(ys)).tolist() == want
    with pytest.raises(ValueError, match="positive"):
        murmuration_density(cfg, np.array([1.0, 0.0]))


def test_continuity_at_kinks():
    eps = 1e-8
    for k in (2, 4):
        cfg = DensityConfig(k=k)
        for r in (1, 2, 3):
            y0 = r * r / 4.0
            jump = abs(murmuration_density(cfg, y0 + eps)
                       - murmuration_density(cfg, y0 - eps))
            # continuous (value jump ~ sqrt(eps)), but the one-sided
            # derivatives differ: the sqrt kink blows up on the right
            assert jump < 5e-3
            h = 1e-6
            right = (murmuration_density(cfg, y0 + 2 * h)
                     - murmuration_density(cfg, y0 + h)) / h
            left = (murmuration_density(cfg, y0 - h)
                    - murmuration_density(cfg, y0 - 2 * h)) / h
            assert abs(right - left) > 10.0


def test_asymptotic_sign_flip():
    # the oscillatory prefactor flips sign between k = 0 and 2 mod 4
    for T in (11.13, 23.71):
        a4 = universal_asymptotic(T, DensityConfig(k=4))
        a6 = universal_asymptotic(T, DensityConfig(k=6))
        assert a4 == pytest.approx(-a6, rel=1e-12)


def _per_d_asymptotic(T, cfg):
    """The one-d-at-a-time loop that universal_asymptotic replaced."""
    al = euler_constant("alpha", cfg.pmax).value
    s = np.arange(1, ASYMPTOTIC_SMAX + 1, dtype=np.float64)
    sw = s ** -1.5
    total = 0.0
    for d in range(1, ASYMPTOTIC_DMAX + 1):
        q = Q(d)
        if q == 0:
            continue
        phases = 4.0 * math.pi * T / d * s - 0.75 * math.pi
        total += float(q) * math.sqrt(d) * float(np.dot(np.cos(phases), sw))
    sign = -1.0 if cfg.k % 4 == 0 else 1.0
    return sign * al / (math.pi * math.sqrt(2.0)) * total


# T = sqrt(y) on the asymptotic grid of the density benchmark's first
# input (0.05:1:0.05 shifted by a ninth of a step), and the T above
_BENCHMARK_TS = [math.sqrt(0.05 + 0.05 / 9 + i * 0.05) for i in range(20)]


@pytest.mark.parametrize("k", [2, 4])
def test_universal_asymptotic_matches_per_d_loop(k):
    cfg = DensityConfig(k=k)
    for T in _BENCHMARK_TS + [11.13, 23.71, 60.0, 95.5]:
        assert universal_asymptotic(T, cfg) == _per_d_asymptotic(T, cfg), T


def test_universal_asymptotic_memory_and_threads():
    # one 4 MB phase block per worker, never the 39 MB full matrix; the
    # calling thread is held to at most two CPUs so the bound does not
    # depend on the machine, and every worker thread is gone on return
    cfg = DensityConfig(k=2)
    universal_asymptotic(7.0, cfg)              # constants and Q(d) cached
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(cpus)[:2])
    threads = threading.active_count()
    tracemalloc.start()
    try:
        universal_asymptotic(7.0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        os.sched_setaffinity(0, cpus)
    assert peak <= 16 * 2 ** 20
    assert threading.active_count() == threads


def test_universal_asymptotic_same_on_one_cpu():
    code = ("import os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from murmurations.density import DensityConfig, "
            "universal_asymptotic\n"
            "print(repr(universal_asymptotic(23.71, DensityConfig(k=2))))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == repr(universal_asymptotic(23.71,
                                                   DensityConfig(k=2))) + "\n"


def test_asymptotic_tracks_density():
    # M_k(T^2) ~ sqrt(T) * universal asymptotic, up to O(1)
    cfg = DensityConfig(k=2)
    for T in (60.0, 95.5):
        dens = murmuration_density(cfg, T * T)
        asym = math.sqrt(T) * universal_asymptotic(T, cfg)
        assert abs(dens - asym) < 2.0


# -- dyadic window ----------------------------------------------------------

def test_dyadic_quadrature_equals_closed_form():
    cfg = DensityConfig(k=2)
    for y in np.arange(0.02, 1.0, 0.07):
        quad = dyadic_density(2.0, float(y), cfg)
        closed = dyadic_closed_form_k2(float(y))
        assert abs(quad - closed) <= 1e-6


def test_dyadic_constants_assembled_from_euler_products():
    a, b, c = dyadic_closed_form_constants()
    alpha = euler_constant("alpha").value
    beta = euler_constant("beta").value
    gamma = euler_constant("gamma").value
    assert a == pytest.approx((2 ** 1.5 - 1) * 4 / 9 * beta, rel=1e-12)
    assert b == pytest.approx(2 * gamma / 3, rel=1e-12)
    assert c == pytest.approx(2 * alpha / 3, rel=1e-12)


def test_smoothed_sharp_window_is_dyadic():
    cfg = DensityConfig(k=6)
    for y in (0.3, 1.7):
        smooth = smoothed_average(lambda u: 1.0, y, cfg, support=(1.0, 2.0))
        assert smooth == pytest.approx(dyadic_density(2.0, y, cfg),
                                       rel=1e-8)


def test_smoothed_limit_is_half():
    # with a smooth bump, the smoothed density tends to 1/2 as y grows
    cfg = DensityConfig(k=6)
    bump = lambda u: math.exp(-1.0 / ((u - 1.0) * (2.0 - u)))
    val = smoothed_average(bump, 10 ** 4, cfg, support=(1.0, 2.0))
    assert val == pytest.approx(0.5, abs=0.05)

