"""Density evaluation: special functions against scipy, the two analytic
forms against each other, and closed forms."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from murmurations import density
from murmurations.constants import euler_constant
from murmurations.multfns import Q, nu
from murmurations.density import (ASYMPTOTIC_DMAX, ASYMPTOTIC_SMAX, MAX_DEPTH,
                                  QUAD_TOL, DensityConfig, _kernel_breakpoints,
                                  _kink_breakpoints, _NODES,
                                  _summed_kernel_integrand,
                                  _WG15, _WK, adaptive_quadrature,
                                  adaptive_quadrature_batch,
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


def _dispatch(fs):
    """f(x, i) that evaluates integral i's own integrand fs[i] on its
    nodes; each integrand acts elementwise, so the bits are its own."""
    def f(x, i):
        out = np.empty_like(x)
        for j, fj in enumerate(fs):
            out[i == j] = fj(x[i == j])
        return out
    return f


def test_adaptive_quadrature_batch_matches_single_calls():
    """One bisection for every QUAD_TOL case of differing limits gives each
    integral the (value, error) of its own call, to the last bit."""
    cases = [c() for _, c in _QUADRATURE_CASES]
    cases = [c for c in cases if c[3] == QUAD_TOL]
    cases += [(np.cos, 0.0, 0.0, QUAD_TOL, ())]             # empty interval
    single = [adaptive_quadrature(*c) for c in cases]
    batch = adaptive_quadrature_batch(
        _dispatch([c[0] for c in cases]),
        [(a, b, bps) for _, a, b, _, bps in cases], QUAD_TOL)
    assert list(zip(*batch)) == single
    assert single[-1] == (0.0, 0.0)
    assert adaptive_quadrature_batch(_dispatch([]), [], QUAD_TOL) == ([], [])


def test_adaptive_quadrature_batch_names_the_first_failing_integral():
    jumps = lambda x: 1000.0 * sum(x > j for j in (0.1, 0.3, 0.9))
    step = lambda x: np.where(x > 1 / 3, 1000.0, 0.0)
    errors = {}
    for name, f, a, b, bps in (("jumps", jumps, 0.0, 2.0, (0.55,)),
                               ("step", step, -1.0, 1.0, ())):
        with pytest.raises(ValueError) as single:
            adaptive_quadrature(f, a, b, 1e-9, bps)
        errors[name] = (f, (a, b, bps), str(single.value))
    assert errors["jumps"][2] != errors["step"][2]
    for order in (("jumps", "step"), ("step", "jumps")):
        fs, limits, _ = zip(*(errors[n] for n in order))
        with pytest.raises(ValueError) as batch:
            adaptive_quadrature_batch(_dispatch([np.sin, *fs]),
                                      [(0.0, 1.0, ()), *limits], 1e-9)
        assert str(batch.value) == errors[order[0]][2]


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


def _bessel_loop(cfg, y):
    """The one-y, one-d-at-a-time sum murmuration_density_bessel replaced,
    each quadrature by the panel-at-a-time loop."""
    order = cfg.k - 1
    al, be, ga = (euler_constant(kind, cfg.pmax)
                  for kind in ("alpha", "beta", "gamma"))
    sy = math.sqrt(y)
    head = quad_err = 0.0
    s_q = s_qd = Fraction(0)
    for d in range(1, int(2.0 * sy) + 1):
        q = Q(d)
        s_q += q
        s_qd += q / d
        if q == 0:
            continue
        c = 4.0 * math.pi * sy / d
        if order % 2 == 1 and c <= 2.0 * math.pi:
            v, e = 1.0 / order - (c / 4.0 if order == 1 else 0.0), 0.0
        else:
            v, e = _depth_first_quadrature(
                _summed_kernel_integrand(order, c), 0.0, math.pi, QUAD_TOL,
                _kernel_breakpoints(c))
            v, e = v / math.pi, e / math.pi
        head += float(q) * v
        quad_err += float(q) * e
    q_total = be.value / al.value
    q_total_err = q_total * (be.tail_bound / be.value
                             + al.tail_bound / al.value)
    tail = (q_total - float(s_q)) / order
    bracket = q_total_err / order
    if order == 1:
        qd_total = ga.value / (al.value * math.pi)
        qd_total_err = qd_total * (ga.tail_bound / ga.value
                                   + al.tail_bound / al.value)
        tail -= math.pi * sy * (qd_total - float(s_qd))
        bracket += math.pi * sy * qd_total_err
    value = al.value * sy * (head + tail)
    tail_bound = al.value * sy * (quad_err + bracket)
    return value, tail_bound + abs(value) * al.tail_bound / al.value


@pytest.mark.parametrize("k", [2, 4])
def test_bessel_array_matches_per_y_loop(k):
    # the density benchmark's first Bessel grid, and y = d^2/4, where the
    # last d has c = 2 pi: the odd-order closed form (k = 4) serves it
    cfg = DensityConfig(k=k)
    ys = ([1 / 36 + 0.25 * i for i in range(17)]
          + [d * d / 4 for d in range(1, 9)] + [1e-3, 9.87])
    want = [_bessel_loop(cfg, y) for y in ys]
    values, bounds = murmuration_density_bessel(cfg, np.array(ys))
    assert list(zip(values.tolist(), bounds.tolist())) == want
    assert [murmuration_density_bessel(cfg, y) for y in ys] == want
    grid = murmuration_density_bessel(cfg, np.reshape(ys[:24], (4, 6)))
    assert [a.shape for a in grid] == [(4, 6), (4, 6)]


def test_bessel_inner_sum_feeds_bounded_batches(monkeypatch):
    sizes = []
    batch = density.adaptive_quadrature_batch

    def counted(f, limits, tol):
        sizes.append(len(limits))
        return batch(f, limits, tol)
    monkeypatch.setattr(density, "adaptive_quadrature_batch", counted)
    cs = np.linspace(0.5, 40.0, 3 * density.BESSEL_BATCH + 5)
    for order in (2, 3):
        values, errors = bessel_inner_sum(order, cs)
        assert list(zip(values.tolist(), errors.tolist())) == \
            [bessel_inner_sum(order, c) for c in cs.tolist()]
    quadratures = len(cs) + int((cs > 2 * math.pi).sum())
    assert sum(sizes) == 2 * quadratures
    assert max(sizes[:4]) == density.BESSEL_BATCH


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


def test_chebyshev_refuses_an_array_past_its_work_bound(monkeypatch):
    # 25 points up to y = 4 cost (25 + 200) x floor(2 sqrt 4) = 900
    cfg = DensityConfig(k=24)
    monkeypatch.setattr(density, "CHEBYSHEV_WORK_MAX", 900)
    ys = np.linspace(0.16, 4.0, 25)
    assert murmuration_density(cfg, ys).tolist() == \
        [murmuration_density(cfg, y) for y in ys]
    with pytest.raises(ValueError, match=r"^26 points up to y = 4 cost "
                       r"\(26 \+ CHEBYSHEV_R_COST\) x 4 = 904 point-r terms, "
                       r"more than CHEBYSHEV_WORK_MAX = 900$"):
        murmuration_density(cfg, np.append(ys, 0.5))


class _Accepted(Exception):
    """Raised in place of the Euler constants, which every form loads only
    after its bounds pass."""


@pytest.mark.parametrize("form, ys, accepted", [
    # one y at the Chebyshev cap passes; 100 points up to it cost
    # (100 + 200) x 200000 = 6e7 point-r terms
    ("chebyshev", [1e10], True),
    ("chebyshev", np.arange(1e8, 1e10 + 1, 1e8), False),
    ("chebyshev", np.arange(0.0, 4001) / 1000 + 1 / 9000, True),
    # 2 points at the Bessel cap make 4000 point-d terms, 3 make 6000
    ("bessel", [1e6, 1e6], True),
    ("bessel", [1e6, 1e6, 1e6], False),
    ("bessel", np.arange(1.0, 1250.5) / 312.5, True),
    ("asymptotic", np.full(300, 2.0), True),
    ("asymptotic", np.full(301, 2.0), False),
])
def test_density_forms_bound_their_work(monkeypatch, form, ys, accepted):
    def accept(*args):
        raise _Accepted
    monkeypatch.setattr(density, "euler_constant", accept)
    cfg = DensityConfig(k=24)
    call = {"chebyshev": lambda: murmuration_density(cfg, ys),
            "bessel": lambda: murmuration_density_bessel(cfg, ys),
            "asymptotic": lambda: universal_asymptotic(ys, cfg)}[form]
    bound = {"chebyshev": "CHEBYSHEV_WORK_MAX", "bessel": "BESSEL_WORK_MAX",
             "asymptotic": "ASYMPTOTIC_POINTS_MAX"}[form]
    with pytest.raises(_Accepted if accepted else ValueError) as exc:
        call()
    assert accepted or bound in str(exc.value)


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
    Ts = _BENCHMARK_TS + [11.13, 23.71, 60.0, 95.5]
    want = [_per_d_asymptotic(T, cfg) for T in Ts]
    assert universal_asymptotic(np.array(Ts), cfg).tolist() == want
    assert [universal_asymptotic(T, cfg) for T in Ts] == want


def test_universal_asymptotic_memory_and_threads():
    # one 1 MB phase block per worker, never the 39 MB full matrix; the
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


def test_universal_asymptotic_peaks_at_one_block_per_cpu():
    # each worker holds one 32 x 4000 float64 phase matrix, which fits L2,
    # whichever T it takes
    cfg = DensityConfig(k=4)
    universal_asymptotic(3.0, cfg)              # constants and Q(d) cached
    tracemalloc.start()
    try:
        universal_asymptotic(np.linspace(3.0, 9.0, 7), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cpus = len(os.sched_getaffinity(0))
    assert peak <= cpus * 32 * ASYMPTOTIC_SMAX * 8 + 2 * 2 ** 20


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

