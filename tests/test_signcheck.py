"""Sign certification: the inner profile against a high-precision oracle,
periodicity, budgets, and the grid/probe machinery at reduced cutoffs."""

import math
import os
import threading
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from murmurations import signcheck
from murmurations.signcheck import (DEFAULT_D, PROBE_INTERVAL,
                                    SignCheckConfig, _f_grid, _s_weights,
                                    error_budget, f_interpolated, f_polylog,
                                    grid_verify, m_max_bounds, period,
                                    second_peak_probe,
                                    third_sign_change_fraction)


def _f_oracle(x, S):
    mp.mp.dps = 30
    return float(mp.fsum(mp.cos(4 * mp.pi * x * s - 3 * mp.pi / 4)
                         / mp.power(s, 1.5) for s in range(1, S + 1)))


def test_f_against_oracle():
    for x in (0.0, 0.123, 0.25, 0.5, 0.777, 3.162):
        v, tail = f_polylog(x, 2000)
        assert v == pytest.approx(_f_oracle(x, 2000), abs=1e-12)
        assert tail == 2.0 / math.sqrt(2000)


@given(st.floats(0.0, 10.0))
@settings(max_examples=40, deadline=None)
def test_f_tail_bound_honored(x):
    coarse, tail = f_polylog(x, 1000)
    fine, _ = f_polylog(x, 10 ** 6)
    assert abs(coarse - fine) < tail


def test_f_periodicity_half():
    for x in (0.1, 0.31):
        a, _ = f_polylog(x, 5000)
        b, _ = f_polylog(x + 0.5, 5000)
        assert a == pytest.approx(b, abs=1e-9)


def test_m_max_value():
    lo, hi = m_max_bounds()
    assert lo < hi
    assert hi == pytest.approx(math.sqrt(2) / 2 * 2.612375, abs=1e-5)
    # the single-term profile at its cusp attains -M_max in the limit
    v, tail = f_polylog(0.0, 10 ** 6)
    assert -v <= hi + tail


def test_period():
    assert period(DEFAULT_D) == Fraction(15015, 2) * 2
    assert period((1,)) == Fraction(1, 2)
    assert period((2, 3)) == Fraction(3)
    with pytest.raises(ValueError):
        period(())


def test_error_budget():
    b = error_budget(DEFAULT_D, 3.0907)
    assert 0.5 < b < 0.64
    with pytest.raises(ValueError):
        error_budget(DEFAULT_D, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SignCheckConfig(D=(4,))
    with pytest.raises(ValueError):
        SignCheckConfig(offsets=(1.5,))
    with pytest.raises(ValueError):
        SignCheckConfig(S=0)


def test_inner_tail_accumulates():
    # each d's f carries the tail 2/sqrt(S), weighted by Q(d) sqrt(d)
    cfg = SignCheckConfig(D=(1, 2, 3, 5, 6), S=10000, offsets=(0.0,))
    assert grid_verify(cfg).inner_tail == pytest.approx(
        sum(float(_q(d)) * math.sqrt(d) for d in cfg.D) * 2
        / math.sqrt(cfg.S), rel=1e-12)


def _q(d):
    from murmurations.multfns import Q
    return Q(d)


def test_truncated_profile_is_periodic():
    # grid_verify's premise: sum_{d in D} Q(d) sqrt(d) f(T/d) repeats
    # after period(D), so one period of gridpoints covers every T
    def profile(T, D, S):
        return sum(float(_q(d)) * math.sqrt(d) * f_polylog(T / d, S)[0]
                   for d in D)

    for D in ((2, 3), (1, 3, 5)):
        per = float(period(D))
        assert profile(1.3, D, 20000) == pytest.approx(
            profile(1.3 + per, D, 20000), abs=1e-9)


@pytest.mark.parametrize("D", [(1, 3, 5), DEFAULT_D])
def test_third_sign_change_scans_grid_verify_points(D, monkeypatch):
    # an odd lcm(D) makes the period a half-integer; both scans must then
    # cover the lcm(D) integer points of one full period of the grid
    cfg = SignCheckConfig(D=D, S=1000, offsets=(0.0,))
    rows = []

    def fake(x):
        rows.append(np.shape(x)[0])
        return np.zeros(np.shape(x))

    monkeypatch.setattr(signcheck, "f_interpolated", fake)
    third_sign_change_fraction(cfg)
    assert set(rows) == {grid_verify(cfg).grid}


def test_grid_verify_small_set_fails():
    # with D = {1} the discarded tail dwarfs the signal: no verdict passes
    cert = grid_verify(SignCheckConfig(D=(1,), S=5000, offsets=(0.0,)))
    assert not cert.passed
    assert cert.verdicts[0].worst_margin < 0


def test_grid_verify_caches_lattice():
    # tiny-D scan: margins identical when re-run (fixed summation order)
    cfg = SignCheckConfig(D=(2, 3, 5), S=5000, offsets=(0.0, 0.162))
    c1 = grid_verify(cfg)
    c2 = grid_verify(cfg)
    assert [v.worst_margin for v in c1.verdicts] == \
        [v.worst_margin for v in c2.verdicts]
    assert c1.grid == 15


def test_interpolated_f_close_to_direct():
    xs = np.array([0.07, 0.1234, 0.3, 0.45])
    approx = f_interpolated(xs)
    for x, a in zip(xs, approx):
        assert a == pytest.approx(f_polylog(float(x), 10 ** 6)[0], abs=2e-3)


def test_second_peak_probe_fields():
    rep = second_peak_probe(dmax=300)
    assert PROBE_INTERVAL[0] <= rep.argmax <= PROBE_INTERVAL[1]
    assert rep.error_bound > 0
    assert rep.certified_negative == (rep.max_value + rep.error_bound < 0)


def test_second_peak_probe_against_polylog_oracle():
    # the probe's maximum, re-evaluated at its argmax T from the definition:
    # sum over square-free d <= dmax of Q(d) sqrt(d) f(T/d), with exact Q and
    # f(x) = Re(e^{-3 pi i/4} Li_{3/2}(e^{4 pi i x})); the tolerance is the
    # one test_interpolated_f_close_to_direct gives f_interpolated
    rep = second_peak_probe(dmax=300)
    with mp.workdps(20):
        phase = mp.expjpi(mp.mpf(-3) / 4)
        total = mp.mpf(0)
        for d in range(1, rep.dmax + 1):
            q = _q(d)
            if q:
                f = mp.re(phase * mp.polylog(1.5, mp.expjpi(
                    4 * mp.mpf(rep.argmax) / d)))
                total += mp.mpf(q.numerator) / q.denominator * mp.sqrt(d) * f
    assert rep.max_value == pytest.approx(float(total), abs=2e-3)


# Bit-identity oracles: each copies an earlier, memory-hungrier formula and
# requires the current one to give the same bits.

@pytest.mark.parametrize("log2_size,S", [(4, 10), (4, 16), (4, 17),
                                         (10, 5000), (12, 3 * 4096),
                                         (12, 3 * 4096 + 1),
                                         (19, 3 * 2 ** 19 + 5)])
def test_streamed_fold_matches_add_at(log2_size, S):
    # (19, ...) splits the index range over workers in two _WEIGHT_BLOCKs
    # and ends on a partial block
    m = 1 << log2_size
    s = np.arange(1, S + 1, dtype=np.int64)
    coef = np.zeros(m, dtype=np.float64)
    np.add.at(coef, (s % m), s.astype(np.float64) ** -1.5)
    phase = complex(math.cos(-0.75 * math.pi), math.sin(-0.75 * math.pi))
    samples = np.real(phase * (np.fft.ifft(coef) * m))
    table, tail = _f_grid.__wrapped__(log2_size, S)
    assert table[:m].tobytes() == samples.tobytes()
    assert table[m] == table[0]
    assert tail == 2.0 / math.sqrt(S)


def test_f_polylog_matches_single_expression():
    for S in (1, 7, 5000, 10 ** 5):
        s = np.arange(1, S + 1, dtype=np.float64)
        for x in (0.0, 1 / 3, 0.162, 0.5, 0.777, 3.162, 1e-9):
            want = float(np.dot(np.cos(4.0 * math.pi * x * s
                                       - 0.75 * math.pi), _s_weights(S)))
            assert f_polylog(x, S)[0] == want


def test_f_interpolated_matches_fresh_table():
    # np.interp on the abscissae 0..M is the oracle; the edge points hit
    # nodes exactly, and x = -1e-20 is where np.mod rounds to 1/2 (pos = M)
    table, _ = _f_grid()
    m = table.size - 1
    samples = table[:m].copy()
    xs = np.concatenate([np.linspace(-3.0, 7.0, 20001),
                         np.arange(-8, 9) / 4, np.arange(64) / (2 * m),
                         [-1e-20, 1e-20, -0.0, np.nextafter(0.5, 0.0)]])
    pos = np.mod(xs, 0.5) * (2 * m)
    want = np.interp(pos, np.arange(m + 1, dtype=np.float64),
                     np.concatenate([samples, samples[:1]]))
    assert f_interpolated(xs).tobytes() == want.tobytes()
    with np.errstate(invalid="ignore"):     # np.mod(inf, 0.5) is NaN
        assert np.isnan(f_interpolated(np.array([np.nan, np.inf, -np.inf]))).all()


def _grid_verify_fraction_loop(cfg):
    """The scan keyed on exact Fractions (k + o)/d mod 1/2, one gridpoint
    at a time: (sign, worst margin, worst k, passed) per offset."""
    budget = max(error_budget(cfg.D, signcheck.qsqrt_sum_upper_bound()),
                 error_budget(cfg.D, signcheck.REFERENCE_QSQRT_BOUND))
    per = period(cfg.D)
    npts = int(per) if per.denominator == 1 else int(2 * per)
    weights = signcheck._weights_for(cfg.D)
    inner_tail = math.fsum(weights) * 2.0 / math.sqrt(cfg.S)
    out = []
    for o in cfg.offsets:
        ofr = Fraction(o).limit_denominator(10 ** 9)
        cache = {}
        sign, worst, worst_k, ok = 0, math.inf, 0, True
        for k in range(1, npts + 1):
            total = 0.0
            for d, wd in zip(cfg.D, weights):
                key = Fraction(k + ofr, d) % Fraction(1, 2)
                if key not in cache:
                    cache[key] = f_polylog(float(key), cfg.S)[0]
                total += wd * cache[key]
            if sign == 0:
                sign = 1 if total > 0 else -1
            margin = abs(total) - (budget + inner_tail + 1e-9)
            if margin < worst:
                worst, worst_k = margin, k
            if margin <= 0 or (total > 0) != (sign > 0):
                ok = False
        out.append((sign, worst, worst_k, ok))
    return out


def _assert_grid_verify_matches_fraction_loop(S):
    cfg = SignCheckConfig(D=(2, 3, 5, 7), S=S,
                          offsets=(0.0, 0.5, 0.162, 0.3))
    got = [(v.sign, v.worst_margin, v.worst_k, v.passed)
           for v in grid_verify(cfg).verdicts]
    assert got == _grid_verify_fraction_loop(cfg)


def test_grid_verify_matches_fraction_loop():
    _assert_grid_verify_matches_fraction_loop(5000)


def test_grid_verify_matches_fraction_loop_above_blas_threshold():
    # S above OpenBLAS's 10,000-element threading threshold: the worker
    # threads' dot products are themselves threaded, and run concurrently
    _assert_grid_verify_matches_fraction_loop(200_000)


def test_grid_verify_fails_non_finite_total(monkeypatch):
    # a non-finite value at one lattice point must fail the offset, not slip
    # through both the margin and the sign comparison: a NaN fails the
    # margin test by itself, -inf only through the finiteness check
    for value in (math.nan, math.inf, -math.inf):
        seen = []

        def fake(xs, w, value=value):
            seen.extend(xs)
            return [value if x == 0.25 else -100.0 for x in xs]

        monkeypatch.setattr(signcheck, "_f_values", fake)
        cfg = SignCheckConfig(D=(1, 2), S=5000, offsets=(0.0, 0.5))
        ok, bad = grid_verify(cfg).verdicts     # k = 1: x = 0 and x = 1/4
        assert 0.25 in seen
        assert ok.passed and not bad.passed, value


@pytest.mark.parametrize("S", [signcheck._WEIGHT_BLOCK - 1,
                               signcheck._WEIGHT_BLOCK + 1,
                               2 * signcheck._WEIGHT_BLOCK + 5])
def test_f_values_match_f_polylog_across_blocks(S):
    # the phase buffer is filled one _WEIGHT_BLOCK of s at a time
    xs = [0.0, 1 / 3, 0.162, 0.25, 0.4999, 1e-9]
    assert signcheck._f_values(xs, _s_weights(S)) == \
        [f_polylog(x, S)[0] for x in xs]


@pytest.mark.parametrize("S", [1, 2, 3, 7, 100_001])
def test_s_weights_match_single_expression(S):
    # the power taken in place has the bits of one power call
    want = np.arange(1, S + 1, dtype=np.float64) ** -1.5
    assert _s_weights(S).tobytes() == want.tobytes()


# Memory guards: the profile's temporaries scale with its output, not S,
# and the S-length weights live only as long as the call that built them.

def _traced_mb(fn):
    """(peak, kept): the MB traced at fn's peak and still held after it
    returns, each above what was held before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        current, peak = tracemalloc.get_traced_memory()
        return (peak - base) / 2 ** 20, (current - base) / 2 ** 20
    finally:
        tracemalloc.stop()


def test_f_grid_memory_independent_of_S():
    peak, _ = _traced_mb(lambda: _f_grid.__wrapped__(12, 2_000_000))
    assert peak < 1.0


def test_f_grid_one_complex_buffer():
    # the complex M-length fold/FFT buffer plus two block-length float
    # arrays: the shared base with one worker's temporary during the fold,
    # with the table (one block long at this M) after the FFT
    m = 1 << 18
    peak, _ = _traced_mb(lambda: _f_grid.__wrapped__(18, 3 * m + 5))
    block = min(m, signcheck._WEIGHT_BLOCK)
    assert peak < (16 * m + 2 * 8 * block) / 2 ** 20 + 1.0


def test_f_polylog_one_temporary():
    # its own weights and one phase temporary, and neither survives the call
    S = 10 ** 6
    peak, kept = _traced_mb(lambda: f_polylog(0.3, S))
    assert peak < (2 * 8 * S) / 2 ** 20 + 1.0
    assert kept < 1.0


def test_grid_verify_memory_and_threads():
    # the calling thread allocates the weights, one phase buffer per worker
    # (at most two with the CPUs held to two) and a block-length base; no
    # S-length array and no worker thread is left on return
    S = 500_000
    cfg = SignCheckConfig(D=(2, 3, 5, 7), S=S, offsets=(0.0, 0.162))
    signcheck._certified_budget(cfg.D)  # the Euler-product bound is cached
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(cpus)[:2])
    threads = threading.active_count()
    try:
        peak, kept = _traced_mb(lambda: grid_verify(cfg))
    finally:
        os.sched_setaffinity(0, cpus)
    assert peak <= (3 * 8 * S + 8 * signcheck._WEIGHT_BLOCK) / 2 ** 20 + 1.0
    assert abs(kept) <= 1.0
    assert threading.active_count() == threads
