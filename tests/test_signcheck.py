"""Sign certification: the inner profile against a high-precision oracle,
periodicity, budgets, and the grid/probe machinery at reduced cutoffs."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from murmurations.signcheck import (DEFAULT_D, M_D, SignCheckConfig,
                                    error_budget, f_interpolated, f_polylog,
                                    grid_verify, m_max_bounds, period,
                                    second_peak_probe)


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


def test_M_D_accumulates_tails():
    cfg = SignCheckConfig(S=10000)
    val, tail = M_D(1.0, cfg)
    direct = sum(float(_q(d)) * math.sqrt(d) * f_polylog(1.0 / d, cfg.S)[0]
                 for d in cfg.D)
    assert val == pytest.approx(direct, abs=1e-12)
    assert tail == pytest.approx(
        sum(float(_q(d)) * math.sqrt(d) for d in cfg.D) * 2
        / math.sqrt(cfg.S), rel=1e-12)


def _q(d):
    from murmurations.multfns import Q
    return Q(d)


def test_M_D_is_periodic():
    cfg = SignCheckConfig(D=(2, 3), S=20000)
    per = float(period(cfg.D))
    a, _ = M_D(1.3, cfg)
    b, _ = M_D(1.3 + per, cfg)
    assert a == pytest.approx(b, abs=1e-9)


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
    rep = second_peak_probe(interval=(15014.5, 15015.0), dmax=300,
                            scan_points=201)
    assert rep.interval == (15014.5, 15015.0)
    assert rep.error_bound > 0
    assert rep.scan_points == 201
    assert rep.certified_negative == (rep.max_value + rep.error_bound < 0)


def test_second_peak_probe_against_polylog_oracle():
    # the probe's maximum, re-evaluated at its argmax T from the definition:
    # sum over square-free d <= dmax of Q(d) sqrt(d) f(T/d), with exact Q and
    # f(x) = Re(e^{-3 pi i/4} Li_{3/2}(e^{4 pi i x})); the tolerance is the
    # one test_interpolated_f_close_to_direct gives f_interpolated
    rep = second_peak_probe(dmax=300, scan_points=201)
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
