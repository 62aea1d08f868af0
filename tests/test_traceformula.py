"""Trace values: exact rationality, table-vs-direct agreement, and the
averaging pipelines."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from murmurations import classnumbers
from murmurations.arith import build_sieve, is_prime
from murmurations.classnumbers import (HurwitzTable, fundamental_decomposition,
                                       hurwitz_H1, hurwitz_sieve)
from murmurations.density import DensityConfig, murmuration_density
from murmurations.density import chebyshev_U
from murmurations.traceformula import (TraceParams, _average_over, _hurwitz,
                                       dimension_main, dyadic_average,
                                       interval_average, trace_TpWN,
                                       window_density)

SIEVE = build_sieve(20000)


def _params(N, P, k):
    return TraceParams(N=N, P=P, k=k)


def test_params_validation():
    with pytest.raises(ValueError):
        _params(6, 5, 3)          # odd weight
    with pytest.raises(ValueError):
        _params(6, 9, 2)          # composite P
    with pytest.raises(ValueError):
        _params(6, 200_001, 2)    # composite P past the shared sieve
    assert _params(6, 200_003, 2).P == 200_003
    with pytest.raises(ValueError):
        _params(10, 5, 2)         # P | N
    with pytest.raises(ValueError):
        _params(0, 5, 2)
    with pytest.raises(ValueError):
        trace_TpWN(_params(12, 5, 2))  # N not square-free


@given(st.integers(1, 2000), st.integers(2, 90))
@settings(max_examples=120, deadline=None)
def test_k2_trace_is_integer(N, pidx):
    P = pidx
    while not is_prime(P) or P == 2:
        P += 1
    if N % P == 0 or not SIEVE.is_squarefree(N):
        return
    t = trace_TpWN(_params(N, P, 2))
    assert isinstance(t, Fraction)
    assert t.denominator == 1


def test_hurwitz_read_matches_form_counting():
    # The certified H_1(-Nm) is the form count, the 2-adic case of even N
    # and odd r included.
    for N in range(1, 201):
        if not SIEVE.is_squarefree(N):
            continue
        for P in (3, 5, 7, 97):
            if N % P == 0:
                continue
            r = 0
            while r * r * N < 4 * P:
                m = 4 * P - r * r * N
                assert _hurwitz(N, m, None) == \
                    hurwitz_H1(N * m), (N, P, r)
                r += 1


def test_table_route_matches_direct():
    table = hurwitz_sieve(3, 4 * 97 * 30 + 10)
    for N in (1, 2, 3, 5, 6, 7, 11, 13, 15, 21, 26, 29, 30):
        for P in (5, 7, 97):
            if N % P == 0:
                continue
            for k in (2, 4, 6):
                with_table = trace_TpWN(_params(N, P, k), table=table)
                direct = trace_TpWN(_params(N, P, k))
                assert with_table == direct, (N, P, k)


def test_corrupted_table_is_caught():
    # The table route caches nothing, so every trace reads the corrupted
    # entries even after the direct route has computed the same values.
    table = hurwitz_sieve(3, 4 * 97 * 30 + 10)
    bad = HurwitzTable(table.dmin, table.dmax, table.six + 42)
    for N, P in ((1, 5), (13, 7), (30, 97)):
        direct = trace_TpWN(_params(N, P, 2))
        assert trace_TpWN(_params(N, P, 2), table=table) == direct
        assert trace_TpWN(_params(N, P, 2), table=bad) != direct


@pytest.mark.parametrize("dmin,dmax", [(3, 50), (100, 3000)])
def test_partial_table_matches_direct(dmin, dmax):
    # a table serves each d it covers; every other d is computed
    table = hurwitz_sieve(dmin, dmax)
    for N in (1, 2, 3, 5, 6, 7, 11, 13, 15, 21, 26, 29, 30, 101, 390):
        for P in (5, 7, 97, 101):
            if N % P == 0:
                continue
            for k in (2, 4, 6):
                assert trace_TpWN(_params(N, P, k), table=table) == \
                    trace_TpWN(_params(N, P, k)), (N, P, k, dmin, dmax)


def test_corrupted_partial_table_read_only_in_range():
    # +42 on 6 H_1 adds 7 to every H_1 read from the bad table
    table = hurwitz_sieve(100, 3000)
    bad = HurwitzTable(table.dmin, table.dmax, table.six + 42)
    # N = 1, P = 5 reads d = 20 - r^2, all below the table
    assert trace_TpWN(_params(1, 5, 2), table=bad) == \
        trace_TpWN(_params(1, 5, 2))
    # N = 13, P = 97 reads d = 13 (388 - 13 r^2) = 5044, 4875, 4368, 3523
    # above the table, then r-terms 2340 and 819 inside it
    assert trace_TpWN(_params(13, 97, 2), table=bad) - \
        trace_TpWN(_params(13, 97, 2)) == 14


def test_one_certified_class_number_per_fundamental_discriminant(
        monkeypatch):
    # PN = 1499 * 3001 = 3 mod 4 and 4PN > 1e6: H_1(-4PN) = h(-4PN) + h(-PN)
    # at r = 0 shares d0 = -PN, and costs one certified evaluation.
    N, P = 3001, 1499
    calls = []
    real = classnumbers.gauss_h_certified
    monkeypatch.setattr(classnumbers, "gauss_h_certified",
                        lambda q, factors: calls.append(q) or real(q, factors))
    classnumbers.hurwitz_H1_certified.cache_clear()
    trace_TpWN(_params(N, P, 2))
    ds = [N * (4 * P - r * r * N) for r in range(math.isqrt(4 * P // N) + 1)]
    d0s = {fundamental_decomposition(d)[0] for d in ds if d % 4 in (0, 3)}
    assert (P * N) % 4 == 3 and -P * N in d0s
    assert sorted(calls) == sorted(-d0 for d0 in d0s)


def _two_accumulator_trace(N, P, k, table):
    """trace_TpWN with separate exact (k = 2) and float (k > 2) sums."""
    exact = _hurwitz(N, 4 * P, table) / 2
    if k == 2:
        exact -= P
    sign = -1 if k % 4 == 0 else 1
    rmax = math.isqrt(4 * P // N) if N <= 4 * P else 0
    osc_exact, osc_float = Fraction(0), 0.0
    for r in range(1, rmax + 1):
        m = 4 * P - r * r * N
        if m <= 0:
            continue
        inner = _hurwitz(N, m, table)
        if k == 2:
            osc_exact += inner
        else:
            u = chebyshev_U(k - 2, r * math.sqrt(N) / (2.0 * math.sqrt(P)))
            osc_float += u * float(inner)
    if k == 2:
        return exact + sign * osc_exact
    return float(exact) + sign * osc_float


def _two_accumulator_average(levels, P, k, table):
    num_exact, num_float, den = Fraction(0), 0.0, Fraction(0)
    for N in levels:
        t = _two_accumulator_trace(N, P, k, table)
        if k == 2:
            num_exact += t
        else:
            num_float += t
        den += dimension_main(N, k)
    return (float(num_exact) if k == 2 else num_float), float(den)


@pytest.mark.parametrize("table", [None, hurwitz_sieve(3, 4 * 101 * 600)])
def test_one_accumulator_is_bit_identical(table):
    # N = 500 > 4P = 404 has no r-term at P = 101
    levels = [N for N in range(1, 600) if SIEVE.is_squarefree(N)]
    for P in (5, 101):
        for k in (2, 4, 6):
            for N in levels:
                if N % P == 0:
                    continue
                got = trace_TpWN(_params(N, P, k), table)
                want = _two_accumulator_trace(N, P, k, table)
                assert (repr(got), type(got)) == \
                    (repr(want), type(want)), (N, P, k)
            admitted = [N for N in levels if N % P and N >= 300]
            got = _average_over(admitted, P, k, table)
            want = _two_accumulator_average(admitted, P, k, table)
            assert repr(got) == repr(want), (P, k)
            assert [type(x) for x in got] == [float, float], (P, k)


def test_dimension_main():
    assert dimension_main(1, 2) == Fraction(1, 12)
    assert dimension_main(11, 2) == Fraction(10, 12)
    assert dimension_main(35, 4) == Fraction(3 * 24, 12)
    with pytest.raises(ValueError):
        dimension_main(1, 3)


def test_interval_average_assembly():
    # numerator/denominator are plain sums over the admitted levels
    X, Y, P, k = 100, 30, 11, 2
    rep = interval_average(X, Y, P, k)
    levels = [N for N in range(X, X + Y + 1)
              if N % P and SIEVE.is_squarefree(N)]
    num = sum(trace_TpWN(_params(N, P, k)) for N in levels)
    den = sum(dimension_main(N, k) for N in levels)
    assert rep.levels == len(levels)
    assert rep.numerator == pytest.approx(float(num), rel=1e-12)
    assert rep.denominator == pytest.approx(float(den), rel=1e-12)
    assert rep.average == pytest.approx(float(num) / float(den), rel=1e-12)
    assert rep.predicted == pytest.approx(
        murmuration_density(DensityConfig(k=k), P / X), rel=1e-12)
    assert rep.residual == pytest.approx(rep.average - rep.predicted)


@pytest.mark.parametrize("k, P, X, Y", [(2, 101, 500, 50),
                                         (4, 1999, 3000, 300),
                                         (6, 19997, 10000, 1000)])
def test_window_density_matches_per_level_loop(k, P, X, Y):
    """One M_k call on every level's P/N, accumulated as the per-level
    loop it replaced did: equal to the last bit."""
    cfg = DensityConfig(k=k)
    num = den = 0.0
    for N in range(X, X + Y + 1):
        if N % P and SIEVE.is_squarefree(N):
            w = float(SIEVE.euler_phi(N))
            num += w * murmuration_density(cfg, P / N)
            den += w
    assert window_density(cfg, P, X, Y) == num / den


def test_window_density_empty_window_is_nan():
    # [7, 7] holds no level coprime to P = 7; the trace average is NaN too
    assert math.isnan(window_density(DensityConfig(k=2), 7, 7, 0))
    assert math.isnan(interval_average(7, 0, 7, 2).average)


def test_dyadic_average_window():
    rep = dyadic_average(50, 2.0, 101, 2)
    levels = [N for N in range(50, 101)
              if N % 101 and SIEVE.is_squarefree(N)]
    assert rep.levels == len(levels)
    assert rep.kind == "dyadic"


def test_interval_average_requires_Y_below_X():
    with pytest.raises(ValueError):
        interval_average(100, 100, 11, 2)
    with pytest.raises(ValueError):
        dyadic_average(100, 1.0, 11, 2)
    with pytest.raises(ValueError, match="finite"):
        dyadic_average(10, 1e308, 7, 2)
