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
from murmurations.traceformula import (TraceParams, _hurwitz, dimension_main,
                                       dyadic_average, interval_average,
                                       trace_TpWN)

SIEVE = build_sieve(20000)


def _params(N, P, k):
    return TraceParams(N=N, P=P, k=k)


def test_params_validation():
    with pytest.raises(ValueError):
        _params(6, 5, 3)          # odd weight
    with pytest.raises(ValueError):
        _params(6, 9, 2)          # composite P
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


def test_table_out_of_range_raises():
    table = hurwitz_sieve(3, 50)
    with pytest.raises(LookupError):
        trace_TpWN(_params(1, 101, 2), table=table)


def test_one_certified_class_number_per_fundamental_discriminant(
        monkeypatch):
    # PN = 1499 * 3001 = 3 mod 4 and 4PN > 1e6: H_1(-4PN) = h(-4PN) + h(-PN)
    # at r = 0 shares d0 = -PN, and costs one certified evaluation.
    N, P = 3001, 1499
    calls = []
    real = classnumbers.gauss_h_certified
    monkeypatch.setattr(classnumbers, "gauss_h_certified",
                        lambda q: calls.append(q) or real(q))
    classnumbers.hurwitz_H1_certified.cache_clear()
    trace_TpWN(_params(N, P, 2))
    ds = [N * (4 * P - r * r * N) for r in range(math.isqrt(4 * P // N) + 1)]
    d0s = {fundamental_decomposition(d)[0] for d in ds if d % 4 in (0, 3)}
    assert (P * N) % 4 == 3 and -P * N in d0s
    assert sorted(calls) == sorted(-d0 for d0 in d0s)


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
