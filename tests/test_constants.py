"""Euler-product constants: certified brackets, cross-identities, and the
partial-sum behavior of the Q-weighted series."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from murmurations.arith import primes_upto
from murmurations.constants import (_KINDS, ZETA2, ZETA_3_2, euler_constant,
                                    q_table, q_weighted_sums, qsqrt_product,
                                    qsqrt_sum_upper_bound)
from murmurations.multfns import Q

KINDS = ("alpha", "beta", "gamma", "A", "B", "dimC", "Delta")


@pytest.mark.parametrize("pmax", [10 ** 4, 10 ** 6])
def test_euler_constant_matches_per_prime_generator(pmax):
    """Summing over the Python ints a memoryview yields gives the same bits
    as calling f(int(p)) on each numpy prime."""
    for kind in KINDS:
        scale, f, _ = _KINDS[kind]
        logs = math.fsum(math.log1p(f(int(p))) for p in primes_upto(pmax))
        value = scale * math.exp(logs)
        if kind == "Delta":
            value /= ZETA2
        assert euler_constant(kind, pmax).value == value, kind


def test_zeta_against_mpmath():
    mp.mp.dps = 25
    assert ZETA2 == pytest.approx(float(mp.zeta(2)), abs=1e-12)


def test_zeta_3_2_against_mpmath():
    mp.mp.dps = 25
    assert abs(ZETA_3_2 - float(mp.zeta(1.5))) <= 1e-12


def test_zeta_3_2_literal_matches_partial_sum_formula():
    """The literal is bit for bit the value the sign check computed before:
    the fsum of n^(-3/2) to S = 10^6 plus its Euler-Maclaurin tail."""
    S = 10 ** 6
    partial = math.fsum(k ** -1.5 for k in range(S, 0, -1))
    tail = 2.0 / math.sqrt(S) - 0.5 * S ** -1.5 + 0.125 * S ** -2.5
    assert ZETA_3_2 == partial + tail


@pytest.mark.parametrize("kind", KINDS)
def test_tail_brackets_refinements(kind):
    coarse = euler_constant(kind, 10 ** 3)
    fine = euler_constant(kind, 10 ** 5)
    assert coarse.tail_bound > fine.tail_bound >= 0
    assert abs(coarse.value - fine.value) <= coarse.tail_bound


@given(st.sampled_from(KINDS), st.integers(100, 5000),
       st.integers(100, 5000))
@settings(max_examples=40, deadline=None)
def test_tail_monotone_in_pmax(kind, p1, p2):
    lo, hi = sorted((p1, p2))
    assert euler_constant(kind, hi).tail_bound <= \
        euler_constant(kind, lo).tail_bound + 1e-18


def test_primes_upto_matches_sieve():
    assert list(primes_upto(100)) == [p for p in range(2, 101)
                                      if all(p % q for q in range(2, p))]


def test_q_table_matches_exact():
    t = q_table(300)
    for d in range(1, 301):
        assert t[d] == pytest.approx(float(Q(d)), rel=1e-14)


def test_qcount_routes_agree():
    exact = sum(Q(d) for d in range(1, 61))
    assert q_weighted_sums(60)[0] == pytest.approx(float(exact), rel=1e-13)


def test_gamma_is_twelve_over_dimC():
    # 1 + 1/(p^2 + p - 1) is exactly 1/(1 - 1/(p^2 + p)), factor by factor
    gamma = euler_constant("gamma").value
    assert abs(gamma * euler_constant("dimC").value - 12.0) <= 1e-12


def test_gamma_against_windowed_exact_sum():
    # gamma is the limit of 12 sum N / sum phi(N) over square-free N in a
    # window [X, 2X]; exact integer sums at X = 1e6 (17.034748)
    X = 10 ** 6
    n = np.arange(2 * X + 1, dtype=np.int64)
    phi = n.copy()
    squarefree = np.ones(2 * X + 1, dtype=bool)
    for p in primes_upto(2 * X).tolist():
        phi[p::p] -= phi[p::p] // p
        squarefree[p * p::p * p] = False
    keep = squarefree[X:]
    windowed = 12 * int(n[X:][keep].sum()) / int(phi[X:][keep].sum())
    assert abs(euler_constant("gamma").value - windowed) <= 2e-4


def test_q_sum_identities():
    # certified identities behind the Bessel-form tail collapse
    alpha = euler_constant("alpha")
    beta = euler_constant("beta")
    gamma = euler_constant("gamma")
    qsum, qdsum, _ = q_weighted_sums(10 ** 6)
    assert abs(qsum - beta.value / alpha.value) < 1e-5
    assert abs(alpha.value / gamma.value * qdsum - 1.0 / math.pi) < 1e-5


def test_qsqrt_upper_bound_dominates_partials():
    bound = qsqrt_sum_upper_bound(10 ** 5)
    for T in (10 ** 3, 10 ** 5):
        assert q_weighted_sums(T)[2] < bound
    # and the bound tightens with more primes
    assert qsqrt_sum_upper_bound(10 ** 6) <= bound
    assert qsqrt_product(10 ** 6) == pytest.approx(3.0907, abs=1e-3)


def test_bad_inputs():
    with pytest.raises(ValueError):
        euler_constant("nope")
    with pytest.raises(ValueError):
        euler_constant("alpha", 1)
    with pytest.raises(ValueError):
        qsqrt_sum_upper_bound(50)
