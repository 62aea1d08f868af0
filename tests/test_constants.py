"""Euler-product constants: certified brackets, cross-identities, and the
partial-sum behavior of the Q-weighted series."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from murmurations import constants, density
from murmurations.arith import primes_upto
from murmurations.constants import (_KINDS, ZETA2, ZETA_3_2, euler_constant,
                                    euler_product, q_table, q_weighted_sums,
                                    qsqrt_product, qsqrt_sum_upper_bound,
                                    shared_primes)
from murmurations.multfns import Q

KINDS = ("alpha", "beta", "gamma", "A", "B", "dimC", "Delta")


@pytest.mark.parametrize("pmax", [2, 3, 10, 1000, 10 ** 4, 54321, 123457,
                                  999983, 10 ** 6, 3 * 10 ** 6])
def test_euler_constant_matches_per_prime_generator(pmax):
    """The float64 blocks give the same bits as the exact oracle: calling
    f(int(p)) on each prime, a correctly rounded quotient of Python ints,
    and summing the log1p terms in one fsum.  At pmax = 10^6 this pins
    euler_constant's alpha, beta and gamma literals too."""
    for kind in KINDS:
        scale, f, _ = _KINDS[kind]
        logs = math.fsum(math.log1p(f(int(p))) for p in primes_upto(pmax))
        value = scale * math.exp(logs)
        if kind == "Delta":
            value /= ZETA2
        assert euler_constant(kind, pmax).value == value, kind
        assert euler_product(kind, pmax).value == value, kind


@pytest.mark.parametrize("kind", KINDS)
def test_euler_constant_memory_stays_at_sieve_peak(kind):
    """At pmax = 1e6 the product's blocks peak at most 0.1 MB above the
    sieve alone; a list of all the factors or their logs would add about
    3 MB."""
    tracemalloc.start()
    primes_upto(10 ** 6)
    sieve_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    shared_primes.cache_clear()
    tracemalloc.start()
    euler_product(kind, 10 ** 6)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= sieve_peak + 100_000


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


def _q_table_per_prime(T):
    """q_table as one slice multiply per prime, in increasing order."""
    q = np.ones(T + 1)
    q[0] = 0.0
    for p in primes_upto(T):
        p = int(p)
        q[p::p] *= p * p / (p ** 4 - 2 * p * p - p + 1)
        p2 = p * p
        if p2 <= T:
            q[p2::p2] = 0.0
    return q


@pytest.mark.parametrize("T", [0, 1, 2, 3, 4, 10, 100, 500, 1000, 9973,
                               10 ** 5, 10 ** 6])
def test_q_table_matches_per_prime_loop(T):
    assert q_table(T).tobytes() == _q_table_per_prime(T).tobytes()


@pytest.mark.parametrize("T", [0, 1, 60, 8191, 8193, 10 ** 5 + 7, 10 ** 6])
def test_q_weighted_sums_match_full_length_expressions(T):
    # the earlier full-length expressions are the oracle, bit for bit
    q = q_table(T)
    d = np.arange(T + 1, dtype=np.float64)
    d[0] = 1.0
    want = (float(q.sum()), float((q / d).sum()))
    assert [v.hex() for v in q_weighted_sums(T)] == [v.hex() for v in want]


def test_q_weighted_sums_holds_one_array():
    # one (T + 1)-length array: q, divided by d in place a block at a time
    T = 10 ** 6
    shared_primes.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        q_weighted_sums(T)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (T + 1) + 2 * 2 ** 20


def test_q_table_sieves_before_it_allocates():
    # the primes are sieved before q exists, so the peak is q, the primes
    # and the block temporaries; with q first the sieve's ~1.1 MB of flags
    # and copies would sit on top of it
    T = 10 ** 6
    primes = primes_upto(T).nbytes
    shared_primes.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        q_table(T)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (T + 1) + primes + 2 ** 19


def test_verify_constants_sieves_its_primes_once(monkeypatch, capsys):
    # the seven Euler products, the Q sums and the partial product read one
    # sieve through shared_primes' cache, which keeps one prime array
    from murmurations import cli
    sieves = []

    def counted(n):
        sieves.append(n)
        return primes_upto(n)
    monkeypatch.setattr(constants, "primes_upto", counted)
    euler_constant.cache_clear()
    shared_primes.cache_clear()
    assert cli.main(["verify-constants"]) == 0
    assert sieves == [10 ** 6]
    shared_primes(10 ** 6)
    assert sieves == [10 ** 6]
    euler_constant("alpha", 1000)
    euler_constant("beta", 1000)
    assert sieves == [10 ** 6, 1000]


@pytest.mark.parametrize("read", [
    lambda: density.murmuration_density(density.DensityConfig(k=2), 0.5),
    lambda: density.murmuration_density_bessel(density.DensityConfig(k=4),
                                               0.5),
    density.dyadic_closed_form_constants,
], ids=["chebyshev", "bessel", "dyadic-constants"])
def test_density_sieves_its_primes_once(monkeypatch, read):
    # at the default pmax alpha, beta and gamma are literals: no sieve
    sieves = []

    def counted(n):
        sieves.append(n)
        return primes_upto(n)
    monkeypatch.setattr(constants, "primes_upto", counted)
    euler_constant.cache_clear()
    shared_primes.cache_clear()
    read()
    read()
    assert sieves == []


def test_density_off_the_default_pmax_sieves_once(monkeypatch):
    # alpha, beta and gamma at another pmax read one sieve through
    # shared_primes' cache; once they are cached a call sieves nothing
    sieves = []

    def counted(n):
        sieves.append(n)
        return primes_upto(n)
    monkeypatch.setattr(constants, "primes_upto", counted)
    euler_constant.cache_clear()
    shared_primes.cache_clear()
    cfg = density.DensityConfig(k=2, pmax=1000)
    density.murmuration_density(cfg, 0.5)
    assert sieves == [1000]
    density.murmuration_density(cfg, 0.5)
    assert sieves == [1000]


def test_second_peak_probe_builds_its_grid_beside_the_small_primes(
        monkeypatch):
    # the probe reads the 10^7 bound before q_table(dmax), so while the FFT
    # grid is built the cache holds the dmax primes, not the 5.3 MB array
    # to 10^7; the cache keeps the array of the last sieve
    from murmurations import signcheck
    sieves, at_grid = [], []

    def counted(n):
        sieves.append(n)
        return primes_upto(n)
    f_grid = signcheck._f_grid

    def grid():
        at_grid.append(sieves[-1])
        return f_grid()
    monkeypatch.setattr(constants, "primes_upto", counted)
    monkeypatch.setattr(signcheck, "_f_grid", grid)
    qsqrt_sum_upper_bound.cache_clear()
    shared_primes.cache_clear()
    signcheck.second_peak_probe(dmax=500)
    assert sieves == [10 ** 7, 500]
    assert set(at_grid) == {500}
    shared_primes(500)
    assert sieves == [10 ** 7, 500]


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
    qsum, qdsum = q_weighted_sums(10 ** 6)
    assert abs(qsum - beta.value / alpha.value) < 1e-5
    assert abs(alpha.value / gamma.value * qdsum - 1.0 / math.pi) < 1e-5


def test_qsqrt_upper_bound_dominates_partials():
    bound = qsqrt_sum_upper_bound(10 ** 5)
    for T in (10 ** 3, 10 ** 5):
        q = q_table(T)
        assert float((q * np.sqrt(np.arange(T + 1))).sum()) < bound
    # and the bound tightens with more primes
    assert qsqrt_sum_upper_bound(10 ** 6) <= bound
    assert qsqrt_product(10 ** 6) == pytest.approx(3.0907, abs=1e-3)


def test_qsqrt_upper_bound_computed_once(monkeypatch):
    calls = []
    real = constants.qsqrt_product
    monkeypatch.setattr(constants, "qsqrt_product",
                        lambda pmax: calls.append(pmax) or real(pmax))
    qsqrt_sum_upper_bound.cache_clear()
    first = qsqrt_sum_upper_bound()
    assert qsqrt_sum_upper_bound() == first
    assert calls == [10 ** 7]


def test_bad_inputs():
    with pytest.raises(ValueError):
        euler_constant("nope")
    with pytest.raises(ValueError):
        euler_constant("alpha", 1)
    with pytest.raises(ValueError):
        qsqrt_sum_upper_bound(50)
