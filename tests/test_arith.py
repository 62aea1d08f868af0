"""Arithmetic kernel against independent oracles (sympy, brute force)."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from murmurations import arith
from murmurations.arith import (build_sieve, is_prime, kronecker,
                                primes_upto, shared_sieve,
                                squarefree_in_class_count, sum_mu2_phi)

SIEVE = build_sieve(100000)


# -- kronecker --------------------------------------------------------------

@given(st.integers(-300, 300), st.integers(-300, 300))
def test_kronecker_matches_sympy(a, n):
    # sympy's kronecker_symbol handles the full extension
    from sympy.functions.combinatorial.numbers import kronecker_symbol
    assert kronecker(a, n) == kronecker_symbol(a, n)


def test_kronecker_euler_criterion():
    for p in (3, 5, 7, 11, 13, 101, 997):
        for a in range(1, p):
            expect = pow(a, (p - 1) // 2, p)
            expect = -1 if expect == p - 1 else expect
            assert kronecker(a, p) == expect


@given(st.integers(-200, 200), st.integers(-200, 200),
       st.integers(1, 200))
def test_kronecker_multiplicative_in_top(a, b, n):
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


# -- primality & sieve ------------------------------------------------------

@given(st.integers(0, 10 ** 6))
def test_is_prime_matches_sympy_small(n):
    assert is_prime(n) == sympy.isprime(n)


@given(st.integers(10 ** 12, 10 ** 13))
@settings(max_examples=25)
def test_is_prime_matches_sympy_large(n):
    assert is_prime(n) == sympy.isprime(n)


def _spf_oracle(n):
    return next((p for p in range(2, math.isqrt(n) + 1) if n % p == 0), n)


def test_build_sieve_matches_trial_division():
    for L in (2, 3, 4, 10, 1000, 65537):
        spf = build_sieve(L).spf
        assert spf.typecode == "i" and spf.itemsize == 4
        assert len(spf) == L + 1
        assert spf[0] == 0 and spf[1] == 1
        assert all(spf[n] == _spf_oracle(n) for n in range(2, L + 1)), L


@pytest.mark.parametrize("limit", [2, 3, 100, 200_000, 200_001])
def test_sieve_primes_match_spf_fixed_points(limit):
    # the earlier route: the n >= 2 with spf[n] == n
    sieve = build_sieve(limit)
    spf = np.frombuffer(sieve.spf, dtype=np.int32)
    want = np.flatnonzero(spf == np.arange(limit + 1))[2:].tolist()
    assert sieve.primes() == want


def test_sieve_is_prime_matches_miller_rabin(monkeypatch):
    # within the range one spf read answers, past it Miller-Rabin does
    sieve = build_sieve(1000)
    want = [is_prime(n) for n in range(-5, 1300)]
    calls = []
    monkeypatch.setattr(arith, "is_prime",
                        lambda n: calls.append(n) or is_prime(n))
    assert [sieve.is_prime(n) for n in range(-5, 1300)] == want
    assert calls == list(range(1001, 1300))


def test_build_sieve_holds_one_table():
    # the 32-bit table is the only full-length array; a 64-bit table, or
    # a twin that is then copied into it, would double the peak
    limit = 10 ** 6
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build_sieve(limit)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (limit + 1) + 2 ** 20


def test_build_sieve_refuses_a_limit_past_32_bits(monkeypatch):
    # refused before the table exists: at 2^31 it would be 8 GiB
    def no_table(*args):
        raise AssertionError("the sieve table was allocated")

    monkeypatch.setattr(arith, "array", no_table)
    assert arith.SIEVE_LIMIT_MAX == 2 ** 31 - 1
    with pytest.raises(ValueError, match="SIEVE_LIMIT_MAX = 2147483647"):
        build_sieve(2 ** 31)


def _assert_primes_upto(n):
    got = primes_upto(n)
    assert got.dtype == np.int64, n
    assert got.tolist() == list(sympy.primerange(n + 1)), n


def test_primes_upto_matches_sympy():
    # every n up to 200, then the edges of the odd-only sieve's crossing-off
    # start p*p, then a bulk count
    for n in range(201):
        _assert_primes_upto(n)
    for p in (3, 5, 7, 11, 31, 97, 997):
        for n in (p * p - 1, p * p, p * p + 1):
            _assert_primes_upto(n)
    _assert_primes_upto(10 ** 6)
    assert primes_upto(10 ** 6).size == 78498


@given(st.integers(100_001, 10 ** 13))
@settings(max_examples=50)
def test_factor_beyond_limit_matches_sympy(n):
    # trial division by the sieve's primes, then Miller-Rabin / Pollard rho
    assert SIEVE.factor(n) == sorted(sympy.factorint(n).items())


@given(st.integers(2, 99999))
def test_factor_reconstructs(n):
    prod = 1
    for p, e in SIEVE.factor(n):
        assert is_prime(p)
        prod *= p ** e
    assert prod == n


@given(st.integers(1, 99999))
def test_phi_matches_sympy(n):
    assert SIEVE.euler_phi(n) == sympy.totient(n)


@given(st.integers(1, 99999))
def test_squarefree_flag_consistent(n):
    assert SIEVE.is_squarefree(n) == (sympy.mobius(n) != 0)


# -- square-free counting sums ----------------------------------------------

def test_sum_mu2_phi_bruteforce():
    for Z in (1, 10, 137, 2000):
        brute = sum(SIEVE.euler_phi(n) for n in range(1, Z + 1)
                    if SIEVE.is_squarefree(n))
        assert sum_mu2_phi(Z) == brute


@given(st.integers(2, 40), st.integers(100, 3000))
@settings(max_examples=30)
def test_squarefree_in_class_bruteforce(m, X):
    Y = X // 2
    for a in range(m):
        if math.gcd(a, m) != 1:
            continue
        brute = sum(1 for n in range(X, X + Y + 1)
                    if n % m == a and SIEVE.is_squarefree(n))
        assert squarefree_in_class_count(X, Y, a, m) == brute
        break


def test_squarefree_in_class_requires_coprime():
    with pytest.raises(ValueError):
        squarefree_in_class_count(100, 50, 2, 4)


@pytest.mark.parametrize("X, Y", [(0, 1), (-5, 10), (10, -1)])
def test_squarefree_in_class_checks_its_window(X, Y):
    # a window holding 0, or an inverted one, is named, not left to factor()
    with pytest.raises(ValueError, match=rf"X >= 1 and Y >= 0, "
                                         rf"got X = {X}, Y = {Y}$"):
        squarefree_in_class_count(X, Y, 0, 1)


# -- sieve ownership ----------------------------------------------------------

def test_shared_sieve_is_fixed():
    """One cached sieve of 2..200 000: a range count past it builds its own
    sieve and leaves the shared one as it was."""
    first = shared_sieve()
    assert first.limit == 200_000 and shared_sieve() is first
    assert sum_mu2_phi(200_001) > 0
    assert squarefree_in_class_count(200_000, 10, 1, 3) > 0
    assert shared_sieve() is first and first.limit == 200_000


def test_only_arith_builds_or_takes_a_sieve():
    """The factor sieve is arith's business: elsewhere in the package no
    code calls build_sieve and no function declares a `sieve` parameter."""
    src = Path(arith.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "arith.py":
            continue
        text = path.read_text()
        if "build_sieve(" in text:
            offenders.append(f"{path.name}: calls build_sieve")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                names = [x.arg for x in (*a.posonlyargs, *a.args,
                                         *a.kwonlyargs)]
                if "sieve" in names:
                    offenders.append(f"{path.name}:{node.lineno}: takes "
                                     "a sieve parameter")
    assert not offenders, offenders
