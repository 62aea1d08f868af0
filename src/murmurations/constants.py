"""Euler-product constants with certified truncation tails.

Every constant is a product over primes of 1 + f(p) with |f(p)| <= c/p^2
for an explicit per-kind c, times a leading scalar.  Truncating at pmax
leaves |log of the tail| <= sum_{n > pmax} 2c/n^2 <= 2c/pmax, which is
surfaced as an absolute bound on the reported value.  The factors are
evaluated in float64 on blocks of primes and their log1p terms summed
with one compensated sum; see euler_product for why that gives the bits
of the exact per-prime factors.  alpha, beta and gamma at the default
pmax = 10^6, which every process that evaluates M_k reads, are stored as
float literals of those bits; test_euler_constant_matches_per_prime_generator
recomputes them from the per-prime factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import chain

import numpy as np

from .arith import primes_upto


@dataclass(frozen=True)
class EulerProductValue:
    """A truncated Euler product: value, prime cutoff, and a certified
    absolute bound on the truncation error."""

    value: float
    pmax: int
    tail_bound: float


# kind -> (leading scalar, factor f(p), certified c with |f(p)| <= c/p^2)
def _f_alpha(p: int) -> float:
    return (1 - 2 * p) / (p ** 4 - 2 * p * p + p)


def _f_beta(p: int) -> float:
    return (p - 1) / (p ** 3 + p * p - p)


def _f_gamma(p: int) -> float:
    return 1 / (p * p + p - 1)


def _f_A(p: int) -> float:
    return p / ((p + 1) ** 2 * (p - 1))


def _f_B(p: int) -> float:
    return -p / ((p * p - 1) ** 2)


def _f_dimC(p: int) -> float:
    return -1 / (p * p + p)


def _f_Delta(p: int) -> float:
    return (2 * p - 1) / (p ** 4 - 2 * p * p - p + 1)


_KINDS: dict[str, tuple[float, object, float]] = {
    "alpha": (2 * math.pi, _f_alpha, 2.0),
    "beta": (2 * math.pi, _f_beta, 1.0),
    "gamma": (12.0, _f_gamma, 1.0),
    "A": (1.0, _f_A, 2.0),
    "B": (1.0, _f_B, 1.0),
    "dimC": (1.0, _f_dimC, 1.0),
    "Delta": (1.0, _f_Delta, 3.0),
}


# zeta(2) = pi^2/6 in closed form (Euler).
ZETA2 = math.pi ** 2 / 6

# zeta(3/2) within 4.4e-16: the fsum of n^(-3/2) to S = 10^6 plus the
# Euler-Maclaurin tail 2/sqrt(S) - S^(-3/2)/2 + S^(-5/2)/8.
ZETA_3_2 = 2.6123753486854886


# primes per float64 block: small enough that no full-length array is built
_BLOCK = 8192


@lru_cache(maxsize=1)
def shared_primes(pmax: int) -> np.ndarray:
    """primes_upto(pmax), read-only.  The last pmax's array is kept, so
    callers that read one pmax several times in a row sieve it once; a
    call with another pmax frees it."""
    ps = primes_upto(pmax)
    ps.flags.writeable = False
    return ps


def euler_product(kind: str, pmax: int) -> EulerProductValue:
    """Truncated Euler product for one of the named constants.

    kinds: alpha, beta, gamma (density prefactors), A (class-number average),
    B (triple-sum limit), dimC (square-free dimension density), Delta
    (the 1/T correction of the partial Q-sums; includes its 1/zeta(2)).

    f(p) is evaluated on float64 blocks of _BLOCK primes, and every log1p
    term goes into one math.fsum.  The result has the bits of f on Python
    ints: for p < 9741 every intermediate is an integer below 2^53, so
    each factor is the correctly rounded quotient; above that
    |f(p)| < 3.2e-8, and the few-ulp errors of those terms sum to ~1e-18,
    far below the ~5e-17 ulp of the log sum.  tail_bound covers only the
    truncation; the float rounding of value (a few ulp) is not in it and
    lies orders of magnitude below it.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown constant kind {kind!r}")
    if pmax < 2:
        raise ValueError("pmax must be >= 2")
    scale, f, _ = _KINDS[kind]
    ps = shared_primes(pmax)
    blocks = (ps[i:i + _BLOCK].astype(np.float64)
              for i in range(0, len(ps), _BLOCK))
    # a memoryview yields Python floats without building a list of them
    logs = math.fsum(chain.from_iterable(
        map(math.log1p, memoryview(f(b))) for b in blocks))
    value = scale * math.exp(logs)
    if kind == "Delta":
        value /= ZETA2
    return _with_tail(kind, value, pmax)


def _with_tail(kind: str, value: float, pmax: int) -> EulerProductValue:
    tail = abs(value) * math.expm1(2 * _KINDS[kind][2] / pmax)
    return EulerProductValue(value=value, pmax=pmax, tail_bound=tail)


# euler_product(kind, 10^6).value for the density prefactors, bit for bit,
# so that a process evaluating M_k does not sum their 3 x 78498 log1p terms
# (16-23 ms).  test_euler_constant_matches_per_prime_generator pins each
# literal to the per-prime product, and verify-constants recomputes them.
_AT_DEFAULT_PMAX = {"alpha": 3.9654107925256237,
                    "beta": 7.862553411182403,
                    "gamma": 17.034753411524196}


@lru_cache(maxsize=None)
def euler_constant(kind: str, pmax: int = 10 ** 6) -> EulerProductValue:
    """euler_product(kind, pmax), cached; alpha, beta and gamma at the
    default pmax = 10^6 come from _AT_DEFAULT_PMAX, the product's own bits,
    so no primes are sieved for them."""
    if pmax == 10 ** 6 and kind in _AT_DEFAULT_PMAX:
        return _with_tail(kind, _AT_DEFAULT_PMAX[kind], pmax)
    return euler_product(kind, pmax)


# ---------------------------------------------------------------------------
# Partial sums of Q
# ---------------------------------------------------------------------------

def q_table(T: int) -> np.ndarray:
    """Q(d) for 0 <= d <= T as floats (Q(0) := 0), built multiplicatively.

    Q(d) = mu^2(d) prod_{p|d} p^2/(p^4 - 2p^2 - p + 1).

    Q(p) = p^2/(p^4 - 2p^2 - p + 1) is the correctly rounded quotient of
    Python ints.  Primes up to sqrt(T) multiply in one slice each, in
    increasing order.  A d <= T has at most one prime factor above
    sqrt(T), and it comes last; for each multiplier m those primes p with
    m p <= T are applied in one indexed multiply, a block of _BLOCK
    primes at a time.

    The primes are sieved before q is allocated, so the sieve's flags and
    temporaries are freed before the (T + 1)-length array exists and the
    peak holds only q and the primes; the multiplies are unchanged.
    """
    ps = shared_primes(T)
    split = int(np.searchsorted(ps, math.isqrt(T), side="right"))
    q = np.ones(T + 1)
    q[0] = 0.0
    for p in ps[:split].tolist():
        q[p::p] *= p * p / (p ** 4 - 2 * p * p - p + 1)
        q[p * p::p * p] = 0.0
    for i in range(split, len(ps), _BLOCK):
        block = ps[i:i + _BLOCK]
        factor = np.fromiter((p * p / (p ** 4 - 2 * p * p - p + 1)
                              for p in memoryview(block)),
                             dtype=np.float64, count=len(block))
        for m in range(1, T // int(block[0]) + 1):
            k = int(np.searchsorted(block, T // m, side="right"))
            q[m * block[:k]] *= factor[:k]
    return q


def q_weighted_sums(T: int) -> tuple[float, float]:
    """(sum Q(d), sum Q(d)/d) over d <= T.

    Holds one (T + 1)-length array: q is summed, then divided in place by
    d, a block of _BLOCK at a time (Q(0) = 0 stays 0), and summed again.
    Each entry is the same float division as a full-length q / d and each
    sum runs over the full array, so both sums have those bits."""
    q = q_table(T)
    qsum = float(q.sum())
    for lo in range(1, T + 1, _BLOCK):
        q[lo:lo + _BLOCK] /= np.arange(lo, min(lo + _BLOCK, T + 1))
    return qsum, float(q.sum())


def qsqrt_product(pmax: int) -> float:
    """prod_{p <= pmax} (1 + Q(p) sqrt(p)), an upper-bound generator for
    sum_d Q(d) sqrt(d) as pmax grows (the 3.0907 constant)."""
    ps = shared_primes(pmax).astype(np.float64)
    qp = ps * ps / (ps ** 4 - 2 * ps * ps - ps + 1)
    return float(math.exp(np.log1p(qp * np.sqrt(ps)).sum()))


@cache
def qsqrt_sum_upper_bound(pmax: int = 10 ** 7) -> float:
    """Certified upper bound on sum_{d >= 1} Q(d) sqrt(d).

    The sum equals prod_p (1 + Q(p) sqrt(p)).  For p > pmax >= 100,
    log(1 + Q(p) sqrt(p)) <= Q(p) sqrt(p) <= 1.01 p^(-3/2), and with the
    Rosser-Schoenfeld bound pi(x) < 1.25506 x/log x, partial summation
    gives sum_{p > T} p^(-3/2) <= (3 * 1.25506 / log T) T^(-1/2).
    Cached: the default product over the primes below 1e7 costs ~0.1 s.
    """
    if pmax < 100:
        raise ValueError("pmax too small for the certified tail")
    tail = 1.01 * 3 * 1.25506 / (math.log(pmax) * math.sqrt(pmax))
    return qsqrt_product(pmax) * math.exp(tail)
