"""Euler-product constants with certified truncation tails.

Every constant is a product over primes of 1 + f(p) with |f(p)| <= c/p^2
for an explicit per-kind c, times a leading scalar.  Truncating at pmax
leaves |log of the tail| <= sum_{n > pmax} 2c/n^2 <= 2c/pmax, which is
surfaced as an absolute bound on the reported value.  Products accumulate
as compensated sums of log1p terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=None)
def euler_constant(kind: str, pmax: int = 10 ** 6) -> EulerProductValue:
    """Truncated Euler product for one of the named constants.

    kinds: alpha, beta, gamma (density prefactors), A (class-number average),
    B (triple-sum limit), dimC (square-free dimension density), Delta
    (the 1/T correction of the partial Q-sums; includes its 1/zeta(2)).
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown constant kind {kind!r}")
    if pmax < 2:
        raise ValueError("pmax must be >= 2")
    scale, f, c = _KINDS[kind]
    # a memoryview yields Python ints without building a list of them
    logs = math.fsum(map(math.log1p, map(f, memoryview(primes_upto(pmax)))))
    value = scale * math.exp(logs)
    if kind == "Delta":
        value /= ZETA2
    tail = abs(value) * math.expm1(2 * c / pmax)
    return EulerProductValue(value=value, pmax=pmax, tail_bound=tail)


# ---------------------------------------------------------------------------
# Partial sums of Q
# ---------------------------------------------------------------------------

def q_table(T: int) -> np.ndarray:
    """Q(d) for 0 <= d <= T as floats (Q(0) := 0), built multiplicatively.

    Q(d) = mu^2(d) prod_{p|d} p^2/(p^4 - 2p^2 - p + 1).
    """
    q = np.ones(T + 1)
    q[0] = 0.0
    for p in primes_upto(T):
        p = int(p)
        q[p::p] *= p * p / (p ** 4 - 2 * p * p - p + 1)
        p2 = p * p
        if p2 <= T:
            q[p2::p2] = 0.0
    return q


def q_weighted_sums(T: int) -> tuple[float, float, float]:
    """(sum Q(d), sum Q(d)/d, sum Q(d) sqrt(d)) over d <= T, one pass."""
    q = q_table(T)
    d = np.arange(T + 1, dtype=np.float64)
    d[0] = 1.0
    return float(q.sum()), float((q / d).sum()), float((q * np.sqrt(d)).sum())


def qsqrt_product(pmax: int) -> float:
    """prod_{p <= pmax} (1 + Q(p) sqrt(p)), an upper-bound generator for
    sum_d Q(d) sqrt(d) as pmax grows (the 3.0907 constant)."""
    ps = primes_upto(pmax).astype(np.float64)
    qp = ps * ps / (ps ** 4 - 2 * ps * ps - ps + 1)
    return float(math.exp(np.log1p(qp * np.sqrt(ps)).sum()))


def qsqrt_sum_upper_bound(pmax: int = 10 ** 7) -> float:
    """Certified upper bound on sum_{d >= 1} Q(d) sqrt(d).

    The sum equals prod_p (1 + Q(p) sqrt(p)).  For p > pmax >= 100,
    log(1 + Q(p) sqrt(p)) <= Q(p) sqrt(p) <= 1.01 p^(-3/2), and with the
    Rosser-Schoenfeld bound pi(x) < 1.25506 x/log x, partial summation
    gives sum_{p > T} p^(-3/2) <= (3 * 1.25506 / log T) T^(-1/2).
    """
    if pmax < 100:
        raise ValueError("pmax too small for the certified tail")
    tail = 1.01 * 3 * 1.25506 / (math.log(pmax) * math.sqrt(pmax))
    return qsqrt_product(pmax) * math.exp(tail)
