"""Exact traces of the P-th Hecke operator composed with the Fricke
involution on square-free-level newform spaces, and the interval/dyadic
empirical averages they produce.

Per level, the trace is a finite sum of Hurwitz class numbers

    H_1(-4PN)/2 - [k=2] P
    + (-1)^(k/2-1) sum_{1 <= r <= 2 sqrt(P/N)} U_{k-2}(r sqrt(N)/(2 sqrt P))
        H_1(-N (4P - r^2 N))

with the 1/2, 1/3 automorphism weights at discriminants -4, -3.  The
paper sums h(-Nm/f^2) over f^2 | m, m = 4P - r^2 N; that sum is the whole
H_1(-Nm), because a square f^2 | Nm that does not divide m needs a prime
p | N with p | m, so p | 4P and p = 2; then N is even, r is odd and
-Nm/f^2 = 3 mod 4 is no discriminant.  Each H_1(-Nm) is a read from a
class-number table when the table covers Nm, and otherwise one certified
evaluation (classnumbers.hurwitz_H1_certified).
For k = 2 every factor is rational and the value is an exact integer, which
the test-suite uses as the strongest internal consistency check; one sum
serves every k, exact at k = 2 and float above.
Averages divide by the dimension main term (k-1) phi(N)/12 summed over
the same levels, which normalizes the interval average directly onto the
limiting density M_k(P/X).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import shared_sieve
from .classnumbers import HurwitzTable, hurwitz_H1_certified
from .density import DensityConfig, chebyshev_U, dyadic_density, \
    murmuration_density


@dataclass(frozen=True)
class TraceParams:
    """Level N (square-free), prime P not dividing N, even weight k."""

    N: int
    P: int
    k: int

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("N must be positive")
        if self.k < 2 or self.k % 2:
            raise ValueError("k must be even and >= 2")
        if self.P <= 2 or not shared_sieve().is_prime(self.P):
            raise ValueError("P must be an odd prime")
        if self.N % self.P == 0:
            raise ValueError("P must not divide N")


@dataclass
class TraceReport:
    """Interval or dyadic average of traces against the predicted density.

    numerator / denominator = average; predicted is M_k(P/X) for interval
    runs and the dyadic integral of M_k for dyadic runs; residual is
    average - predicted.  span is the interval length Y (interval) or the
    ratio c (dyadic).
    """

    kind: str
    X: int
    span: float
    P: int
    k: int
    numerator: float
    denominator: float
    average: float
    predicted: float
    residual: float
    levels: int


# ---------------------------------------------------------------------------
# Per-level trace
# ---------------------------------------------------------------------------

def _hurwitz(N: int, m: int, table: HurwitzTable | None) -> Fraction:
    """H_1(-N m) for a trace term m = 4P - r^2 N: a table read when the
    table covers N m, else one certified evaluation."""
    d = N * m
    if table is not None and table.dmin <= d <= table.dmax:
        return table[d]
    return hurwitz_H1_certified(d)


def trace_TpWN(params: TraceParams, table: HurwitzTable | None = None
               ) -> Fraction | float:
    """Trace of the composed Hecke/Fricke operator at level N, weight k.

    Exact rational (an integer, up to the formula's bounded correction)
    for k = 2; float for k > 2.  The float is this function's choice, not
    the trace's: U_{k-2} has the parity of k - 2, so at the irrational
    argument r sqrt(N)/(2 sqrt P) it is a polynomial in r^2 N/(4P), and
    the trace is rational at every k.  An exact k > 2 trace is deferred,
    not foreclosed.
    """
    N, P, k = params.N, params.P, params.k
    if not shared_sieve().is_squarefree(N):
        raise ValueError("N must be square-free")
    exact = _hurwitz(N, 4 * P, table) / 2
    if k == 2:
        exact -= P
    sign = -1 if k % 4 == 0 else 1
    rmax = math.isqrt(4 * P // N) if N <= 4 * P else 0
    # Fraction + float is float(Fraction) + float, so k > 2 rounds the
    # exact part once, and a float osc keeps the result a float even when
    # no r-term contributes
    osc = 0 if k == 2 else 0.0
    for r in range(1, rmax + 1):
        m = 4 * P - r * r * N
        if m <= 0:
            continue
        u = 1 if k == 2 else chebyshev_U(
            k - 2, r * math.sqrt(N) / (2.0 * math.sqrt(P)))
        osc += u * _hurwitz(N, m, table)
    return exact + sign * osc


def dimension_main(N: int, k: int) -> Fraction:
    """Main term (k-1) phi(N) / 12 of the newform-space dimension."""
    if N < 1 or k < 2 or k % 2:
        raise ValueError("need N >= 1 and even k >= 2")
    return Fraction((k - 1) * shared_sieve().euler_phi(N), 12)


# ---------------------------------------------------------------------------
# Interval and dyadic averages
# ---------------------------------------------------------------------------

def _average_over(levels: list[int], P: int, k: int,
                  table: HurwitzTable | None) -> tuple[float, float]:
    """(numerator, denominator) accumulated in fixed ascending-N order:
    exact Fractions at k = 2, floats above, rounded to float at the end."""
    num = den = 0
    for N in levels:
        num += trace_TpWN(TraceParams(N=N, P=P, k=k), table)
        den += dimension_main(N, k)
    return float(num), float(den)


# The most integers an averaging window may hold: ten times the window
# c = 2 at X = 10^5.  Larger windows are refused before any is enumerated.
LEVEL_WINDOW_MAX = 10 ** 6


def _square_free_levels(lo: int, hi: int, P: int) -> list[int]:
    if hi - lo + 1 > LEVEL_WINDOW_MAX:
        raise ValueError("the averaging window holds more than "
                         f"LEVEL_WINDOW_MAX = {LEVEL_WINDOW_MAX} integers")
    sieve = shared_sieve()
    return [N for N in range(lo, hi + 1)
            if N % P and sieve.is_squarefree(N)]


def window_density(cfg: DensityConfig, P: int, X: int, Y: int) -> float:
    """M_k(P/N) averaged over the levels N of interval_average(X, Y, P, k),
    each weighted by phi(N) as the dimension main term weights its trace.

    Unlike the pointwise M_k(P/X), this carries no O(Y/X) drift across
    the window.  NaN when the window holds no level, as the average of
    interval_average is then.
    """
    levels = _square_free_levels(X, X + Y, P)
    dens = murmuration_density(cfg, [P / N for N in levels]).tolist()
    num = den = 0.0
    for N, m in zip(levels, dens):
        w = float(shared_sieve().euler_phi(N))
        num += w * m
        den += w
    return num / den if den else math.nan


def _report(kind: str, X: int, span: float, P: int, k: int,
            levels: list[int], predicted: float,
            table: HurwitzTable | None) -> TraceReport:
    num, den = _average_over(levels, P, k, table)
    average = num / den if den else math.nan
    return TraceReport(kind=kind, X=X, span=span, P=P, k=k,
                       numerator=num, denominator=den, average=average,
                       predicted=predicted, residual=average - predicted,
                       levels=len(levels))


def interval_average(X: int, Y: int, P: int, k: int,
                     table: HurwitzTable | None = None) -> TraceReport:
    """Average of traces over square-free levels in [X, X+Y] with P
    excluded, against the predicted density M_k(P/X); 0 <= Y < X."""
    if not 0 <= Y < X:
        raise ValueError(f"need 0 <= Y < X, got X = {X}, Y = {Y}")
    TraceParams(N=1, P=P, k=k)          # checks P and k for an empty window
    return _report("interval", X, float(Y), P, k,
                   _square_free_levels(X, X + Y, P),
                   murmuration_density(DensityConfig(k=k), P / X), table)


def dyadic_average(X: int, c: float, P: int, k: int,
                   table: HurwitzTable | None = None) -> TraceReport:
    """Average of traces over square-free levels in [X, cX], against the
    dyadic integral of the density.  X >= 1, and c X must be finite."""
    if X < 1:
        raise ValueError(f"need X >= 1, got X = {X}")
    if c <= 1:
        raise ValueError("c must exceed 1")
    if not math.isfinite(c * X):
        raise ValueError(f"c X must be finite, got {c * X}")
    TraceParams(N=1, P=P, k=k)          # checks P and k for an empty window
    return _report("dyadic", X, c, P, k,
                   _square_free_levels(X, int(c * X), P),
                   dyadic_density(c, P / X, DensityConfig(k=k)), table)
