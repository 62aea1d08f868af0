"""Certified verification of the density's sign changes on a finite grid.

The oscillation profile restricted to a finite square-free truncation set
D is periodic with period lcm(D)/2, so checking one period certifies all
of them.  Discarded d's contribute at most

    E(D) = (sum_{all d} Q(d) sqrt(d) - sum_{d in D} Q(d) sqrt(d)) * M_max,

with the full sum bounded through a certified Euler product, so any grid
value clearing E(D) plus the inner-series tail pins the sign of the full
profile at that point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import shared_sieve
from .constants import ZETA_3_2, q_table, qsqrt_sum_upper_bound
from .multfns import Q

# The 25-element truncation set whose period is 3*5*7*11*13 = 15015.
DEFAULT_D = (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 21, 22, 26, 30, 33, 35,
             39, 42, 55, 65, 66, 70, 77, 78)

DEFAULT_OFFSETS = (0.0, 0.5, 0.162)

# Reported reference upper bound for sum Q(d) sqrt(d) (with the partial
# product's footnote slack); the certificate recomputes its own bound and
# uses whichever is larger.
REFERENCE_QSQRT_BOUND = 3.0907 + 0.00004

# The second-peak probe scans PROBE_POINTS equispaced T on PROBE_INTERVAL,
# the half-period past the certified negative midpoint.
PROBE_INTERVAL = (15014.5, 15015.0)
PROBE_POINTS = 2001


def m_max_bounds() -> tuple[float, float]:
    """(lower, upper) bracket for M_max = (sqrt(2)/2) zeta(3/2), the peak
    of the single-term profile |f(0)|."""
    half_sqrt2 = math.sqrt(2.0) / 2.0
    return half_sqrt2 * (ZETA_3_2 - 1e-9), half_sqrt2 * (ZETA_3_2 + 1e-9)


@dataclass(frozen=True)
class SignCheckConfig:
    """The settings of grid_verify: truncation set D, inner-series cutoff
    S (each f value carries the certified tail bound 2/sqrt(S)), and the
    offsets o of the scanned grids k + o.  The bound on the full
    sum_d Q(d) sqrt(d) is always qsqrt_sum_upper_bound()."""

    D: tuple[int, ...] = DEFAULT_D
    S: int = 4_010_000          # 2/sqrt(S) < 0.001
    offsets: tuple[float, ...] = DEFAULT_OFFSETS

    def __post_init__(self) -> None:
        if not self.D:
            raise ValueError("truncation set must be nonempty")
        sv = shared_sieve()
        for d in self.D:
            if d < 1 or not sv.is_squarefree(d):
                raise ValueError(f"{d} is not square-free")
        if self.S < 1:
            raise ValueError("S must be >= 1")
        for o in self.offsets:
            if not 0.0 <= o < 1.0:
                raise ValueError("offsets must lie in [0, 1)")


@dataclass
class OffsetVerdict:
    offset: float
    sign: int
    worst_margin: float
    worst_k: int
    passed: bool


@dataclass
class SignCheckCertificate:
    """Outcome of the one-period grid scan.

    error_budget is the recomputed discarded-tail bound (already the max
    against the reference reading); inner_tail is the series-truncation
    allowance folded into every margin; margins are
    |value| - (error_budget + inner_tail + 1e-9)."""

    period: Fraction
    error_budget: float
    inner_tail: float
    grid: int
    verdicts: list[OffsetVerdict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


# ---------------------------------------------------------------------------
# The inner profile f and the truncation set's weights and budget
# ---------------------------------------------------------------------------

@lru_cache(maxsize=2)
def _s_weights(S: int) -> np.ndarray:
    return np.arange(1, S + 1, dtype=np.float64) ** -1.5


def f_polylog(x: float, S: int) -> tuple[float, float]:
    """f(x) = sum_{s=1}^{S} cos(4 pi x s - 3 pi/4)/s^(3/2), with the
    certified tail bound 2/sqrt(S) for the discarded terms.

    Periodic with period 1/2 and maximized in absolute value at x = 0,
    where it equals -M_max in the limit."""
    if S < 1:
        raise ValueError("S must be >= 1")
    w = _s_weights(S)
    a = np.arange(1, S + 1, dtype=np.float64)
    a *= 4.0 * math.pi * x
    a -= 0.75 * math.pi
    np.cos(a, out=a)
    return float(np.dot(a, w)), 2.0 / math.sqrt(S)


@lru_cache(maxsize=8)
def _weights_for(D: tuple[int, ...]) -> tuple[float, ...]:
    return tuple(float(Q(d)) * math.sqrt(d) for d in D)


def period(D: tuple[int, ...]) -> Fraction:
    """Half the least common multiple of the truncation set: the period of
    the truncated profile sum_{d in D} Q(d) sqrt(d) f(T/d)."""
    if not D:
        raise ValueError("truncation set must be nonempty")
    return Fraction(math.lcm(*D), 2)


def _grid_points(D: tuple[int, ...]) -> int:
    """Integer points k = 1..n that cover one period of the profile on
    k + o: the period itself, or twice it when it is a half-integer."""
    per = period(D)
    return int(per) if per.denominator == 1 else int(2 * per)


def error_budget(D: tuple[int, ...], full_sum_upper: float) -> float:
    """(full_sum_upper - sum_{d in D} Q(d) sqrt(d)) * M_max: a bound on the
    discarded d's contribution at any point, given a certified upper bound
    on the complete sqrt-weighted sum of Q."""
    inside = math.fsum(_weights_for(tuple(D)))
    diff = full_sum_upper - inside
    if diff < 0:
        raise ValueError("upper bound below the in-set sum; not a bound")
    return diff * m_max_bounds()[1]


def _certified_budget(D: tuple[int, ...]) -> float:
    """The larger of the error budgets from the recomputed bound and from
    the reference reading REFERENCE_QSQRT_BOUND."""
    return max(error_budget(D, qsqrt_sum_upper_bound()),
               error_budget(D, REFERENCE_QSQRT_BOUND))


# ---------------------------------------------------------------------------
# Grid certification
# ---------------------------------------------------------------------------

def _offset_fraction(o: float) -> Fraction:
    return Fraction(o).limit_denominator(10 ** 9)


def grid_verify(cfg: SignCheckConfig) -> SignCheckCertificate:
    """Scan one full period at each offset and certify signs.

    Budget = max(own recomputed budget, the reference reading's budget);
    a gridpoint passes when the truncated profile's |value| clears
    budget + inner tail + 1e-9 float slack with the offset's claimed sign
    (taken from its first gridpoint); a non-finite total fails its offset.
    With the offset written o = num/den, (k + o)/d mod 1/2 = r/(2 den d)
    with r = 2(k den + num) mod (den d), so f is evaluated once per
    distinct lattice point.
    """
    budget = _certified_budget(cfg.D)
    npts = _grid_points(cfg.D)
    weights = _weights_for(cfg.D)
    inner_tail = math.fsum(weights) * 2.0 / math.sqrt(cfg.S)
    cert = SignCheckCertificate(period=period(cfg.D), error_budget=budget,
                                inner_tail=inner_tail, grid=npts)
    ks = np.arange(1, npts + 1, dtype=np.int64)
    for o in cfg.offsets:
        ofr = _offset_fraction(o)
        num, den = ofr.numerator, ofr.denominator
        cache: dict[float, float] = {}
        total = np.zeros(npts, dtype=np.float64)
        for d, wd in zip(cfg.D, weights):
            r = (2 * den * (ks % d) + 2 * num) % (den * d)
            lattice, inv = np.unique(r, return_inverse=True)
            vals = np.empty(lattice.size, dtype=np.float64)
            for i, ri in enumerate(lattice.tolist()):
                key = ri / (2 * den * d)
                if key not in cache:
                    cache[key], _ = f_polylog(key, cfg.S)
                vals[i] = cache[key]
            total += wd * vals[inv]
        sign = 1 if total[0] > 0 else -1
        margins = np.abs(total) - (budget + inner_tail + 1e-9)
        i = int(np.argmin(margins))
        ok = bool(np.isfinite(total).all() and (margins > 0).all()
                  and ((total > 0) == (sign > 0)).all())
        cert.verdicts.append(OffsetVerdict(offset=o, sign=sign,
                                           worst_margin=float(margins[i]),
                                           worst_k=i + 1, passed=ok))
    return cert


# ---------------------------------------------------------------------------
# Dense probes via an FFT-sampled inner profile
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _f_grid(log2_size: int = 21, S: int = 2 * 10 ** 7
            ) -> tuple[np.ndarray, np.ndarray, float]:
    """f sampled at M = 2^log2_size equispaced points of its period [0, 1/2)
    by folding the series coefficients mod M through a single FFT.

    Returns (the interpolation grid 0..M, the M samples followed by the wrap
    point f(1/2) = f(0), series tail bound 2/sqrt(S)).  The fold adds one
    M-length block of s^(-3/2) at a time, so memory is O(M) whatever S is.
    Linear interpolation between samples adds a small non-certified error
    concentrated at the half-integer cusps; probes using this grid are
    reported, not certified.
    """
    m = 1 << log2_size
    coef = np.zeros(m, dtype=np.float64)
    for lo in range(0, S + 1, m):
        start, stop = max(lo, 1), min(lo + m, S + 1)
        coef[start - lo:stop - lo] += np.arange(start, stop,
                                                dtype=np.float64) ** -1.5
    spectrum = np.fft.ifft(coef)
    spectrum *= m
    spectrum *= complex(math.cos(-0.75 * math.pi), math.sin(-0.75 * math.pi))
    table = np.empty(m + 1, dtype=np.float64)
    table[:m] = spectrum.real
    table[m] = table[0]
    return np.arange(m + 1, dtype=np.float64), table, 2.0 / math.sqrt(S)


def f_interpolated(x: np.ndarray) -> np.ndarray:
    """Approximate f at arbitrary points from the FFT-sampled period."""
    grid, table, _ = _f_grid()
    pos = np.mod(np.asarray(x, dtype=np.float64), 0.5) * (2 * (grid.size - 1))
    return np.interp(pos, grid, table)


@dataclass
class SecondPeakReport:
    """Dense-scan maximum of the large-truncation profile on PROBE_INTERVAL,
    with the certified truncation error of the discarded d > dmax tail."""

    dmax: int
    max_value: float
    argmax: float
    error_bound: float

    @property
    def certified_negative(self) -> bool:
        """max_value + error_bound < 0.  Not a certificate: max_value comes
        from the linearly interpolated S = 2e7 profile and carries no bound,
        and error_bound covers only the discarded d > dmax tail."""
        return self.max_value + self.error_bound < 0.0


def second_peak_probe(dmax: int = 5000) -> SecondPeakReport:
    """Scan the profile truncated to all square-free d <= dmax densely on
    PROBE_INTERVAL, the half-period past the certified negative midpoint,
    where any additional sign change would have to appear (the profile's
    second local peak sits near the integer + 0.6).  The discarded tail is
    bounded by 0.83 * (full bound - sum_{d <= dmax} Q(d) sqrt(d)), using
    the sup of |f| away from its cusps."""
    q = q_table(dmax)
    d = np.arange(dmax + 1, dtype=np.float64)
    d[0] = 1.0
    w = q * np.sqrt(d)
    inside = float(w.sum())
    err = 0.83 * (min(qsqrt_sum_upper_bound(), REFERENCE_QSQRT_BOUND)
                  - inside)
    ts = np.linspace(*PROBE_INTERVAL, PROBE_POINTS)
    dd = np.nonzero(q)[0]
    vals = np.zeros_like(ts)
    for di in dd:
        vals += w[di] * f_interpolated(ts / di)
    i = int(np.argmax(vals))
    return SecondPeakReport(dmax=dmax, max_value=float(vals[i]),
                            argmax=float(ts[i]), error_bound=err)


def third_sign_change_fraction(cfg: SignCheckConfig,
                               samples_per_half: int = 8) -> float:
    """Observed fraction of integer gridpoints k in one period for which
    the truncated profile exceeds the error budget somewhere on
    [k + 1/2, k + 1] (an uncertified probe via the interpolated f)."""
    budget = _certified_budget(cfg.D)
    npts = _grid_points(cfg.D)
    weights = _weights_for(cfg.D)
    ks = np.arange(1, npts + 1, dtype=np.float64)[:, None]
    us = np.linspace(0.5, 1.0, samples_per_half)[None, :]
    ts = ks + us
    vals = np.zeros_like(ts)
    for d, wd in zip(cfg.D, weights):
        vals += wd * f_interpolated(ts / d)
    hit = (vals.max(axis=1) > budget)
    return float(hit.mean())
