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
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import shared_sieve
from .constants import ZETA_3_2, q_table, qsqrt_sum_upper_bound
from .multfns import q_sqrt_weights
from .parallel import cpu_map

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

# third_sign_change_fraction samples each [k + 1/2, k + 1] at this many
# equispaced points, ends included.
THIRD_CHANGE_SAMPLES = 8

# grid_verify's phase buffers, one per worker, together take at most this
# many bytes (but always at least one buffer).
_GRID_BUFFER_BYTES = 128 * 2 ** 20

# Elements of s per block in _f_values' phase fill and _f_grid's fold.
_WEIGHT_BLOCK = 1 << 18


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
        for d in self.D:
            if d < 1 or not shared_sieve().is_squarefree(d):
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

def _s_weights(S: int) -> np.ndarray:
    """s^(-3/2) for s = 1..S in one S-length array, the power taken in
    place, so the bits are those of np.arange(1, S + 1.) ** -1.5.  Serial:
    on two CPUs cpu_map's pool saved 2-4 ms of a certificate that takes
    over a second at S = 4.01e6.  Uncached: grid_verify builds them once
    per certificate and frees them when it returns."""
    w = np.arange(1, S + 1, dtype=np.float64)
    return np.power(w, -1.5, out=w)


def f_polylog(x: float, S: int) -> tuple[float, float]:
    """f(x) = sum_{s=1}^{S} cos(4 pi x s - 3 pi/4)/s^(3/2), with the
    certified tail bound 2/sqrt(S) for the discarded terms.

    Periodic with period 1/2 and maximized in absolute value at x = 0,
    where it equals -M_max in the limit.  Its weights live for one call."""
    if S < 1:
        raise ValueError("S must be >= 1")
    w = _s_weights(S)
    a = np.arange(1, S + 1, dtype=np.float64)
    a *= 4.0 * math.pi * x
    a -= 0.75 * math.pi
    np.cos(a, out=a)
    return float(np.dot(a, w)), 2.0 / math.sqrt(S)


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
    inside = math.fsum(q_sqrt_weights(D))
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

def _f_values(xs: list[float], w: np.ndarray) -> list[float]:
    """f_polylog(x, S)[0] for every x in xs, bit for bit, given the
    certificate's weights w = _s_weights(S): on cpu_map's pool each worker
    takes whole x's, forming fl(s * 4 pi x) - 3 pi/4 in a phase buffer one
    _WEIGHT_BLOCK of s at a time, its cosines in place and one full-length
    dot with w.

    Besides w it holds min(CPUs, len(xs), _GRID_BUFFER_BYTES // 8S)
    S-length phase buffers and one block-length base 1..min(S,
    _WEIGHT_BLOCK), all allocated by the calling thread (the buffers are
    handed out through a queue), so no worker's malloc arena keeps an
    S-length block after the call.  Workers run numpy only.
    """
    # imported here: the CLI does not load queue when it starts
    import queue

    if not xs:
        return []
    S = len(w)
    base = np.arange(1, min(S, _WEIGHT_BLOCK) + 1, dtype=np.float64)
    nbuf = min(len(os.sched_getaffinity(0)), len(xs),
               max(1, _GRID_BUFFER_BYTES // (8 * S)))
    free: queue.SimpleQueue[np.ndarray] = queue.SimpleQueue()
    for _ in range(nbuf):
        free.put(np.empty(S, dtype=np.float64))

    def f(x: float) -> float:
        a = free.get()
        try:
            for lo in range(0, S, _WEIGHT_BLOCK):
                block = a[lo:lo + _WEIGHT_BLOCK]
                np.add(base[:block.size], lo, out=block)
                block *= 4.0 * math.pi * x
                block -= 0.75 * math.pi
            np.cos(a, out=a)
            return float(np.dot(a, w))
        finally:
            free.put(a)

    return cpu_map(f, xs)


def grid_verify(cfg: SignCheckConfig) -> SignCheckCertificate:
    """Scan one full period at each offset and certify signs.

    Budget = max(own recomputed budget, the reference reading's budget);
    a gridpoint passes when the truncated profile's |value| clears
    budget + inner tail + 1e-9 float slack with the offset's claimed sign
    (taken from its first gridpoint); a non-finite total fails its offset.
    With the offset written o = num/den, (k + o)/d mod 1/2 = r/(2 den d)
    with r = 2(k den + num) mod (den d), so f is evaluated once per
    distinct lattice point, against weights s^(-3/2) built once per
    certificate and freed when it returns.  Its S-length arrays are those
    weights and one phase buffer per worker (see _f_values); the rest is
    O(period * len(D)) lattice bookkeeping.

    Each offset collects its lattice points r/(2 den d) that no earlier
    offset evaluated, evaluates them all at once through _f_values (one
    whole point per worker thread, with the bits of f_polylog), then adds
    the weighted totals in the order of D, so the pool's size never moves
    a bit.  OpenBLAS's thread count does: it splits each dot longer than
    10,000 elements over its own threads, as many as the CPUs it found at
    start unless OPENBLAS_NUM_THREADS says otherwise, and adds their
    partial sums.  f(0) at S = 4.01e6 differs by 10 ulp between two
    threads and one, so unlike density's outputs the certificate's last
    bits depend on the machine.
    """
    budget = _certified_budget(cfg.D)
    npts = _grid_points(cfg.D)
    weights = q_sqrt_weights(cfg.D)
    inner_tail = math.fsum(weights) * 2.0 / math.sqrt(cfg.S)
    cert = SignCheckCertificate(period=period(cfg.D), error_budget=budget,
                                inner_tail=inner_tail, grid=npts)
    ks = np.arange(1, npts + 1, dtype=np.int64)
    w = _s_weights(cfg.S)
    values: dict[float, float] = {}
    for o in cfg.offsets:
        ofr = Fraction(o).limit_denominator(10 ** 9)
        num, den = ofr.numerator, ofr.denominator
        lattices = []
        for d in cfg.D:
            r = (2 * den * (ks % d) + 2 * num) % (den * d)
            lattice, inv = np.unique(r, return_inverse=True)
            lattices.append(([ri / (2 * den * d) for ri in lattice.tolist()],
                             inv))
        new = list(dict.fromkeys(key for keys, _ in lattices for key in keys
                                 if key not in values))
        values.update(zip(new, _f_values(new, w)))
        total = np.zeros(npts, dtype=np.float64)
        for wd, (keys, inv) in zip(weights, lattices):
            total += wd * np.array([values[key] for key in keys])[inv]
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
            ) -> tuple[np.ndarray, float]:
    """f sampled at M = 2^log2_size equispaced points of its period [0, 1/2)
    by folding the series coefficients mod M through a single FFT.

    Returns (the M samples followed by the wrap point f(1/2) = f(0), series
    tail bound 2/sqrt(S)); the table's index is the abscissa.  The fold
    adds s^(-3/2) into the real part of one complex M-length buffer, split
    by coefficient index into _WEIGHT_BLOCK ranges on cpu_map's pool: each
    worker adds its range's blocks in ascending s through one block-length
    temporary, so memory is O(M) whatever S is.  The inverse FFT and its
    scaling run in place in that buffer; the cached table holds only its
    real part.  Linear interpolation between samples adds a small
    non-certified error concentrated at the half-integer cusps; probes
    using this grid are reported, not certified.
    """
    m = 1 << log2_size
    coef = np.zeros(m, dtype=np.complex128)
    base = np.arange(min(m, _WEIGHT_BLOCK), dtype=np.float64)

    def fold(lo: int) -> None:
        t = np.empty_like(base)
        for top in range(0, S + 1 - lo, m):
            start = max(top + lo, 1)
            stop = min(top + lo + _WEIGHT_BLOCK, top + m, S + 1)
            u = t[:stop - start]
            np.add(base[:u.size], start, out=u)
            u **= -1.5
            coef.real[start - top:stop - top] += u

    cpu_map(fold, range(0, m, _WEIGHT_BLOCK))
    np.fft.ifft(coef, out=coef)
    coef *= m
    coef *= complex(math.cos(-0.75 * math.pi), math.sin(-0.75 * math.pi))
    table = np.empty(m + 1, dtype=np.float64)
    table[:m] = coef.real
    table[m] = table[0]
    return table, 2.0 / math.sqrt(S)


def f_interpolated(x: np.ndarray) -> np.ndarray:
    """Approximate f at arbitrary points from the FFT-sampled period, with
    the bits of np.interp on the abscissae 0..M: (t[j+1] - t[j])(pos - j)
    + t[j] between nodes, t[j] on a node and t[M] at pos = M, and NaN where
    x is not finite.  Holds only temporaries the size of x besides the
    cached table."""
    table, _ = _f_grid()
    pos = np.mod(np.asarray(x, dtype=np.float64), 0.5) * (2 * (table.size - 1))
    j = np.nan_to_num(pos).astype(np.intp)     # a NaN pos stays NaN below
    lo, hi = table[j], table.take(j + 1, mode="clip")
    return np.where(pos == j, lo, (hi - lo) * (pos - j) + lo)


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
    the sup of |f| away from its cusps.  The full bound is read before
    q_table(dmax), so shared_primes' cache holds the small prime array,
    not the 5.3 MB one to 10^7, while the FFT grid is built."""
    full = min(qsqrt_sum_upper_bound(), REFERENCE_QSQRT_BOUND)
    q = q_table(dmax)
    d = np.arange(dmax + 1, dtype=np.float64)
    d[0] = 1.0
    w = q * np.sqrt(d)
    err = 0.83 * (full - float(w.sum()))
    ts = np.linspace(*PROBE_INTERVAL, PROBE_POINTS)
    dd = np.nonzero(q)[0]
    vals = np.zeros_like(ts)
    for di in dd:
        vals += w[di] * f_interpolated(ts / di)
    i = int(np.argmax(vals))
    return SecondPeakReport(dmax=dmax, max_value=float(vals[i]),
                            argmax=float(ts[i]), error_bound=err)


def third_sign_change_fraction(cfg: SignCheckConfig) -> float:
    """Observed fraction of integer gridpoints k in one period for which
    the truncated profile exceeds the error budget at one of
    THIRD_CHANGE_SAMPLES equispaced points of [k + 1/2, k + 1] (an
    uncertified probe via the interpolated f)."""
    budget = _certified_budget(cfg.D)
    npts = _grid_points(cfg.D)
    weights = q_sqrt_weights(cfg.D)
    ks = np.arange(1, npts + 1, dtype=np.float64)[:, None]
    us = np.linspace(0.5, 1.0, THIRD_CHANGE_SAMPLES)[None, :]
    ts = ks + us
    vals = np.zeros_like(ts)
    for d, wd in zip(cfg.D, weights):
        vals += wd * f_interpolated(ts / d)
    hit = (vals.max(axis=1) > budget)
    return float(hit.mean())
