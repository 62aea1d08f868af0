"""The limiting murmuration density M_k(y) and its averages.

Two equivalent evaluations of the same function are provided and
cross-checked against each other:

  * murmuration_density        -- finite Chebyshev-polynomial sum (exact
                                  truncation: the r-sum is finite)
  * murmuration_density_bessel -- Bessel double series; the inner s-series
                                  is summed in closed form through the
                                  integral representation of J_n, so the
                                  only error sources are quadrature and a
                                  certified Euler-product bracket

plus the oscillatory asymptotic profile, dyadic and smoothed averages
(M_k taken on arrays of every node of a bisection level, a smoothing
weight phi called node by node), and the k=2 dyadic closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .constants import euler_constant
from .multfns import Q, nu, q_sqrt_weights
from .parallel import cpu_map


# Truncation of universal_asymptotic's double series: d <= ASYMPTOTIC_DMAX,
# s <= ASYMPTOTIC_SMAX.
ASYMPTOTIC_DMAX = 2000
ASYMPTOTIC_SMAX = 4000
# Rows of d per universal_asymptotic block: 32 x 4000 float64, 1 MB for L2.
_ASYMPTOTIC_BLOCK = 32
# The most values of T one universal_asymptotic call takes: a T costs
# 40-70 ms of one CPU, so 300 take 6-10 s on a 2-core VM.
ASYMPTOTIC_POINTS_MAX = 300

# The largest y the Chebyshev and Bessel forms accept: at k = 24 one y
# there takes about 11 s and 4 s on a 2-core VM.
CHEBYSHEV_YMAX, BESSEL_YMAX = 1e10, 1e6
# A Chebyshev call passes over the whole array once per r <= 2 sqrt(max y);
# at k = 24 a pass costs about 55 us plus 60-190 ns a point on a 2-core VM.
# Charging each pass CHEBYSHEV_R_COST points, a call takes on at most
# (size + CHEBYSHEV_R_COST) x floor(2 sqrt(max y)) <= CHEBYSHEV_WORK_MAX
# point-r terms: one y up to 10^10 (11 s), or 10^6 points up to 600 (6 s).
CHEBYSHEV_WORK_MAX, CHEBYSHEV_R_COST = 50_000_000, 200
# A Bessel call takes on at most BESSEL_WORK_MAX point-d terms,
# size x floor(2 sqrt(max y)), at 0.4 ms a term up to y = 4 and 1.9 ms at
# y = 10^6 (k = 24, 2-core VM); BESSEL_BATCH quadratures share a bisection.
BESSEL_WORK_MAX, BESSEL_BATCH = 5000, 16

# Absolute tolerance of every quadrature behind the density, and the
# bisection depth at which adaptive_quadrature gives up on a panel.
QUAD_TOL = 1e-9
MAX_DEPTH = 52


@dataclass(frozen=True)
class DensityConfig:
    """Even weight k and the prime cutoff pmax of the Euler-product
    constants alpha, beta, gamma."""

    k: int
    pmax: int = 10 ** 6

    def __post_init__(self) -> None:
        if self.k < 2 or self.k % 2:
            raise ValueError("k must be even and >= 2")


def _sign(k: int) -> float:
    """(-1)^(k/2 - 1)."""
    return -1.0 if k % 4 == 0 else 1.0


def _alpha_beta_gamma(pmax: int):
    """The Euler products alpha, beta and gamma at pmax: the three read
    one sieve through shared_primes' cache, and none once cached."""
    return tuple(euler_constant(kind, pmax)
                 for kind in ("alpha", "beta", "gamma"))


# ---------------------------------------------------------------------------
# Chebyshev polynomials
# ---------------------------------------------------------------------------

def chebyshev_U(n: int, x):
    """Chebyshev polynomial of the second kind, U_n(cos t) = sin((n+1)t)/sin t.

    Takes a float (giving a float) or an array, each entry with |x| up to
    1 + 1e-12 (clamped); |U_n(x)| <= n + 1 on [-1, 1].
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    if (np.abs(x) > 1 + 1e-12).any():
        raise ValueError("argument outside [-1, 1]")
    x = np.clip(x, -1.0, 1.0)
    u0, u1 = np.zeros(x.shape), np.ones(x.shape)    # U_{-1}, U_0
    for _ in range(n):
        u0, u1 = u1, 2.0 * x * u1 - u0
    return u1 if u1.ndim else float(u1)


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature (7-15 pair) with forced breakpoints
# ---------------------------------------------------------------------------

_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
])
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])        # 15 ascending nodes
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])            # Kronrod weights
_WG15 = np.zeros(15)
_WG15[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])    # embedded Gauss


def adaptive_quadrature(f, a: float, b: float, tol: float,
                        breakpoints: tuple[float, ...] = ()
                        ) -> tuple[float, float]:
    """Integrate a vectorized callable f(x) on [a, b] to absolute
    tolerance tol: adaptive_quadrature_batch on a batch of one.
    Returns (value, accumulated error estimate)."""
    (value,), (error,) = adaptive_quadrature_batch(
        lambda x, _: f(x), [(a, b, breakpoints)], tol)
    return value, error


def adaptive_quadrature_batch(f, limits, tol: float
                              ) -> tuple[list[float], list[float]]:
    """Integrate one integral per (a, b, breakpoints) of limits, each to
    absolute tolerance tol.  Returns the list of values and the list of
    accumulated error estimates.

    Each interval is pre-split at its interior breakpoints (integrand
    kinks and singular points must be listed there); each piece is then
    bisected adaptively with the Gauss-Kronrod 7-15 error estimate, down to
    MAX_DEPTH bisections; a panel still above its tolerance at MAX_DEPTH
    raises ValueError.

    The panels of every piece of every integral are bisected together, a
    level at a time: f(x, i) is called once per level on the 1-D array x
    of every open panel's 15 nodes and the array i of each node's integral
    index, so it must act elementwise.  np.vecdot of those rows gives each
    K15 and G7 with the bits of a per-row np.dot.  Each integral's accepted
    panels are summed one by one in the order a depth-first,
    right-half-first bisection of that integral alone accepts them (pieces
    ascending, then descending left end), so its value and error are
    bit-identical to that panel-at-a-time loop.  Of the panels still open
    at MAX_DEPTH, the error names the one that loop reaches first in the
    lowest failing integral: the rightmost in its lowest piece.
    """
    owner, x0, x1 = [], [], []
    for i, (a, b, bps) in enumerate(limits):
        pts = sorted({a, b, *(p for p in bps if a < p < b)})
        owner += [i] * (len(pts) - 1)
        x0 += pts[:-1]
        x1 += pts[1:]
    owner = np.array(owner, dtype=np.intp)
    x0, x1 = np.array(x0, dtype=np.float64), np.array(x1, dtype=np.float64)
    width = np.array([b - a for a, b, _ in limits], dtype=np.float64)
    piece = np.arange(len(owner))
    accepted = []                       # (piece, x0, value, error) arrays
    depth = 0
    while len(piece):
        half = 0.5 * (x1 - x0)
        mid = 0.5 * (x0 + x1)
        index = owner[piece]
        ys = np.asarray(f((mid[:, None] + half[:, None] * _NODES).ravel(),
                          np.repeat(index, len(_NODES))))
        ys = ys.reshape(len(piece), len(_NODES))
        k15 = half * np.vecdot(ys, _WK)
        err = np.abs(k15 - half * np.vecdot(ys, _WG15))
        ok = err <= tol * np.maximum((x1 - x0) / width[index], 1e-6)
        accepted.append((piece[ok], x0[ok], k15[ok], err[ok]))
        piece, x0, x1 = piece[~ok], x0[~ok], x1[~ok]
        if len(piece) and depth == MAX_DEPTH:
            _, lo, hi = min(zip(piece.tolist(), x0.tolist(), x1.tolist()),
                            key=lambda t: (t[0], -t[1]))
            raise ValueError(f"quadrature panel [{lo!r}, {hi!r}] misses "
                             f"its tolerance after {MAX_DEPTH} bisections")
        xm = 0.5 * (x0 + x1)
        piece = np.concatenate([piece, piece])
        x0, x1 = np.concatenate([x0, xm]), np.concatenate([xm, x1])
        depth += 1
    values, errors = [0.0] * len(limits), [0.0] * len(limits)
    if accepted:
        piece, x0, val, err = map(np.concatenate, zip(*accepted))
        order = np.lexsort((-x0, piece))
        for i, v, e in zip(owner[piece[order]].tolist(),
                           val[order].tolist(), err[order].tolist()):
            values[i] += v
            errors[i] += e
    return values, errors


# ---------------------------------------------------------------------------
# The Chebyshev (finite-sum) form of M_k
# ---------------------------------------------------------------------------

def murmuration_density(cfg: DensityConfig, y):
    """M_k(y) via the finite Chebyshev sum, of a float or an array_like.

    M_k(y) = (alpha (-1)^(k/2-1) / (k-1)) sum_{1<=r<=2 sqrt(y)} nu(r)
             * sqrt(4y - r^2) U_{k-2}(r / (2 sqrt y))
             + (beta/(k-1)) sqrt(y) - gamma [k=2] y.

    An r past 2 sqrt(y) adds +-0, so each entry keeps its float's bits.
    Every r is a pass over the whole array, so an array whose size plus
    CHEBYSHEV_R_COST, times floor(2 sqrt(max y)), exceeds
    CHEBYSHEV_WORK_MAX is refused.
    """
    y = np.asarray(y, dtype=np.float64)
    if (y <= 0).any():
        raise ValueError("y must be positive")
    if not (y <= CHEBYSHEV_YMAX).all():
        raise ValueError(f"y must be finite and at most CHEBYSHEV_YMAX = "
                         f"{CHEBYSHEV_YMAX:g} for the Chebyshev form")
    two_sqrt_y = 2.0 * np.sqrt(y)
    rmax = int(two_sqrt_y.max(initial=0.0))
    work = (y.size + CHEBYSHEV_R_COST) * rmax
    if work > CHEBYSHEV_WORK_MAX:
        raise ValueError(f"{y.size} points up to y = {y.max():g} cost "
                         f"({y.size} + CHEBYSHEV_R_COST) x {rmax} = {work} "
                         f"point-r terms, more than CHEBYSHEV_WORK_MAX = "
                         f"{CHEBYSHEV_WORK_MAX}")
    k = cfg.k
    al, be, ga = (ev.value for ev in _alpha_beta_gamma(cfg.pmax))
    total = np.zeros(y.shape)
    for r in range(1, rmax + 1):
        rad = np.maximum(4.0 * y - r * r, 0.0)
        u = chebyshev_U(k - 2, np.minimum(r / two_sqrt_y, 1.0))
        total += float(nu(r)) * np.sqrt(rad) * u
    value = (al * _sign(k) / (k - 1)) * total + (be / (k - 1)) * np.sqrt(y)
    if k == 2:
        value -= ga * y
    return value if value.ndim else float(value)


# ---------------------------------------------------------------------------
# The Bessel-series form of M_k
# ---------------------------------------------------------------------------

def _summed_kernel_integrand(order: int, c):
    """Vectorized integrand whose integral over [0, pi] (divided by pi) is
    sum_{s>=1} J_order(c s)/s; c is a float, or an array holding the c of
    each node.

    From J_n(z) = (1/pi) int_0^pi cos(n t - z sin t) dt and the Fourier
    series sum cos(su)/s = -log|2 sin(u/2)|, sum sin(su)/s = (pi - u)/2
    for u in (0, 2 pi), extended periodically.
    """
    def f(theta: np.ndarray) -> np.ndarray:
        u = c * np.sin(theta)
        um = np.mod(u, 2.0 * math.pi)
        mag = np.maximum(np.abs(2.0 * np.sin(u / 2.0)), 1e-300)
        return (np.cos(order * theta) * (-np.log(mag))
                + np.sin(order * theta) * (math.pi - um) / 2.0)
    return f


def _kernel_breakpoints(c: float) -> tuple[float, ...]:
    """Every theta in (0, pi) with c sin(theta) = 2 pi j, j >= 1, where
    the log kernel is singular."""
    bps = []
    j = 1
    while 2.0 * math.pi * j < c:
        t = math.asin(2.0 * math.pi * j / c)
        bps += [t, math.pi - t]
        j += 1
    return tuple(bps)


def bessel_inner_sum(order: int, c):
    """sum_{s>=1} J_order(c s)/s, summed in closed form, of a float c or of
    each entry of an array_like c.  Returns (value, error estimate), floats
    or arrays of c's shape.

    For odd order and c <= 2 pi the kernel integral evaluates exactly:
    1/order, minus c/4 when order = 1 (the odd-symmetry of cos(n t) about
    t = pi/2 kills every remaining term).  Beyond 2 pi the wrapped kernel
    is integrated by adaptive quadrature with breakpoints at every theta
    with c sin(theta) = 2 pi j, where the log kernel is singular.  The
    quadratures go to adaptive_quadrature_batch BESSEL_BATCH at a time, so
    memory stays bounded however many c there are; each result has the
    bits of a one-integral call.
    """
    cs = np.asarray(c, dtype=np.float64)
    if not (cs > 0).all():
        raise ValueError("c must be positive")
    flat = cs.ravel()
    value = np.full(flat.shape, 1.0 / order)
    if order == 1:
        value -= flat / 4.0
    error = np.zeros(flat.shape)
    quad = np.flatnonzero((order % 2 == 0) | (flat > 2.0 * math.pi))
    for lo in range(0, len(quad), BESSEL_BATCH):
        js = quad[lo:lo + BESSEL_BATCH]
        batch = flat[js]
        value[js], error[js] = np.divide(adaptive_quadrature_batch(
            lambda theta, i: _summed_kernel_integrand(order, batch[i])(theta),
            [(0.0, math.pi, _kernel_breakpoints(cj)) for cj in batch.tolist()],
            QUAD_TOL), math.pi)
    if cs.ndim:
        return value.reshape(cs.shape), error.reshape(cs.shape)
    return float(value[0]), float(error[0])


def murmuration_density_bessel(cfg: DensityConfig, y):
    """M_k(y) = alpha sqrt(y) sum_{d,s} Q(d) J_{k-1}(4 pi s sqrt(y)/d)/s,
    with the s-series summed in closed form, of a float or an array_like y.
    Returns (value, tail_bound), floats or arrays of y's shape.

    For every d > 2 sqrt(y) the inner sum is exactly 1/(k-1) (minus a
    linear term when k = 2), so the d-tail collapses onto the certified
    Euler-product values sum Q(d) = beta/alpha and
    sum Q(d)/d = gamma/(alpha pi); only d <= 2 sqrt(y) need quadrature.
    The k=2 linear pieces reassemble exactly the -gamma y term of the
    Chebyshev form, so no separate subtraction appears here.

    The inner sums of every (y, d) go to one bessel_inner_sum call and
    each y adds its terms in d order, so every entry has the bits of a
    one-y call, and Q(d) is computed once per d, not per (y, d).  A grid
    whose size times floor(2 sqrt(max y)) exceeds BESSEL_WORK_MAX is
    refused before any quadrature.
    """
    ys = np.asarray(y, dtype=np.float64)
    if (ys <= 0).any():
        raise ValueError("y must be positive")
    if not (ys <= BESSEL_YMAX).all():
        raise ValueError(f"y must be finite and at most BESSEL_YMAX = "
                         f"{BESSEL_YMAX:g} for the Bessel form")
    flat = ys.ravel().tolist()
    dmax = int(2.0 * math.sqrt(max(flat, default=0.0)))
    work = len(flat) * dmax
    if work > BESSEL_WORK_MAX:
        raise ValueError(f"{len(flat)} points up to y = {max(flat):g} make "
                         f"{work} point-d terms, more than "
                         f"BESSEL_WORK_MAX = {BESSEL_WORK_MAX}")
    order = cfg.k - 1
    al, be, ga = _alpha_beta_gamma(cfg.pmax)
    qs = [Q(d) for d in range(1, dmax + 1)]
    inner = zip(*(a.tolist() for a in bessel_inner_sum(order, [
        4.0 * math.pi * math.sqrt(v) / d for v in flat
        for d in range(1, int(2.0 * math.sqrt(v)) + 1) if qs[d - 1]])))

    q_total = be.value / al.value
    q_total_err = q_total * (be.tail_bound / be.value
                             + al.tail_bound / al.value)
    qd_total = ga.value / (al.value * math.pi)
    qd_total_err = qd_total * (ga.tail_bound / ga.value
                               + al.tail_bound / al.value)
    values, bounds = [], []
    for v in flat:
        sy = math.sqrt(v)
        head = 0.0
        quad_err = 0.0
        s_q = Fraction(0)
        s_qd = Fraction(0)
        for d, q in enumerate(qs[:int(2.0 * sy)], 1):
            s_q += q
            s_qd += q / d
            if q:
                vd, ed = next(inner)
                head += float(q) * vd
                quad_err += float(q) * ed
        tail = (q_total - float(s_q)) / order
        bracket = q_total_err / order
        if order == 1:
            tail -= math.pi * sy * (qd_total - float(s_qd))
            bracket += math.pi * sy * qd_total_err

        value = al.value * sy * (head + tail)
        tail_bound = al.value * sy * (quad_err + bracket)
        values.append(value)
        bounds.append(tail_bound + abs(value) * al.tail_bound / al.value)
    if ys.ndim:
        return np.reshape(values, ys.shape), np.reshape(bounds, ys.shape)
    return values[0], bounds[0]


# ---------------------------------------------------------------------------
# Oscillatory asymptotic profile
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _asymptotic_terms() -> tuple[np.ndarray, tuple[float, ...], list]:
    """The d <= ASYMPTOTIC_DMAX with Q(d) != 0, as float64, their weights
    q_sqrt_weights, which vanish exactly where Q(d) does, and blocks of
    their positions: (positions of odd d, positions of their 2d), the
    second as long as the first or empty.  Every even d is such a 2d."""
    weights = q_sqrt_weights(range(1, ASYMPTOTIC_DMAX + 1))
    ds = [d for d, w in enumerate(weights, 1) if w]
    at = {d: i for i, d in enumerate(ds)}
    twice = [d for d in ds if d % 2 and 2 * d in at]
    alone = [d for d in ds if d % 2 and 2 * d not in at]
    n = _ASYMPTOTIC_BLOCK // 2
    blocks = [([at[d] for d in twice[i:i + n]],
               [at[2 * d] for d in twice[i:i + n]])
              for i in range(0, len(twice), n)]
    blocks += [([at[d] for d in alone[i:i + 2 * n]], [])
               for i in range(0, len(alone), 2 * n)]
    return (np.array(ds, dtype=np.float64), tuple(w for w in weights if w),
            [(np.array(k, dtype=np.intp), np.array(k2, dtype=np.intp))
             for k, k2 in blocks])


def universal_asymptotic(T, cfg: DensityConfig):
    """The weight-independent oscillation profile in the T = sqrt(y)
    coordinate, of a float or an array_like T:

        (-1)^(k/2-1) (alpha / (pi sqrt(2))) sum_{d<=ASYMPTOTIC_DMAX} Q(d)
            sqrt(d) sum_{s<=ASYMPTOTIC_SMAX} cos(4 pi s T / d - 3 pi/4)
            / s^(3/2)

    so that M_k(T^2) = sqrt(T) * universal_asymptotic(T) + O(1); the
    amplitude comes from carrying the full sqrt(2/(pi z)) envelope of the
    large-argument Bessel expansion through z = 4 pi s T / d.  The k
    dependence is the global sign alone (the standard large-argument phase
    of J_{k-1} evaluates to (-1)^(k/2-1) cos(z - 3 pi/4) for even k).

    cpu_map's pool, one worker per CPU this process may run on, takes one
    whole T at a time.  The worker walks the d with Q(d) != 0 in blocks of
    _ASYMPTOTIC_BLOCK rows through its own 1 MB phase buffer (it fits a
    2 MB L2), takes the cosines in place (numpy releases the GIL there)
    and each row's np.vecdot with s^(-3/2), which has the bits of a
    per-row np.dot.  A row of d = 2k at s = 2j repeats the row of k at
    s = j bit for bit (the float (4 pi T)/(2k) is (4 pi T)/k halved
    exactly), so it is copied, not recomputed: a sixth of the cosines.
    The weighted row sums are added in d order, so every value is
    bit-identical to a one-d-at-a-time loop, and peak memory is one buffer
    per worker.  More than ASYMPTOTIC_POINTS_MAX values of T are refused.
    """
    Ts = np.asarray(T, dtype=np.float64)
    if (Ts <= 0).any():
        raise ValueError("T must be positive")
    if Ts.size > ASYMPTOTIC_POINTS_MAX:
        raise ValueError(f"{Ts.size} points are more than "
                         f"ASYMPTOTIC_POINTS_MAX = {ASYMPTOTIC_POINTS_MAX} "
                         f"for the asymptotic form")
    al = euler_constant("alpha", cfg.pmax).value
    ds, weights, blocks = _asymptotic_terms()
    s = np.arange(1, ASYMPTOTIC_SMAX + 1, dtype=np.float64)
    sw = s ** -1.5
    scale = _sign(cfg.k) * al / (math.pi * math.sqrt(2.0))

    def profile(t: float) -> float:
        freq = (4.0 * math.pi * t) / ds
        buffer = np.empty((_ASYMPTOTIC_BLOCK, ASYMPTOTIC_SMAX))
        dots = np.empty(len(ds))
        for k, k2 in blocks:                # rows k, then any rows 2k
            head, tail = buffer[:len(k)], buffer[len(k):len(k) + len(k2)]
            odd_s = tail[:, ::2]
            np.multiply(freq[k, None], s, out=head)
            np.multiply(freq[k2, None], s[::2], out=odd_s)
            head -= 0.75 * math.pi
            odd_s -= 0.75 * math.pi
            np.cos(head, out=head)
            np.cos(odd_s, out=odd_s)
            tail[:, 1::2] = head[:len(k2), :ASYMPTOTIC_SMAX // 2]
            dots[k] = np.vecdot(head, sw)
            dots[k2] = np.vecdot(tail, sw)
        total = 0.0
        for w, dot in zip(weights, dots.tolist()):
            total += w * dot
        return scale * total

    values = cpu_map(profile, Ts.ravel().tolist())
    return np.reshape(values, Ts.shape) if Ts.ndim else values[0]


# ---------------------------------------------------------------------------
# Dyadic and smoothed averages
# ---------------------------------------------------------------------------

def _kink_breakpoints(y: float, lo: float, hi: float) -> tuple[float, ...]:
    """Integration breakpoints u in (lo, hi) where M_k(y/u) has a kink,
    i.e. u = 4y/r^2 for positive integers r."""
    out = []
    r = 1
    while 4.0 * y / (r * r) > lo:
        u = 4.0 * y / (r * r)
        if u < hi:
            out.append(u)
        r += 1
    return tuple(out)


def dyadic_density(c: float, y: float, cfg: DensityConfig) -> float:
    """The dyadic average 2/(c^2 - 1) * int_1^c u M_k(y/u) du by adaptive
    quadrature with forced breakpoints at every kink of M_k."""
    if c <= 1:
        raise ValueError("c must exceed 1")
    if y <= 0:
        raise ValueError("y must be positive")

    val, _ = adaptive_quadrature(lambda u: u * murmuration_density(cfg, y / u),
                                 1.0, c, QUAD_TOL,
                                 _kink_breakpoints(y, 1.0, c))
    return 2.0 / (c * c - 1.0) * val


def dyadic_closed_form_constants() -> tuple[float, float, float]:
    """(a, b, c) of the k=2, c=2 dyadic closed form, assembled from the
    Euler-product constants at the density's prime cutoff:
    a = (4/9)(2^(3/2) - 1) beta, b = (2/3) gamma, c = (2/3) alpha."""
    al, be, ga = (ev.value for ev in _alpha_beta_gamma(DensityConfig.pmax))
    return ((4.0 / 9.0) * (2.0 ** 1.5 - 1.0) * be,
            (2.0 / 3.0) * ga,
            (2.0 / 3.0) * al)


def dyadic_closed_form_k2(y: float) -> float:
    """Closed form of the k=2, c=2 dyadic average on [0, 1]:

        a sqrt(y) - b y + c * A(y),

    where A(y) = int_1^min(2, 4y) sqrt(u (4y - u)) du (empty below 1/4),
    evaluated from the antiderivative
    ((u - 2y)/2) sqrt(u(4y - u)) + 2 y^2 arcsin((u - 2y)/(2y))."""
    if not 0.0 <= y <= 1.0:
        raise ValueError("y must lie in [0, 1]")
    a, b, c = dyadic_closed_form_constants()
    value = a * math.sqrt(y) - b * y
    if y <= 0.25:
        return value

    def antider(u: float) -> float:
        s = max(u * (4.0 * y - u), 0.0)
        return (0.5 * (u - 2.0 * y) * math.sqrt(s)
                + 2.0 * y * y * math.asin(min(1.0, max(-1.0, (u - 2.0 * y)
                                                       / (2.0 * y)))))

    hi = min(2.0, 4.0 * y)
    return value + c * (antider(hi) - antider(1.0))


def smoothed_average(phi, y: float, cfg: DensityConfig,
                     support: tuple[float, float]) -> float:
    """The phi-weighted average
    (int M_k(y/u) phi(u) u du) / (int phi(u) u du) over the given support.

    phi must be a nonnegative callable vanishing outside support (a sharp
    window 1_[1,c] is exactly dyadic_density(c, y, cfg)), called on one
    quadrature node at a time."""
    lo, hi = support
    if not 0 < lo < hi:
        raise ValueError("support must satisfy 0 < lo < hi")

    def weight(u: np.ndarray) -> np.ndarray:
        return u * np.array([phi(ui) for ui in u])

    nval, _ = adaptive_quadrature(
        lambda u: weight(u) * murmuration_density(cfg, y / u), lo, hi,
        QUAD_TOL, _kink_breakpoints(y, lo, hi))
    dval, _ = adaptive_quadrature(weight, lo, hi, QUAD_TOL)
    if dval == 0.0:
        raise ZeroDivisionError("weight integrates to zero")
    return nval / dval

