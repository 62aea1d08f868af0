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
# Rows of d per universal_asymptotic task: 32 x 4000 float64, 1 MB for L2.
_ASYMPTOTIC_BLOCK = 32

# The largest y the Chebyshev and Bessel forms accept: their loops over
# r or d <= 2 sqrt(y) take 7-11 s there on a 2-core VM.
CHEBYSHEV_YMAX, BESSEL_YMAX = 1e10, 1e6

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
    """Integrate a vectorized callable on [a, b] to absolute tolerance tol.

    The interval is pre-split at every interior breakpoint (integrand kinks
    and singular points must be listed there); each piece is then bisected
    adaptively with the Gauss-Kronrod 7-15 error estimate, down to
    MAX_DEPTH bisections.  Returns (value, accumulated error estimate);
    a panel still above its tolerance at MAX_DEPTH raises ValueError.

    The panels of all pieces are bisected together, a level at a time:
    f is called once per level on the 1-D array of every open panel's 15
    nodes, so it must act elementwise.  np.vecdot of those rows gives each
    K15 and G7 with the bits of a per-row np.dot; the accepted panels are
    summed one by one in the order a depth-first, right-half-first
    bisection accepts them (pieces ascending, then descending left end),
    so value and error are bit-identical to that panel-at-a-time loop.
    Of the panels still open at MAX_DEPTH, the error names the one that
    loop reaches first: the rightmost in the lowest piece.
    """
    pts = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    width = b - a
    piece = np.arange(len(pts) - 1)
    x0 = np.array(pts[:-1], dtype=np.float64)
    x1 = np.array(pts[1:], dtype=np.float64)
    accepted = []                       # (piece, x0, value, error)
    depth = 0
    while len(piece):
        half = 0.5 * (x1 - x0)
        mid = 0.5 * (x0 + x1)
        ys = np.asarray(f((mid[:, None] + half[:, None] * _NODES).ravel()))
        ys = ys.reshape(len(piece), len(_NODES))
        k15 = half * np.vecdot(ys, _WK)
        err = np.abs(k15 - half * np.vecdot(ys, _WG15))
        ok = err <= tol * np.maximum((x1 - x0) / width, 1e-6)
        accepted += zip(piece[ok].tolist(), x0[ok].tolist(),
                        k15[ok].tolist(), err[ok].tolist())
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
    total = 0.0
    err_total = 0.0
    for _, _, val, err in sorted(accepted, key=lambda t: (t[0], -t[1])):
        total += val
        err_total += err
    return total, err_total


# ---------------------------------------------------------------------------
# The Chebyshev (finite-sum) form of M_k
# ---------------------------------------------------------------------------

def murmuration_density(cfg: DensityConfig, y):
    """M_k(y) via the finite Chebyshev sum, of a float or an array_like.

    M_k(y) = (alpha (-1)^(k/2-1) / (k-1)) sum_{1<=r<=2 sqrt(y)} nu(r)
             * sqrt(4y - r^2) U_{k-2}(r / (2 sqrt y))
             + (beta/(k-1)) sqrt(y) - gamma [k=2] y.

    An r past 2 sqrt(y) adds +-0, so each entry keeps its float's bits.
    """
    y = np.asarray(y, dtype=np.float64)
    if (y <= 0).any():
        raise ValueError("y must be positive")
    if not (y <= CHEBYSHEV_YMAX).all():
        raise ValueError(f"y must be finite and at most CHEBYSHEV_YMAX = "
                         f"{CHEBYSHEV_YMAX:g} for the Chebyshev form")
    k = cfg.k
    al, be, ga = (euler_constant(kind, cfg.pmax).value
                  for kind in ("alpha", "beta", "gamma"))
    two_sqrt_y = 2.0 * np.sqrt(y)
    total = np.zeros(y.shape)
    for r in range(1, int(two_sqrt_y.max(initial=0.0)) + 1):
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

def _summed_kernel_integrand(order: int, c: float):
    """Vectorized integrand whose integral over [0, pi] (divided by pi) is
    sum_{s>=1} J_order(c s)/s.

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


def bessel_inner_sum(order: int, c: float) -> tuple[float, float]:
    """sum_{s>=1} J_order(c s)/s, summed in closed form.  Returns
    (value, error estimate).

    For odd order and c <= 2 pi the kernel integral evaluates exactly:
    1/order, minus c/4 when order = 1 (the odd-symmetry of cos(n t) about
    t = pi/2 kills every remaining term).  Beyond 2 pi the wrapped kernel
    is integrated by adaptive quadrature with breakpoints at every theta
    with c sin(theta) = 2 pi j, where the log kernel is singular.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    if order % 2 == 1 and c <= 2.0 * math.pi:
        return 1.0 / order - (c / 4.0 if order == 1 else 0.0), 0.0
    bps = []
    j = 1
    while 2.0 * math.pi * j < c:
        t = math.asin(2.0 * math.pi * j / c)
        bps += [t, math.pi - t]
        j += 1
    val, err = adaptive_quadrature(_summed_kernel_integrand(order, c),
                                   0.0, math.pi, QUAD_TOL, tuple(bps))
    return val / math.pi, err / math.pi


def murmuration_density_bessel(cfg: DensityConfig, y: float
                               ) -> tuple[float, float]:
    """M_k(y) = alpha sqrt(y) sum_{d,s} Q(d) J_{k-1}(4 pi s sqrt(y)/d)/s,
    with the s-series summed in closed form.  Returns (value, tail_bound).

    For every d > 2 sqrt(y) the inner sum is exactly 1/(k-1) (minus a
    linear term when k = 2), so the d-tail collapses onto the certified
    Euler-product values sum Q(d) = beta/alpha and
    sum Q(d)/d = gamma/(alpha pi); only d <= 2 sqrt(y) need quadrature.
    The k=2 linear pieces reassemble exactly the -gamma y term of the
    Chebyshev form, so no separate subtraction appears here.
    """
    if y <= 0:
        raise ValueError("y must be positive")
    if not y <= BESSEL_YMAX:
        raise ValueError(f"y must be finite and at most BESSEL_YMAX = "
                         f"{BESSEL_YMAX:g} for the Bessel form")
    k = cfg.k
    order = k - 1
    sy = math.sqrt(y)
    al, be, ga = (euler_constant(kind, cfg.pmax)
                  for kind in ("alpha", "beta", "gamma"))

    d0 = int(2.0 * sy)
    head = 0.0
    quad_err = 0.0
    s_q = Fraction(0)
    s_qd = Fraction(0)
    for d in range(1, d0 + 1):
        q = Q(d)
        s_q += q
        s_qd += q / d
        if q == 0:
            continue
        v, e = bessel_inner_sum(order, 4.0 * math.pi * sy / d)
        head += float(q) * v
        quad_err += float(q) * e

    q_total = be.value / al.value
    q_total_err = q_total * (be.tail_bound / be.value
                             + al.tail_bound / al.value)
    tail = (q_total - float(s_q)) / order
    bracket = q_total_err / order
    if order == 1:
        qd_total = ga.value / (al.value * math.pi)
        qd_total_err = qd_total * (ga.tail_bound / ga.value
                                   + al.tail_bound / al.value)
        tail -= math.pi * sy * (qd_total - float(s_qd))
        bracket += math.pi * sy * qd_total_err

    value = al.value * sy * (head + tail)
    tail_bound = al.value * sy * (quad_err + bracket)
    tail_bound += abs(value) * al.tail_bound / al.value
    return value, tail_bound


# ---------------------------------------------------------------------------
# Oscillatory asymptotic profile
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _asymptotic_terms() -> tuple[np.ndarray, tuple[float, ...]]:
    """The d <= ASYMPTOTIC_DMAX with Q(d) != 0, as float64, and their
    weights q_sqrt_weights, which vanish exactly where Q(d) does."""
    weights = q_sqrt_weights(range(1, ASYMPTOTIC_DMAX + 1))
    ds = [d for d, w in enumerate(weights, 1) if w]
    return np.array(ds, dtype=np.float64), tuple(w for w in weights if w)


def universal_asymptotic(T: float, cfg: DensityConfig) -> float:
    """The weight-independent oscillation profile in the T = sqrt(y)
    coordinate:

        (-1)^(k/2-1) (alpha / (pi sqrt(2))) sum_{d<=ASYMPTOTIC_DMAX} Q(d)
            sqrt(d) sum_{s<=ASYMPTOTIC_SMAX} cos(4 pi s T / d - 3 pi/4)
            / s^(3/2)

    so that M_k(T^2) = sqrt(T) * universal_asymptotic(T) + O(1); the
    amplitude comes from carrying the full sqrt(2/(pi z)) envelope of the
    large-argument Bessel expansion through z = 4 pi s T / d.  The k
    dependence is the global sign alone (the standard large-argument phase
    of J_{k-1} evaluates to (-1)^(k/2-1) cos(z - 3 pi/4) for even k).

    The d with Q(d) != 0 are split into blocks of _ASYMPTOTIC_BLOCK;
    cpu_map's pool, one worker per CPU this process may run on, builds
    each block's phase matrix (1 MB: it fits a 2 MB L2), takes its cosines
    in place (numpy releases the GIL there) and takes each row's np.vecdot
    with s^(-3/2), which has the bits of a per-row np.dot.  The main thread
    adds the weighted row sums in d order, so the value is bit-identical
    to a one-d-at-a-time loop, and peak memory is one block per worker.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    al = euler_constant("alpha", cfg.pmax).value
    ds, weights = _asymptotic_terms()
    s = np.arange(1, ASYMPTOTIC_SMAX + 1, dtype=np.float64)
    sw = s ** -1.5
    freq = (4.0 * math.pi * T) / ds

    def row_sums(lo: int) -> list[float]:
        phases = freq[lo:lo + _ASYMPTOTIC_BLOCK, None] * s
        phases -= 0.75 * math.pi
        np.cos(phases, out=phases)
        return np.vecdot(phases, sw).tolist()

    blocks = cpu_map(row_sums, range(0, len(ds), _ASYMPTOTIC_BLOCK))
    total = 0.0
    dots = (dot for block in blocks for dot in block)
    for w, dot in zip(weights, dots):
        total += w * dot
    return _sign(cfg.k) * al / (math.pi * math.sqrt(2.0)) * total


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
    al, be, ga = (euler_constant(kind, DensityConfig.pmax).value
                  for kind in ("alpha", "beta", "gamma"))
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

