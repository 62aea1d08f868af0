"""Exact class numbers of negative discriminants.

Two routes, cross-checked against each other:

  * reduced-form enumeration, exact: per value (``gauss_h_bruteforce``
    for h, ``hurwitz_H1`` for H_1) or batched over a range
    (``hurwitz_sieve``);
  * ``hurwitz_H1_certified``: H_1(-d) from one certified class number
    h(d0) of the fundamental discriminant d0, where -d = d0 F^2, by the
    conductor sum (Cox, Primes of the form x^2 + ny^2, Thm 7.24)

        H_1(-d) = (2 h(d0)/w(d0)) prod_{p^e || F} (1 + (p - (d0|p)) (p^e - 1)/(p - 1)),

    w(d0) the number of units (6 at -3, 4 at -4, else 2).  h(d0) is a
    smoothed character sum that provably rounds to the exact integer,
    fast enough for discriminants ~ 10^11 (``gauss_h_certified``); its
    character (d0|n) is a product of quadratic-residue tables mod the odd
    primes of d0 and a mod-8 table for its 2-part (``_chi_table``), and
    its erfc a numpy polynomial (``_erfcx``).

Conventions: h counts primitive reduced forms (so h(-3) = h(-4) = 1).
H_1(-d) counts all reduced forms, primitive or not, weighting the classes
of t(x^2+y^2) by 1/2 and t(x^2+xy+y^2) by 1/3; it is zero when -d = 2, 3
mod 4.

The batch tabulation stores 6 H_1(-d), always an integer, as an int32
array; its cache file (MURH1 version 2) is a fixed header followed by
that array's raw bytes.

Every class-number route here needs numpy alone.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as _np

from .arith import kronecker, primes_upto, shared_sieve


# ---------------------------------------------------------------------------
# Reduced-form enumeration
# ---------------------------------------------------------------------------

def _check_disc(d: int) -> None:
    if d <= 0 or (-d) % 4 not in (0, 1):
        raise ValueError(f"-{d} is not a negative quadratic discriminant")


def _form_count(d: int, primitive: bool):
    """Enumerate reduced forms (a,b,c) of discriminant -d.

    Returns (count, n_ambiguous_1_0_1, n_ambiguous_1_1_1) where the last two
    flag forms proportional to x^2+y^2 and x^2+xy+y^2 (the extra-automorphism
    classes).  Reduced means |b| <= a <= c with b >= 0 when |b| = a or a = c;
    the enumeration runs b >= 0 and counts (a,b,c) twice when both signs of b
    are reduced.
    """
    _check_disc(d)
    count = 0
    w2 = 0  # forms (t, 0, t): two extra automorphisms
    w3 = 0  # forms (t, t, t): three extra automorphisms
    b = d & 1  # b^2 = -d mod 4 forces b parity
    bmax = math.isqrt(d // 3)
    while b <= bmax:
        m = (d + b * b) // 4
        # divisors a of m with b <= a <= sqrt(m)
        for a in _divisors_upto_sqrt(m):
            if a < b or a == 0:
                continue
            c = m // a
            if primitive and math.gcd(math.gcd(a, b), c) != 1:
                continue
            if b == 0:
                count += 1
                if a == c:
                    w2 += 1
            elif b == a or a == c:
                count += 1
                if b == a == c:
                    w3 += 1
            else:
                count += 2
        b += 2
    return count, w2, w3


def _divisors_upto_sqrt(m: int) -> list[int]:
    """All divisors a of m with a*a <= m."""
    if m == 0:
        return []
    divs = [1]
    for p, e in shared_sieve().factor(m):
        pk, powers = 1, []
        for _ in range(e):
            pk *= p
            powers.append(pk)
        divs += [q * pw for q in divs for pw in powers]
    r = math.isqrt(m)
    return [a for a in divs if a <= r]


def gauss_h_bruteforce(d: int) -> int:
    """Class number h(-d): number of primitive reduced forms of discriminant -d."""
    count, _, _ = _form_count(d, primitive=True)
    return count


def hurwitz_H1(d: int) -> Fraction:
    """Hurwitz class number H_1(-d) by direct weighted form counting.

    Counts every reduced form of discriminant -d (imprimitive included),
    weighting the classes of t(x^2+y^2) by 1/2 and t(x^2+xy+y^2) by 1/3.
    Equals sum over f^2 | d of h(-d/f^2) with the bottom-discriminant
    weights; zero when -d = 2, 3 mod 4.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    if (-d) % 4 in (2, 3):
        return Fraction(0)
    count, w2, w3 = _form_count(d, primitive=False)
    return Fraction(count) - Fraction(w2, 2) - Fraction(2 * w3, 3)


# ---------------------------------------------------------------------------
# Batch tabulation
# ---------------------------------------------------------------------------

# 6 H_1(-d) is an integer: the only non-integral weights are 1/2 and 1/3.
_DTYPE = _np.dtype("<i4")


@dataclass(eq=False)
class HurwitzTable:
    """H_1(-d) for dmin <= d <= dmax, stored as the integers 6 H_1(-d).

    six[d - dmin] = 6 H_1(-d), a little-endian int32 array; entries vanish
    at -d = 2, 3 mod 4.  Tables compare by identity: == on the array is
    elementwise.
    """

    dmin: int
    dmax: int
    six: _np.ndarray

    def __getitem__(self, d: int) -> Fraction:
        if not (self.dmin <= d <= self.dmax):
            raise IndexError(f"d={d} outside table range [{self.dmin}, {self.dmax}]")
        return Fraction(int(self.six[d - self.dmin]), 6)


def hurwitz_sieve(dmin: int, dmax: int) -> HurwitzTable:
    """Tabulate H_1(-d) on [dmin, dmax] by global reduced-form enumeration.

    Runs over all (a, b, c) with |b| <= a <= c and 0 < 4ac - b^2 <= dmax,
    so each entry independently equals the per-value hurwitz_H1.  For
    fixed (b, a) the discriminants 4ac - b^2 step by 4a in c, so each pair
    is one strided add.
    """
    if dmin < 1 or dmax < dmin:
        raise ValueError("need 1 <= dmin <= dmax")
    six = _np.zeros(dmax - dmin + 1, dtype=_DTYPE)
    for b in range(0, math.isqrt(dmax // 3) + 1):
        b2 = b * b
        # 4ac - b^2 <= dmax and c >= a  ->  a <= sqrt((dmax + b^2)) / 2
        for a in range(max(b, 1), math.isqrt(dmax + b2) // 2 + 1):
            a4 = 4 * a
            d = a4 * a - b2                    # c = a
            if d < dmin:
                d += (dmin - d + a4 - 1) // a4 * a4
            elif 0 < b < a:
                six[d - dmin] -= 6             # a = c keeps only b >= 0
            if d > dmax:
                continue
            # weight 1 at b = 0 or b = a, else both signs of b are reduced
            six[d - dmin::a4] += 6 if b == 0 or b == a else 12
    # (t, t, t) weighs 1/3 and (t, 0, t) weighs 1/2, not 1
    t = _np.arange(1, math.isqrt(dmax // 3) + 1, dtype=_np.int64)
    for d, fix in ((3 * t * t, 4), (4 * t * t, 3)):
        six[d[(d >= dmin) & (d <= dmax)] - dmin] -= fix
    return HurwitzTable(dmin=dmin, dmax=dmax, six=six)


# ---------------------------------------------------------------------------
# Cache file format
# ---------------------------------------------------------------------------

_MAGIC = b"MURH1"
_VERSION = 2
_HEADER = struct.Struct("<IQQ")


def save_table(table: HurwitzTable, path: str | os.PathLike) -> None:
    """Serialize a table: magic, u32 version, u64 dmin/dmax, then the
    dmax - dmin + 1 little-endian int32 values 6 H_1(-d)."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(_VERSION, table.dmin, table.dmax))
        fh.write(table.six.astype(_DTYPE, copy=False).tobytes())


def load_table(path: str | os.PathLike) -> HurwitzTable:
    """Inverse of save_table; bit-exact round trip.

    A wrong magic, an old or unknown version, or a payload that is not
    exactly dmax - dmin + 1 int32 values raises ValueError.
    """
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError("not a class-number table file")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError("corrupt table payload")
        version, dmin, dmax = _HEADER.unpack(header)
        if version == 1:
            raise ValueError("class-number table is version 1 (run-length "
                             "format); rerun `murmur sieve-classnumbers`")
        if version != _VERSION:
            raise ValueError(f"unsupported table version {version}")
        payload = fh.read()
    if dmax < dmin or len(payload) != (dmax - dmin + 1) * _DTYPE.itemsize:
        raise ValueError("corrupt table payload")
    return HurwitzTable(dmin=dmin, dmax=dmax,
                        six=_np.frombuffer(payload, dtype=_DTYPE))


# ---------------------------------------------------------------------------
# Certified analytic route
# ---------------------------------------------------------------------------

def fundamental_decomposition(d: int) -> tuple[int, int]:
    """Write -d = d0 * f^2 with d0 a fundamental discriminant; return (d0, f)."""
    _check_disc(d)
    s, f = 1, 1
    for p, e in shared_sieve().factor(d):
        if e % 2:
            s *= p
        f *= p ** (e // 2)
    if s % 4 == 3:
        return -s, f
    # s = 1, 2 mod 4: fundamental part is -4s, pulling one factor 2 out of f
    if f % 2:
        raise ValueError(f"-{d} is not a discriminant")  # unreachable for valid d
    return -4 * s, f // 2


def gauss_h_certified(q: int) -> int:
    """Exact h(-q) for a fundamental discriminant -q, via a smoothed
    character sum with a certified tail.

    With chi = (-q|.), theta-function symmetrization gives

        L(1, chi) = Sum_n chi(n) [ exp(-pi n^2/q)/n + (pi/sqrt(q)) erfc(n sqrt(pi/q)) ]

    with tail beyond n0 at most (q/(pi n0^2)) exp(-pi n0^2/q).  The cutoff
    is chosen so the resulting error in h is below 0.05, and the float is
    rounded to the nearest integer; a rounding margin worse than 0.25
    falls back to form counting.  The bound covers the truncated tail and
    the error of the numpy erfc, at most n0 * 1e-15 in h (n0 ~ 1e6 at q ~ 1e11);
    it does not cover float rounding in the partial sum, which the margin
    absorbs.  A non-fundamental -q raises ValueError (see
    hurwitz_H1_certified).
    """
    if fundamental_decomposition(q) != (-q, 1):
        raise ValueError(f"-{q} is not a fundamental discriminant")
    if q == 3 or q == 4:
        return 1
    n0 = _cutoff(q)
    chi = _chi_table(-q, n0)
    # only n with chi(n) != 0 contribute; blocks of 16384 stay in cache
    support = _np.flatnonzero(chi) + 1
    lval = 0.0
    for i in range(0, len(support), 1 << 14):
        n = support[i:i + (1 << 14)]
        x = n * math.sqrt(math.pi / q)
        # exp(-x^2)/n + (pi/sqrt(q)) erfc(x), erfc(x) = exp(-x^2) _erfcx(x)
        terms = _np.exp(-x * x) * (1 / n + math.pi / math.sqrt(q) * _erfcx(x))
        lval += float(_np.dot(chi[n - 1], terms))
    happrox = math.sqrt(q) / math.pi * lval
    h = round(happrox)
    if abs(happrox - h) > 0.25:
        h = gauss_h_bruteforce(q)
    return h


def _cutoff(q: int) -> int:
    """The n0 of gauss_h_certified: (q/u) e^{-u} <= 0.05 pi/sqrt(q) with
    u = pi n0^2/q, so the truncated tail moves h by at most 0.05."""
    target = 0.05 * math.pi / math.sqrt(q)
    u = 2.0
    for _ in range(60):
        u = math.log(q / (u * target))
        if u < 2.0:
            u = 2.0
            break
    return math.isqrt(int(q * u / math.pi)) + 2


# (1 + 2x) exp(x^2) erfc(x) = Sum_k _ERFC_T[k] t^k, t = (x - 3.75)/(x + 3.75),
# for every x >= 0 (t runs from -1 at x = 0 to 1 as x grows), to 4e-16
# relative: the form of Shepherd and Laframboise (Math. Comp. 36, 1981),
# here the degree-23 Chebyshev interpolant in t computed with mpmath at 40
# digits and written out in powers of t.  No coefficient exceeds 1.3, so
# Horner's rule loses nothing to cancellation.
_ERFC_T = (
    1.2375126308378275, -0.14024059858554697, 0.0035854154854790257,
    0.0822767384901452, -0.10880393014244462, 0.09230432116037748,
    -0.05869339857664934, 0.028362277418956406, -0.009746579683265262,
    0.0017556258528952954, 0.000293714378044958, -0.0002901540805408417,
    5.164652974177416e-05, 2.238423915508223e-05, -1.1438048033346894e-05,
    -9.73559896736775e-07, 1.7419821586224816e-06, -5.7218230603224086e-08,
    -2.4857126248016745e-07, 2.3263508708859124e-08, 3.197926671666804e-08,
    -3.744210080962018e-09, -2.623107347133476e-09, 3.1114333809799254e-10,
)


def _erfcx(x):
    """exp(x^2) erfc(x) for a float array x >= 0; exp(-x^2) _erfcx(x) is
    erfc(x) within 1e-15 absolute."""
    t = (x - 3.75) / (x + 3.75)
    y = _np.full_like(t, _ERFC_T[-1])
    for c in _ERFC_T[-2::-1]:
        y *= t
        y += c
    y /= 1 + 2 * x
    return y


@functools.cache
def hurwitz_H1_certified(d: int) -> Fraction:
    """H_1(-d) from the one certified class number h(d0), -d = d0 F^2,
    by the conductor sum in the module docstring; zero when -d = 2, 3
    mod 4.  Each factor 1 + (p - (d0|p))(p^e - 1)/(p - 1) sums the
    conductor formula's h(d0 f^2)/h(d0) over f = 1, p, ..., p^e.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    if (-d) % 4 in (2, 3):
        return Fraction(0)
    d0, F = fundamental_decomposition(d)
    total = 1
    for p, e in shared_sieve().factor(F):
        total *= 1 + (p - kronecker(d0, p)) * (p ** e - 1) // (p - 1)
    # 2 / w(d0): w = 6 at d0 = -3, 4 at d0 = -4, else 2
    return Fraction(gauss_h_certified(-d0) * total, {3: 3, 4: 2}.get(-d0, 1))


def _chi_table(d0: int, n0: int):
    """chi_{d0}(n) = (d0|n) for n = 1..n0 as an int8 array of -1, 0, +1,
    for a discriminant d0 (d0 = 0 or 1 mod 4).

    A product of prime-discriminant characters (Cox, Primes of the form
    x^2 + ny^2, Sections 7 and 9): with l* = (-1)^((l-1)/2) l for each odd
    prime l^e || d0 and u = d0 / prod l*^e, the 2-part (1, -4, 8, -8, or
    another +-2^a when d0 is not fundamental),

        (d0|n) = (u|n) prod_l (l*|n)^e = (u|n) prod_l (n|l)^e,

    where (u|n) has period 8 in n and (n|l) is the quadratic-residue table
    mod l, tiled to n0.  A prime l > 4 n0 takes _legendre_upto instead of
    a table of l entries.
    """
    assert d0 % 4 in (0, 1), d0
    chi = _np.ones(n0 + 1, dtype=_np.int8)  # chi[n], n = 0..n0
    u = d0
    for l, e in shared_sieve().factor(abs(d0)):
        if l == 2:
            continue
        u //= (l if l % 4 == 1 else -l) ** e
        if e % 2 == 0:
            chi[::l] = 0
        elif l > 4 * n0:
            chi[1:] *= _legendre_upto(n0, l)
        else:
            row = _np.full(l, -1, dtype=_np.int8)
            row[0] = 0
            i = _np.arange(1, l // 2 + 1, dtype=_np.int64)
            row[i * i % l] = 1
            _times_periodic(chi, row)
    if u != 1:
        _times_periodic(chi, _np.array([kronecker(u, r) for r in range(8)],
                                       dtype=_np.int8))
    return chi[1:]


def _times_periodic(chi, row) -> None:
    """chi[n] *= row[n % len(row)] in place, without tiling row."""
    m = len(row)
    full = len(chi) // m * m
    chi[:full].reshape(-1, m)[:] *= row
    chi[full:] *= row[:len(chi) - full]


def _legendre_upto(n0: int, l: int):
    """(n|l) for n = 1..n0 and an odd prime l > n0, as an int8 array.

    At a prime p <= n0, (p|l) = (l*|p) by reciprocity: Kronecker's (l*|2)
    at p = 2, and Euler's criterion (l* mod p)^((p-1)/2) mod p at odd p,
    in int64 whatever the size of l.  Complete multiplicativity then makes
    (n|l) = (-1)^k, k the number of non-residue prime powers dividing n.
    """
    ls = l if l % 4 == 1 else -l
    p = primes_upto(n0)[1:]
    if abs(ls) < 2 ** 63:
        a = _np.int64(ls) % p
    else:
        a = _np.array([ls % v for v in p.tolist()], dtype=_np.int64)
    e = (p - 1) >> 1
    r = _np.ones_like(p)
    while e.any():
        r = _np.where(e & 1, r * a % p, r)
        a = a * a % p
        e >>= 1
    g = p[r != 1]
    if n0 >= 2 and kronecker(ls, 2) == -1:
        g = _np.concatenate(([2], g))
    powers, base = [g], g
    while len(g):
        keep = g <= n0 // base
        g, base = g[keep] * base[keep], base[keep]
        powers.append(g)
    g = _np.concatenate(powers)
    # the multiples g, 2g, ..., of every such power g, as one running sum
    # restarted at each g, counted once each
    count = n0 // g
    step = _np.repeat(g, count)
    step[_np.cumsum(count)[:-1]] -= (g * count)[:-1]
    k = _np.bincount(_np.cumsum(step), minlength=n0 + 1)[1:]
    return (1 - 2 * (k & 1)).astype(_np.int8)
