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
    primes of d0 and a mod-8 table for its 2-part (``_chi_table``), with
    a prime of d0 too large to tabulate filled multiplicatively through a
    smallest-prime-factor sieve (``_legendre_upto``).  Its summand is
    1/(sqrt(pi) x) plus one q-free function R(x), read from a cubic table
    built on the first certified call (``_kernel_table``).

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

from .arith import kronecker, primes_upto, shared_sieve, sieve_covering


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
    d0, f, _ = _decompose(d)
    return d0, math.prod(p ** e for p, e in f)


def _decompose(d: int):
    """fundamental_decomposition(d) with f as (p, e) pairs, and the (p, e)
    pairs of -d0, read off d's: d is the only number factored."""
    _check_disc(d)
    factors = shared_sieve().factor(d)
    core = [(p, 1) for p, e in factors if e % 2]     # of d's square-free part s
    s = math.prod(p for p, _ in core)
    f = [(p, e // 2) for p, e in factors if e > 1]
    if s % 4 == 3:
        return -s, f, core
    # s = 1, 2 mod 4: fundamental part is -4s, pulling one factor 2 out of f
    if not f or f[0][0] != 2:
        raise ValueError(f"-{d} is not a discriminant")  # unreachable for valid d
    f = [(p, e - (p == 2)) for p, e in f if (p, e) != (2, 1)]
    if s % 2:
        return -4 * s, f, [(2, 2)] + core
    return -4 * s, f, [(2, 3)] + core[1:]                # core[0] = (2, 1)


# The largest cutoff n0 the certified sum accepts.  At it, at the prime
# q = 45985793568431 (n0 = 2^24), one h took 1.35-1.6 s and raised the peak
# RSS by 103 MB on a 2-core x86-64 VM: about 1e-7 s and 6 bytes per n (the
# character, then its sieve).  It also keeps every x = n sqrt(pi/q) inside
# the kernel table.  _cutoff's u solves u e^u = sqrt(q)/(5e-4 pi), at least
# 1102 > 5 e^5 for q >= 3, so u > 5 and n0 > sqrt(5q/pi): the bound admits
# only q < pi 2^48/5 < 1.8e14 (about 4.6e13 in fact, where u ~ 19).  There
# u e^u < 8.5e9, so u < 20.3 and x <= sqrt(u) + 2 sqrt(pi/q) < 4.51 + 2.05
# < 7.6 (4.4 at most in fact).
CERTIFIED_N0_MAX = 1 << 24


def gauss_h_certified(q: int, factors: list[tuple[int, int]] | None = None
                      ) -> int:
    """Exact h(-q) for a fundamental discriminant -q, via a smoothed
    character sum with a certified tail.

    With chi = (-q|.), theta-function symmetrization gives

        L(1, chi) = Sum_n chi(n) [ exp(-pi n^2/q)/n + (pi/sqrt(q)) erfc(n sqrt(pi/q)) ]

    In units of h = sqrt(q) L(1, chi)/pi the summand is chi(n) K(n a),
    a = sqrt(pi/q),

        K(x) = erfc(x) + exp(-x^2)/(sqrt(pi) x) = 1/(sqrt(pi) x) + R(x),

    R read from a table (_kernel_table).  K decreases, and
    erfc(x) <= exp(-x^2)/(sqrt(pi) x) gives K(x) <= 2 exp(-x^2)/(sqrt(pi) x),
    so with u = pi n0^2/q = (n0 a)^2 the tail beyond n0 is at most

        Sum_{n > n0} K(n a) <= (1/a) Int_{n0 a}^oo K <= sqrt(q) e^{-u}/(pi u),

    which _cutoff holds to 5e-4 in h.  The float is rounded to the nearest
    integer; a rounding margin worse than 0.25 falls back to form
    counting.  The bound covers the truncated tail and the table's error,
    at most n0 _KERNEL_EPS in h (4.2e-7 at n0 = CERTIFIED_N0_MAX); it does
    not cover float rounding in x = n a or in the partial sum, which the
    margin absorbs.  A non-fundamental -q raises ValueError (see
    hurwitz_H1_certified), and so does an n0 above CERTIFIED_N0_MAX,
    before anything is allocated.  factors, when given, are the (p, e)
    pairs of q from a caller that has already found -q fundamental
    (hurwitz_H1_certified reads them off d's), and q is not factored again.
    """
    happrox = _h_approx(q, factors)
    h = round(happrox)
    if abs(happrox - h) > 0.25:
        h = gauss_h_bruteforce(q)
    return h


def _h_approx(q: int, factors: list[tuple[int, int]] | None = None
              ) -> float:
    """The unrounded h(-q) of gauss_h_certified, Sum_{n <= n0} chi(n) K(n a)
    (1 at q = 3, 4).  Only n with chi(n) != 0 contribute; the character is
    read in blocks of 2^16, so no index array of its length is built."""
    if factors is None:
        d0, f, factors = _decompose(q)
        if (d0, f) != (-q, []):
            raise ValueError(f"-{q} is not a fundamental discriminant")
    if q == 3 or q == 4:
        return 1.0
    n0 = _cutoff(q)
    if n0 > CERTIFIED_N0_MAX:
        raise ValueError(f"h(-{q}) needs a certified sum of {n0} terms, more "
                         f"than CERTIFIED_N0_MAX = {CERTIFIED_N0_MAX}")
    chi = _chi_table(-q, n0, factors)
    scale = _KERNEL_STEPS * math.sqrt(math.pi / q)   # a in table steps
    c = math.sqrt(q) / math.pi                        # 1/(sqrt(pi) n a) = c/n
    total = 0.0
    for i in range(0, n0, 1 << 16):
        block = chi[i:i + (1 << 16)]
        k = _np.flatnonzero(block)
        n = k + float(i + 1)
        y = _kernel_r(n * scale)
        y += c / n
        y *= block[k]
        total += float(y.sum())
    return total


def _cutoff(q: int) -> int:
    """The n0 of gauss_h_certified: e^{-u}/u <= 5e-4 pi/sqrt(q) with
    u = pi n0^2/q, so the tail bound sqrt(q) e^{-u}/(pi u) holds the
    truncated sum within 5e-4 of h.  u solves e^{-u}/u = 5e-4 pi/sqrt(q)
    by u <- -log(u target); from u = 2 every step stays above 5, where
    the map contracts by 1/u, and the iteration stops at its exact fixed
    point, where every later step would return the same u, or after 60
    steps when rounding leaves a two-value cycle one ulp wide.  n0 is the
    least integer past sqrt(q u/pi), plus 1."""
    target = 5e-4 * math.pi / math.sqrt(q)
    u = 2.0
    for _ in range(60):
        prev, u = u, -math.log(u * target)
        if u == prev:
            break
    return math.isqrt(int(q * u / math.pi)) + 2


# R(x) = erfc(x) - (1 - exp(-x^2))/(sqrt(pi) x) on [0, 8] in pieces of
# width 2^-10; every argument of a certified sum lies below 8 (see
# CERTIFIED_N0_MAX).
_KERNEL_STEPS = 1 << 10
_KERNEL_XMAX = 8
_KERNEL_EPS = 2.5e-14


@functools.cache
def _kernel_table():
    """Coefficients (c0, c1, c2, c3), 8192 float64 each, of the cubic
    Hermite pieces of R, R(x) ~ c0 + t (c1 + t (c2 + t c3)) at x = (j + t) h
    with h = 2^-10; built on the first certified call, not at import.

    R is entire, with R(0) = 1 and

        R'(x) = ((1 - exp(-x^2))/x^2 - 4 exp(-x^2))/sqrt(pi),

    and each piece matches R and R' at both ends; the nodes take erfc
    from math.erfc and 1 - exp(-x^2) from expm1.  Every piece is
    within _KERNEL_EPS = 2.5e-14 of R:

      * remainder.  A cubic Hermite piece is within h^4/384 max|R^(4)|.
        With H_n the Hermite polynomials, erfc^(4)(x) = (2/sqrt(pi)) H_3(x)
        exp(-x^2), and (1 - exp(-x^2))/x = int_0^1 x exp(-s x^2) ds has
        fourth derivative int_0^1 s^(3/2) H_5(sqrt(s) x) exp(-s x^2)/2 ds.
        H_n(x) exp(-x^2) has its extrema at the zeros of H_{n+1}, where
        |H_3| exp(-x^2) <= 3.904 and |H_5| exp(-x^2) <= 32.72, so
        |R^(4)| <= (2 * 3.904 + 32.72/5)/sqrt(pi) < 8.1 and the remainder
        is below 2^-40 * 8.1/384 < 2e-14;
      * nodes.  A node value is within 1e-15 (math.erfc) plus 3e-16
        (rounding) of R.  A piece's value weights are nonnegative and sum
        to 1, and a node slope enters times at most 4h/27 < 2^-12;
      * coefficients and Horner's rule on t in [0, 1): |c0| <= 1 and the
        others are below 0.01, so both round to under 1e-15.
    """
    h = 1.0 / _KERNEL_STEPS
    x = _np.arange(1, _KERNEL_XMAX * _KERNEL_STEPS + 1) * h
    ex = _np.exp(-x * x)
    g = -_np.expm1(-x * x) / x                   # (1 - exp(-x^2))/x
    root_pi = math.sqrt(math.pi)
    erfc = _np.fromiter(map(math.erfc, x.tolist()), float, x.size)
    r = _np.concatenate(([1.0], erfc - g / root_pi))
    d = _np.concatenate(([-3.0], g / x - 4.0 * ex)) * (h / root_pi)  # h R'
    r0, r1, d0, d1 = r[:-1], r[1:], d[:-1], d[1:]
    return (r0, d0, 3.0 * (r1 - r0) - 2.0 * d0 - d1,
            2.0 * (r0 - r1) + d0 + d1)


def _kernel_r(s):
    """R(x) from _kernel_table at s = x / h, a float array in [0, 8192)."""
    c0, c1, c2, c3 = _kernel_table()
    j = s.astype(_np.intp)
    t = s - j                                    # piece j, t in [0, 1)
    y = c3[j]
    for c in (c2, c1, c0):
        y *= t
        y += c[j]
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
    d0, F, factors = _decompose(d)
    total = 1
    for p, e in F:
        total *= 1 + (p - kronecker(d0, p)) * (p ** e - 1) // (p - 1)
    # 2 / w(d0): w = 6 at d0 = -3, 4 at d0 = -4, else 2
    return Fraction(gauss_h_certified(-d0, factors) * total,
                    {3: 3, 4: 2}.get(-d0, 1))


def _chi_table(d0: int, n0: int, factors: list[tuple[int, int]]):
    """chi_{d0}(n) = (d0|n) for n = 1..n0 as an int8 array of -1, 0, +1,
    for a fundamental discriminant d0 with |d0| < pi 2^48/5 (the bound
    CERTIFIED_N0_MAX sets) and the (p, e) pairs of |d0|.

    A product of prime-discriminant characters (Cox, Primes of the form
    x^2 + ny^2, Sections 7 and 9): with l* = (-1)^((l-1)/2) l for each odd
    prime l | d0, all to the first power, and u = d0 / prod l*, the 2-part
    (1, -4, 8 or -8),

        (d0|n) = (u|n) prod_l (l*|n) = (u|n) prod_l (n|l),

    where (u|n) has period 8 in n and (n|l) is the quadratic-residue table
    mod l, tiled to n0.  A prime l > 4 n0 takes _legendre_upto instead of
    a table of l entries.
    """
    chi = _np.ones(n0 + 1, dtype=_np.int8)  # chi[n], n = 0..n0
    u = d0
    for l, _ in factors:
        if l == 2:
            continue
        u //= l if l % 4 == 1 else -l
        if l > 4 * n0:
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
    at p = 2, and _odd_nonresidues at odd p.  Complete multiplicativity
    then fills every n from its smallest prime factor s = spf(n),

        (n|l) = (s|l) (n/s|l),

    a block [m, e) at a time with e <= 2m, so that n/s <= n/2 < m is
    already filled and s is n itself or below m.  The sieve is
    sieve_covering(n0), the shared one when n0 fits it; a larger one is
    built once the Euler step's arrays are freed.
    """
    ls = l if l % 4 == 1 else -l
    chi = _np.ones(n0 + 1, dtype=_np.int8)       # chi[n] = (n|l), n = 0..n0
    chi[_odd_nonresidues(ls, n0)] = -1
    if n0 >= 2:
        chi[2] = kronecker(ls, 2)
    spf = _np.frombuffer(sieve_covering(n0).spf, dtype=_np.intc)
    m = 4
    while m <= n0:
        end = min(2 * m, m + (1 << 16), n0 + 1)
        s = spf[m:end]
        chi[m:end] = chi[s] * chi[_np.arange(m, end) // s]
        m = end
    return chi[1:]


def _odd_nonresidues(ls: int, n0: int):
    """The odd primes p <= n0 with (ls|p) = -1, for ls prime to all of them
    and |ls| < 2^63: Euler's criterion (ls mod p)^((p-1)/2) mod p, in
    int64."""
    p = primes_upto(n0)[1:]
    a = _np.int64(ls) % p
    e = (p - 1) >> 1
    r = _np.ones_like(p)
    while e.any():
        r = _np.where(e & 1, r * a % p, r)
        a = a * a % p
        e >>= 1
    return p[r != 1]
