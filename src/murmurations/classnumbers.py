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
    fast enough for discriminants ~ 10^9 (``gauss_h_certified``).

Conventions: h counts primitive reduced forms (so h(-3) = h(-4) = 1).
H_1(-d) counts all reduced forms, primitive or not, weighting the classes
of t(x^2+y^2) by 1/2 and t(x^2+xy+y^2) by 1/3; it is zero when -d = 2, 3
mod 4.

The batch tabulation stores 6 H_1(-d), always an integer, as an int32
array; its cache file (MURH1 version 2) is a fixed header followed by
that array's raw bytes.

scipy is imported only inside gauss_h_certified (erfc) and
density.BesselAntiderivative (jv): a process that never computes a
certified class number does not load it.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as _np

from .arith import kronecker, shared_sieve


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
    falls back to form counting.  The bound covers the truncated tail, not
    float rounding in the partial sum, which the margin absorbs.  A
    non-fundamental -q raises ValueError (see hurwitz_H1_certified).
    """
    from scipy.special import erfc  # deferred: ~0.37 s of start-up
    if fundamental_decomposition(q) != (-q, 1):
        raise ValueError(f"-{q} is not a fundamental discriminant")
    if q == 3 or q == 4:
        return 1
    # cutoff: want (q/u) e^{-u} <= 0.05 * pi/sqrt(q) with u = pi n0^2/q
    target = 0.05 * math.pi / math.sqrt(q)
    u = 2.0
    for _ in range(60):
        u = math.log(q / (u * target))
        if u < 2.0:
            u = 2.0
            break
    n0 = math.isqrt(int(q * u / math.pi)) + 2
    chi = _chi_table(-q, n0)
    # only n with chi(n) != 0 contribute
    n = _np.flatnonzero(chi) + 1
    x = n * math.sqrt(math.pi / q)
    terms = _np.exp(-x * x) / n + (math.pi / math.sqrt(q)) * erfc(x)
    lval = float(_np.dot(chi[n - 1], terms))
    happrox = math.sqrt(q) / math.pi * lval
    h = round(happrox)
    if abs(happrox - h) > 0.25:
        h = gauss_h_bruteforce(q)
    return h


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


# Composites 4 <= n <= extent grouped by Omega(n) (prime factors counted
# with multiplicity): one triple of int32 arrays (n, spf n, n / spf n), n
# ascending, per Omega = 2, 3, ...  The grouping depends on n alone, so it
# outlives a replaced shared sieve.
_omega_layers: tuple[int, list] = (1, [])


def _composite_layers(n0: int, spf):
    """The cached Omega layers cut to n <= n0.

    The cache is rebuilt only when n0 outgrows it, rounded up to a power
    of two (at most the sieve's reach, len(spf) - 1) so that a slowly
    growing n0 does not rebuild it on every call.
    """
    global _omega_layers
    extent, layers = _omega_layers
    if n0 > extent:
        extent = min(1 << (n0 - 1).bit_length(), len(spf) - 1)
        spf = spf[:extent + 1].astype(_np.int32)  # a copy, int32 like n
        n = _np.arange(extent + 1, dtype=_np.int32)
        omega = _np.zeros(extent + 1, dtype=_np.int8)
        rest = n.copy()
        rest[:2] = 1
        while True:
            left = rest > 1
            if not left.any():
                break
            omega += left
            rest //= spf[rest]
        layers = []
        for k in range(2, int(omega.max()) + 1):
            nk = n[omega == k]
            pk = spf[nk]
            layers.append((nk, pk, nk // pk))
        _omega_layers = (extent, layers)
    cut = []
    for nk, pk, mk in layers:
        i = _np.searchsorted(nk, n0, side="right")
        cut.append((nk[:i], pk[:i], mk[:i]))
    return cut


def _chi_table(d0: int, n0: int):
    """chi_{d0}(n) = (d0|n) for n = 1..n0 as a float array of -1, 0, +1.

    Array code over the shared sieve, grown to cover n0: odd primes take
    Euler's criterion (d0|p) = d0^((p-1)/2) mod p, vectorized over the
    primes, p = 2 takes kronecker, and composites follow by complete
    multiplicativity, chi(n) = chi(spf n) chi(n / spf n), one Omega(n)
    layer at a time so each entry is written once.
    """
    # p^2 must fit in int64 for the vectorized modular products
    assert n0 < 3 * 10 ** 9
    spf = _np.frombuffer(shared_sieve(n0).spf, dtype=_np.int64)
    chi = _np.zeros(n0 + 1, dtype=_np.float64)
    chi[1:2] = 1.0  # chi(1), present when n0 >= 1
    if n0 >= 2:
        chi[2] = kronecker(d0, 2)
    n = _np.arange(3, n0 + 1, 2, dtype=_np.int64)
    odd = n[spf[n] == n]
    if -2 ** 62 < d0 < 2 ** 62:
        a = _np.int64(d0) % odd
    else:
        a = _np.array([d0 % p for p in odd.tolist()], dtype=_np.int64)
    e = (odd - 1) >> 1
    r = _np.ones_like(odd)
    while e.any():
        r = _np.where(e & 1, r * a % odd, r)
        a = a * a % odd
        e >>= 1
    chi[odd] = _np.where(r == 1, 1.0, _np.where(r == 0, 0.0, -1.0))
    for nk, pk, mk in _composite_layers(n0, spf):
        chi[nk] = chi[pk] * chi[mk]
    return chi[1:]
