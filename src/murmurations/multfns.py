"""Character sums attached to the congruence d^2 | r^2 N - 4P.

Each closed form here ships with an independent brute-force evaluator of
the defining sum; the 2-adic case work is intricate enough that the brute
forces are first-class operations, not test scaffolding.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from fractions import Fraction

import numpy as np

from .arith import kronecker, shared_sieve


# ---------------------------------------------------------------------------
# Remainder sets mod d^2
# ---------------------------------------------------------------------------

def is_admissible(r: int, d: int) -> bool:
    """Whether the residue set mod d^2 is nonempty (P-independent)."""
    if r % 2 == 1:
        return d % 2 == 1 and math.gcd(d, r) == 1
    l = r // 2
    if d % 2 == 1:
        return math.gcd(d, l) == 1
    return math.gcd(l, d // 2) == 1


def _residues(r: int, d: int, P: int) -> tuple[int, ...]:
    """The residues t mod d^2 with r^2 t = 4P (mod d^2), ascending: none
    unless is_admissible(r, d), two for even r with 4 | d, else one."""
    if not is_admissible(r, d):
        return ()
    m = d * d
    if r % 2 == 1:
        return (4 * P * pow(r, -2, m) % m,)
    l = r // 2
    if d % 2 == 1:
        return (P * pow(l, -2, m) % m if m > 1 else 0,)
    b = d // 2
    if b % 2 == 1:
        if l % 2 == 1:
            return (P * pow(l, -2, m) % m,)
        return (P * pow(l * l - b * b, -1, m) % m,)
    # l odd, b even: two distinct residues
    t1 = P * pow(l * l, -1, m) % m
    t2 = P * pow(l * l - b * b, -1, m) % m
    return tuple(sorted({t1, t2}))


def remainder_set(r: int, d: int, P: int) -> tuple[int, ...]:
    """The residues t mod d^2 with r^2 t = 4P (mod d^2) compatible with
    square-free N, per the parity/gcd case analysis; empty exactly when
    (r, d) is non-admissible.

    Defined for any d once P is an odd prime not dividing d; the brute
    force phi_circ_bruteforce sums over these sets, also past d^2 <= 4P.
    """
    if P < 3 or P % 2 == 0:
        raise ValueError("P must be an odd prime")
    if d % P == 0:
        raise ValueError("P must not divide d")
    res = _residues(r, d, P)
    assert d == 1 or all(math.gcd(t, d) == 1 for t in res)
    return res


# ---------------------------------------------------------------------------
# theta_r
# ---------------------------------------------------------------------------

def _check_v2(n: int, name: str) -> int:
    if n <= 0:
        raise ValueError(f"{name} must be positive")
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v in (1, 2):
        raise ValueError(f"2-adic valuation of {name} must not be 1 or 2")
    return v


def theta(r: int, m: int, P: int) -> int:
    """Closed form of theta_r(m) = sum_a (a|m)((a r^2 - 4P)|m).

    Multiplicative in m; requires v_2(m) not in {1, 2} and gcd(m, P) = 1
    (use theta_bruteforce outside that range).  The value is independent
    of P.
    """
    _check_v2(m, "m")
    if math.gcd(m, P) != 1:
        raise ValueError("closed form needs gcd(m, P) = 1; use theta_bruteforce")
    return math.prod(_theta_local(p, a, r) for p, a in shared_sieve().factor(m))


def _theta_local(p: int, a: int, r: int) -> int:
    """The p^a factor of theta_r's closed form, zero where it vanishes.

    At p = 2 it is (-1)^a 2^(a-1) for odd r, for every a >= 1; theta
    never sees a in {1, 2}, _theta_factor uses it as the formal extension.
    """
    if p == 2:
        return 0 if r % 2 == 0 else (-1) ** a * 2 ** (a - 1)
    if r % p == 0:
        return 0 if a % 2 else p ** (a - 1) * (p - 1)
    return -(p ** (a - 1)) if a % 2 else p ** (a - 1) * (p - 2)


@functools.cache
def _kronecker_row(m: int) -> np.ndarray:
    """(a|m) for 0 <= a < m as a read-only int64 array; row[n % m] == (n|m)
    for m odd or 8 | m."""
    row = np.array([kronecker(a, m) for a in range(m)], dtype=np.int64)
    row.flags.writeable = False
    return row


def theta_bruteforce(r, m: int, P: int):
    """Direct evaluation of the defining character sum
    sum_{a mod m} (a|m)((a r^2 - 4P)|m), for an int r or for each entry of
    an array_like r (an int64 array of r's shape).

    Each sum is an int64 index sum over the Kronecker row of m; r is
    reduced mod m as Python ints and every index mod m before it is
    multiplied, so no product reaches m^2 and the sums are exact."""
    _check_v2(m, "m")
    row = _kronecker_row(m)
    r = np.asarray(np.asarray(r, dtype=object) % m, dtype=np.int64)
    a = np.arange(m, dtype=np.int64)
    idx = ((r * r % m)[..., None] * a - 4 * P % m) % m
    total = (row * row[idx]).sum(axis=-1)
    return total if total.ndim else int(total)


# ---------------------------------------------------------------------------
# phi_circ
# ---------------------------------------------------------------------------

def _check_g(g: int, d: int) -> None:
    """Raise ValueError unless v_2(g) is not 1 or 2 and g | d^infinity."""
    _check_v2(g, "g")
    while g > 1:
        e = math.gcd(g, d)
        if e == 1:
            raise ValueError("g must divide a power of d")
        while (e2 := math.gcd(g, e)) > 1:
            g //= e2


def phi_circ(r: int, d: int, g: int, P: int) -> int:
    """Closed form of phi^o_{r,d}(g) per the five-case 2-adic table in
    _phi_circ_ext.

    Zero for non-admissible (r, d); requires g | d^infinity and
    v_2(g) not in {1, 2}.  P-independent.
    """
    _check_g(g, d)
    return _phi_circ_ext(r, d, g)


def phi_circ_bruteforce(r: int, d: int, g: int, P: int) -> int:
    """Defining sum over a mod d^2 g with a mod d^2 in the residue set:
    sum over t in the set and 0 <= v < g of (a|g)(s|g), a = t + v d^2,
    s = (a r^2 - 4P)/d^2.

    For each t, s = s_t + v r^2 with s_t = (t r^2 - 4P)/d^2, so the sum
    over v is an int64 index sum over the Kronecker row of g, with a and
    s reduced mod g before v multiplies them."""
    _check_g(g, d)
    residues = remainder_set(r, d, P)
    d2 = d * d
    r2 = r * r
    row = _kronecker_row(g)
    v = np.arange(g, dtype=np.int64)
    total = 0
    for t in residues:
        s_t, rem = divmod(t * r2 - 4 * P, d2)
        assert rem == 0
        a_idx = (t % g + v * (d2 % g)) % g
        s_idx = (s_t % g + v * (r2 % g)) % g
        total += int((row[a_idx] * row[s_idx]).sum())
    return total


# ---------------------------------------------------------------------------
# nu, Q, and the triple sum
# ---------------------------------------------------------------------------

def Q(d: int) -> Fraction:
    """Q(d) = mu^2(d) prod_{p|d} p^2/(p^4 - 2p^2 - p + 1)."""
    result = Fraction(1)
    for p, e in shared_sieve().factor(d):
        if e > 1:
            return Fraction(0)
        result *= Fraction(p * p, p ** 4 - 2 * p * p - p + 1)
    return result


def q_sqrt_weights(ds: Iterable[int]) -> tuple[float, ...]:
    """float(Q(d)) * sqrt(d), the profile weight of d, for each d of ds."""
    return tuple(float(Q(d)) * math.sqrt(d) for d in ds)


def nu(r: int) -> Fraction:
    """nu(r) = prod_{p|r} (1 + p^2/(p^4 - 2p^2 - p + 1)) = sum_{d|r} Q(d)."""
    result = Fraction(1)
    for p, _ in shared_sieve().factor(r):
        result *= 1 + Fraction(p * p, p ** 4 - 2 * p * p - p + 1)
    return result


def smooth_square_gs(d: int, bound: int) -> list[int]:
    """All squares g | d^infinity with g <= bound, ascending."""
    gs = [1]
    for p, _ in shared_sieve().factor(d):
        step = p * p
        new = []
        for g in gs:
            x = g
            while x * step <= bound:
                x *= step
                new.append(x)
        gs += new
    return sorted(gs)


def _phi_circ_ext(r: int, d: int, g: int) -> int:
    """The closed-form table of phi^o_{r,d}(g), for any g | d^inf.

    phi_circ checks its domain and reads this table.  The defining sum
    restricts v_2(g) away from {1, 2}, but the triple sum
    below only converges to its stated limit when the table is extended to
    all squares; non-square g vanish either way.
    """
    if not is_admissible(r, d):
        return 0
    if math.isqrt(g) ** 2 != g:
        return 0
    phi_g = shared_sieve().euler_phi(g)
    if d % 2 == 1 or (d % 4 == 2 and g % 2 == 1):
        return phi_g
    if d % 4 == 2 and r % 4 == 2:
        return 0
    return 2 * phi_g


def _theta_factor(m: int, r: int) -> float:
    """theta_r(m) / (m^2 prod_{p|m}(1 - 1/p^2)), closed form, P-free.

    The 2-adic factor (-1)^a 2^(a-1) is applied for every a >= 1 (the
    formal extension of the closed form below v_2 = 3), which is the
    reading under which the triple sum attains its product limit.
    """
    num = 1
    den = m * m
    for p, a in shared_sieve().factor(m):
        num *= _theta_local(p, a, r)
        if not num:
            return 0.0
        den = den * (p * p - 1) // (p * p)
    return num / den


def theta_sum_partial(r: int, Z: int, Zprime: int, P: int) -> float:
    """Partial triple sum of (eta/phi)(d^2 m g) theta_r(m) phi^o(g) / (mgd)
    over admissible d <= Z, (m, d) = 1, g | d^infinity, mg <= Zprime.

    Converges to B * nu(r) with tail O(Z^-2 + Zprime^-1/5); evaluated via
    the closed forms (formally extended across v_2 in {1, 2}), in which P
    cancels out.  Deterministic summation order: d ascending, then g,
    then m.
    """
    total = 0.0
    for d in range(1, Z + 1):
        if not is_admissible(r, d):
            continue
        dps = [p for p, _ in shared_sieve().factor(d)]
        dfac = 1.0 / d ** 3
        for p in dps:
            dfac /= 1.0 - 1.0 / (p * p)
        for g in smooth_square_gs(d, Zprime):
            pg = _phi_circ_ext(r, d, g)
            if pg == 0:
                continue
            gfac = dfac * pg / (g * g)
            acc = 0.0
            for m in range(1, Zprime // g + 1):
                if any(m % p == 0 for p in dps):
                    continue
                acc += _theta_factor(m, r)
            total += gfac * acc
    return total
