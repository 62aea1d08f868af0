"""Integer substrate: smallest-prime-factor sieve, Kronecker symbols, and
the elementary multiplicative/summatory functions everything else consumes.

The process shares one fixed factor sieve of 2..200 000, `shared_sieve()`;
a sieve only speeds factorization up and never changes a value.  Exact
sums are plain Python integers (arbitrary precision), so there is no
overflow concern at any scale used here.
"""

from __future__ import annotations

import functools
import math
import random
from array import array
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# Kronecker symbol (full extension: n may be zero, negative, or even).
# Reciprocity-based so it works far beyond any sieve range.
# ---------------------------------------------------------------------------

def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), fully extended.

    Completely multiplicative in both arguments; (a|2) is 0 for even a and
    +-1 by a mod 8 otherwise; (a|0) is 1 iff a = +-1.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    if n < 0:
        return (-1 if a < 0 else 1) * kronecker(a, -n)
    if n % 2 == 0 and a % 2 == 0:
        return 0
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 8 in (3, 5):
            result = -result
    if n == 1:
        return result
    if a < 0:
        if n % 4 == 3:
            result = -result
        a = -a
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# ---------------------------------------------------------------------------
# Deterministic primality (Miller-Rabin with fixed witness set) and
# factorization helpers that remain valid beyond the sieve range.
# ---------------------------------------------------------------------------

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (valid for all n < 3.3 * 10^24)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    while True:
        x = random.randrange(2, n - 1)
        c = random.randrange(1, n - 1)
        y, g = x, 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(abs(x - y), n)
        if g != n:
            return g


# ---------------------------------------------------------------------------
# Smallest-prime-factor sieve
# ---------------------------------------------------------------------------

@dataclass
class FactorSieve:
    """Smallest-prime-factor table for 2..limit, plus derived helpers.

    spf[n] is the least prime dividing n; spf[p] = p for prime p.
    Immutable after construction and safe to share across threads.
    """

    limit: int
    spf: array
    _primes: list[int] | None = field(default=None, repr=False)

    def primes(self) -> list[int]:
        """All primes up to the sieve limit, ascending; primes_upto makes
        them from odd-number flags, without a pass over spf."""
        if self._primes is None:
            self._primes = primes_upto(self.limit).tolist()
        return self._primes

    def factor(self, n: int) -> list[tuple[int, int]]:
        """Prime factorization of n >= 1 as (p, exponent) pairs, p ascending.

        Within the sieve range this walks spf; beyond it, trial division by
        sieved primes followed by deterministic primality / Pollard rho.
        """
        if n < 1:
            raise ValueError("factor() requires n >= 1")
        out: list[tuple[int, int]] = []
        if n <= self.limit:
            spf = self.spf
            while n > 1:
                p = spf[n]
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append((p, e))
            return out
        for p in self.primes():
            if p * p > n:
                break
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append((p, e))
                if n <= self.limit:
                    out.extend(self.factor(n))
                    out.sort()
                    return out
        if n > 1:
            out.extend(sorted(_factor_hard(n).items()))
            out.sort()
        return out

    def euler_phi(self, n: int) -> int:
        """Euler totient."""
        result = n
        for p, _ in self.factor(n):
            result -= result // p
        return result

    def is_prime(self, n: int) -> bool:
        """One spf read within the sieve range; is_prime past it."""
        if n > self.limit:
            return is_prime(n)
        return n >= 2 and self.spf[n] == n

    def is_squarefree(self, n: int) -> bool:
        return all(e == 1 for _, e in self.factor(n))

    def eta(self, m: int) -> Fraction:
        """eta(m) = m/psi(m) = prod_{p | m} p/(p+1); depends only on rad(m)."""
        result = Fraction(1)
        for p, _ in self.factor(m):
            result *= Fraction(p, p + 1)
        return result


def _factor_hard(n: int) -> dict[int, int]:
    """Factor n with no small prime factors (recursion via Pollard rho)."""
    if n == 1:
        return {}
    if is_prime(n):
        return {n: 1}
    d = _pollard_rho(n)
    out = _factor_hard(d)
    for p, e in _factor_hard(n // d).items():
        out[p] = out.get(p, 0) + e
    return out


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n as an int64 array: 2, then a sieve of Eratosthenes
    on flags for the odd numbers only (flag i stands for 2i + 1)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((n + 1) // 2, dtype=bool)
    odd[0] = False
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2::p] = False
    out = np.flatnonzero(odd)
    out *= 2
    out += 1
    return np.concatenate(([2], out)).astype(np.int64, copy=False)


# The largest sieve limit: spf is a table of 32-bit ints.
SIEVE_LIMIT_MAX = 2 ** 31 - 1


def build_sieve(limit: int) -> FactorSieve:
    """Smallest-prime-factor sieve for 2..limit (spf[0] = 0, spf[1] = 1),
    filled with n and sieved in place through a numpy view of the table.

    spf is an array("i") of 32-bit ints: half the bytes of a 64-bit table,
    the same Python int on every read.  It is filled from int32 blocks, and
    a limit past SIEVE_LIMIT_MAX is refused before anything is allocated."""
    if limit < 2:
        raise ValueError("sieve limit must be >= 2")
    if limit > SIEVE_LIMIT_MAX:
        raise ValueError(f"sieve limit must be at most SIEVE_LIMIT_MAX = "
                         f"{SIEVE_LIMIT_MAX} (32-bit table)")
    table = array("i", [0]) * (limit + 1)
    spf = np.frombuffer(table, dtype=np.intc)
    for lo in range(0, limit + 1, 1 << 16):     # no full-length arange
        hi = min(lo + (1 << 16), limit + 1)
        spf[lo:hi] = np.arange(lo, hi, dtype=np.intc)
    # Largest prime first, so the smallest prime of n is written last.
    for p in primes_upto(math.isqrt(limit))[::-1].tolist():
        spf[p * p::p] = p
    return FactorSieve(limit=limit, spf=table)


@functools.cache
def shared_sieve() -> FactorSieve:
    """The process-wide factor sieve of 2..200 000, built on first use."""
    return build_sieve(200_000)


def sieve_covering(n: int) -> FactorSieve:
    """A factor sieve of at least 2..n: the shared one when n fits it, else
    build_sieve(n), which the caller alone holds."""
    shared = shared_sieve()
    return shared if n <= shared.limit else build_sieve(n)


# ---------------------------------------------------------------------------
# Square-free counting and summatory functions
# ---------------------------------------------------------------------------

def sum_mu2_phi(Z: int) -> int:
    """Exact Sum_{n <= Z} mu(n)^2 phi(n).

    Main term Z^2/(2 zeta(2)) * prod_p (1 - 1/(p^2+p)); the exact value is
    used to probe that asymptotic.  Each n is factored by walking the spf
    of its own sieve of 2..max(Z, 2), which stops at the first repeated
    prime, so square-full n drop out without a square-free sieve.
    """
    total = 0
    spf = build_sieve(max(Z, 2)).spf
    for n in range(1, Z + 1):
        m, phi = n, n
        while m > 1:
            p = spf[m]
            m //= p
            if m % p == 0:
                break
            phi -= phi // p
        else:
            total += phi
    return total


def squarefree_in_class_count(X: int, Y: int, a: int, m: int) -> int:
    """Count of square-free N in [X, X+Y] with N congruent to a mod m.

    Main term (Y/zeta(2)) * eta(m)/phi(m) (Hooley's equidistribution);
    each n is factored through its own sieve of 2..max(X + Y, 2).
    """
    if X < 1 or Y < 0:
        raise ValueError(f"the window needs X >= 1 and Y >= 0, "
                         f"got X = {X}, Y = {Y}")
    if math.gcd(a, m) != 1:
        raise ValueError("a must be coprime to m")
    sieve = build_sieve(max(X + Y, 2))
    lo = X + ((a - X) % m)
    total = 0
    for n in range(lo, X + Y + 1, m):
        if sieve.is_squarefree(n):
            total += 1
    return total
