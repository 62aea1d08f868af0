"""Character-sum closed forms vs their defining brute-force sums, plus the
divisor-sum and parity structure they rely on."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from murmurations.arith import kronecker
from murmurations.constants import euler_constant
from murmurations.multfns import (Q, _kronecker_row, is_admissible, nu,
                                  phi_circ, phi_circ_bruteforce, remainder_set,
                                  smooth_square_gs, theta, theta_bruteforce,
                                  theta_sum_partial)

def _valid_m(mmax, P):
    return [m for m in range(1, mmax + 1)
            if m % P and m % 4 != 2 and m % 8 != 4]


# -- theta ------------------------------------------------------------------

def test_kronecker_row_is_periodic_in_n():
    """The brute forces read (n|m) as row[n % m]; that holds for m odd or
    8 | m, negative n included."""
    for m in range(1, 400):
        if m % 2 == 0 and m % 8:
            continue
        row = _kronecker_row(m)
        assert len(row) == m
        for n in range(-3 * m, 3 * m):
            assert row[n % m] == kronecker(n, m), (n, m)


@pytest.mark.parametrize("P", [5, 11])
def test_theta_matches_bruteforce(P):
    for r in range(1, 7):
        for m in _valid_m(120, P):
            assert theta(r, m, P) == theta_bruteforce(r, m, P), \
                (r, m, P)


def test_theta_multiplicative():
    P = 7
    ms = [m for m in _valid_m(60, P) if m % 2]
    for r in (1, 2, 3, 4):
        for m1 in ms:
            for m2 in ms:
                if math.gcd(m1, m2) != 1 or m1 * m2 % 8 in (2, 4, 6):
                    continue
                assert theta(r, m1 * m2, P) == \
                    theta(r, m1, P) * theta(r, m2, P)


def test_theta_rejects_bad_valuation():
    with pytest.raises(ValueError):
        theta(1, 2, 7)
    with pytest.raises(ValueError):
        theta(1, 4, 7)


# a non-positive m or g is rejected before the 2-adic valuation, which
# never ends on 0
def _theta_sum(r, m, P):
    """The defining sum of theta_r(m), one Kronecker symbol at a time."""
    return sum(kronecker(a, m) * kronecker(a * r * r - 4 * P, m)
               for a in range(m))


@pytest.mark.parametrize("P", [5, 7, 11, 101])
def test_theta_bruteforce_is_the_defining_sum(P):
    # every m of verify-multfns and m sharing a factor with P; r = 0, r
    # past m and r past 2^63 too, one call for all r of an m and one per r
    rs = list(range(0, 13)) + [37, 1001, 3 ** 50]
    for m in [m for m in range(1, 201) if m % 4 != 2 and m % 8 != 4]:
        want = [_theta_sum(r, m, P) for r in rs]
        assert theta_bruteforce(rs, m, P).tolist() == want, (m, P)
        got = [theta_bruteforce(r, m, P) for r in rs]
        assert got == want and all(type(v) is int for v in got), (m, P)


@pytest.mark.parametrize("m", (0, -1, -8))
def test_theta_rejects_nonpositive_modulus(m):
    with pytest.raises(ValueError, match="m must be positive"):
        theta(1, m, 7)


@pytest.mark.parametrize("m", (0, -1, -8))
def test_theta_bruteforce_rejects_nonpositive_modulus(m):
    with pytest.raises(ValueError, match="m must be positive"):
        theta_bruteforce(1, m, 7)


# -- phi_circ ---------------------------------------------------------------

def test_phi_circ_matches_bruteforce():
    for P in (7, 11):
        for r in range(1, 13):
            for d in range(1, 13):
                if not is_admissible(r, d) or d % P == 0:
                    continue
                for g in smooth_square_gs(d, 600):
                    try:
                        closed = phi_circ(r, d, g, P)
                    except ValueError:
                        continue
                    assert closed == phi_circ_bruteforce(r, d, g, P), \
                        (r, d, g, P)


def _phi_circ_sum(r, d, g, P):
    """The defining sum of phi^o_{r,d}(g), one a mod d^2 g at a time."""
    total = 0
    for t in remainder_set(r, d, P):
        for v in range(g):
            a = t + v * d * d
            s, rem = divmod(a * r * r - 4 * P, d * d)
            assert rem == 0
            total += kronecker(a, g) * kronecker(s, g)
    return total


def _smooth_gs(d, bound):
    """Every g | d^infinity up to bound with v_2(g) not 1 or 2."""
    return [g for g in range(1, bound + 1)
            if math.gcd(g, d ** 10) == g and (g % 2 or g % 8 == 0)]


@pytest.mark.parametrize("P", [7, 11, 13])
def test_phi_circ_bruteforce_is_the_defining_sum(P):
    # square and non-square g, admissible or not
    for r in range(1, 9):
        for d in range(1, 13):
            if d % P == 0:
                continue
            for g in _smooth_gs(d, 300):
                assert phi_circ_bruteforce(r, d, g, P) == \
                    _phi_circ_sum(r, d, g, P), (r, d, g, P)


@pytest.mark.parametrize("g", (0, -1, -9))
def test_phi_circ_rejects_nonpositive_g(g):
    with pytest.raises(ValueError, match="g must be positive"):
        phi_circ(1, 3, g, 7)


@pytest.mark.parametrize("g", (0, -1, -9))
def test_phi_circ_bruteforce_rejects_nonpositive_g(g):
    with pytest.raises(ValueError, match="g must be positive"):
        phi_circ_bruteforce(1, 3, g, 7)


# -- remainder sets ---------------------------------------------------------

def test_remainder_sets_solve_congruence():
    for P in (7, 11, 13):
        for r in range(1, 25):
            for d in range(1, 25):
                if d % P == 0:
                    continue
                residues = remainder_set(r, d, P)
                assert bool(residues) == is_admissible(r, d)
                for t in residues:
                    assert (r * r * t - 4 * P) % (d * d) == 0


def test_two_remainders_have_opposite_s_parity():
    seen = 0
    for P in (7, 11, 13):
        for r in range(1, 25):
            for d in range(1, 25):
                if d % P == 0:
                    continue
                residues = remainder_set(r, d, P)
                if len(residues) != 2:
                    continue
                seen += 1
                s0, s1 = ((r * r * t - 4 * P) // (d * d) % 2
                          for t in residues)
                assert s0 != s1
    assert seen > 50


def test_remainder_set_domain_checks():
    with pytest.raises(ValueError, match="odd prime"):
        remainder_set(1, 1, 4)
    with pytest.raises(ValueError, match="must not divide"):
        remainder_set(1, 14, 7)
    # no d^2 <= 4P guard: the brute force sums past that regime
    assert bool(remainder_set(2, 12, 7)) == is_admissible(2, 12)


# -- Q, nu and the partial triple sum ---------------------------------------

@given(st.integers(1, 10000))
@settings(max_examples=200)
def test_nu_is_divisor_sum_of_Q(r):
    total = Fraction(0)
    for d in range(1, r + 1):
        if r % d == 0:
            total += Q(d)
    assert nu(r) == total


def test_Q_squarefree_support():
    assert Q(4) == 0
    assert Q(12) == 0
    assert Q(1) == 1
    assert Q(2) == Fraction(4, 16 - 8 - 2 + 1)


def test_theta_sum_partial_converges_to_B_nu():
    B = euler_constant("B").value
    P = 10007
    for r in (1, 2, 3):
        got = theta_sum_partial(r, 200, 200, P)
        assert got == pytest.approx(B * float(nu(r)), abs=0.05)
