"""Class numbers: form counting, weighted variants, the square-divisor
reconstruction, serialization, and the certified analytic route."""

import ast
import math
import random
import struct
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from murmurations import arith
from murmurations.arith import kronecker
from murmurations.classnumbers import (_chi_table, _cutoff, _erfcx,
                                       fundamental_decomposition,
                                       gauss_h_bruteforce, gauss_h_certified,
                                       hurwitz_H1, hurwitz_H1_certified,
                                       hurwitz_sieve, load_table, save_table)

# Textbook values: class numbers of the first imaginary quadratic fields.
KNOWN_H = {3: 1, 4: 1, 7: 1, 8: 1, 11: 1, 15: 2, 19: 1, 20: 2, 23: 3,
           24: 2, 31: 3, 35: 2, 39: 4, 40: 2, 43: 1, 47: 5, 163: 1}

# Weighted tabulation including non-fundamental discriminants.
KNOWN_H1 = {3: Fraction(1, 3), 4: Fraction(1, 2), 7: 1, 8: 1, 11: 1,
            12: Fraction(4, 3), 15: 2, 16: Fraction(3, 2), 19: 1, 20: 2,
            23: 3, 24: 2, 27: Fraction(4, 3), 28: 2}


def _valid_ds(lo, hi):
    return [d for d in range(lo, hi) if d % 4 in (0, 3)]


def test_known_class_numbers():
    for d, h in KNOWN_H.items():
        assert gauss_h_bruteforce(d) == h


def test_known_weighted_tabulation():
    for d, v in KNOWN_H1.items():
        assert hurwitz_H1(d) == v
        assert hurwitz_H1_certified(d) == v


def test_weighted_gauss_automorphism_weights():
    # 2/w(d0) in the conductor sum: 1/3 at -3, 1/2 at -4, 1 elsewhere
    assert hurwitz_H1_certified(3) == Fraction(1, 3)
    assert hurwitz_H1_certified(4) == Fraction(1, 2)
    assert hurwitz_H1_certified(7) == 1


def test_invalid_discriminants_rejected():
    for d in (-3, 0):
        with pytest.raises(ValueError):
            hurwitz_H1(d)
        with pytest.raises(ValueError):
            hurwitz_H1_certified(d)
    # -d = 2, 3 mod 4 is not a discriminant: the tabulated value is zero
    for d in (1, 2, 5, 6):
        assert hurwitz_H1(d) == 0
        assert hurwitz_H1_certified(d) == 0


def test_square_divisor_reconstruction_small():
    # H_1(-d) equals the weighted class numbers summed over square divisors
    weight = {3: Fraction(1, 3), 4: Fraction(1, 2)}
    for d in _valid_ds(3, 2000):
        total = Fraction(0)
        f = 1
        while f * f <= d:
            q = d // (f * f)
            if d % (f * f) == 0 and q % 4 in (0, 3):
                total += weight.get(q, gauss_h_bruteforce(q))
            f += 1
        assert hurwitz_H1(d) == total


def test_sieve_matches_per_value():
    for dmin, dmax in ((3, 3000), (10 ** 5, 10 ** 5 + 2000)):
        table = hurwitz_sieve(dmin, dmax)
        for d in range(dmin, dmax + 1):
            assert table[d] == hurwitz_H1(d)


def test_table_round_trip(tmp_path):
    table = hurwitz_sieve(3, 500)
    path = tmp_path / "h.murh1"
    save_table(table, path)
    back = load_table(path)
    assert back.dmin == table.dmin and back.dmax == table.dmax
    for d in _valid_ds(3, 501):
        assert back[d] == table[d]


def test_table_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.murh1"
    path.write_bytes(b"NOPE1" + bytes(32))
    with pytest.raises(ValueError):
        load_table(path)


def test_table_truncated_payload_rejected(tmp_path):
    path = tmp_path / "h.murh1"
    save_table(hurwitz_sieve(3, 500), path)
    data = path.read_bytes()
    for cut in (10, 30, len(data) - 7, len(data) - 16):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match="corrupt table payload"):
            load_table(path)
    path.write_bytes(data + bytes(4))
    with pytest.raises(ValueError, match="corrupt table payload"):
        load_table(path)
    # the run-length format of version 1 is rejected, not misread
    path.write_bytes(b"MURH1" + struct.pack("<IQQ", 1, 3, 10)
                     + struct.pack("<qQ", 0, 8))
    with pytest.raises(ValueError, match="version 1"):
        load_table(path)


def test_fundamental_decomposition():
    for d in _valid_ds(3, 3000):
        d0, f = fundamental_decomposition(d)
        assert d0 < 0 and -d0 * f * f == d
        assert d0 % 4 in (0, 1)
        # fundamental part is invariant: re-decomposing gives conductor 1
        assert fundamental_decomposition(-d0) == (d0, 1)


@given(st.integers(0, 12500), st.sampled_from([3, 4]))
@settings(max_examples=60, deadline=None)
def test_certified_matches_bruteforce(i, off):
    d = 4 * i + off
    assert hurwitz_H1_certified(d) == hurwitz_H1(d)


def test_certified_large_fundamental():
    # h(-163) = 1 is the classical tail case; also a mid-size sanity point
    assert gauss_h_certified(163) == 1
    assert gauss_h_certified(120004) == gauss_h_bruteforce(120004)


@pytest.mark.parametrize("d", [1000003,        # fundamental, 1 mod 4
                               4000004,        # fundamental -4 * 1000001
                               8000024,        # fundamental -8 * 1000003
                               11111103,       # -1234567 * 3^2
                               17993996,       # -4498499 * 2^2
                               19999999])
def test_certified_matches_bruteforce_desk_scale(d):
    assert hurwitz_H1_certified(d) == hurwitz_H1(d)


def test_certified_matches_bruteforce_random_fundamental():
    rng = random.Random(20231007)
    qs = []
    while len(qs) < 200:
        q = rng.randrange(10 ** 6, 10 ** 8 + 1)
        if q % 4 in (0, 3) and fundamental_decomposition(q) == (-q, 1):
            qs.append(q)
    bad = [q for q in qs if gauss_h_certified(q) != gauss_h_bruteforce(q)]
    assert not bad, bad


def test_cutoff_matches_sixty_iterations():
    """Stopping at the fixed point gives the n0 of all 60 iterations."""
    def sixty(q):
        target = 0.05 * math.pi / math.sqrt(q)
        u = 2.0
        for _ in range(60):
            u = math.log(q / (u * target))
            if u < 2.0:
                u = 2.0
                break
        return math.isqrt(int(q * u / math.pi)) + 2

    rng = random.Random(13)
    qs = list(range(3, 20001)) + [rng.randrange(3, 10 ** 12)
                                   for _ in range(20000)]
    assert [q for q in qs if _cutoff(q) != sixty(q)] == []


def test_erfc_against_math_and_mpmath():
    """erfc(x) = exp(-x^2) _erfcx(x), as gauss_h_certified computes it, on
    a dense grid over (0, x_max], x_max the largest argument it evaluates
    for q < 1e18: the 1e-15 absolute error the certificate counts, and
    1e-14 relative."""
    q = 10 ** 18 - 1
    x_max = _cutoff(q) * math.sqrt(math.pi / q)
    assert 7.5 < x_max < 8.0
    x = np.linspace(0.0, x_max, 200001)[1:]
    got = np.exp(-x * x) * _erfcx(x)
    with mpmath.workdps(30):
        exact = [float(mpmath.erfc(v)) for v in x[::50].tolist()]
    for mine, ref in ((got, [math.erfc(v) for v in x]), (got[::50], exact)):
        ref = np.array(ref)
        err = np.abs(mine - ref)
        assert err.max() <= 1e-15, err.max()
        assert (err / ref).max() <= 1e-14, (err / ref).max()


def test_certified_needs_fundamental():
    for d in (11111103,        # -1234567 * 3^2
              12, 16, 28):
        with pytest.raises(ValueError, match="not a fundamental"):
            gauss_h_certified(d)
    for d in (0, 5, 6):
        with pytest.raises(ValueError):
            gauss_h_certified(d)
    assert gauss_h_certified(1234567) == gauss_h_bruteforce(1234567)


def test_certified_factors_each_number_once(monkeypatch):
    """One uncached H_1(-d) with conductor F > 1 factors d and the
    fundamental q = -d0 once each: F's factors come from d's, and the
    character table reuses q's from the fundamentality check."""
    d = 25 * 47                            # -1175 = -47 * 5^2
    want = hurwitz_H1(d)
    sieve = arith.shared_sieve()
    factored = []

    def factor(n, _factor=sieve.factor):
        factored.append(n)
        return _factor(n)

    monkeypatch.setattr(sieve, "factor", factor)
    assert hurwitz_H1_certified.__wrapped__(d) == want
    assert factored == [d, 47]


def test_only_classnumbers_counts_class_numbers():
    """Elsewhere in the package H_1 comes from a table or from
    hurwitz_H1_certified: no code calls gauss_h_certified or
    gauss_h_bruteforce outside classnumbers."""
    src = Path(arith.__file__).parent
    banned = {"gauss_h_certified", "gauss_h_bruteforce"}
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "classnumbers.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else \
                    getattr(f, "id", None)
                if name in banned:
                    offenders.append(f"{path.name}:{node.lineno}: calls {name}")
    assert not offenders, offenders


# d0 = 1 and 0 mod 4, fundamental and not (-63 = -7 * 3^2, -28 = -7 * 2^2,
# -48 = -3 * 4^2), up to the desk-scale size -4 * 1499 * 3001, and one
# beyond int64; every 2-part u = d0 / prod l*^e of a fundamental d0 (1 at
# -7, -4 at -20, 8 at -24, -8 at -8); a prime above 4 n0 for every n0
# (1000003); primes above 3.04e9, whose squares leave int64, with 2-parts
# -4, 8 and -8; and a prime above 2^64, beyond int64 itself.
CHI_D0 = (-3, -4, -7, -8, -20, -163, -63, -28, -48, -4000004, -11111103,
          -17993996, -(2 ** 70 + 3), -24, -1000003, -4 * 3040000009,
          -8 * 3040000039, -8 * 3040000009, -(2 ** 64 + 51))


@pytest.mark.parametrize("d0", CHI_D0)
def test_chi_table_matches_kronecker(d0):
    factors = arith.shared_sieve().factor(-d0)
    for n0 in (1, 2, 3, 97, 1500, 10007, 100003):
        want = [kronecker(d0, n) for n in range(1, n0 + 1)]
        got = _chi_table(d0, n0, factors)
        assert got.dtype == np.int8 and len(got) == n0
        assert got.tolist() == want, (d0, n0)
