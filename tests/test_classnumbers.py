"""Class numbers: form counting, weighted variants, the square-divisor
reconstruction, serialization, and the certified analytic route."""

import ast
import math
import random
import re
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from murmurations import arith, classnumbers, traceformula
from murmurations.arith import kronecker
from murmurations.classnumbers import (_KERNEL_EPS, _KERNEL_STEPS,
                                       _KERNEL_XMAX, _chi_table, _cutoff,
                                       _h_approx, _kernel_r,
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
        target = 5e-4 * math.pi / math.sqrt(q)
        u = 2.0
        for _ in range(60):
            u = -math.log(u * target)
        return math.isqrt(int(q * u / math.pi)) + 2

    rng = random.Random(13)
    qs = list(range(3, 20001)) + [rng.randrange(3, 10 ** 12)
                                   for _ in range(20000)]
    assert [q for q in qs if _cutoff(q) != sixty(q)] == []


# q from the smallest discriminants to 19622455, in the desk window, and
# 120000000007, the scale of 4PN in an average at X = 1e5, P ~ 3e5.
TAIL_QS = (3, 4, 7, 8, 163, 1000, 10 ** 4, 120004, 1000003, 19622455,
           10 ** 8 + 7, 10 ** 9 + 7, 10 ** 10 + 19, 120000000007)


def _tail_bound(q, n0):
    """The tail bound sqrt(q) e^{-u}/(pi u), u = pi n0^2/q, that
    gauss_h_certified states for Sum_{n > n0} K(n sqrt(pi/q))."""
    u = math.pi * n0 * n0 / q
    return math.sqrt(q) * math.exp(-u) / (math.pi * u)


@pytest.mark.parametrize("q", TAIL_QS)
def test_cutoff_holds_the_stated_tail_bound(q):
    """At _cutoff's n0 the stated bound is at most 5e-4, and the float64
    tail Sum_{n > n0} K(n a), K(x) = erfc(x) + exp(-x^2)/(sqrt(pi) x) from
    math.erfc, stays below it: summed to the first n_end with x past
    sqrt(u) + 3, plus the same bound for the rest."""
    n0 = _cutoff(q)
    bound = _tail_bound(q, n0)
    assert bound <= 5e-4
    a = math.sqrt(math.pi / q)
    n_end = int((n0 * a + 3) / a) + 1
    x = np.arange(n0 + 1, n_end + 1) * a
    k = (np.fromiter(map(math.erfc, x.tolist()), float, x.size)
         + np.exp(-x * x) / (math.sqrt(math.pi) * x))
    tail = float(k.sum()) + _tail_bound(q, n_end)
    assert tail < bound, (tail, bound)


@pytest.mark.parametrize("q", TAIL_QS)
def test_cutoff_is_minimal_up_to_its_margin(q):
    """n0 - 3, which lies below sqrt(q u/pi) for _cutoff's u, misses the
    5e-4 bound: n0 is at most 2 past the least cutoff the bound admits."""
    assert _tail_bound(q, _cutoff(q) - 3) > 5e-4


def test_erfc_against_math_and_mpmath():
    """math.erfc, which _kernel_table takes its node values from, at every
    node x = j h, 1 <= j <= 8192, of the table: within the 1e-15 absolute
    error its node bullet counts, and 1e-14 relative."""
    x = np.arange(1, _KERNEL_XMAX * _KERNEL_STEPS + 1) / _KERNEL_STEPS
    got = np.array([math.erfc(v) for v in x.tolist()])
    with mpmath.workdps(30):
        exact = np.array([float(mpmath.erfc(v)) for v in x.tolist()])
    err = np.abs(got - exact)
    assert err.max() <= 1e-15, err.max()
    assert (err / exact).max() <= 1e-14, (err / exact).max()


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
    """One uncached H_1(-d) with conductor F > 1 factors d alone: F's
    factors and those of the fundamental q = -d0, which the character
    table reads, both come from d's."""
    d = 25 * 47                            # -1175 = -47 * 5^2
    want = hurwitz_H1(d)
    sieve = arith.shared_sieve()
    factored = []

    def factor(n, _factor=sieve.factor):
        factored.append(n)
        return _factor(n)

    monkeypatch.setattr(sieve, "factor", factor)
    assert hurwitz_H1_certified.__wrapped__(d) == want
    assert factored == [d]


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


# Fundamental d0 = 1 and 0 mod 4, the only ones _h_approx passes: every
# 2-part u = d0 / prod l* (1 at -7, -4 at -20, 8 at -24, -8 at -8); a
# prime above 4 n0 for every n0 (1000003); and primes above 3.04e9, whose
# squares leave int64, with 2-parts -4, 8 and -8.
CHI_D0 = (-3, -4, -7, -8, -20, -163, -4000004, -24, -1000003,
          -4 * 3040000009, -8 * 3040000039, -8 * 3040000009)


@pytest.mark.parametrize("d0", CHI_D0)
def test_chi_table_matches_kronecker(d0):
    factors = arith.shared_sieve().factor(-d0)
    for n0 in (1, 2, 3, 97, 1500, 10007, 100003):
        want = [kronecker(d0, n) for n in range(1, n0 + 1)]
        got = _chi_table(d0, n0, factors)
        assert got.dtype == np.int8 and len(got) == n0
        assert got.tolist() == want, (d0, n0)


def test_kernel_table_within_its_eps_of_mpmath():
    """The tabulated K(x) = 1/(sqrt(pi) x) + R(x) against mpmath's
    erfc(x) + exp(-x^2)/(sqrt(pi) x) at 10^5 random x in (0, 8): the
    1/(sqrt(pi) x) term is common to both, so R is compared, within the
    _KERNEL_EPS the certificate counts per term.  A linear table at this
    step would miss by ~1e-7."""
    x = np.random.default_rng(24).uniform(0.0, 8.0, 100_000)
    x = x[x > 0.0]
    got = _kernel_r(x * _KERNEL_STEPS)
    with mpmath.workdps(30):
        root_pi = mpmath.sqrt(mpmath.pi)
        want = []
        for v in map(mpmath.mpf, x.tolist()):
            k = mpmath.erfc(v) + mpmath.exp(-v * v) / (root_pi * v)
            want.append(float(k - 1 / (root_pi * v)))
    err = np.abs(got - np.array(want))
    assert err.max() <= _KERNEL_EPS, (err.max(), x[err.argmax()])


def test_kernel_table_waits_for_the_first_certified_call():
    code = ("import murmurations.cli, murmurations.classnumbers as c; "
            "print(c._kernel_table.cache_info().currsize)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert (res.returncode, res.stdout) == (0, "0\n"), res.stderr


def _desk_window_qs(monkeypatch):
    """Every fundamental q > 4 whose h the k=2 interval average at
    P = 1511, X = 3000, Y = 300 (the desk benchmark's window) reads."""
    ds = []

    def record(d, _h1=hurwitz_H1_certified):
        ds.append(d)
        return _h1(d)

    monkeypatch.setattr(traceformula, "hurwitz_H1_certified", record)
    traceformula.interval_average(3000, 300, 1511, 2)
    return sorted({-fundamental_decomposition(d)[0] for d in ds
                   if d % 4 in (0, 3)} - {3, 4})


def test_certified_sums_round_within_a_thousandth(monkeypatch):
    """The unrounded sum is within 1e-3 of h, not merely within the 0.25
    margin, for the desk window and 200 random fundamental q in
    [1e6, 1e8]: a kernel that ate the margin would fail here instead of
    falling back to form counting unseen."""
    qs = _desk_window_qs(monkeypatch)
    assert len(qs) > 300
    rng = random.Random(20231007)
    n = 0
    while n < 200:
        q = rng.randrange(10 ** 6, 10 ** 8 + 1)
        if q % 4 in (0, 3) and fundamental_decomposition(q) == (-q, 1):
            qs.append(q)
            n += 1
    bad = [(q, happrox) for q in qs
           if abs((happrox := _h_approx(q)) - gauss_h_certified(q)) > 1e-3]
    assert not bad, bad


def test_large_prime_character_matches_kronecker():
    # a prime l > 4 n0 past the shared sieve: the character is filled
    # from build_sieve(n0), one dyadic layer at a time
    q = 120000000007
    assert arith.is_prime(q) and q % 4 == 3
    chi = _chi_table(-q, 1_200_000, [(q, 1)])
    rng = random.Random(120000000007)
    ns = [rng.randrange(1, 1_200_001) for _ in range(2000)]
    assert [int(chi[n - 1]) for n in ns] == [kronecker(-q, n) for n in ns]


def test_certified_refuses_a_cutoff_past_its_work_bound(monkeypatch):
    """n0 above CERTIFIED_N0_MAX raises before the character is built."""
    def unbuilt(*args):
        raise AssertionError("the character was built")

    monkeypatch.setattr(classnumbers, "CERTIFIED_N0_MAX", 1000)
    q = 1000003
    assert _cutoff(120004) <= 1000 < _cutoff(q)
    assert gauss_h_certified(120004) == gauss_h_bruteforce(120004)
    monkeypatch.setattr(classnumbers, "_chi_table", unbuilt)
    with pytest.raises(ValueError, match=rf"^h\(-{q}\) needs a certified sum "
                       rf"of {_cutoff(q)} terms, more than "
                       rf"CERTIFIED_N0_MAX = 1000$"):
        gauss_h_certified(q)


def test_certified_arguments_stay_inside_the_table():
    """Every x = n sqrt(pi/q), n <= n0, lies below 7.6 for each q whose n0
    CERTIFIED_N0_MAX admits; past the bound n0 is refused."""
    qmax = int(math.pi * 2 ** 47)
    assert _cutoff(qmax) > classnumbers.CERTIFIED_N0_MAX
    assert classnumbers.CERTIFIED_N0_MAX * _KERNEL_EPS <= 1e-3
    rng = random.Random(47)
    qs = list(range(5, 3000)) + [int(math.exp(rng.uniform(8.0, math.log(qmax))))
                                 for _ in range(20000)] + [qmax]
    worst = max(_cutoff(q) * math.sqrt(math.pi / q) for q in qs)
    assert worst < 7.6 < _KERNEL_XMAX, worst


@pytest.mark.parametrize("command", [
    ["trace-average", "--X", "100", "--Y", "20", "--P", "101", "--k", "2"],
    ["dyadic-average", "--X", "100", "--c", "2", "--P", "101", "--k", "2"],
])
def test_average_past_the_certified_bound_exits_2(monkeypatch, capsys,
                                                  command):
    from murmurations import cli
    monkeypatch.setattr(classnumbers, "CERTIFIED_N0_MAX", 100)
    hurwitz_H1_certified.cache_clear()
    assert cli.main(command) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1, lines
    assert re.fullmatch(rf"murmur {command[0]}: h\(-\d+\) needs a certified "
                        r"sum of \d+ terms, more than CERTIFIED_N0_MAX = 100",
                        lines[0]), lines[0]
