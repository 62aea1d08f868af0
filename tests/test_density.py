"""Density evaluation: special functions against scipy, the two analytic
forms against each other, and closed forms."""

import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from murmurations.constants import euler_constant
from murmurations.density import (DensityConfig, adaptive_quadrature,
                                  bessel_inner_sum, chebyshev_U,
                                  dyadic_closed_form_constants,
                                  dyadic_closed_form_k2, dyadic_density,
                                  murmuration_density,
                                  murmuration_density_bessel,
                                  smoothed_average, universal_asymptotic)


# -- special functions ------------------------------------------------------

@given(st.integers(0, 40), st.floats(-1.0, 1.0))
@settings(max_examples=300)
def test_chebyshev_matches_scipy(n, x):
    assert chebyshev_U(n, x) == pytest.approx(float(sp.eval_chebyu(n, x)),
                                              rel=1e-9, abs=1e-9)


def test_chebyshev_trig_identity():
    for n in (1, 2, 7, 22):
        for theta in (0.3, 1.0, 2.5):
            expect = math.sin((n + 1) * theta) / math.sin(theta)
            assert chebyshev_U(n, math.cos(theta)) == pytest.approx(expect,
                                                                    rel=1e-12)


def test_adaptive_quadrature_known_integrals():
    val, err = adaptive_quadrature(np.sin, 0.0, math.pi, 1e-12)
    assert val == pytest.approx(2.0, abs=1e-11)
    # kinked integrand with the kink declared as a breakpoint
    f = lambda x: np.sqrt(np.abs(x - 0.3))
    val, err = adaptive_quadrature(f, 0.0, 1.0, 1e-10, breakpoints=(0.3,))
    exact = (0.3 ** 1.5 + 0.7 ** 1.5) * 2 / 3
    assert val == pytest.approx(exact, abs=1e-8)


# -- the summed Bessel kernel ----------------------------------------------

def _inner_sum_oracle(order, c, n=60000):
    # direct sum with sqrt-2 Richardson step to kill the resonant tail
    def partial(m):
        s = np.arange(1, m + 1)
        return float(np.sum(sp.jv(order, c * s) / s))
    s1, s2 = partial(n), partial(int(n * math.sqrt(2)))
    return (math.sqrt(2) * s2 - s1) / (math.sqrt(2) - 1)


def test_inner_sum_closed_forms_below_2pi():
    for order in (3, 5, 7, 23):
        for c in (0.5, 2.0, 6.0):
            assert bessel_inner_sum(order, c)[0] == pytest.approx(1 / order,
                                                                  abs=1e-12)
    for c in (0.5, 2.0, 6.0):
        assert bessel_inner_sum(1, c)[0] == pytest.approx(1 - c / 4,
                                                          abs=1e-12)


def test_inner_sum_against_direct_series():
    for order, c in ((1, 9.0), (3, 7.5), (5, 20.0), (7, 13.0)):
        assert bessel_inner_sum(order, c)[0] == pytest.approx(
            _inner_sum_oracle(order, c), abs=5e-5)


# -- the two forms of the density ------------------------------------------

@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("y", [0.5, 2.25])
def test_chebyshev_equals_bessel(k, y):
    cfg = DensityConfig(k=k)
    cheb = murmuration_density(cfg, y)
    bess, tail = murmuration_density_bessel(cfg, y)
    assert abs(cheb - bess) <= tail + 1e-7


def test_small_y_closed_form_and_positivity():
    # below y = 1/4 no oscillatory term contributes
    beta = euler_constant("beta").value
    gamma = euler_constant("gamma").value
    for y in (1e-6, 1e-3, 0.06, 0.2499):
        for k in (2, 4, 8):
            expect = beta * math.sqrt(y) / (k - 1) - (gamma * y if k == 2
                                                      else 0.0)
            got = murmuration_density(DensityConfig(k=k), y)
            assert got == pytest.approx(expect, rel=1e-12)
            if y <= 0.2:
                # positive until the linear k=2 term overtakes near y ~ 0.21
                assert got > 0


def test_continuity_at_kinks():
    eps = 1e-8
    for k in (2, 4):
        cfg = DensityConfig(k=k)
        for r in (1, 2, 3):
            y0 = r * r / 4.0
            jump = abs(murmuration_density(cfg, y0 + eps)
                       - murmuration_density(cfg, y0 - eps))
            # continuous (value jump ~ sqrt(eps)), but the one-sided
            # derivatives differ: the sqrt kink blows up on the right
            assert jump < 5e-3
            h = 1e-6
            right = (murmuration_density(cfg, y0 + 2 * h)
                     - murmuration_density(cfg, y0 + h)) / h
            left = (murmuration_density(cfg, y0 - h)
                    - murmuration_density(cfg, y0 - 2 * h)) / h
            assert abs(right - left) > 10.0


def test_asymptotic_sign_flip():
    # the oscillatory prefactor flips sign between k = 0 and 2 mod 4
    for T in (11.13, 23.71):
        a4 = universal_asymptotic(T, DensityConfig(k=4))
        a6 = universal_asymptotic(T, DensityConfig(k=6))
        assert a4 == pytest.approx(-a6, rel=1e-12)


def test_asymptotic_tracks_density():
    # M_k(T^2) ~ sqrt(T) * universal asymptotic, up to O(1)
    cfg = DensityConfig(k=2)
    for T in (60.0, 95.5):
        dens = murmuration_density(cfg, T * T)
        asym = math.sqrt(T) * universal_asymptotic(T, cfg)
        assert abs(dens - asym) < 2.0


# -- dyadic window ----------------------------------------------------------

def test_dyadic_quadrature_equals_closed_form():
    cfg = DensityConfig(k=2)
    for y in np.arange(0.02, 1.0, 0.07):
        quad = dyadic_density(2.0, float(y), cfg)
        closed = dyadic_closed_form_k2(float(y))
        assert abs(quad - closed) <= 1e-6


def test_dyadic_constants_assembled_from_euler_products():
    a, b, c = dyadic_closed_form_constants()
    alpha = euler_constant("alpha").value
    beta = euler_constant("beta").value
    gamma = euler_constant("gamma").value
    assert a == pytest.approx((2 ** 1.5 - 1) * 4 / 9 * beta, rel=1e-12)
    assert b == pytest.approx(2 * gamma / 3, rel=1e-12)
    assert c == pytest.approx(2 * alpha / 3, rel=1e-12)


def test_smoothed_sharp_window_is_dyadic():
    cfg = DensityConfig(k=6)
    for y in (0.3, 1.7):
        smooth = smoothed_average(lambda u: 1.0, y, cfg, support=(1.0, 2.0))
        assert smooth == pytest.approx(dyadic_density(2.0, y, cfg),
                                       rel=1e-8)


def test_smoothed_limit_is_half():
    # with a smooth bump, the smoothed density tends to 1/2 as y grows
    cfg = DensityConfig(k=6)
    bump = lambda u: math.exp(-1.0 / ((u - 1.0) * (2.0 - u)))
    val = smoothed_average(bump, 10 ** 4, cfg, support=(1.0, 2.0))
    assert val == pytest.approx(0.5, abs=0.05)

