"""Murmuration densities of holomorphic newforms: exact trace-formula
averages over square-free levels, their closed-form limiting densities,
and a certified finite verification of the density's sign changes.

Subpackage layout:

    arith         the shared smallest-prime-factor sieve, primes, Kronecker
                  symbol, and the elementary summatory functions (phi, eta,
                  mu^2-counts)
    classnumbers  exact Gauss/Hurwitz class numbers (form counting, and H_1
                  from one certified character sum by the conductor sum),
                  batch tables, disk cache
    multfns       the multiplicative-function layer: remainder sets, theta_r,
                  phi_circ, nu, Q, the triple sum converging to B*nu(r)
    constants     Euler-product constants with certified truncation tails
    traceformula  exact traces of T_P composed with the Fricke involution,
                  interval and dyadic empirical averages
    density       the limiting density M_k(y): Chebyshev form, Bessel-series
                  form, asymptotic form, dyadic and smoothed averages
    signcheck     certified sign-change verification on a finite grid
    cli           command-line entry point (`murmur`)
"""

__version__ = "0.1.0"
