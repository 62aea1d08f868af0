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
    parallel      cpu_map, the thread pool the numpy kernels share
    cli           command-line entry point (`murmur`)
"""

import os

# OpenBLAS splits every dot longer than 10,000 elements (the sign check's
# are 4.01e6 long) over its own threads, whose helper then busy-waits 2^28
# cycles before it sleeps: about 0.13 s of CPU after each dot, so under
# cpu_map's stream of dots it never sleeps and takes a core from the
# workers.  The wait's minimum keeps the split, so no bit moves.  OpenBLAS
# reads the variable only when numpy loads it, and no submodule has loaded
# numpy yet; a value already set is kept, and child processes inherit it.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

__version__ = "0.1.0"
