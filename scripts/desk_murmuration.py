#!/usr/bin/env python3
"""Desk-scale empirical murmuration: average exact traces over square-free
levels in [X, X+Y] for primes P spanning y = P/X from 0.2 to 3, and compare
with the limiting density.

Prints one row per (k, P): the empirical average, the pointwise density
M_k(P/X), the residual, and the density averaged over the actual window
(which removes the O(Y/X) pointwise-evaluation drift)."""

import argparse
import time

from murmurations.arith import is_prime
from murmurations.density import DensityConfig
from murmurations.traceformula import interval_average, window_density


def nearest_prime(x: int) -> int:
    for off in range(x):
        for cand in (x - off, x + off):
            if cand > 2 and is_prime(cand):
                return cand
    raise ValueError(x)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--X", type=int, default=10_000)
    ap.add_argument("--Y", type=int, default=1_000)
    ap.add_argument("--weights", default="2,4")
    ap.add_argument("--ratios", default="0.2,0.5,1,2,3")
    args = ap.parse_args()

    ratios = [float(t) for t in args.ratios.split(",")]
    primes = [nearest_prime(int(round(r * args.X))) for r in ratios]
    print(f"X={args.X} Y={args.Y} primes={primes}")
    print(f"{'k':>3} {'P':>7} {'y':>6} {'average':>10} {'M_k(y)':>10} "
          f"{'residual':>10} {'window-avg':>10}")
    for k in (int(t) for t in args.weights.split(",")):
        cfg = DensityConfig(k=k)
        for P in primes:
            t0 = time.time()
            rep = interval_average(args.X, args.Y, P, k, cfg=cfg)
            wavg = window_density(cfg, P, args.X, args.Y)
            print(f"{k:>3} {P:>7} {P / args.X:>6.2f} {rep.average:>10.4f} "
                  f"{rep.predicted:>10.4f} {rep.residual:>+10.4f} "
                  f"{wavg:>10.4f}   ({time.time() - t0:.0f}s)")


if __name__ == "__main__":
    main()
