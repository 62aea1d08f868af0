#!/usr/bin/env python3
"""Tabulate the limiting density M_k on a y-grid for several weights and
emit CSV plus minimal SVG polyline plots (one pair of files per weight)."""

import argparse
import csv
from pathlib import Path

from murmurations.cli import _write_svg
from murmurations.density import DensityConfig, murmuration_density


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--weights", default="2,4,8,24")
    ap.add_argument("--ymax", type=float, default=9.0)
    ap.add_argument("--step", type=float, default=0.01)
    ap.add_argument("--outdir", default="out/density")
    args = ap.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n = int(round(args.ymax / args.step))
    ys = [i * args.step for i in range(1, n + 1)]
    for k in (int(t) for t in args.weights.split(",")):
        cfg = DensityConfig(k=k)
        vals = murmuration_density(cfg, ys).tolist()
        with open(outdir / f"density_k{k}.csv", "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["y", "value"])
            for y, v in zip(ys, vals):
                w.writerow([repr(y), repr(v)])
        _write_svg(str(outdir / f"density_k{k}.svg"), ys, vals)
        print(f"k={k}: {len(ys)} points -> {outdir}/density_k{k}.csv")


if __name__ == "__main__":
    main()
