"""Command-line entry point.

Every subcommand writes deterministic CSV (fixed summation orders, shortest
round-trip float formatting), so identical flags and cache state reproduce
byte-identical output.  SVG emission is a pure view over the CSV data.
Exit codes: 0 success / verdict pass, 1 verdict failure, 2 usage error or
bad input (invalid arguments, an unreadable or corrupt cache file, a size
whose arrays cannot be allocated).
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from pathlib import Path

import numpy as np

# density first: it is the package's largest module, and an interpreter
# without cached bytecode then compiles it before numpy loads, so numpy's
# objects fill the memory the compiler frees instead of the heap growing
# past it (0.05-0.1 MB of every CLI step's peak RSS).
from .density import (DensityConfig, dyadic_closed_form_constants,
                      murmuration_density, murmuration_density_bessel,
                      universal_asymptotic)
from .classnumbers import hurwitz_sieve, load_table, save_table
from .constants import euler_constant, q_weighted_sums, qsqrt_product
from .multfns import is_admissible, phi_circ, phi_circ_bruteforce, \
    smooth_square_gs, theta, theta_bruteforce
from .signcheck import DEFAULT_OFFSETS, SignCheckConfig, grid_verify, \
    second_peak_probe
from .traceformula import TraceReport, dyadic_average, interval_average

# verify-constants truncates its Euler products at the density's prime bound.
PMAX = DensityConfig.pmax

# The smallest d of every class-number table sieve-classnumbers writes; it
# is part of the default table file name hurwitz_3_<dmax>.murh1.
TABLE_DMIN = 3

# verify-multfns compares theta_r(m) with its brute force for r <= RMAX,
# m <= MMAX, and phi_circ for r, d <= DMAX and square g <= GMAX.
RMAX, MMAX, DMAX, GMAX = 12, 200, 12, 1000

GRID_MAX_POINTS = 10 ** 6      # the most points a --y-grid may hold


def cache_dir() -> Path:
    """Persistent cache location; MURMUR_CACHE_DIR overrides the default."""
    env = os.environ.get("MURMUR_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "murmurations"


def _write_csv(path: str | None, header: list[str],
               rows: list[list[object]]) -> None:
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        w = csv.writer(out, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(x) if isinstance(x, float) else x for x in row])
    finally:
        if path:
            out.close()


def _write_svg(path: str, xs: list[float], ys: list[float]) -> None:
    """Minimal fixed-viewport polyline plot, no styling dependencies.  Only
    the finite points are scaled and drawn; with none the line is empty."""
    W, H, pad = 800, 400, 40
    finite = [(x, y) for x, y in zip(xs, ys)
              if math.isfinite(x) and math.isfinite(y)]
    xs, ys = [x for x, _ in finite], [y for _, y in finite]
    xlo, xhi = min(xs, default=0.0), max(xs, default=0.0)
    ylo, yhi = min(ys, default=0.0), max(ys, default=0.0)
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + 1.0
    pts = " ".join(
        f"{pad + (W - 2 * pad) * (x - xlo) / (xhi - xlo):.2f},"
        f"{H - pad - (H - 2 * pad) * (y - ylo) / (yhi - ylo):.2f}"
        for x, y in zip(xs, ys))
    with open(path, "w") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" '
            f'height="{H}" viewBox="0 0 {W} {H}">\n'
            f'<rect width="{W}" height="{H}" fill="white"/>\n'
            f'<polyline points="{pts}" fill="none" stroke="black" '
            f'stroke-width="1"/>\n</svg>\n')


def _parse_grid(spec: str) -> list[float]:
    try:
        start, stop, step = (float(t) for t in spec.split(":"))
    except ValueError as exc:
        raise SystemExit(f"bad grid spec {spec!r}; expected start:stop:step"
                         ) from exc
    if not (-math.inf < start <= stop < math.inf and 0 < step < math.inf):
        raise SystemExit(f"bad grid spec {spec!r}")
    # round() keeps the last point of a span that is a multiple of step
    # despite float error; the check drops a last point past stop.  min()
    # caps an infinite or huge span, so it is refused before any list.
    n = int(round(min((stop - start) / step, GRID_MAX_POINTS)))
    if start + n * step > stop + 1e-9 * step:
        n -= 1
    if n >= GRID_MAX_POINTS:
        raise SystemExit(f"bad grid spec {spec!r}; more than "
                         f"GRID_MAX_POINTS = {GRID_MAX_POINTS} points")
    return [start + i * step for i in range(n + 1)]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_sieve_classnumbers(args: argparse.Namespace) -> int:
    table = hurwitz_sieve(TABLE_DMIN, args.dmax)
    path = Path(args.hurwitz_cache) if args.hurwitz_cache else (
        cache_dir() / f"hurwitz_{table.dmin}_{table.dmax}.murh1")
    path.parent.mkdir(parents=True, exist_ok=True)
    save_table(table, str(path))
    nonzero = int(np.count_nonzero(table.six))
    _write_csv(args.out, ["dmin", "dmax", "nonzero_entries", "cache_path"],
               [[table.dmin, table.dmax, nonzero, str(path)]])
    return 0


_AVERAGE_HEADER = ["N_low", "N_high", "P", "k", "numerator", "denominator",
                   "average", "predicted", "residual"]


def _write_average(args: argparse.Namespace, N_high: int,
                   report: TraceReport) -> None:
    _write_csv(args.out, _AVERAGE_HEADER,
               [[args.X, N_high, args.P, args.k, report.numerator,
                 report.denominator, report.average, report.predicted,
                 report.residual]])


def _cmd_trace_average(args: argparse.Namespace) -> int:
    table = load_table(args.hurwitz_cache) if args.hurwitz_cache else None
    _write_average(args, args.X + args.Y,
                   interval_average(args.X, args.Y, args.P, args.k, table))
    return 0


def _cmd_dyadic_average(args: argparse.Namespace) -> int:
    if not math.isfinite(args.c):
        raise SystemExit(f"--c must be finite, got {args.c}")
    table = load_table(args.hurwitz_cache) if args.hurwitz_cache else None
    report = dyadic_average(args.X, args.c, args.P, args.k, table)
    _write_average(args, int(args.c * args.X), report)
    return 0


def _cmd_density(args: argparse.Namespace) -> int:
    ys = _parse_grid(args.y_grid)
    if ys[0] < 0.0:
        raise ValueError("y must be positive")
    cfg = DensityConfig(k=args.k)
    rows: list[list[object]] = []
    if ys[0] == 0.0:
        # continuous limit at the origin; no asymptotic value there
        rows.append([ys.pop(0), 0.0 if args.form != "asymptotic"
                     else math.nan, 0.0])
    if args.form == "chebyshev":
        vals, tails = murmuration_density(cfg, ys), np.zeros(len(ys))
    elif args.form == "bessel":
        vals, tails = murmuration_density_bessel(cfg, ys)
    else:
        vals = universal_asymptotic(np.sqrt(ys), cfg)
        tails = np.full(len(ys), math.nan)
    rows += map(list, zip(ys, vals.tolist(), tails.tolist()))
    _write_csv(args.out, ["y", "value", "tail_bound"], rows)
    if args.svg:
        _write_svg(args.svg, [r[0] for r in rows], [r[1] for r in rows])
    return 0


def _cmd_signcheck(args: argparse.Namespace) -> int:
    offsets = tuple(float(t) for t in args.offsets.split(","))
    cfg = SignCheckConfig(S=args.S, offsets=offsets)
    cert = grid_verify(cfg)
    rows: list[list[object]] = [
        ["grid", v.offset, v.sign, v.worst_margin, v.worst_k,
         "pass" if v.passed else "fail"]
        for v in cert.verdicts]
    if not args.skip_probe:
        probe = second_peak_probe()
        rows.append(["second_peak", probe.argmax, -1 if probe.max_value < 0
                     else 1, probe.max_value, probe.dmax,
                     "pass" if probe.certified_negative else "fail"])
    _write_csv(args.report,
               ["check", "offset_or_argmax", "sign", "worst_margin_or_max",
                "k_or_dmax", "verdict"],
               rows)
    print(f"budget {cert.error_budget:.6f}  inner tail {cert.inner_tail:.6f}"
          f"  grid {cert.grid} x {len(cert.verdicts)}", file=sys.stderr)
    return 0 if all(r[-1] == "pass" for r in rows) else 1


def _cmd_verify_constants(args: argparse.Namespace) -> int:
    """Print the seven Euler-product constants, three identities they
    satisfy, and the k=2 dyadic closed-form constants.

    The Q sums run first, while the heap holds only the imports, so their
    8 MB Q array does not land on top of what the Euler products leave
    behind.  Every value is pure: the order changes no printed byte.  The
    sums and products all read the primes to 10^6, so shared_primes' cache
    sieves them once."""
    qsum, qdsum = q_weighted_sums(10 ** 6)
    evs = {kind: euler_constant(kind, PMAX) for kind in
           ("alpha", "beta", "gamma", "A", "B", "dimC", "Delta")}
    r3 = abs(qsqrt_product(10 ** 6) - 3.0907)
    rows: list[list[object]] = [
        ["constant", kind, ev.value, ev.pmax, ev.tail_bound]
        for kind, ev in evs.items()]
    al, be, ga = (evs[kind].value for kind in ("alpha", "beta", "gamma"))
    r1 = abs(qsum - be / al)
    r2 = abs(al / ga * qdsum - 1.0 / math.pi)
    rows.append(["identity", "sum_Q_vs_beta_over_alpha", r1, 10 ** 6, 1e-5])
    rows.append(["identity", "sum_Q_over_d_vs_inv_pi", r2, 10 ** 6, 1e-5])
    rows.append(["identity", "qsqrt_partial_product", r3, 10 ** 6, 1e-3])
    a, b, c = dyadic_closed_form_constants()
    rows.append(["derived", "dyadic_a", a, PMAX, math.nan])
    rows.append(["derived", "dyadic_b", b, PMAX, math.nan])
    rows.append(["derived", "dyadic_c", c, PMAX, math.nan])
    _write_csv(args.out, ["kind", "name", "value", "pmax", "tolerance"], rows)
    ok = r1 <= 1e-5 and r2 <= 1e-5 and r3 <= 1e-3
    return 0 if ok else 1


def _cmd_verify_multfns(args: argparse.Namespace) -> int:
    rows: list[list[object]] = []
    ok = True
    for P in (5, 7, 11, 101):
        ms = [m for m in range(1, MMAX + 1)
              if m % P and m % 4 != 2 and m % 8 != 4]
        brute = {m: theta_bruteforce(range(1, RMAX + 1), m, P).tolist()
                 for m in ms}
        for r in range(1, RMAX + 1):
            for m in ms:
                good = theta(r, m, P) == brute[m][r - 1]
                ok &= good
                if not good:
                    rows.append(["theta", r, m, P, "fail"])
    rows.append(["theta", RMAX, MMAX, 0,
                 "pass" if ok else "fail"])
    phi_ok = True
    for r in range(1, DMAX + 1):
        for d in range(1, DMAX + 1):
            if not is_admissible(r, d):
                continue
            for g in smooth_square_gs(d, GMAX):
                if g % 8 == 4:
                    continue  # g is a square: v_2(g) = 2 is outside the domain
                for P in (7, 11):
                    if d % P == 0:
                        continue  # the defining sum needs P coprime to d
                    closed = phi_circ(r, d, g, P)
                    brute = phi_circ_bruteforce(r, d, g, P)
                    good = closed == brute
                    phi_ok &= good
                    if not good:
                        rows.append(["phi_circ", r, d, g, "fail"])
    rows.append(["phi_circ", DMAX, DMAX, GMAX,
                 "pass" if phi_ok else "fail"])
    _write_csv(args.out, ["function", "r", "m_or_d", "P_or_g", "verdict"],
               rows)
    return 0 if ok and phi_ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TABLE_HELP = ("class-number table written by sieve-classnumbers; it serves "
               "each d it covers, other d are computed")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="murmur",
        description="Deterministic pipelines for class-number sieves, trace "
                    "averages, density evaluation, and sign certification.")
    sub = p.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("sieve-classnumbers",
                       help="build and cache the weighted class-number table")
    s.add_argument("--dmax", type=int, required=True)
    s.add_argument("--hurwitz-cache",
                   help="cache file path (MURH1 version 2: a header, then "
                        "6 H_1(-d) as raw int32 for d = 3..dmax)")
    s.add_argument("--out", help="summary CSV path (default stdout)")
    s.set_defaults(func=_cmd_sieve_classnumbers)

    s = sub.add_parser("trace-average",
                       help="interval average of traces vs predicted density;"
                            " CSV columns: N_low,N_high,P,k,numerator,"
                            "denominator,average,predicted,residual")
    s.add_argument("--X", type=int, required=True)
    s.add_argument("--Y", type=int, required=True)
    s.add_argument("--P", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--hurwitz-cache", help=_TABLE_HELP)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_trace_average)

    s = sub.add_parser("dyadic-average",
                       help="dyadic average of traces vs the dyadic density")
    s.add_argument("--X", type=int, required=True)
    s.add_argument("--c", type=float, required=True)
    s.add_argument("--P", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--hurwitz-cache", help=_TABLE_HELP)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_dyadic_average)

    s = sub.add_parser("density",
                       help="evaluate the density on a y-grid; CSV columns: "
                            "y,value,tail_bound")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--y-grid", required=True, metavar="START:STOP:STEP")
    s.add_argument("--form", choices=("chebyshev", "bessel", "asymptotic"),
                   default="chebyshev")
    s.add_argument("--out")
    s.add_argument("--svg", help="also write a polyline plot")
    s.set_defaults(func=_cmd_density)

    s = sub.add_parser("signcheck",
                       help="one-period sign certification and second-peak "
                            "probe; CSV of worst margins per offset; exit 0 "
                            "iff every grid offset and, unless --skip-probe, "
                            "the uncertified probe row pass")
    s.add_argument("--offsets",
                   default=",".join(map(str, DEFAULT_OFFSETS)))
    s.add_argument("--S", type=int, default=SignCheckConfig.S)
    s.add_argument("--skip-probe", action="store_true")
    s.add_argument("--report", help="CSV path (default stdout)")
    s.set_defaults(func=_cmd_signcheck)

    s = sub.add_parser("verify-constants",
                       help="Euler-product constants, tail bounds, and "
                            "identity residuals as CSV")
    s.add_argument("--out")
    s.set_defaults(func=_cmd_verify_constants)

    s = sub.add_parser("verify-multfns",
                       help="closed forms vs brute-force character sums")
    s.add_argument("--out")
    s.set_defaults(func=_cmd_verify_multfns)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return int(args.func(args))
    except SystemExit as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, LookupError, OSError) as exc:
        print(f"murmur {args.subcommand}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"murmur {args.subcommand}: out of memory: {exc or 'no detail'}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
