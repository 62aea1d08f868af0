"""One benchmark step in its own interpreter.

    child.py cli --trace-out F -- ARGS...        murmur ARGS under the tracer
    child.py desk --X --Y --P --phases F [--trace-out F]
    child.py signcheck --phases F [--trace-out F]
    child.py direct --P --X --Y --dX --c         table-free rows (a check)
    child.py density-check --k --csv F           Chebyshev vs Bessel (a check)

`desk` and `signcheck` run library calls in one process, the way
scripts/desk_murmuration.py and scripts/certify_signs.py do, print their
rows as CSV on stdout and write phase timings and check results to the
--phases file.  With --trace-out the tracer is installed before the timed
calls and its snapshot is written before the untimed checks run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
from time import perf_counter

# The sign-check workload's truncation set (period 15, 15 lattice points at
# offset 0) and probe depth; see perfbench/NOTES.md for why not the defaults.
SIGNCHECK_D = (1, 2, 3, 5, 6, 10, 15, 30)
PROBE_DMAX = 500

AVERAGE_HEADER = ["N_low", "N_high", "P", "k", "numerator", "denominator",
                  "average", "predicted", "residual"]


def _csv(header: list[str], rows: list[list[object]]) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([repr(x) if isinstance(x, float) else x for x in row])
    return out.getvalue()


def _maybe_trace(path: str | None):
    if not path:
        return None
    import tracer  # perfbench/ is sys.path[0] when run as a script
    return tracer.install()


def _dump(tr, path: str | None) -> None:
    if tr is not None:
        tr.dump(path)


def cmd_cli(args: argparse.Namespace) -> int:
    tr = _maybe_trace(args.trace_out)
    from murmurations import cli
    try:
        return cli.main(args.argv)
    finally:
        _dump(tr, args.trace_out)


def cmd_desk(args: argparse.Namespace) -> int:
    tr = _maybe_trace(args.trace_out)
    from murmurations import traceformula as tf
    X, Y, P = args.X, args.Y, args.P
    t0 = perf_counter()
    rep2 = tf.interval_average(X, Y, P, 2)
    t1 = perf_counter()
    rep4 = tf.interval_average(X, Y, P, 4)
    t2 = perf_counter()
    _dump(tr, args.trace_out)
    sys.stdout.write(_csv(AVERAGE_HEADER, [
        [X, X + Y, P, r.k, r.numerator, r.denominator, r.average,
         r.predicted, r.residual] for r in (rep2, rep4)]))

    # Untimed (the harness subtracts check_s): the k=2 numerator is an
    # exact integer.
    t3 = perf_counter()
    from fractions import Fraction
    from murmurations.arith import build_sieve
    sieve = build_sieve(X + Y)
    levels = [N for N in range(X, X + Y + 1)
              if N % P and sieve.is_squarefree(N)]
    exact = sum((tf.trace_TpWN(tf.TraceParams(N=N, P=P, k=2))
                 for N in levels), Fraction(0))
    failures = []
    if exact.denominator != 1:
        failures.append(f"k=2 numerator {exact} is not an integer")
    _write_json(args.phases, {"k2_s": t1 - t0, "k4_s": t2 - t1,
                              "levels": rep2.levels + rep4.levels,
                              "failures": failures,
                              "check_s": perf_counter() - t3})
    return 0


def cmd_signcheck(args: argparse.Namespace) -> int:
    tr = _maybe_trace(args.trace_out)
    from murmurations import signcheck as sc
    t0 = perf_counter()
    cert = sc.grid_verify(sc.SignCheckConfig(D=SIGNCHECK_D, offsets=(0.0,)))
    t1 = perf_counter()
    probe = sc.second_peak_probe(dmax=PROBE_DMAX)
    t2 = perf_counter()
    _dump(tr, args.trace_out)
    rows: list[list[object]] = [
        ["grid", v.offset, v.sign, v.worst_margin, v.worst_k,
         "pass" if v.passed else "fail"] for v in cert.verdicts]
    rows.append(["second_peak", probe.argmax, -1 if probe.max_value < 0
                 else 1, probe.max_value, probe.dmax,
                 "pass" if probe.certified_negative else "fail"])
    rows.append(["budget", cert.error_budget, cert.inner_tail,
                 probe.error_bound, cert.grid, ""])
    sys.stdout.write(_csv(["check", "offset_or_argmax", "sign",
                           "worst_margin_or_max", "k_or_dmax", "verdict"],
                          rows))
    failures = [f"grid offset {v.offset} failed (margin {v.worst_margin})"
                for v in cert.verdicts if not v.passed]
    _write_json(args.phases, {"certificate_s": t1 - t0, "probe_s": t2 - t1,
                              "failures": failures})
    return 0


def cmd_direct(args: argparse.Namespace) -> int:
    """CSV of the four table-route calls, computed without a table."""
    from murmurations import cli
    out = {}
    for sub, span in (("trace-average", ["--X", str(args.X), "--Y", str(args.Y)]),
                      ("dyadic-average", ["--X", str(args.dX), "--c", str(args.c)])):
        for k in (2, 4):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main([sub, *span, "--P", str(args.P), "--k", str(k)])
            out[f"{sub} k={k}"] = buf.getvalue() if code == 0 else None
    json.dump(out, sys.stdout)
    return 0


def cmd_density_check(args: argparse.Namespace) -> int:
    """Every Bessel row agrees with the Chebyshev form within tail_bound."""
    from murmurations.density import DensityConfig, murmuration_density
    cfg = DensityConfig(k=args.k)
    bad = []
    with open(args.csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        y, val, tail = (float(row[c]) for c in ("y", "value", "tail_bound"))
        if y == 0.0:
            continue
        cheb = murmuration_density(cfg, y)
        if not abs(cheb - val) <= tail:
            bad.append(f"k={args.k} y={y}: bessel {val} chebyshev {cheb} "
                       f"tail_bound {tail}")
    json.dump({"rows": len(rows), "failures": bad}, sys.stdout)
    return 0


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("cli")
    s.add_argument("--trace-out", required=True)
    s.add_argument("argv", nargs=argparse.REMAINDER)
    s.set_defaults(func=cmd_cli)
    s = sub.add_parser("desk")
    for name in ("--X", "--Y", "--P"):
        s.add_argument(name, type=int, required=True)
    s.add_argument("--phases", required=True)
    s.add_argument("--trace-out")
    s.set_defaults(func=cmd_desk)
    s = sub.add_parser("signcheck")
    s.add_argument("--phases", required=True)
    s.add_argument("--trace-out")
    s.set_defaults(func=cmd_signcheck)
    s = sub.add_parser("direct")
    for name in ("--P", "--X", "--Y", "--dX"):
        s.add_argument(name, type=int, required=True)
    s.add_argument("--c", type=float, required=True)
    s.set_defaults(func=cmd_direct)
    s = sub.add_parser("density-check")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--csv", required=True)
    s.set_defaults(func=cmd_density_check)
    args = ap.parse_args(argv)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
