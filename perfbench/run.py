#!/usr/bin/env python3
"""Benchmark of the murmurations pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record        # rewrite perfbench/reference.json

Run from the root of a source checkout.  Every step runs in a fresh
interpreter against ./src, one at a time, with MURMUR_CACHE_DIR pointing at
.perfbench/work/cache, which is emptied before each iteration.  One
iteration is one pass over the workload's steps; iterations repeat while
the next one ends within --seconds plus half its length.  With --trace 0 the last stdout line holds the
end-to-end metrics (medians over iterations); with --trace 1, untraced and
traced iterations alternate and it holds the per-layer metrics of the
traced ones.  Workloads, metrics and checks are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench" / "work"
CACHE = Path(".perfbench") / "work" / "cache"     # relative: it appears in CSV
REFERENCE = BENCH / "reference.json"
CHILD = str(BENCH / "child.py")
PY = sys.executable

RUN_DEADLINE_S = 165.0
SETUP_SAMPLES = 7


sys.path.insert(0, str(SRC))
try:
    from murmurations.arith import build_sieve, is_prime
except ImportError:
    sys.exit(f"perfbench: no murmurations sources under {SRC}")


def _primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi + 1) if is_prime(n)]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Step:
    label: str
    mode: str                 # "cli" or a child.py mode
    args: list[str]


class Workload:
    name = ""
    choices: list = []        # the generated inputs a seed can pick

    def __init__(self, choice) -> None:
        self.choice = choice

    @classmethod
    def from_seed(cls, seed: int) -> "Workload":
        return cls(random.Random(f"{cls.name}:{seed}").choice(cls.choices))

    @property
    def key(self) -> str:
        return str(self.choice)

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def details(self, it: "Iteration") -> dict[str, tuple[float, str]]:
        return {}

    def check_once(self, it: "Iteration") -> list[tuple[str, str]]:
        """Expensive output checks, run untimed on the first iteration:
        (step label, what is wrong) pairs."""
        return []


class DeskTrace(Workload):
    name = "desk-trace"
    X, Y = 3000, 300
    choices = _primes(1470, 1530)      # y = P/X ~ 0.5, one r-term per level

    def steps(self):
        return [Step("desk", "desk", ["--X", str(self.X), "--Y", str(self.Y),
                                      "--P", str(self.choice)])]

    def details(self, it):
        ph = it.result("desk").phases
        return {"levels_per_s": (ph["levels"] / (ph["k2_s"] + ph["k4_s"]), "1/s"),
                "average_k2_s": (ph["k2_s"], "s"),
                "average_k4_s": (ph["k4_s"], "s")}


class TableTrace(Workload):
    name = "table-trace"
    X, Y, DX, C = 500, 50, 250, "2"
    choices = _primes(89, 101)
    DMAX = 4 * max(choices) * (X + Y)   # one table size for every seed

    @property
    def table(self) -> str:
        return str(CACHE / f"hurwitz_3_{self.DMAX}.murh1")

    def steps(self):
        P, tbl = str(self.choice), ["--hurwitz-cache", self.table]
        out = [Step("sieve", "cli", ["sieve-classnumbers",
                                     "--dmax", str(self.DMAX)])]
        for k in ("2", "4"):
            out.append(Step(f"trace-average k={k}", "cli", [
                "trace-average", "--X", str(self.X), "--Y", str(self.Y),
                "--P", P, "--k", k, *tbl]))
        for k in ("2", "4"):
            out.append(Step(f"dyadic-average k={k}", "cli", [
                "dyadic-average", "--X", str(self.DX), "--c", self.C,
                "--P", P, "--k", k, *tbl]))
        return out

    def details(self, it):
        read = sum(r.wall_s for r in it.results if r.label != "sieve")
        hi = int(float(self.C) * self.DX)
        sieve = build_sieve(max(self.X + self.Y, hi))
        levels = 2 * sum(1 for lo, up in ((self.X, self.X + self.Y), (self.DX, hi))
                         for N in range(lo, up + 1)
                         if N % self.choice and sieve.is_squarefree(N))
        return {"table_write_s": (it.result("sieve").wall_s, "s"),
                "table_read_s": (read, "s"),
                "levels_per_s": (levels / read, "1/s")}

    def check_once(self, it):
        proc = subprocess.run(
            [PY, CHILD, "direct", "--P", str(self.choice), "--X", str(self.X),
             "--Y", str(self.Y), "--dX", str(self.DX), "--c", self.C],
            cwd=ROOT, env=child_env(), capture_output=True, timeout=120)
        if proc.returncode:
            return [("direct route", f"exited {proc.returncode}")]
        direct = json.loads(proc.stdout)
        return [(label, "table route differs from direct route")
                for label, text in direct.items()
                if it.result(label).stdout.decode() != text]


class SignCheck(Workload):
    name = "signcheck"
    choices = ["offset=0"]           # the certificate is a fixed statement

    def steps(self):
        return [Step("signcheck", "signcheck", [])]

    def details(self, it):
        ph = it.result("signcheck").phases
        return {"certificate_s": (ph["certificate_s"], "s"),
                "probe_s": (ph["probe_s"], "s")}


class DensityVerify(Workload):
    name = "density-verify"
    choices = list(range(8))         # grid shift, in ninths of a step

    def _grid(self, start: float, stop: float, step: float) -> str:
        s = (self.choice + 1) / 9 * step
        return f"{start + s!r}:{stop + s!r}:{step!r}"

    def steps(self):
        bessel = self._grid(0.0, 4.0, 0.25)
        return [
            Step("bessel k=2", "cli", ["density", "--form", "bessel", "--k", "2",
                                       "--y-grid", bessel]),
            Step("bessel k=4", "cli", ["density", "--form", "bessel", "--k", "4",
                                       "--y-grid", bessel]),
            Step("chebyshev k=4", "cli", ["density", "--form", "chebyshev",
                                          "--k", "4", "--y-grid",
                                          self._grid(0.0, 4.0, 0.001)]),
            Step("asymptotic k=2", "cli", ["density", "--form", "asymptotic",
                                           "--k", "2", "--y-grid",
                                           self._grid(0.05, 1.0, 0.05)]),
            Step("verify-constants", "cli", ["verify-constants"]),
            # Exits 1 at its defaults (P = 7, 11 divides d = 7, 11 inside
            # phi_circ_bruteforce); counted as a failed step, see NOTES.md.
            Step("verify-multfns", "cli", ["verify-multfns"]),
        ]

    def details(self, it):
        return {
            "density_bessel_s": (it.result("bessel k=2").wall_s
                                 + it.result("bessel k=4").wall_s, "s"),
            "verify_s": (it.result("verify-constants").wall_s
                         + it.result("verify-multfns").wall_s, "s")}

    def check_once(self, it):
        failures = []
        for k in ("2", "4"):
            path = WORK / f"bessel-k{k}.csv"
            path.write_bytes(it.result(f"bessel k={k}").stdout)
            proc = subprocess.run([PY, CHILD, "density-check", "--k", k,
                                   "--csv", str(path)], cwd=ROOT,
                                  env=child_env(), capture_output=True,
                                  timeout=120)
            if proc.returncode:
                failures.append((f"bessel k={k}",
                                 f"density-check exited {proc.returncode}"))
                continue
            failures += [(f"bessel k={k}", msg)
                         for msg in json.loads(proc.stdout)["failures"]]
        return failures


WORKLOADS = {w.name: w for w in (DeskTrace, TableTrace, SignCheck,
                                 DensityVerify)}


# ---------------------------------------------------------------------------
# Running steps
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["MURMUR_CACHE_DIR"] = str(CACHE)
    return env


@dataclass
class StepResult:
    label: str
    code: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    phases: dict = field(default_factory=dict)
    trace: dict | None = None
    subcommand: str = ""


def spawn(argv: list[str], timeout: float) -> tuple[int, float, float,
                                                  bytes, bytes]:
    """Run argv to completion; (code, wall s, peak RSS MB, stdout, stderr).

    The peak RSS comes from os.wait4 on this one child.
    """
    with open(WORK / "stdout", "w+b") as out, open(WORK / "stderr", "w+b") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        out.seek(0)
        err.seek(0)
        return (proc.returncode, wall, usage.ru_maxrss / 1024.0, out.read(),
                err.read())


def run_step(step: Step, traced: bool, timeout: float) -> StepResult:
    phases_path = WORK / "phases.json"
    trace_path = WORK / "trace.json"
    for p in (phases_path, trace_path):
        p.unlink(missing_ok=True)
    if step.mode == "cli":
        argv = ([PY, CHILD, "cli", "--trace-out", str(trace_path), "--"]
                if traced else [PY, "-m", "murmurations.cli"]) + step.args
    else:
        argv = [PY, CHILD, step.mode, *step.args, "--phases", str(phases_path)]
        if traced:
            argv += ["--trace-out", str(trace_path)]
    code, wall, rss, out, err = spawn(argv, timeout)
    res = StepResult(step.label, code, wall, rss, out, err,
                     subcommand=step.args[0] if step.mode == "cli" else "")
    if phases_path.exists():
        res.phases = json.loads(phases_path.read_text())
        res.wall_s -= res.phases.get("check_s", 0.0)   # untimed checks
    if traced and trace_path.exists():
        res.trace = json.loads(trace_path.read_text())
    return res


@dataclass
class Iteration:
    results: list[StepResult]
    traced: bool

    def result(self, label: str) -> StepResult:
        return next(r for r in self.results if r.label == label)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.results)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.rss_mb for r in self.results)


def run_iteration(wl: Workload, traced: bool, deadline: float) -> Iteration:
    if WORK.exists():
        shutil.rmtree(WORK)
    (ROOT / CACHE).mkdir(parents=True)
    return Iteration([run_step(s, traced, deadline - perf_counter())
                      for s in wl.steps()], traced)


def measure_setup() -> float:
    """Wall time of a fresh interpreter importing murmurations.cli."""
    WORK.mkdir(parents=True, exist_ok=True)
    code, wall, *_ = spawn([PY, "-c", "import murmurations.cli"], 60.0)
    if code:
        raise SystemExit("perfbench: importing murmurations.cli failed")
    return wall


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Counts attempted and failed steps; records why outputs were wrong."""

    def __init__(self, wl: Workload, reference: dict | None) -> None:
        """reference maps step labels to output digests; None skips it."""
        self.wl = wl
        self.reference = reference
        self.first: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []       # output-check failures
        self.exit_failures: list[str] = []

    def check(self, it: Iteration, first: bool) -> None:
        bad: dict[str, list[str]] = {}
        exited_badly = set()
        for r in it.results:
            self.attempted += 1
            if r.code:
                exited_badly.add(r.label)
                tail = r.stderr.decode(errors="replace").strip().splitlines()
                self.exit_failures.append(
                    f"{r.label}: exit {r.code}, expected 0"
                    f" ({tail[-1] if tail else 'no stderr'})")
                self.failed += 1
                continue
            msgs = bad.setdefault(r.label, [])
            msgs += r.phases.get("failures", [])
            seen = self.first.setdefault(r.label, r.stdout)
            if seen != r.stdout:
                msgs.append("output differs between iterations")
            # A step with no recorded output (one that failed when the
            # reference was recorded) is checked by the other checks only.
            want = (self.reference or {}).get(r.label)
            if want is not None and want != digest(r.stdout):
                msgs.append("output differs from recorded reference")
        if first:
            for label, msg in self.wl.check_once(it):
                if label not in exited_badly:
                    bad.setdefault(label, []).append(msg)
        for label, msgs in bad.items():
            if msgs:
                self.failed += 1
                self.wrong += [f"{label}: {m}" for m in msgs]

    @property
    def correct(self) -> bool:
        return not self.wrong


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def per_layer(it: Iteration, wl: Workload) -> dict[str, float]:
    """The traced iteration's per-layer metrics, merged over its steps."""
    stats: dict[str, list[float]] = {}
    edges: dict[tuple[str, str], int] = {}
    cli_s: dict[str, float] = {}
    for r in it.results:
        if not r.trace:
            continue
        for name, (calls, total, self_s) in r.trace["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for p, c, n in r.trace["edges"]:
            edges[(p, c)] = edges.get((p, c), 0) + n
        if r.subcommand:
            main = r.trace["stats"].get("cli.main", [0, 0.0, 0.0])
            cli_s[r.subcommand] = cli_s.get(r.subcommand, 0.0) + main[1]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def secs(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    out: dict[str, float] = {}
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = calls(name)
    for name in LAYER_SECONDS:
        out[f"{name}.s"] = secs(name)
    out["signcheck.grid_verify.self_s"] = stats.get(
        "signcheck.grid_verify", [0, 0.0, 0.0])[2]
    out["classnumbers.certified_fallbacks"] = edges.get(
        ("classnumbers.gauss_h_certified", "classnumbers.gauss_h_bruteforce"), 0)
    traces = calls("traceformula.trace_TpWN")
    out["traceformula.h_evals_per_level"] = (
        calls("classnumbers.gauss_h_weighted") / traces if traces else 0.0)
    # Read-path lookups only: trace_TpWN is the nearest wrapped caller of
    # the private _class_number; the sieve step's own pass over the table
    # has cli.main as parent and is left out.
    out["traceformula.table_lookups"] = edges.get(
        ("traceformula.trace_TpWN", "classnumbers.HurwitzTable.__getitem__"), 0)
    table = ROOT / wl.table if isinstance(wl, TableTrace) else None
    out["classnumbers.table_bytes"] = (table.stat().st_size
                                       if table and table.exists() else 0)
    out["cli.main.s"] = sum(cli_s.values())
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.main.{sub}.s"] = cli_s.get(sub, 0.0)
    return out


LAYER_CALLS = ("arith.kronecker", "arith.build_sieve",
               "classnumbers.gauss_h_certified", "classnumbers.gauss_h_bruteforce",
               "traceformula.trace_TpWN", "density.adaptive_quadrature",
               "density.bessel_inner_sum", "density.murmuration_density",
               "multfns.theta", "signcheck.f_polylog", "signcheck.f_interpolated")
LAYER_SECONDS = ("arith.kronecker", "arith.build_sieve",
                 "classnumbers.gauss_h_certified", "classnumbers.gauss_h_bruteforce",
                 "classnumbers.hurwitz_sieve", "classnumbers.save_table",
                 "classnumbers.load_table", "traceformula.trace_TpWN",
                 "density.adaptive_quadrature", "density.bessel_inner_sum",
                 "density.dyadic_density", "density.universal_asymptotic",
                 "constants.euler_constant", "constants.zeta",
                 "constants.qsqrt_sum_upper_bound", "constants.q_table",
                 "multfns.theta_bruteforce", "multfns.phi_circ_bruteforce",
                 "signcheck.f_polylog", "signcheck.second_peak_probe",
                 "signcheck.f_interpolated")
CLI_SUBCOMMANDS = ("sieve-classnumbers", "trace-average", "dyadic-average",
                   "density", "verify-constants", "verify-multfns")


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _fmt(xs: list[float]) -> str:
    return (f"median {median(xs):.6g}  min {min(xs):.6g}  max {max(xs):.6g}"
            f"  n={len(xs)}")


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def _details(wl: Workload, iters: list[Iteration]) -> dict:
    """Workload-specific figures, over iterations whose steps all finished."""
    out: dict[str, tuple[list[float], str]] = {}
    for it in iters:
        try:
            figures = wl.details(it)
        except (KeyError, ZeroDivisionError):      # a step died early
            continue
        for name, (value, unit) in figures.items():
            out.setdefault(name, ([], unit))[0].append(value)
    return out


def bench(wl: Workload, seconds: int, trace: bool) -> dict:
    deadline = perf_counter() + RUN_DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    setup: list[float] = []
    reference = json.loads(REFERENCE.read_text()).get(wl.name, {}).get(wl.key)
    checker = Checker(wl, reference or {})
    if reference is None:
        checker.wrong.append(f"no recorded reference output for {wl.key}")
    iters: list[Iteration] = []
    spent = 0.0
    while True:
        if not trace:               # spread the import samples over the run
            setup.append(measure_setup())
        it = run_iteration(wl, trace and len(iters) % 2 == 1, deadline)
        iters.append(it)
        spent += it.wall_s
        checker.check(it, first=len(iters) == 1)
        # Stop when the next iteration would overrun --seconds by more than
        # half its length; a traced run needs one untraced and one traced.
        longest = max(i.wall_s for i in iters[-2:])
        if perf_counter() + longest > deadline:
            break
        if spent + longest / 2 > seconds and not (trace and len(iters) < 2):
            break

    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup())

    plain = [i for i in iters if not i.traced]
    rows = {"wall_s": ([i.wall_s for i in plain], "s"),
            "peak_rss_mb": ([i.peak_rss_mb for i in plain], "MB")}
    if setup:
        rows["setup_s"] = (setup, "s")
    rows.update(_details(wl, plain))
    for label in [r.label for r in plain[0].results]:
        rows[f"step[{label}]_s"] = ([i.result(label).wall_s for i in plain], "s")
    print(f"workload {wl.name}  input {wl.key}  iterations {len(iters)}"
          f"  ({'untraced and traced alternating' if trace else 'untraced'})")
    for name, (xs, unit) in rows.items():
        print(f"  {name:<28} {unit:<5} {_fmt(xs)}")
    print(f"  {'ops_failed_ratio':<28} {'1':<5} "
          f"{checker.failed / checker.attempted:.6g}"
          f"  (failed {checker.failed} of {checker.attempted} steps)")
    for msg in dict.fromkeys(checker.exit_failures):
        print(f"  failed step: {msg}")
    for msg in dict.fromkeys(checker.wrong):
        print(f"  WRONG OUTPUT: {msg}")

    if trace:
        traced = [i for i in iters if i.traced]
        layers = [per_layer(i, wl) for i in traced]
        values = {n: median([lay[n] for lay in layers]) for n in layers[0]}
        values["trace.wall_s"] = median([i.wall_s for i in traced])
        values["trace.overhead_s"] = (values["trace.wall_s"]
                                      - median([i.wall_s for i in plain]))
        dump = WORK.parent / f"trace-{wl.name}.json"
        dump.write_text(json.dumps(
            [{r.label: r.trace for r in i.results} for i in traced]))
        print(f"  spans and counters of the traced iterations: "
              f"{dump.relative_to(ROOT)}")
    else:
        values = {n: median(rows[n][0]) for n in wanted}
    if set(values) != set(wanted):
        raise SystemExit("perfbench: metrics out of step with BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(wanted))}")
    return {"correct": checker.correct, "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {n: {"value": v, "unit": wanted[n]}
                        for n, v in values.items()}}


def record() -> None:
    """Record the output digest of every step for every generated input."""
    ref: dict[str, dict] = {}
    deadline = perf_counter() + 3600.0
    for cls in WORKLOADS.values():
        for choice in cls.choices:
            wl = cls(choice)
            it = run_iteration(wl, False, deadline)
            checker = Checker(wl, None)
            checker.check(it, first=True)
            if not checker.correct:
                raise SystemExit(f"{wl.name} {wl.key}: {checker.wrong}")
            ref.setdefault(wl.name, {})[wl.key] = {
                r.label: digest(r.stdout) for r in it.results if r.code == 0}
            print(f"recorded {wl.name} {wl.key}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    try:
        if args.record:
            record()
            return 0
        if not args.workload:
            ap.error("--workload is required")
        wl = WORKLOADS[args.workload].from_seed(args.seed)
        result = bench(wl, args.seconds, bool(args.trace))
    finally:
        if WORK.exists():
            shutil.rmtree(WORK)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
