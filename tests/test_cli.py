"""CLI plumbing: exit codes, deterministic CSV, cache handling, SVG purity,
grid parsing, and a package that runs on numpy alone."""

import ast
import hashlib
import importlib.util
import json
import math
import os
import struct
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from murmurations import cli
from murmurations.classnumbers import hurwitz_sieve, save_table
from murmurations.signcheck import SecondPeakReport


def run(args, tmp_path, env_extra=None, timeout=None):
    env = dict(os.environ)
    env["MURMUR_CACHE_DIR"] = str(tmp_path / "cache")
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "murmurations.cli", *args],
                         capture_output=True, text=True, env=env,
                         timeout=timeout)


def test_usage_error_exit_2(tmp_path):
    assert run(["not-a-command"], tmp_path).returncode == 2
    assert run(["density"], tmp_path).returncode == 2
    res = run(["density", "--k", "2", "--y-grid", "oops"], tmp_path)
    assert res.returncode == 2


def test_non_finite_grid_exits_2(tmp_path):
    res = run(["density", "--k", "2", "--y-grid", "0:inf:1"], tmp_path)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert res.stderr.strip().splitlines() == ["bad grid spec '0:inf:1'"]


def test_non_finite_dyadic_c_exits_2(tmp_path):
    res = run(["dyadic-average", "--X", "100", "--c", "inf", "--P", "7",
               "--k", "2"], tmp_path)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert res.stderr.strip().splitlines() == ["--c must be finite, got inf"]


def test_overflowing_dyadic_window_exits_2(tmp_path):
    # c is finite but c X is not: the report's check runs before N_high
    res = run(["dyadic-average", "--X", "10", "--c", "1e308", "--P", "7",
               "--k", "2"], tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert len(res.stderr.strip().splitlines()) == 1
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("args", [
    "dyadic-average --X 3 --c 1e300 --P 5 --k 2",
    "trace-average --X 1000000000000000000 --Y 100000000000000000 --P 5 "
    "--k 2",
], ids=["dyadic-c-1e300", "trace-Y-1e17"])
def test_huge_window_exits_2(args, tmp_path):
    # both windows would take longer than any run to enumerate; the level
    # window bound refuses them before the first level
    res = run(args.split(), tmp_path, timeout=30)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    [line] = res.stderr.strip().splitlines()
    assert line == (f"murmur {args.split()[0]}: the averaging window holds "
                    "more than LEVEL_WINDOW_MAX = 1000000 integers")


@pytest.mark.parametrize("offset, scanned", [("1e-10", "0"),
                                             ("0.9999999999999999", "1")])
def test_signcheck_offset_it_would_not_scan_exits_2(offset, scanned,
                                                     tmp_path):
    # grid_verify would certify k + scanned and report the offset as given
    res = run(["signcheck", "--S", "5000", "--skip-probe", "--offsets",
               offset], tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    [line] = res.stderr.strip().splitlines()
    assert line == (f"murmur signcheck: offset {offset} is not a fraction "
                    "with denominator <= 1000000000: the grid would be "
                    f"k + {scanned}")


@pytest.mark.parametrize("args", [
    "dyadic-average --X 0 --c 2 --P 7 --k 2",
    "trace-average --X 10 --Y -5 --P 7 --k 2",
], ids=["dyadic-X-0", "trace-Y-negative"])
def test_empty_or_inverted_window_exits_2(args, tmp_path):
    # X = 0 would divide P by zero; Y < 0 would name the window 10..5
    res = run(args.split(), tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    [line] = res.stderr.strip().splitlines()
    assert line.startswith(f"murmur {args.split()[0]}: need ")


def test_unallocatable_table_exits_2(monkeypatch, capsys):
    # the size numpy cannot allocate is simulated, so nothing is allocated
    def no_memory(dmin, dmax):
        raise MemoryError(f"Unable to allocate a table to {dmax}")

    monkeypatch.setattr(cli, "hurwitz_sieve", no_memory)
    assert cli.main(["sieve-classnumbers", "--dmax", "3000000000"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["murmur sieve-classnumbers: out of memory: "
                                "Unable to allocate a table to 3000000000"]


def test_verify_multfns_bytes_pinned(tmp_path):
    """verify-multfns at its fixed ranges: exit 0 and the same bytes, pinned
    here as perfbench/reference.json records none (it exited 1 then)."""
    res = run(["verify-multfns"], tmp_path)
    assert res.returncode == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == \
        "3d0b2b7b905b762dcda5e0c5ea5f08deb01c3db4089f2b3e96b7cbc7b38a4456"


def _perfbench():
    """perfbench/run.py, read only; in sys.modules first (dataclasses)."""
    if "perfbench_run" not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", Path(__file__).parents[1] / "perfbench/run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["perfbench_run"] = module
        spec.loader.exec_module(module)
    return sys.modules["perfbench_run"]


def _replay(workload, choice, tmp_path, only=None, direct=False):
    """Run one input's steps (or the one labelled only) as run.py's run_step
    does: a fresh interpreter in a directory holding its relative cache,
    --phases after a child mode; direct drops --hurwitz-cache.  Returns the
    stdout digests and those perfbench/reference.json records, by label."""
    bench = _perfbench()
    ref = json.loads(bench.REFERENCE.read_text())[workload][str(choice)]
    (tmp_path / bench.CACHE).mkdir(parents=True, exist_ok=True)
    phases = tmp_path / "phases.json"
    out = {}
    for step in bench.WORKLOADS[workload](choice).steps():
        if only not in (None, step.label):
            continue
        args = step.args
        if direct:
            i = args.index("--hurwitz-cache")
            args = args[:i] + args[i + 2:]
        argv = ([sys.executable, "-m", "murmurations.cli", *args]
                if step.mode == "cli" else
                [sys.executable, bench.CHILD, step.mode, *args,
                 "--phases", str(phases)])
        res = subprocess.run(argv, cwd=tmp_path, env=bench.child_env(),
                             capture_output=True, timeout=300)
        assert res.returncode == 0, (step.label, res.stderr.decode())
        if step.mode != "cli":
            assert json.loads(phases.read_text())["failures"] == []
        out[step.label] = bench.digest(res.stdout)
    return out, (ref if only is None else {only: ref[only]})


def test_verify_constants_bytes_pinned(tmp_path):
    """The bytes recorded for every density-verify input: a change that
    moves a last bit fails here, and a re-record changes one file."""
    out, ref = _replay("density-verify", 0, tmp_path, "verify-constants")
    assert out == ref


@pytest.mark.parametrize("label", [
    "bessel k=2", "bessel k=4", "chebyshev k=4", "asymptotic k=2",
], ids=["bessel-k2", "bessel-k4", "chebyshev-k4", "asymptotic-k2"])
def test_density_bytes_pinned(label, tmp_path):
    """density-verify's first input: each grid shifted by a ninth of a step."""
    out, ref = _replay("density-verify", 0, tmp_path, label)
    assert out == ref


@pytest.mark.parametrize("label", [
    "trace-average k=2", "trace-average k=4", "dyadic-average k=2",
    "dyadic-average k=4"], ids=lambda s: s.replace("-average k=", "-k"))
def test_trace_bytes_pinned(label, tmp_path):
    """The table-trace averages at P = 101 without their table print the
    bytes recorded for the table route."""
    out, ref = _replay("table-trace", 101, tmp_path, label, direct=True)
    assert out == ref


@pytest.mark.parametrize("workload, choice", [("table-trace", 101), (
    "desk-trace", 1471)], ids=["table-trace-101", "desk-trace-1471"])
def test_benchmark_steps_match_reference(workload, choice, tmp_path):
    """Every step in order in one cache (the averages read the sieve's table).
    signcheck's recorded bits hold only for the BLAS thread count of their
    recording; the --S 5000 tests below pin the certificate instead."""
    out, ref = _replay(workload, choice, tmp_path)
    assert out == ref


def test_signcheck_bytes_pinned(tmp_path):
    """The default-D certificate at a cutoff below OpenBLAS's 10,000-element
    threading threshold, so its bits do not depend on the BLAS thread count:
    a wrong weight or lattice point fails here."""
    res = run(["signcheck", "--S", "5000", "--skip-probe"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == \
        "300f04b0abf92b0d81650faa22fb87a0fbce46c5b8ada396bea858ac89e94d87"


def test_signcheck_with_probe_bytes_pinned(tmp_path):
    """The same cutoff at offset 0 with the second-peak probe, so the
    FFT-sampled profile and its interpolation are pinned end to end (the
    digest is the same with one BLAS thread and with the default)."""
    res = run(["signcheck", "--S", "5000", "--offsets", "0"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == \
        "c3af666eb4ef3a74fe2f47f9a3924f80cc23964cbfe5a67e65c686f77487239c"


@pytest.mark.parametrize("args", [
    "trace-average --X 4 --Y 0 --P 9 --k 2",
    "dyadic-average --X 4 --c 1.1 --P 9 --k 2",
], ids=["trace", "dyadic"])
def test_non_prime_P_with_empty_window_exits_2(args, tmp_path):
    # [4, 4] holds no square-free level, so no per-level check sees P
    res = run(args.split(), tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.strip().splitlines() == [
        f"murmur {args.split()[0]}: P must be an odd prime"]


def test_prime_P_with_empty_window_exits_0(tmp_path):
    res = run("trace-average --X 4 --Y 0 --P 7 --k 2".split(), tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[1].split(",")[:4] == ["4", "4", "7", "2"]


@pytest.mark.parametrize("form", ["chebyshev", "bessel", "asymptotic"])
def test_density_negative_y_exits_2(form, tmp_path):
    res = run(["density", "--form", form, "--k", "2",
               "--y-grid=-0.5:0:0.25"], tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.strip().splitlines() == [
        "murmur density: y must be positive"]


def test_parse_grid_stops_at_stop():
    assert cli._parse_grid("0:1:0.6") == [0.0, 0.6]
    assert len(cli._parse_grid("0:1:0.1")) == 11
    assert cli._parse_grid("0:0:0.5") == [0.0]


def test_parse_grid_keeps_benchmark_grids():
    # the shifted grids of the density benchmark: a span that is a
    # multiple of the step keeps its round()-counted points
    for choice in range(8):
        for start, stop, step in ((0.0, 4.0, 0.25), (0.0, 4.0, 0.001),
                                  (0.05, 1.0, 0.05)):
            s = (choice + 1) / 9 * step
            lo, hi = start + s, stop + s
            n = int(round((hi - lo) / step))
            assert cli._parse_grid(f"{lo!r}:{hi!r}:{step!r}") == \
                [lo + i * step for i in range(n + 1)]


def test_grid_past_its_bound_exits_2_before_any_list(monkeypatch, capsys):
    # 1e300 / 1e-300 overflows the point count; 0:1e9:1e-3 asks for 1e12
    # floats.  range() is guarded, so no test run builds such a list.
    def small_range(n):
        assert n <= cli.GRID_MAX_POINTS, f"a grid of {n} points was built"
        return range(n)

    monkeypatch.setattr(cli, "range", small_range, raising=False)
    for spec in ("0:1e300:1e-300", "0:1e9:1e-3"):
        assert cli.main(["density", "--k", "2", "--y-grid", spec]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"bad grid spec {spec!r}; more than GRID_MAX_POINTS = "
            f"{cli.GRID_MAX_POINTS} points"]
    assert len(cli._parse_grid("0:999999:1")) == cli.GRID_MAX_POINTS


@pytest.mark.parametrize("args, bound", [
    ("--y-grid 1e12:1e12:1", "CHEBYSHEV_YMAX = 1e+10"),
    ("--y-grid 1e300:1e300:1", "CHEBYSHEV_YMAX = 1e+10"),
    ("--form bessel --y-grid 1e8:1e8:1", "BESSEL_YMAX = 1e+06"),
], ids=["chebyshev-1e12", "chebyshev-1e300", "bessel-1e8"])
def test_density_past_its_y_bound_exits_2_at_once(args, bound):
    """A y whose r- or d-loop would run for minutes (or, at 1e300, never
    end) is refused within a second.  The command runs in a child
    process, timed from after import, so a hang is killed."""
    code = ("import sys, time\n"
            "from murmurations import cli\n"
            "t = time.perf_counter()\n"
            "rc = cli.main(sys.argv[1:])\n"
            "print(rc, time.perf_counter() - t)\n")
    res = subprocess.run([sys.executable, "-c", code, "density", "--k", "2",
                          *args.split()], capture_output=True, text=True,
                         timeout=60)
    rc, seconds = res.stdout.split()
    assert rc == "2" and float(seconds) < 1.0
    assert res.stderr.strip().splitlines() == [
        f"murmur density: y must be finite and at most {bound} for the "
        f"{'Bessel' if 'bessel' in args else 'Chebyshev'} form"]


def test_density_grid_past_its_work_bound_exits_2_at_once():
    """1e5 points, each inside CHEBYSHEV_YMAX, would each take 2e4 passes
    of the r-loop; the array is refused within a second."""
    code = ("import sys, time\n"
            "from murmurations import cli\n"
            "t = time.perf_counter()\n"
            "rc = cli.main(sys.argv[1:])\n"
            "print(rc, time.perf_counter() - t)\n")
    res = subprocess.run([sys.executable, "-c", code, "density", "--k", "2",
                          "--y-grid", "1:1e8:1e3"], capture_output=True,
                         text=True, timeout=60)
    rc, seconds = res.stdout.split()
    assert rc == "2" and float(seconds) < 1.0
    assert res.stderr.strip().splitlines() == [
        "murmur density: 100000 points up to y = 9.9999e+07 cost "
        "(100000 + CHEBYSHEV_R_COST) x 19999 = 2003899800 point-r terms, "
        "more than CHEBYSHEV_WORK_MAX = 50000000"]


@pytest.mark.parametrize("args, message", [
    ("--k 24 --y-grid 1e8:1e10:1e8",
     "100 points up to y = 1e+10 cost (100 + CHEBYSHEV_R_COST) x 200000 = "
     "60000000 point-r terms, more than CHEBYSHEV_WORK_MAX = 50000000"),
    ("--form bessel --k 2 --y-grid 1:1e6:1",
     "1000000 points up to y = 1e+06 make 2000000000 point-d terms, more "
     "than BESSEL_WORK_MAX = 5000"),
    ("--form asymptotic --k 2 --y-grid 1:1e6:1",
     "1000000 points are more than ASYMPTOTIC_POINTS_MAX = 300 for the "
     "asymptotic form"),
], ids=["chebyshev-per-r", "bessel", "asymptotic"])
def test_density_grid_past_its_form_bound_exits_2_at_once(args, message):
    """Grids each form would still be evaluating after ten seconds (the
    first has few points, but 2e5 passes of the r-loop) are refused
    within a second, in a child process timed from after import."""
    code = ("import sys, time\n"
            "from murmurations import cli\n"
            "t = time.perf_counter()\n"
            "rc = cli.main(sys.argv[1:])\n"
            "print(rc, time.perf_counter() - t)\n")
    res = subprocess.run([sys.executable, "-c", code, "density",
                          *args.split()], capture_output=True, text=True,
                         timeout=60)
    rc, seconds = res.stdout.split()
    assert rc == "2" and float(seconds) < 1.0
    assert res.stderr.strip().splitlines() == [f"murmur density: {message}"]


def test_density_makes_one_call_per_form(monkeypatch, capsys):
    calls = []
    for name in ("murmuration_density", "murmuration_density_bessel",
                 "universal_asymptotic"):
        def counted(*args, fn=getattr(cli, name), name=name):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(cli, name, counted)
    for form in ("chebyshev", "bessel", "asymptotic"):
        assert cli.main(["density", "--form", form, "--k", "4", "--y-grid",
                         "0:2:0.25"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 10
    assert calls == ["murmuration_density", "murmuration_density_bessel",
                     "universal_asymptotic"]


def test_density_grid_rows_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["density", "--k", "2", "--y-grid", "0:0.2:0.01"]
    assert run(args + ["--out", str(out1)], tmp_path).returncode == 0
    assert run(args + ["--out", str(out2)], tmp_path).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "y,value,tail_bound"
    assert len(lines) == 22


def test_svg_is_pure_view(tmp_path):
    plain, with_svg = tmp_path / "p.csv", tmp_path / "s.csv"
    svg = tmp_path / "plot.svg"
    base = ["density", "--k", "4", "--y-grid", "0.1:0.5:0.1"]
    run(base + ["--out", str(plain)], tmp_path)
    run(base + ["--out", str(with_svg), "--svg", str(svg)], tmp_path)
    assert plain.read_bytes() == with_svg.read_bytes()
    assert svg.read_text().startswith("<svg")
    assert "polyline" in svg.read_text()


def test_svg_draws_only_finite_points(tmp_path):
    # the asymptotic form is NaN at y = 0; the other two points are drawn
    svg = tmp_path / "plot.svg"
    res = run(["density", "--form", "asymptotic", "--k", "2", "--y-grid",
               "0:1:0.5", "--svg", str(svg)], tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[1] == "0.0,nan,0.0"
    text = svg.read_text()
    assert "nan" not in text
    points = text.split('points="')[1].split('"')[0]
    assert len(points.split()) == 2


def test_svg_without_finite_points_is_empty(tmp_path):
    svg = tmp_path / "plot.svg"
    cli._write_svg(str(svg), [0.0, 1.0], [math.nan, math.inf])
    assert 'points=""' in svg.read_text()


def test_cache_dir_override(tmp_path, monkeypatch):
    monkeypatch.setenv("MURMUR_CACHE_DIR", str(tmp_path / "alt"))
    assert cli.cache_dir() == tmp_path / "alt"
    monkeypatch.delenv("MURMUR_CACHE_DIR")
    assert cli.cache_dir().name == "murmurations"


def test_sieve_classnumbers_writes_cache(tmp_path):
    res = run(["sieve-classnumbers", "--dmax", "400"], tmp_path)
    assert res.returncode == 0
    assert "cache_path" in res.stdout
    cache = tmp_path / "cache" / "hurwitz_3_400.murh1"
    assert cache.exists()
    assert cache.read_bytes()[:5] == b"MURH1"


def test_trace_average_row(tmp_path):
    res = run(["trace-average", "--X", "100", "--Y", "20", "--P", "101",
               "--k", "2"], tmp_path)
    assert res.returncode == 0
    header, row = res.stdout.splitlines()
    assert header.split(",") == ["N_low", "N_high", "P", "k", "numerator",
                                 "denominator", "average", "predicted",
                                 "residual"]
    assert row.split(",")[0] == "100"


def test_trace_average_with_covering_cache(tmp_path):
    cache = tmp_path / "h.murh1"
    assert run(["sieve-classnumbers", "--dmax", "3000",
                "--hurwitz-cache", str(cache)], tmp_path).returncode == 0
    plain = run(["trace-average", "--X", "10", "--Y", "4", "--P", "7",
                 "--k", "2"], tmp_path)
    cached = run(["trace-average", "--X", "10", "--Y", "4", "--P", "7",
                  "--k", "2", "--hurwitz-cache", str(cache)], tmp_path)
    assert cached.returncode == 0
    assert cached.stdout == plain.stdout


def test_verify_multfns_skips_P_dividing_d(tmp_path):
    # d = 7 and 11 meet P = 7 and 11, where the brute-force sum is undefined
    res = run(["verify-multfns"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[1:] == ["theta,12,200,0,pass",
                                           "phi_circ,12,12,1000,pass"]


def test_truncated_cache_exits_2(tmp_path):
    cache = tmp_path / "h.murh1"
    assert run(["sieve-classnumbers", "--dmax", "3000",
                "--hurwitz-cache", str(cache)], tmp_path).returncode == 0
    cache.write_bytes(cache.read_bytes()[:-7])
    res = run(["trace-average", "--X", "10", "--Y", "4", "--P", "7",
               "--k", "2", "--hurwitz-cache", str(cache)], tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.strip().splitlines() == [
        "murmur trace-average: corrupt table payload"]


def test_v1_cache_exits_2(tmp_path):
    cache = tmp_path / "h.murh1"
    cache.write_bytes(b"MURH1" + struct.pack("<IQQ", 1, 3, 3000)
                      + struct.pack("<qQ", 0, 2998))
    res = run(["trace-average", "--X", "10", "--Y", "4", "--P", "7",
               "--k", "2", "--hurwitz-cache", str(cache)], tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and "version 1" in lines[0]


def test_missing_cache_exits_2(tmp_path):
    res = run(["trace-average", "--X", "10", "--Y", "4", "--P", "7",
               "--k", "2", "--hurwitz-cache", str(tmp_path / "none")],
              tmp_path)
    assert res.returncode == 2
    assert len(res.stderr.strip().splitlines()) == 1


def test_cache_above_dmin_3_falls_back(tmp_path):
    # the table serves d >= 100; the smaller d are computed, silently
    cache = tmp_path / "h.murh1"
    save_table(hurwitz_sieve(100, 3000), str(cache))
    args = ["trace-average", "--X", "10", "--Y", "4", "--P", "7", "--k", "2"]
    plain = run(args, tmp_path)
    cached = run(args + ["--hurwitz-cache", str(cache)], tmp_path)
    assert cached.returncode == 0
    assert cached.stdout == plain.stdout
    assert cached.stderr == ""


def test_verify_multfns_other_value_error_exits_2(monkeypatch, capsys):
    # only the two known domain exclusions are skipped; any other
    # ValueError from a closed form is a failure, not a silent skip
    def boom(r, d, g, P):
        raise ValueError("unexpected")

    monkeypatch.setattr(cli, "phi_circ", boom)
    assert cli.main(["verify-multfns"]) == 2
    assert "unexpected" in capsys.readouterr().err


def test_signcheck_small_cutoff(tmp_path):
    res = run(["signcheck", "--S", "40000", "--skip-probe",
               "--report", str(tmp_path / "r.csv")], tmp_path)
    assert res.returncode == 0
    report = (tmp_path / "r.csv").read_text().splitlines()
    assert len(report) == 4  # header + one verdict per offset
    assert all(line.endswith("pass") for line in report[1:])


def test_signcheck_with_probe(tmp_path):
    res = run(["signcheck", "--offsets", "0", "--S", "40000",
               "--report", str(tmp_path / "r.csv")], tmp_path)
    assert res.returncode == 0
    grid, probe = (tmp_path / "r.csv").read_text().splitlines()[1:]
    assert grid.startswith("grid,0.0,-1,") and grid.endswith(",pass")
    check, argmax, sign, _, dmax, verdict = probe.split(",")
    assert (check, float(argmax), sign, dmax, verdict) == \
        ("second_peak", 15014.6, "-1", "5000", "pass")


def test_signcheck_exit_needs_the_uncertified_probe_row(monkeypatch, capsys):
    """The exit code is 1 when the probe row fails, even though every grid
    offset is certified: the probe is part of the verdict."""
    monkeypatch.setattr(cli, "second_peak_probe", lambda: SecondPeakReport(
        dmax=5000, max_value=-0.01, argmax=15014.6, error_bound=0.02))
    assert cli.main(["signcheck", "--S", "5000", "--offsets", "0"]) == 1
    grid, probe = capsys.readouterr().out.splitlines()[1:]
    assert grid.startswith("grid,0.0,-1,") and grid.endswith(",pass")
    assert probe == "second_peak,15014.6,-1,-0.01,5000,fail"


# -- start-up cost ----------------------------------------------------------

def test_cli_import_loads_every_traced_module():
    """perfbench/tracer.py wraps the modules in its MODULES tuple after
    `import murmurations.cli`; a module that import leaves unloaded would
    fail every traced benchmark step with a KeyError."""
    tracer = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    (modules,) = [ast.literal_eval(n.value)
                  for n in ast.parse(tracer.read_text()).body
                  if isinstance(n, ast.Assign)
                  and [t.id for t in n.targets] == ["MODULES"]]
    res = subprocess.run(
        [sys.executable, "-c",
         "import murmurations.cli, sys; print(*sorted(m for m in "
         "sys.modules if m.startswith('murmurations.')))"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    loaded = set(res.stdout.split())
    assert modules and {f"murmurations.{m}" for m in modules} <= loaded


def test_cli_import_does_not_load_scipy():
    """scipy.special costs ~0.3 s of start-up and no command needs it."""
    res = subprocess.run(
        [sys.executable, "-c",
         "import murmurations.cli, sys; print('scipy' in sys.modules)"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


def test_certified_route_does_not_load_scipy(tmp_path):
    """A trace average with no table computes certified class numbers
    (math.erfc) and still never imports scipy."""
    code = ("import sys\n"
            "from murmurations import cli, classnumbers\n"
            "cli.main(['trace-average', '--X', '300', '--Y', '30', "
            "'--P', '101', '--k', '2', '--out', sys.argv[1]])\n"
            "print(classnumbers.hurwitz_H1_certified.cache_info().currsize > 0,"
            " 'scipy' in sys.modules)\n")
    env = dict(os.environ, MURMUR_CACHE_DIR=str(tmp_path / "cache"))
    res = subprocess.run([sys.executable, "-c", code, str(tmp_path / "t.csv")],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "True False\n"


def _scipy_imports(text: str) -> list[tuple[str, list[str]]]:
    """Every scipy import in a module as (scope, imported names): scope is
    the dotted path of the enclosing classes and functions, "" at module
    level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [f"{child.module}.{a.name}" for a in child.names]
            else:
                names = []
            if any(n.split(".")[0] == "scipy" for n in names):
                found.append((scope, names))
            visit(child, inner)

    visit(ast.parse(text), "")
    return found


def test_no_module_level_scipy_import():
    """The package imports scipy nowhere, deferred or not."""
    src = Path(cli.__file__).parent
    found = [(path.name, scope, names)
             for path in sorted(src.glob("*.py"))
             for scope, names in _scipy_imports(path.read_text())]
    assert found == [], found
    # the scan sees a planted top-level import, and only that one
    text = (src / "classnumbers.py").read_text()
    assert _scipy_imports("import scipy.special\n" + text) == \
        [("", ["scipy.special"])]


def test_numpy_is_the_only_runtime_dependency():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["numpy"]


def test_commands_run_with_scipy_blocked(tmp_path):
    """With scipy unimportable, the Bessel density, the constants check and
    a small sign check still exit 0."""
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from murmurations import cli\n"
            "out = sys.argv[1]\n"
            "print([cli.main(a + ['--out', out]) for a in (\n"
            "    ['density', '--form', 'bessel', '--k', '2',\n"
            "     '--y-grid', '0.25:1:0.25'],\n"
            "    ['verify-constants'])],\n"
            "    cli.main(['signcheck', '--S', '40000', '--skip-probe',\n"
            "              '--report', out]))\n")
    env = dict(os.environ, MURMUR_CACHE_DIR=str(tmp_path / "cache"))
    res = subprocess.run([sys.executable, "-c", code, str(tmp_path / "o.csv")],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[0, 0] 0\n"
