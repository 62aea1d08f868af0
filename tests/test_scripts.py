"""Smoke runs of the scripts at small sizes: each exits 0 and prints its
header lines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import murmurations

ROOT = Path(__file__).parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    src = str(Path(murmurations.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *args], capture_output=True, text=True, env=env,
                          timeout=120)


def test_desk_murmuration_small():
    res = run_script("desk_murmuration.py", "--X", "200", "--Y", "20",
                     "--weights", "2", "--ratios", "0.5")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "X=200 Y=20 primes=[101]"
    assert lines[1].split() == ["k", "P", "y", "average", "M_k(y)",
                                "residual", "window-avg"]
    assert lines[2].split()[:3] == ["2", "101", "0.51"]


@pytest.mark.parametrize("probe", [False, True], ids=["skip-probe", "probe"])
def test_certify_signs_small(probe):
    res = run_script("certify_signs.py", "--S", "2000",
                     *([] if probe else ["--skip-probe"]))
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0].startswith("grid: 15015 points x 3 offsets, period 15015")
    assert lines[1].startswith("error budget ")
    assert [line.split(":")[0] for line in lines[2:5]] == [
        "  offset 0.0", "  offset 0.5", "  offset 0.162"]
    assert lines[5] == "certificate: PASS"
    if probe:
        assert lines[6].startswith("second peak on (15014.5, 15015.0): max ")
        assert lines[7].startswith("no extra sign change certified: ")
        assert lines[8].startswith("observed fraction of unit intervals ")
    else:
        assert len(lines) == 6
