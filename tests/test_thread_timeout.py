"""OpenBLAS's idle wait: `import murmurations` sets OPENBLAS_THREAD_TIMEOUT
before numpy loads, keeps a value the user set, and so stops OpenBLAS's
helper threads from spinning after the sign check's long dots.  Each case
runs in a fresh interpreter, because OpenBLAS reads the variable once."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import murmurations

SRC = str(Path(murmurations.__file__).parents[1])


def run_python(code, **env_extra):
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC,
                                                      env.get("PYTHONPATH")]))
    env.update(env_extra)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


IMPORT_ONLY = """
import os, sys
import murmurations
print("numpy" in sys.modules, os.environ["OPENBLAS_THREAD_TIMEOUT"])
"""


@pytest.mark.parametrize("preset, wait", [(None, "4"), ("20", "20")],
                         ids=["unset", "preset"])
def test_import_sets_the_wait_before_numpy_loads(preset, wait):
    env = {} if preset is None else {"OPENBLAS_THREAD_TIMEOUT": preset}
    assert run_python(IMPORT_ONLY, **env) == ["False", wait]


def test_no_spin_after_a_sign_check_length_dot():
    # OpenBLAS splits this dot over its threads; with its default wait the
    # helper spins about 0.13 s of CPU through the sleep, with the minimum
    # about 0.0002 s
    out = run_python("""
import time
import murmurations.signcheck
import numpy as np
a = np.ones(4_010_000)
float(np.dot(a, a))
t0 = time.process_time()
time.sleep(0.2)
print(time.process_time() - t0)
""")
    assert float(out[0]) < 0.03
