import os
import subprocess
import sys

import netreduce

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = os.path.dirname(os.path.dirname(netreduce.__file__))
PROBE = "import os, netreduce; print(*(os.environ.get(v) for v in {!r}))".format(THREAD_VARS)


def _child_thread_env(**set_vars):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(set_vars)
    env["PYTHONPATH"] = SRC
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


def test_import_defaults_to_one_blas_thread():
    assert _child_thread_env() == ["1", "1", "1"]


def test_user_setting_wins():
    assert _child_thread_env(OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]
