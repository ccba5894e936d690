"""Set-up probe: import the CLI, load a config, report the time and environment.

Usage: python probe.py CONFIG

Prints one JSON line. ``ready`` is ``time.monotonic()`` once
``netreduce.cli`` is imported and the config is loaded; the caller subtracts
its own monotonic clock reading taken just before it spawned this process.
The remaining keys are what the process saw after that point.
"""

import sys
import time

import netreduce.cli
from netreduce.config import load_config

load_config(sys.argv[1])
ready = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import netreduce  # noqa: E402

with open("/proc/self/maps") as fh:
    openblas = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})

print(
    json.dumps(
        {
            "ready": ready,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "using_numba": getattr(netreduce, "USING_NUMBA", None),
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "thread_env": {
                k: os.environ.get(k)
                for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            },
            "openblas_libs": len(openblas),
            "openblas_paths": [os.path.basename(p) for p in openblas],
        }
    )
)
