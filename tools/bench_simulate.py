"""Per-stage timings of `simulate`: `step_response` and `write_matrix_csv`.

Usage (from the repository root):

    python tools/bench_simulate.py --before OTHER/src [--repeats 3] [--out BENCH_simulate.json]

Times, at n = 80 and 320 (the eq15 three-group graph, graph seed 0, scaled
by 1 and 4) and for 4001 and 30001 samples at dt = 1e-3:

- ``step_response`` of the full closed loop (2n states) and of the reduced
  loop (2k states);
- ``write_matrix_csv`` of the full outputs (plain) and of the reduced
  outputs with one column per node (repeated columns), as ``simulate``
  writes them.

Each measurement runs in a fresh interpreter that imports ``netreduce``
from either ``--before`` (a source tree of another commit) or this
repository's ``src``; the two sides alternate ``--repeats`` times, and the
file records each stage's median, min and max wall time per side, with the
machine, the numpy version and its BLAS, and the thread variables the
children saw. The output files go to a temporary directory that is deleted.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SCALES = (1, 4)
SAMPLES = (4001, 30001)
DT = 1e-3


def _loops(scale):
    """Full and reduced loops of the eq15 graph scaled by ``scale``, and the partition."""
    import numpy as np

    from netreduce import NetworkModel, RationalTF, WsbmParams, laplacian, sample_adjacency
    from netreduce.reduction import run_algorithm_1
    from netreduce.simulate import close_loop, realize_reduced
    from netreduce.transfer import sample_swing_nodes

    params = WsbmParams(
        (20, 40, 20),
        [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
        [[20.0, 0.4, 0.8], [0.4, 20.0, 0.7], [0.8, 0.7, 20.0]],
    ).scaled(scale)
    nodes, _, _ = sample_swing_nodes(params.n, np.random.default_rng([0, 1]))
    model = NetworkModel(
        nodes=nodes,
        coupling=RationalTF((1.0,), (0.0, 1.0)),
        laplacian=laplacian(sample_adjacency(params, 0)),
    )
    reduced = run_algorithm_1(model, 3, seed=0)
    full = close_loop(model.nodes, model.coupling, model.laplacian)
    return full, realize_reduced(reduced), reduced.partition


def measure():
    """Time every stage once in this interpreter; returns {stage: seconds} and the thread settings."""
    import netreduce  # noqa: F401  (sets the one-thread BLAS default first)
    import numpy as np

    from netreduce.io import write_matrix_csv
    from netreduce.simulate import step_response

    times = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        for scale in SCALES:
            full, red, part = _loops(scale)
            n = part.n
            group_in = int(part.assignment[1])
            for samples in SAMPLES:
                t_end = (samples - 1) * DT
                t0 = time.perf_counter()
                y = step_response(full, 1, t_end, DT)
                times[f"step_response/full/n={n}/samples={samples}"] = time.perf_counter() - t0
                t0 = time.perf_counter()
                y_red = step_response(red, group_in, t_end, DT)
                times[f"step_response/reduced/n={n}/samples={samples}"] = time.perf_counter() - t0

                t0 = time.perf_counter()
                write_matrix_csv(path, np.column_stack([y.times, y.outputs]))
                times[f"write_matrix_csv/plain/n={n}/samples={samples}"] = time.perf_counter() - t0
                columns = [0, *(part.assignment + 1).tolist()]
                t0 = time.perf_counter()
                write_matrix_csv(path, np.column_stack([y_red.times, y_red.outputs]), columns=columns)
                times[f"write_matrix_csv/repeated/n={n}/samples={samples}"] = time.perf_counter() - t0
                del y, y_red
    return {"times": times, "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}


def _child(src):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.path.abspath(src)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--measure"],
        env=env, cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def _machine():
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--before", help="src directory of the commit to compare against")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_simulate.json"))
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if not args.before:
        ap.error("--before is required")

    sides = {"before": args.before, "after": os.path.join(ROOT, "src")}
    runs = {side: [] for side in sides}
    for r in range(args.repeats):
        for side in (("before", "after") if r % 2 == 0 else ("after", "before")):
            runs[side].append(_child(sides[side]))
            print(f"# repeat {r + 1}/{args.repeats} {side} done", file=sys.stderr)

    stages = {}
    for name in runs["after"][0]["times"]:
        stages[name] = {}
        for side, results in runs.items():
            vals = [res["times"][name] for res in results]
            stages[name][side] = {
                "median_s": statistics.median(vals),
                "min_s": min(vals),
                "max_s": max(vals),
            }
    doc = {
        "what": "wall time of each simulate stage, before and after, each run in a fresh interpreter",
        "inputs": "eq15 three-group graph (20/40/20 scaled by 1 and 4), graph seed 0, "
        "swing nodes, f = 1/s, k = 3, dt = 1e-3, unit step at node 1",
        "repeats": args.repeats,
        "machine": _machine(),
        "thread_env": {side: res[0]["thread_env"] for side, res in runs.items()},
        "stages": stages,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, st in stages.items():
        b, a = st["before"]["median_s"], st["after"]["median_s"]
        print(f"{name:48s} {b:8.4f} -> {a:8.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
