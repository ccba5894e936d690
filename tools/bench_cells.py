"""Per-stage timings and dense SVD counts of `experiment` cells and band evaluation.

Usage (from the repository root):

    python tools/bench_cells.py --before OTHER/src [--repeats 5] [--tier1] [--out BENCH_cells.json]

Times, on the three-group WSBM of the benchmark workloads (sizes in the
ratio 1:2:1, swing nodes, f = 1/s, k = 3, graph seed 0):

- ``cluster_embedding`` (50 restarts) of the bottom-3 embedding at n = 80,
  320 and 1280;
- the band table and the band suprema on a 20-point grid over [1e-3, 10]
  at n = 32, 64, 160 and 320: ``band_error`` (``evaluate``'s table with
  the H-infinity estimates) and ``band_suprema`` (``sup_err`` and
  ``bound_satisfied`` of an ``experiment`` cell), each timed with building
  the ``sweep`` of the model it reads;
- one ``experiment`` cell (``cli._experiment_cell``) of the
  ``experiment-pool`` workload's config at n = 32, 64 and 320 (scales 1, 2
  and 10): the first cell of the process, which pays lazy imports, and the
  median of the next ones.

Every other stage is the median of ``INNER`` calls after one warm-up call.
Each stage also records ``dense_svds``, the mean number of ``np.linalg.svd``
calls per stage call on one matrix whose sides both exceed 2k = 6 (the n x n
SVDs; stacked and k x k ones are not counted), counted in the child.
Each measurement runs in a fresh interpreter through the harness of
``bench_simulate.py``, alternating the two trees ``--repeats`` times. With
``--tier1`` the tier-1 suite (``python -m pytest -q``) of each tree also
runs once, the tree's ``tests`` next to its ``src``, and its wall time is
recorded.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

from bench_simulate import THREAD_VARS, compare, parse_args, write_report

Q = [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]
W = [[20.0, 0.4, 0.8], [0.4, 20.0, 0.7], [0.8, 0.7, 20.0]]
CLUSTER_N = (80, 320, 1280)
BAND_N = (32, 64, 160, 320)
GRID_SIZE = 20
INNER = 5
CELL_SCALES = (1, 2, 10)


def _doc(n, **extra):
    doc = {
        "wsbm": {"sizes": [n // 4, n // 2, n // 4], "q": Q, "w": W},
        "nodes": {"preset": "swing", "m_range": [1.0, 3.0], "d_range": [0.5, 1.5]},
        "coupling": {"num": [1.0], "den": [0.0, 1.0]},
        "k": 3,
        "eta": 10.0,
        "omega_min": 0.001,
        "restarts": 50,
        "grid_size": GRID_SIZE,
        "seeds": [0],
    }
    doc.update(extra)
    return doc


class _DenseSvds:
    """Counts the ``np.linalg.svd`` calls on one matrix with both sides above 6."""

    def __init__(self, np):
        self.calls = 0
        svd = np.linalg.svd

        def counting_svd(m, *args, **kwargs):
            shape = np.shape(m)
            if len(shape) == 2 and min(shape) > 6:
                self.calls += 1
            return svd(m, *args, **kwargs)

        np.linalg.svd = counting_svd


def measure():
    """Time every stage in this interpreter; returns {stage: seconds}, {stage: dense SVDs}
    and the thread settings."""
    import netreduce  # noqa: F401  (sets the one-thread BLAS default first)

    import numpy as np

    from netreduce import cli, evaluation
    from netreduce.config import build_model, config_from_dict
    from netreduce.reduction import run_algorithm_1
    from netreduce.spectral import bottom_k_eig, cluster_embedding
    from netreduce.transfer import log_grid

    svds = _DenseSvds(np)
    times, counts = {}, {}

    def stage(name, fn):
        # median of INNER timed calls after a warm-up call, and the mean dense SVDs per call
        before = svds.calls
        fn()
        runs = []
        for _ in range(INNER):
            t0 = time.perf_counter()
            fn()
            runs.append(time.perf_counter() - t0)
        times[name] = statistics.median(runs)
        counts[name] = (svds.calls - before) / (INNER + 1)

    # the experiment cells first, so that the first one is the process's first
    config = config_from_dict(_doc(32, scales=[1, 2], grid_size=20, seeds=[0, 1, 2, 3]))
    t0 = time.perf_counter()
    cli._experiment_cell((config, 1, 0))
    times["experiment_cell/first/n=32"] = time.perf_counter() - t0
    counts["experiment_cell/first/n=32"] = svds.calls
    for scale in CELL_SCALES:
        cells = iter(range(1, 1 + INNER + 1))
        stage(f"experiment_cell/n={32 * scale}", lambda: cli._experiment_cell((config, scale, next(cells))))

    for n in CLUSTER_N:
        model, _, _ = build_model(config_from_dict(_doc(n)), 0)
        data = bottom_k_eig(model.laplacian, 3)
        stage(f"cluster_embedding/n={n}", lambda: cluster_embedding(data.v_k, 3, restarts=50, seed=0))
    omega = log_grid(1e-3, 10.0, GRID_SIZE)

    def band(reader, model, reduced):
        return reader(model, reduced, evaluation.sweep(model, omega))

    for n in BAND_N:
        model, _, _ = build_model(config_from_dict(_doc(n)), 0)
        reduced = run_algorithm_1(model, 3, seed=0)
        stage(f"band_error/n={n}", lambda: band(evaluation.band_error, model, reduced))
        stage(f"band_suprema/n={n}", lambda: band(evaluation.band_suprema, model, reduced))
    return {
        "times": times,
        "counts": {"dense_svds": counts},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None):
    args = parse_args(argv, __doc__, "BENCH_cells.json")
    if args.measure:
        print(json.dumps(measure()))
        return 0
    stages, thread_env = compare(__file__, args.before, args.repeats)
    doc = {
        "what": "wall time and dense n x n SVDs per call of each experiment-cell and band stage, "
        "before and after, each run in a fresh interpreter; a stage is the median of "
        f"{INNER} calls after a warm-up call, except experiment_cell/first, the first cell of "
        "the process; band_error is the evaluate table with H-infinity estimates, band_suprema "
        "the sup_err and bound verdict of an experiment cell",
        "inputs": "three-group WSBM with sizes n/4, n/2, n/4 and the q, w of perfbench/workloads.py, "
        f"graph seed 0, swing nodes, f = 1/s, k = 3, 50 restarts, {GRID_SIZE}-point grid on "
        "[1e-3, 10]; experiment cells: sizes 8/16/8, scales 1, 2 and 10, seeds 0-6",
        "repeats": args.repeats,
        "thread_env": thread_env,
    }
    write_report(args.out, doc, stages, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
