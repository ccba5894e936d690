"""Per-stage timings of the pipeline and wall time of the CLI commands, before and after.

Usage (from the repository root):

    python tools/bench.py --before OTHER/src [--repeats 3] [--tier1] [--out DIR]

One run writes ``BENCH_cells.json`` and ``BENCH_simulate.json`` to DIR (by
default the repository root).

Every stage model is the three-group WSBM of the benchmark workloads,
built by ``config.build_model``: sizes n/4, n/2, n/4 and the q, w of
``perfbench/workloads.py``, graph seed 0, swing nodes, f = 1/s; its
reduction is ``run_algorithm_1`` with k = 3. At n = 80 that is the eq15
graph (20/40/20), and n = 320 and 1280 are it scaled by 4 and 16.

``BENCH_cells.json`` (child ``cells``) times:

- one ``experiment`` cell (``cli._experiment_cell``) of the
  ``experiment-pool`` workload's config at n = 32, 64 and 320 (scales 1, 2
  and 10): the first cell of the process, which pays lazy imports, and the
  median of the next ones;
- ``cluster_embedding`` (50 restarts) of the bottom-3 embedding at n = 80,
  320 and 1280;
- the band table and the band suprema on a 20-point grid over [1e-3, 10]
  at n = 32, 64, 160 and 320: ``band_error`` (``evaluate``'s table with
  the H-infinity estimates) and ``band_suprema`` (``sup_err`` and
  ``bound_satisfied`` of an ``experiment`` cell), each timed with building
  the ``sweep`` of the model it reads.

Every stage but the first cell is the median of ``INNER`` calls after one
warm-up call. Each stage also records ``dense_svds``, the mean number of
``np.linalg.svd`` calls per stage call on one matrix whose sides both
exceed 2k = 6 (the n x n SVDs; stacked and k x k ones are not counted).

``BENCH_simulate.json`` times:

- ``close_loop`` of the full network and ``realize_reduced`` of its
  reduction at n = 80, 320 and 1280 (child ``loops=N``, one fresh
  interpreter per n), with the peak RSS of that interpreter after
  ``close_loop``; that figure includes sampling and reducing the model;
- at n = 80 and 320 and for 4001 and 30001 samples at dt = 1e-3 (child
  ``steps``): the step response of the full closed loop (2n states) and of
  the reduced loop (2k states), the ``step_chunks`` stream drained and
  collected into one output array (rows ``step_response/...``, the name
  under which earlier reports recorded this stage, so that they stay
  comparable); and ``write_matrix_csv`` of the full outputs (plain) and of
  the reduced outputs with one column per node (repeated columns), each
  with the time column as ``lead``, as ``simulate`` writes them;
- CLI commands end to end, with the wall time and peak RSS of each
  process: ``simulate`` on ``configs/three_group.json`` with seed 0, at
  n = 80 with 4001 samples and at n = 320 (sizes scaled by 4) with 30001
  samples; ``reduce``, ``evaluate`` and ``experiment`` (with ``--jobs 1``
  and ``--jobs 2``) on the configs of the ``reduce-large``,
  ``evaluate-band`` and ``experiment-pool`` workloads at benchmark seed 7:
  n = 1280, n = 160 over 12 frequencies, and 8 cells at n = 32 and 64.
  The ``simulate-step`` workload is the n = 80 run above.

Each child runs in a fresh interpreter that imports ``netreduce`` from
either ``--before`` (a source tree of another commit) or this repository's
``src``. For each of ``--repeats`` repeats, alternating which tree goes
first, a tree runs every child and then the commands. Each file records
each stage's median, min and max wall time per side (and peak RSS, where
taken), with the machine, the numpy version and its BLAS, and the thread
variables the children saw. The output files of the commands go to a
temporary directory that is deleted. With ``--tier1`` the tier-1 suite
(``python -m pytest -q``) of each tree also runs once, the tree's
``tests`` next to its ``src``, and both files record its wall time.
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
Q = [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]
W = [[20.0, 0.4, 0.8], [0.4, 20.0, 0.7], [0.8, 0.7, 20.0]]
CLUSTER_N = (80, 320, 1280)
BAND_N = (32, 64, 160, 320)
GRID_SIZE = 20
INNER = 5
CELL_SCALES = (1, 2, 10)
LOOP_N = (80, 320, 1280)
STEP_N = (80, 320)
SAMPLES = (4001, 30001)
DT = 1e-3
# (scale, samples) of the end-to-end `simulate` runs
SIMULATE_RUNS = ((1, 4001), (4, 30001))
# benchmark seed of the workload configs run end to end
BENCH_SEED = 7
# the hidden --child names; each runs in its own interpreter, so that each
# loops=N child's peak RSS is that of its own scale
LOOP_CHILDREN = tuple(f"loops={n}" for n in LOOP_N)
CHILDREN = ("cells", "steps", *LOOP_CHILDREN)

# each file: the children whose stages it records ("commands" are the CLI
# runs), and what it says it holds
REPORTS = {
    "BENCH_cells.json": {
        "children": ("cells",),
        "what": "wall time and dense n x n SVDs per call of each experiment-cell and band stage, "
        "before and after, each run in a fresh interpreter; a stage is the median of "
        f"{INNER} calls after a warm-up call, except experiment_cell/first, the first cell of "
        "the process; band_error is the evaluate table with H-infinity estimates, band_suprema "
        "the sup_err and bound verdict of an experiment cell",
        "inputs": "three-group WSBM with sizes n/4, n/2, n/4 and the q, w of perfbench/workloads.py, "
        f"graph seed 0, swing nodes, f = 1/s, k = 3, 50 restarts, {GRID_SIZE}-point grid on "
        "[1e-3, 10]; experiment cells: sizes 8/16/8, scales 1, 2 and 10, seeds 0-6",
    },
    "BENCH_simulate.json": {
        "children": ("steps", *LOOP_CHILDREN, "commands"),
        "what": "wall time of each simulate stage, before and after, each run in a fresh "
        "interpreter; peak RSS of the interpreter that built the full loop (close_loop rows, "
        "model sampling and reduction included); wall time and peak RSS of the simulate, "
        "reduce, evaluate and experiment commands end to end",
        "inputs": "stages: eq15 three-group graph (20/40/20 scaled by 1 and 4; close_loop and "
        "realize_reduced also by 16), graph seed 0, swing nodes, f = 1/s, k = 3, dt = 1e-3, "
        "unit step at node 1; simulate: configs/three_group.json, seed 0, sizes scaled by 1 "
        "and 4, dt = 1e-3; reduce, evaluate, experiment: the reduce-large, evaluate-band and "
        "experiment-pool configs of perfbench/workloads.py at benchmark seed 7",
    },
}

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import WORKLOADS  # noqa: E402


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


def _model(n):
    """The stage model with n nodes."""
    from netreduce.config import build_model, config_from_dict

    return build_model(config_from_dict(_doc(n)), 0)[0]


def _reduced(n):
    """The stage model with n nodes and its reduction."""
    from netreduce.reduction import run_algorithm_1

    model = _model(n)
    return model, run_algorithm_1(model, 3, seed=0)


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


def measure_cells():
    """Time every cell and band stage; returns their seconds and dense SVDs per call."""
    import numpy as np

    from netreduce import cli, evaluation
    from netreduce.config import config_from_dict
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
        data = bottom_k_eig(_model(n).laplacian, 3)
        stage(f"cluster_embedding/n={n}", lambda: cluster_embedding(data.v_k, 3, restarts=50, seed=0))
    omega = log_grid(1e-3, 10.0, GRID_SIZE)

    def band(reader, model, reduced):
        return reader(model, reduced, evaluation.sweep(model, omega))

    for n in BAND_N:
        model, reduced = _reduced(n)
        stage(f"band_error/n={n}", lambda: band(evaluation.band_error, model, reduced))
        stage(f"band_suprema/n={n}", lambda: band(evaluation.band_suprema, model, reduced))
    return {"times": times, "counts": {"dense_svds": counts}}


def measure_loops(n):
    """Time ``close_loop`` and ``realize_reduced`` once at n nodes, with the
    peak RSS of this process after ``close_loop``."""
    import resource

    from netreduce.simulate import close_loop, realize_reduced

    model, reduced = _reduced(n)
    t0 = time.perf_counter()
    close_loop(model.nodes, model.coupling, model.laplacian)
    t1 = time.perf_counter()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    realize_reduced(reduced)
    t2 = time.perf_counter()
    return {
        "times": {f"close_loop/n={n}": t1 - t0, f"realize_reduced/n={n}": t2 - t1},
        "peak_rss_mb": {f"close_loop/n={n}": rss},
    }


def _step_outputs(loop, input_node, t_end):
    """Times and outputs of the ``step_chunks`` stream, collected into two arrays."""
    import numpy as np

    from netreduce.simulate import sample_steps, step_chunks

    out, row = None, 0
    for _, y in step_chunks(loop, input_node, t_end, DT):
        if out is None:  # after the matrix exponential's temporaries are freed
            out = np.empty((sample_steps(t_end, DT) + 1, y.shape[1]))
        out[row : row + len(y)] = y
        row += len(y)
        del y  # freed before the next chunk is computed
    return np.arange(len(out)) * DT, out


def measure_steps():
    """Time the step responses and their CSV writes once each."""
    from netreduce.io import write_matrix_csv
    from netreduce.simulate import close_loop, realize_reduced

    times = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        for n in STEP_N:
            model, reduced = _reduced(n)
            full = close_loop(model.nodes, model.coupling, model.laplacian)
            red = realize_reduced(reduced)
            part = reduced.partition
            group_in = int(part.assignment[1])
            for samples in SAMPLES:
                t_end = (samples - 1) * DT
                t0 = time.perf_counter()
                t, y = _step_outputs(full, 1, t_end)
                times[f"step_response/full/n={n}/samples={samples}"] = time.perf_counter() - t0
                t0 = time.perf_counter()
                t_red, y_red = _step_outputs(red, group_in, t_end)
                times[f"step_response/reduced/n={n}/samples={samples}"] = time.perf_counter() - t0

                t0 = time.perf_counter()
                write_matrix_csv(path, y, lead=t)
                times[f"write_matrix_csv/plain/n={n}/samples={samples}"] = time.perf_counter() - t0
                columns = [0, *(part.assignment + 1).tolist()]
                t0 = time.perf_counter()
                write_matrix_csv(path, y_red, columns=columns, lead=t_red)
                times[f"write_matrix_csv/repeated/n={n}/samples={samples}"] = time.perf_counter() - t0
                del y, y_red
    return {"times": times}


def measure(name):
    """Run the child ``name`` in this interpreter; returns its times, the thread
    settings and, where taken, its peak RSS and counts per stage."""
    import netreduce  # noqa: F401  (sets the one-thread BLAS default first)

    if name.startswith("loops="):
        res = measure_loops(int(name.removeprefix("loops=")))
    else:
        res = {"cells": measure_cells, "steps": measure_steps}[name]()
    res["thread_env"] = {v: os.environ.get(v) for v in THREAD_VARS}
    return res


def end_to_end_runs():
    """(row name, config document, command, jobs) of every end-to-end run."""
    with open(os.path.join(ROOT, "configs", "three_group.json")) as fh:
        base = json.load(fh)
    runs = []
    for scale, samples in SIMULATE_RUNS:
        sizes = [size * scale for size in base["wsbm"]["sizes"]]
        doc = dict(
            base,
            seeds=[0],
            wsbm=dict(base["wsbm"], sizes=sizes),
            sim=dict(base["sim"], t_end=round((samples - 1) * DT, 9)),
        )
        runs.append((f"simulate/n={sum(sizes)}/samples={samples}", doc, "simulate", None))
    reduce_large = WORKLOADS["reduce-large"].make_config(BENCH_SEED)
    runs.append(("reduce/n=1280", reduce_large, "reduce", None))
    band = WORKLOADS["evaluate-band"].make_config(BENCH_SEED)
    runs.append((f"evaluate/n=160/grid={band['grid_size']}", band, "evaluate", None))
    pool = WORKLOADS["experiment-pool"].make_config(BENCH_SEED)
    for jobs in (1, 2):
        runs.append((f"experiment/n=32,64/cells=8/jobs={jobs}", pool, "experiment", jobs))
    return runs


def commands_end_to_end(src):
    """Wall time and peak RSS of each ``end_to_end_runs`` run of the CLI, importing ``src``.

    Each run is one ``python -m netreduce.cli`` process, whose peak RSS
    ``os.wait4`` reports; for ``experiment --jobs 2`` that is the largest
    of the process and its reaped workers. That figure includes the memory
    of the process that started it, so the runs start from this small
    harness process rather than from a measuring child that has loaded numpy.
    """
    times, rss = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, doc, command, jobs) in enumerate(end_to_end_runs()):
            config = os.path.join(tmp, "config.json")
            with open(config, "w") as fh:
                json.dump(doc, fh)
            args = [command, "--config", config, "--out", os.path.join(tmp, f"out-{i}")]
            if jobs:
                args += ["--jobs", str(jobs)]
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "netreduce.cli", *args],
                env=child_env(src), cwd=tmp, stdout=subprocess.DEVNULL,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode:
                raise RuntimeError(f"{name} exited {proc.returncode}")
            times[name] = wall
            rss[name] = usage.ru_maxrss / 1024
    return {"times": times, "peak_rss_mb": rss}


def child_env(src):
    """Environment of a child that imports ``netreduce`` from ``src``, with the
    package's default thread settings (no BLAS thread variable)."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


def _child(src, name):
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", name],
        env=child_env(src), cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def compare(sides, repeats):
    """Run every child, then the commands, against each of ``sides`` ({side: src}),
    alternating the order ``repeats`` times.

    Returns {side: [run]}, where a run maps each child name, and
    ``"commands"``, to its result.
    """
    runs = {side: [] for side in sides}
    for r in range(repeats):
        for side in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
            run = {name: _child(sides[side], name) for name in CHILDREN}
            run["commands"] = commands_end_to_end(sides[side])
            runs[side].append(run)
            print(f"# repeat {r + 1}/{repeats} {side} done", file=sys.stderr)
    return runs


def summarize(runs, parts):
    """Per stage of the children ``parts``: the median, min and max seconds of each
    side, the same of its peak RSS where taken, and the counts of the side's first run."""
    stages = {}
    for side, side_runs in runs.items():
        for part in parts:
            results = [run[part] for run in side_runs]
            for name in results[0]["times"]:
                vals = [res["times"][name] for res in results]
                row = stages.setdefault(name, {})[side] = {
                    "median_s": statistics.median(vals),
                    "min_s": min(vals),
                    "max_s": max(vals),
                }
                if name in results[0].get("peak_rss_mb", {}):
                    rss = [res["peak_rss_mb"][name] for res in results]
                    row.update(
                        peak_rss_mb_median=statistics.median(rss),
                        peak_rss_mb_min=min(rss),
                        peak_rss_mb_max=max(rss),
                    )
                for metric, per_stage in results[0].get("counts", {}).items():
                    row[metric] = per_stage[name]
    return stages


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


def _tier1(src):
    """Wall time and summary line of the tier-1 suite of the tree that holds ``src``."""
    tree = os.path.dirname(os.path.abspath(src))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"],
        env=child_env(src), cwd=tree, capture_output=True, text=True,
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "summary": lines[-1] if lines else "", "returncode": proc.returncode}


def write_report(path, doc, stages):
    """Write the JSON document and print each stage's medians."""
    with open(path, "w") as fh:
        json.dump(dict(doc, stages=stages), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"# {path}")
    for name, st in stages.items():
        b, a = st["before"]["median_s"], st["after"]["median_s"]
        counts = "".join(
            f"  {metric} {st['before'][metric]} -> {st['after'][metric]}"
            for metric in st["after"]
            if not metric.endswith(("_s", "_min", "_max"))
        )
        print(f"{name:48s} {b:8.4f} -> {a:8.4f} s{counts}")
    for side, res in doc.get("tier1", {}).items():
        print(f"tier-1 {side}: {res['wall_s']:.1f} s, {res['summary']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--before", help="src directory of the commit to compare against")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--tier1", action="store_true", help="also time each tree's tier-1 suite")
    ap.add_argument("--out", default=ROOT, help="directory of the two BENCH files")
    ap.add_argument("--child", choices=CHILDREN, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.child)))
        return 0
    if not args.before:
        ap.error("--before is required")

    sides = {"before": args.before, "after": os.path.join(ROOT, "src")}
    runs = compare(sides, args.repeats)
    common = {
        "repeats": args.repeats,
        "thread_env": {side: side_runs[0]["cells"]["thread_env"] for side, side_runs in runs.items()},
        "machine": _machine(),
    }
    if args.tier1:
        common["tier1"] = {side: _tier1(src) for side, src in sides.items()}
    for filename, report in REPORTS.items():
        doc = dict(what=report["what"], inputs=report["inputs"], **common)
        write_report(os.path.join(args.out, filename), doc, summarize(runs, report["children"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
