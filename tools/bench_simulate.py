"""Per-stage timings of `simulate`: `close_loop`, the step response and `write_matrix_csv`.

Usage (from the repository root):

    python tools/bench_simulate.py --before OTHER/src [--repeats 3] [--tier1] [--out BENCH_simulate.json]

Times, at n = 80, 320 and 1280 (the eq15 three-group graph, graph seed 0,
scaled by 1, 4 and 16), ``close_loop`` of the full network and
``realize_reduced`` of its reduction (k = 3), each scale in a fresh
interpreter whose peak RSS after ``close_loop`` is recorded too; that
figure includes sampling and reducing the model.

Times, at n = 80 and 320 and for 4001 and 30001 samples at dt = 1e-3:

- the step response of the full closed loop (2n states) and of the reduced
  loop (2k states): the ``step_chunks`` stream drained and collected into
  one output array (rows ``step_response/...``, the name under which
  earlier reports recorded this stage, so that they stay comparable);
- ``write_matrix_csv`` of the full outputs (plain) and of the reduced
  outputs with one column per node (repeated columns), each with the time
  column as ``lead``, as ``simulate`` writes them.

It also runs CLI commands end to end and records the wall time and peak
RSS of each process:

- ``simulate`` on ``configs/three_group.json`` with seed 0, at n = 80 with
  4001 samples and at n = 320 (sizes scaled by 4) with 30001 samples;
- ``reduce``, ``evaluate`` and ``experiment`` (with ``--jobs 1`` and
  ``--jobs 2``) on the configs of the ``reduce-large``, ``evaluate-band``
  and ``experiment-pool`` workloads of ``perfbench/workloads.py`` at
  benchmark seed 7: n = 1280, n = 160 over 12 frequencies, and 8 cells at
  n = 32 and 64. The ``simulate-step`` workload is the n = 80 run above.

Each measurement runs in a fresh interpreter that imports ``netreduce``
from either ``--before`` (a source tree of another commit) or this
repository's ``src``; the two sides alternate ``--repeats`` times, and the
file records each stage's median, min and max wall time per side (and peak
RSS, for the end-to-end rows), with the machine, the numpy version and its
BLAS, and the thread variables the children saw. The output files go to a
temporary directory that is deleted.
With ``--tier1`` the tier-1 suite (``python -m pytest -q``) of each tree
also runs once, the tree's ``tests`` next to its ``src``, and its wall time
is recorded.
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
# scales of the close_loop and realize_reduced rows; n = 1280 builds its
# loops only
LOOP_SCALES = (1, 4, 16)
SAMPLES = (4001, 30001)
DT = 1e-3
# (scale, samples) of the end-to-end `simulate` runs
SIMULATE_RUNS = ((1, 4001), (4, 30001))
# benchmark seed of the workload configs run end to end
BENCH_SEED = 7

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def _reduced(scale):
    """Swing-node model of the eq15 graph scaled by ``scale``, and its reduction."""
    import numpy as np

    from netreduce import NetworkModel, RationalTF, WsbmParams, laplacian, sample_adjacency
    from netreduce.reduction import run_algorithm_1
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
    return model, run_algorithm_1(model, 3, seed=0)


def _loops(scale):
    """Full and reduced loops of the eq15 graph scaled by ``scale``, and the partition."""
    from netreduce.simulate import close_loop, realize_reduced

    model, reduced = _reduced(scale)
    full = close_loop(model.nodes, model.coupling, model.laplacian)
    return full, realize_reduced(reduced), reduced.partition


def measure_loops(scale):
    """Time ``close_loop`` and ``realize_reduced`` once at ``scale``, in this interpreter.

    Returns their seconds and the peak RSS of this process after ``close_loop``.
    """
    import resource

    import netreduce  # noqa: F401  (sets the one-thread BLAS default first)

    from netreduce.simulate import close_loop, realize_reduced

    model, reduced = _reduced(scale)
    name = f"n={model.n}"
    t0 = time.perf_counter()
    close_loop(model.nodes, model.coupling, model.laplacian)
    t1 = time.perf_counter()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    realize_reduced(reduced)
    t2 = time.perf_counter()
    return {
        "times": {f"close_loop/{name}": t1 - t0, f"realize_reduced/{name}": t2 - t1},
        "peak_rss_mb": {f"close_loop/{name}": rss},
    }


def loop_stages(src):
    """``measure_loops`` at each of ``LOOP_SCALES``, each in a fresh interpreter importing ``src``."""
    out = {"times": {}, "peak_rss_mb": {}}
    for scale in LOOP_SCALES:
        res = _child(__file__, src, "--measure-loops", str(scale))
        out["times"].update(res["times"])
        out["peak_rss_mb"].update(res["peak_rss_mb"])
    return out


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


def measure():
    """Time every stage once in this interpreter; returns {stage: seconds} and the thread settings."""
    import netreduce  # noqa: F401  (sets the one-thread BLAS default first)

    from netreduce.io import write_matrix_csv

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
    return {"times": times, "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}


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


def _child(script, src, *args):
    out = subprocess.run(
        [sys.executable, os.path.abspath(script), *(args or ["--measure"])],
        env=child_env(src), cwd=ROOT, check=True, capture_output=True, text=True,
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


def parse_args(argv, doc, default_out):
    """The harness's command line: --before, --repeats, --tier1, --out and the hidden --measure."""
    ap = argparse.ArgumentParser(description=doc.split("\n")[0])
    ap.add_argument("--before", help="src directory of the commit to compare against")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--tier1", action="store_true", help="also time each tree's tier-1 suite")
    ap.add_argument("--out", default=os.path.join(ROOT, default_out))
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--measure-loops", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.measure and args.measure_loops is None and not args.before:
        ap.error("--before is required")
    return args


def compare(script, before, repeats, extra=None):
    """Run ``script --measure`` against both trees, alternating, and summarize each stage.

    Returns (stages, thread_env): per stage the median, min and max seconds
    of each side, and the thread variables each side's children saw. A
    child may also report deterministic counts per stage (``counts``: {metric:
    {stage: value}}); each side records those of its first child. With
    ``extra``, a function of a side's ``src`` that returns ``times`` and
    ``peak_rss_mb`` ({stage: value}) of more stages, each child is followed
    by one call of it, and the median, min and max peak RSS of those stages
    are recorded too.
    """
    sides = {"before": before, "after": os.path.join(ROOT, "src")}
    runs = {side: [] for side in sides}
    for r in range(repeats):
        for side in (("before", "after") if r % 2 == 0 else ("after", "before")):
            res = _child(script, sides[side])
            if extra:
                more = extra(sides[side])
                res["times"].update(more["times"])
                res["peak_rss_mb"] = more["peak_rss_mb"]
            runs[side].append(res)
            print(f"# repeat {r + 1}/{repeats} {side} done", file=sys.stderr)
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
            if name in results[0].get("peak_rss_mb", {}):
                rss = [res["peak_rss_mb"][name] for res in results]
                stages[name][side].update(
                    peak_rss_mb_median=statistics.median(rss),
                    peak_rss_mb_min=min(rss),
                    peak_rss_mb_max=max(rss),
                )
            for metric, per_stage in results[0].get("counts", {}).items():
                stages[name][side][metric] = per_stage.get(name)
    return stages, {side: res[0]["thread_env"] for side, res in runs.items()}


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


def write_report(path, doc, stages, args):
    """Write the JSON document (with the machine record, and the tier-1 times
    if ``args.tier1``) and print each stage's medians."""
    doc = dict(doc, machine=_machine(), stages=stages)
    if args.tier1:
        doc["tier1"] = {"before": _tier1(args.before), "after": _tier1(os.path.join(ROOT, "src"))}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
    args = parse_args(argv, __doc__, "BENCH_simulate.json")
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if args.measure_loops is not None:
        print(json.dumps(measure_loops(args.measure_loops)))
        return 0

    def extra(src):
        more = commands_end_to_end(src)
        loops = loop_stages(src)
        more["times"].update(loops["times"])
        more["peak_rss_mb"].update(loops["peak_rss_mb"])
        return more

    stages, thread_env = compare(__file__, args.before, args.repeats, extra=extra)
    doc = {
        "what": "wall time of each simulate stage, before and after, each run in a fresh "
        "interpreter; peak RSS of the interpreter that built the full loop (close_loop rows, "
        "model sampling and reduction included); wall time and peak RSS of the simulate, "
        "reduce, evaluate and experiment commands end to end",
        "inputs": "stages: eq15 three-group graph (20/40/20 scaled by 1 and 4; close_loop and "
        "realize_reduced also by 16), graph seed 0, swing nodes, f = 1/s, k = 3, dt = 1e-3, "
        "unit step at node 1; simulate: configs/three_group.json, seed 0, sizes scaled by 1 "
        "and 4, dt = 1e-3; reduce, evaluate, experiment: the reduce-large, evaluate-band and "
        "experiment-pool configs of perfbench/workloads.py at benchmark seed 7",
        "repeats": args.repeats,
        "thread_env": thread_env,
    }
    write_report(args.out, doc, stages, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
