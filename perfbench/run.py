"""Benchmark of the netreduce CLI pipeline, timed from outside the package.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 1

One run of a workload:

1. writes the workload's WSBM config, derived from ``--seed``;
2. measures set-up time: fresh interpreters that import ``netreduce.cli``
   and load the config (perfbench/probe.py), SETUP_PROBES before the timed
   loop and as many after it;
3. runs ``python -m netreduce.cli <command>`` in fresh processes, one at a
   time (a closed loop with one client), for ``--seconds`` seconds, and reads
   wall time, CPU time, involuntary context switches and peak RSS of each
   from ``os.wait4``;
4. with ``--trace 1``, runs the command once more under perfbench/traced_cli.py,
   which records spans around the package's public functions, and derives the
   per-layer metrics from them;
5. checks the outputs: every invocation must exit 0 and write byte-identical
   files, and reference.py recomputes sampled results with numpy.

The CLI children run with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS removed from their environment, so they use the package's
defaults, as users do. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. Lines before it, starting with ``#``, give every metric
computed, the environment and the failed checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS, Checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up probes run before and after the timed loop, so that a burst of
# load from outside meets at most half of them
SETUP_PROBES = 3
THREAD_POLL_S = 0.05
# children still running this long after a workload run started are killed,
# so that the run ends within the 180 s the caller allows
RUN_LIMIT_S = 170


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args, log_path, env, deadline, on_start=None):
    """Run a child to exit; returns (exit code, wall seconds, rusage).

    The child leads its own process group, which is killed at ``deadline``
    together with any pool workers it started.
    """
    with open(log_path, "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            args, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True
        )
        watchdog = threading.Timer(max(0.0, deadline - t0), os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            if on_start:
                on_start(proc.pid)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t0
        finally:
            watchdog.cancel()
            watchdog.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def tail(path, lines=5):
    with open(path, errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


def cpu_jiffies():
    """(steal, total) jiffies of all CPUs since boot, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def hash_tree(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def measure_setup(config_path, work, env, deadline):
    """SETUP_PROBES times from spawn to config loaded, and the probe's environment."""
    times, record = [], None
    log = os.path.join(work, "probe.log")
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        rc, _, _ = spawn([sys.executable, os.path.join(HERE, "probe.py"), config_path], log, env, deadline)
        if rc != 0:
            raise RuntimeError(f"set-up probe exited {rc}:\n{tail(log)}")
        with open(log) as fh:
            record = json.loads(fh.read().splitlines()[-1])
        times.append(record.pop("ready") - t0)
    return times, record


class ThreadWatcher:
    """Peak thread count of a process tree, polled from /proc."""

    def __init__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._thread = None

    def start(self, pid):
        self._thread = threading.Thread(target=self._poll, args=(pid,), daemon=True)
        self._thread.start()

    def stop(self):
        self._stop.set()
        if self._thread:
            self._thread.join()

    def _poll(self, root):
        while not self._stop.is_set():
            self.peak = max(self.peak, self._count(root))
            self._stop.wait(THREAD_POLL_S)

    @staticmethod
    def _count(root):
        parent, threads = {}, {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            parent[int(entry)] = int(fields[1])
            threads[int(entry)] = int(fields[17])
        total, frontier = 0, [root]
        while frontier:
            pid = frontier.pop()
            total += threads.get(pid, 0)
            frontier += [c for c, p in parent.items() if p == pid]
        return total


def traced_run(workload, config_path, work, env, deadline):
    """One traced invocation; returns (exit code, wall, thread peak, merged trace).

    The merged trace's ``startup_s`` runs from spawn to the call of cli.main.
    """
    trace_dir = os.path.join(work, "trace")
    out_dir = os.path.join(work, "out-traced")
    os.makedirs(trace_dir)
    watcher = ThreadWatcher()
    args = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_dir]
    t_spawn = time.monotonic()
    try:
        rc, wall, _ = spawn(
            args + workload.cli_args(config_path, out_dir),
            os.path.join(work, "traced.log"),
            env,
            deadline,
            on_start=watcher.start,
        )
    finally:
        watcher.stop()
    spans, counts, values, absent, meta = [], {}, {}, set(), {}
    for name in sorted(os.listdir(trace_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(trace_dir, name)) as fh:
            doc = json.load(fh)
        spans += doc["spans"]
        for src, dst in ((doc["counts"], counts), (doc["values"], values)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        absent.update(doc["absent"])
        meta.update(doc.get("meta", {}))
    trace = {"spans": spans, "counts": counts, "values": values, "absent": sorted(absent), "meta": meta}
    trace["startup_s"] = meta["main_t"] - t_spawn if "main_t" in meta else 0.0
    return rc, wall, watcher.peak, trace


def layer_metrics(trace, names, traced_wall, untraced_wall, threads_peak, parallel):
    """Per-layer metrics from a merged trace."""
    calls, self_s = {}, {}
    for name, _t0, _t1, own, _parent in trace["spans"]:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
    counts, values = trace["counts"], trace["values"]
    out = {}
    for metric in names:
        layer, _, kind = metric.rpartition(".")
        if kind == "self_s" and layer:
            out[metric] = self_s.get(layer, 0.0)
        elif kind == "calls" and layer:
            out[metric] = calls.get(layer, counts.get(layer, 0))

    def frac(num, den):
        return values.get(num, 0) / values[den] if values.get(den) else 0.0

    io_s = values.get("io_s", 0.0)
    out.update(
        {
            "cli.cell.wait_s": values.get("cell_wait_s", 0.0),
            "spectral.restarts_at_best_frac": frac("restarts_at_best", "restarts"),
            "evaluation.freq_failed_frac": frac("freq_failed", "freq_attempted"),
            "simulate.step_response.flops_computed": values.get("step_flops", 0),
            "io.bytes_written": values.get("io_bytes", 0),
            "io.mb_per_s": values.get("io_bytes", 0) / 1e6 / io_s if io_s else 0.0,
            "proc.threads_peak": threads_peak,
            "proc.blas_libs": trace["meta"].get("openblas_libs", 0),
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.startup_s": trace["startup_s"],
            "trace.coverage_frac": sum(self_s.values()) / (traced_wall * parallel),
            "trace.absent_names": len(trace["absent"]),
        }
    )
    return out


def run_workload(workload, seed, seconds, trace, spec):
    work = os.path.join(WORK, f"{workload.name}-s{seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _run_in(work, workload, seed, seconds, trace, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_in(work, workload, seed, seconds, trace, spec):
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    doc = workload.make_config(seed)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w") as fh:
        json.dump(doc, fh, indent=2)

    setup_times, env_record = measure_setup(config_path, work, env, deadline)

    # closed loop: one invocation at a time until the next would overrun
    checks = Checks()
    ref_dir, ref_hashes = None, None
    samples = []
    steal0, total0 = cpu_jiffies()
    start = time.monotonic()
    while not samples or time.monotonic() - start + statistics.median(s[0] for s in samples) <= seconds:
        out_dir = os.path.join(work, f"out-{len(samples)}")
        log = os.path.join(work, "cli.log")
        rc, wall, usage = spawn(
            [sys.executable, "-m", "netreduce.cli"] + workload.cli_args(config_path, out_dir),
            log,
            env,
            deadline,
        )
        samples.append((wall, usage))
        checks.add(f"invocation{len(samples)}.exit", rc == 0, f"exit {rc}: {tail(log)}" if rc else "")
        if rc != 0:
            continue
        hashes = hash_tree(out_dir)
        if ref_dir is None:
            ref_dir, ref_hashes = out_dir, hashes
        else:
            checks.add(f"invocation{len(samples)}.byte_identical", hashes == ref_hashes)
            shutil.rmtree(out_dir)

    steal1, total1 = cpu_jiffies()
    setup_times += measure_setup(config_path, work, env, deadline)[0]
    walls = [s[0] for s in samples]
    wall_s = statistics.median(walls)
    items = workload.count_items(doc)
    metrics = {
        "wall_s": wall_s,
        "items_per_s": statistics.median(items / w for w in walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(u.ru_maxrss / 1024 for _, u in samples),
        "wall_samples": len(walls),
        "proc.cpu_s": statistics.median(u.ru_utime + u.ru_stime for _, u in samples),
        "proc.cpu_util": statistics.median((u.ru_utime + u.ru_stime) / w for w, u in samples),
        "proc.invol_ctx_switches": statistics.median(u.ru_nivcsw for _, u in samples),
        "proc.invol_ctx_switches_per_s": statistics.median(u.ru_nivcsw / w for w, u in samples),
    }

    absent = []
    if trace:
        rc, traced_wall, peak, tr = traced_run(workload, config_path, work, env, deadline)
        checks.add("traced.exit", rc == 0, f"exit {rc}: {tail(os.path.join(work, 'traced.log'))}")
        metrics.update(
            layer_metrics(
                tr, [m["name"] for m in spec["per_layer"]], traced_wall, wall_s, peak, workload.jobs or 1
            )
        )
        absent = tr["absent"]
        env_record["traced_thread_env"] = tr["meta"].get("thread_env")

    attempted_inner = failed_inner = 0
    if ref_dir is not None:
        import reference  # loads numpy, so only once the timed children are done

        try:
            attempted_inner, failed_inner = getattr(reference, workload.check)(ref_dir, doc, checks)
        except Exception as exc:  # a crashed checker fails the run's checks
            checks.add("checker", False, f"{type(exc).__name__}: {exc}")

    attempted = len(checks.results) + attempted_inner
    failed = len(checks.failed) + failed_inner
    metrics["ops_failed_frac"] = failed / attempted

    env_record.update(
        {
            "workload": workload.name,
            "seed": seed,
            "item": workload.item,
            "items_per_invocation": items,
            "jobs": workload.jobs,
            "parent_thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
            # CPU time the hypervisor took from this machine during the timed
            # loop: high values explain slow runs that no code change caused
            "host_steal_frac": (steal1 - steal0) / max(1, total1 - total0),
            "removed_from_child_env": list(THREAD_VARS),
            "absent_names": absent,
        }
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "env": env_record,
        "failed_checks": checks.failed,
        "walls": walls,
    }


def report(result, spec, trace):
    """Print the '#' lines and return the contract's metrics dict."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = result["metrics"]
    print(f"# env {json.dumps(result['env'], sort_keys=True)}")
    for name, ok, detail in result["failed_checks"]:
        print(f"# FAILED check {name}: {detail}")
    for name in units:
        if name in metrics:
            print(f"# {name} = {metrics[name]:.6g} {units[name]}")
    print(f"# wall_s is the median of {metrics['wall_samples']} invocations")
    print(f"# walls {' '.join(f'{w:.3f}' for w in result['walls'])}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}


def run_all(args):
    """Run every workload in a fresh process of this script.

    A child's peak RSS includes the memory image of the process that forked
    it, so no workload may be spawned from a process that has run checks.
    """
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in sorted(WORKLOADS):
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__)] + argv + ["--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = proc.stdout.splitlines()
        print(f"# workload {name}: exit {proc.returncode}")
        if proc.returncode != 0 or not lines:
            total.update(correct=False, attempted=total["attempted"] + 1, failed=total["failed"] + 1)
            continue
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "netreduce", "cli.py")):
        print(f"error: no netreduce source under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)  # the output checks build models with the package
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, spec)
    metrics = report(result, spec, args.trace)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
