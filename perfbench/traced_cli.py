"""Run one netreduce CLI command with spans around the package's public layers.

Usage: python traced_cli.py TRACE_DIR CLI_ARG...

Every function in SPANS is wrapped in the module namespace where callers
look it up (``cli`` imports by name, so ``netreduce.cli.band_error`` is
patched, not ``netreduce.evaluation.band_error``). A span records its name,
start, end, parent span and self time (duration minus the child spans it
contains). COUNTERS are wrapped with a call counter only, because they are
called too often or are too small for a span to mean anything. Spans are
kept in memory and written once per process to ``TRACE_DIR/spans-<pid>.json``;
pool workers write theirs after every cell, so nothing is lost when the pool
ends its workers. A name that no longer exists is listed as absent.

The package's own code is not modified; this file only patches attributes
in the running process.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# span name -> the "module:attribute" bindings its callers look up
SPANS = {
    "config.build_model": ["netreduce.cli:build_model"],
    "graphs.sample_adjacency": ["netreduce.config:sample_adjacency"],
    "graphs.expected_laplacian": ["netreduce.cli:expected_laplacian"],
    "spectral.bottom_k_eig": ["netreduce.reduction:bottom_k_eig", "netreduce.cli:bottom_k_eig"],
    "spectral.cluster_embedding": ["netreduce.reduction:cluster_embedding"],
    "kernels.lloyd": ["netreduce._kernels:lloyd"],
    "reduction.run_algorithm_1": ["netreduce.cli:run_algorithm_1"],
    "reduction.refine_embedding": ["netreduce.reduction:refine_embedding"],
    "reduction.reduced_laplacian": ["netreduce.reduction:reduced_laplacian"],
    "transfer.aggregate_tf": ["netreduce.reduction:aggregate_tf"],
    "transfer.passivity_check": ["netreduce.cli:passivity_check"],
    "evaluation.band_error": ["netreduce.cli:band_error"],
    "evaluation.hinf_grid": ["netreduce.cli:hinf_grid"],
    "evaluation.eval_t_yu": ["netreduce.evaluation:eval_t_yu"],
    "evaluation.eval_t_k": ["netreduce.evaluation:eval_t_k"],
    "evaluation.eval_t_hat_k": ["netreduce.evaluation:eval_t_hat_k"],
    "evaluation.spectral_norm": ["netreduce.evaluation:spectral_norm"],
    "simulate.close_loop": ["netreduce.cli:close_loop", "netreduce.simulate:close_loop"],
    "simulate.realize_reduced": ["netreduce.cli:realize_reduced"],
    "simulate.step_response": ["netreduce.cli:step_response"],
    "simulate.compare_responses": ["netreduce.cli:compare_responses"],
    "io.write_matrix_csv": ["netreduce.cli:write_matrix_csv"],
    "io.write_table_csv": ["netreduce.cli:write_table_csv"],
    "io.dump_json": ["netreduce.cli:dump_json"],
    "cli.cell": ["netreduce.cli:_experiment_cell"],
}

COUNTERS = {
    "transfer.inverse_at": "netreduce.transfer:RationalTF.inverse_at",
    "kernels.rk4_lti": "netreduce._kernels:rk4_lti",
    "simulate.aggregate_rational": "netreduce.simulate:aggregate_rational",
}

POOL = "netreduce.cli:ProcessPoolExecutor"

_TRACER = None


def _resolve(binding):
    """(owner, attribute) for "module:dotted.attr", or None when it is gone."""
    mod_name, _, path = binding.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


def _openblas_libs():
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    return len(paths)


class Tracer:
    """In-memory span and counter store of one process."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.absent = []
        self._reset()

    def _reset(self):
        self.pid = os.getpid()
        self.spans = []  # (name, t0, t1, self_s, parent name)
        self.stack = []  # open frames: [name, t0, child seconds]
        self.counts = {}
        self.values = {}  # derived quantities summed over the process
        self.wcss = []  # Lloyd results of the open cluster_embedding call

    def _own(self):
        # a forked pool worker inherits the parent's store: start it afresh
        if os.getpid() != self.pid:
            self._reset()

    def add(self, key, amount):
        self.values[key] = self.values.get(key, 0) + amount

    def count(self, name):
        self.counts[name] = self.counts.get(name, 0) + 1

    def span(self, name, fn):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._own()
            parent = self.stack[-1][0] if self.stack else None
            frame = [name, time.monotonic(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.monotonic()
                self.stack.pop()
                dur = t1 - frame[1]
                if self.stack:
                    self.stack[-1][2] += dur
                self.spans.append((name, frame[1], t1, dur - frame[2], parent))
            if after:
                after(self, args, kwargs, result, dur)
            return result

        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._own()
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for name, bindings in SPANS.items():
            for binding in bindings:
                found = _resolve(binding)
                if found is None:
                    self.absent.append(binding)
                    continue
                owner, attr = found
                setattr(owner, attr, self.span(name, getattr(owner, attr)))
        for name, binding in COUNTERS.items():
            found = _resolve(binding)
            if found is None:
                self.absent.append(binding)
                continue
            owner, attr = found
            setattr(owner, attr, self.counter(name, getattr(owner, attr)))
        found = _resolve(POOL)
        if found is None:
            self.absent.append(POOL)
        else:
            owner, attr = found
            setattr(owner, attr, _traced_pool(getattr(owner, attr), self.out_dir))

    def flush(self, meta=None):
        doc = {
            "pid": self.pid,
            "spans": self.spans,
            "counts": self.counts,
            "values": self.values,
            "absent": self.absent,
        }
        if meta:
            doc["meta"] = meta
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(doc, fh)
        os.replace(path + ".tmp", path)


# derived quantities, computed from a span's arguments and result


def _after_lloyd(tracer, args, kwargs, result, dur):
    tracer.wcss.append(float(result[2]))


def _after_cluster(tracer, args, kwargs, result, dur):
    if tracer.wcss:
        best = min(tracer.wcss)
        tol = 1e-9 * abs(best) + 1e-15
        tracer.add("restarts_at_best", sum(1 for w in tracer.wcss if w <= best + tol))
        tracer.add("restarts", len(tracer.wcss))
    tracer.wcss = []


def _after_band_error(tracer, args, kwargs, result, dur):
    failed = len(result.failures)
    tracer.add("freq_failed", failed)
    tracer.add("freq_attempted", failed + len(result.per_freq))


def _after_step_response(tracer, args, kwargs, result, dur):
    states = args[0].a.shape[0]
    steps = len(result.times) - 1
    tracer.add("step_flops", 8 * states * states * steps)


def _after_write(tracer, args, kwargs, result, dur):
    path = args[0] if args else kwargs["path"]
    tracer.add("io_bytes", os.path.getsize(path))
    tracer.add("io_s", dur)


_AFTER = {
    "kernels.lloyd": _after_lloyd,
    "spectral.cluster_embedding": _after_cluster,
    "evaluation.band_error": _after_band_error,
    "simulate.step_response": _after_step_response,
    "io.write_matrix_csv": _after_write,
    "io.write_table_csv": _after_write,
    "io.dump_json": _after_write,
}


def _traced_pool(base, out_dir):
    class TracedPool(base):
        """Pool whose tasks record their queue wait and flush the worker's spans."""

        def map(self, fn, *iterables, **kwargs):
            task = functools.partial(_run_cell, out_dir, time.monotonic(), fn)
            return super().map(task, *iterables, **kwargs)

    return TracedPool


def _tracer(out_dir):
    """This process's tracer; a worker started by spawn installs its own."""
    global _TRACER
    if _TRACER is None:
        _TRACER = Tracer(out_dir)
        _TRACER.install()
    return _TRACER


def _run_cell(out_dir, submit_t, fn, *args):
    fresh = _TRACER is None
    tracer = _tracer(out_dir)
    tracer._own()
    tracer.add("cell_wait_s", time.monotonic() - submit_t)
    if fresh:
        # unpickled before the patches existed: look the wrapped task up again
        fn = getattr(importlib.import_module(fn.__module__), fn.__qualname__)
    try:
        return fn(*args)
    finally:
        tracer.flush()


def main(argv):
    out_dir, cli_args = argv[0], argv[1:]
    tracer = _tracer(out_dir)
    cli = importlib.import_module("netreduce.cli")
    main_t = time.monotonic()
    try:
        rc = cli.main(cli_args)
    finally:
        tracer.flush(
            meta={
                "main_t": main_t,
                "openblas_libs": _openblas_libs(),
                "thread_env": {
                    k: os.environ.get(k)
                    for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                },
            }
        )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
