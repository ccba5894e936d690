"""Workload inputs of the CLI pipeline benchmark.

Each workload turns the benchmark seed into one WSBM experiment config,
names the CLI command that runs it, the work item its rate counts, and the
function of reference.py that checks the command's outputs.

This module imports no numpy: the benchmark process must stay small while
it spawns the timed children, because a child's peak RSS as ``os.wait4``
reports it includes the memory image of the process that forked it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

# Well-separated three-block WSBM: in-block edges are 8x more likely and
# 25x heavier than cross edges, so clustering recovers the true blocks.
_BASE = {
    "wsbm": {
        "q": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
        "w": [[20.0, 0.4, 0.8], [0.4, 20.0, 0.7], [0.8, 0.7, 20.0]],
    },
    "nodes": {"preset": "swing", "m_range": [1.0, 3.0], "d_range": [0.5, 1.5]},
    "coupling": {"num": [1.0], "den": [0.0, 1.0]},
    "k": 3,
    "eta": 10.0,
    "omega_min": 0.001,
    "restarts": 50,
}

REL_TOL = 1e-6


def _config(sizes, seeds, **extra):
    doc = json.loads(json.dumps(_BASE))
    doc["wsbm"]["sizes"] = list(sizes)
    doc["seeds"] = list(seeds)
    doc.update(extra)
    return doc


def _graph_seeds(seed, count):
    # disjoint graph seeds for distinct benchmark seeds
    return [seed * 16 + i for i in range(count)]


class Checks:
    """Named pass/fail results of one workload's output checks."""

    def __init__(self):
        self.results = []

    def add(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))

    def close(self, name, got, want, rel=REL_TOL):
        ok = math.isfinite(got) and abs(got - want) <= rel * abs(want) + 1e-12
        self.add(name, ok, f"got {got!r}, want {want!r}")

    def run(self, name, fn):
        """Run a check body; an exception in it fails the check."""
        try:
            fn()
        except Exception as exc:  # a crashed check is a failed check
            self.add(name, False, f"{type(exc).__name__}: {exc}")

    @property
    def failed(self):
        return [r for r in self.results if not r[1]]


@dataclass(frozen=True)
class Workload:
    """One CLI command on inputs made from the benchmark seed.

    ``check`` names a function of reference.py, called as
    ``check(out_dir, config, checks)``. It adds its results to ``checks``
    and returns the (attempted, failed) counts of the operations the command
    reports itself: grid frequencies or experiment cells.
    """

    name: str
    command: str
    jobs: int | None
    item: str
    make_config: Callable[[int], dict]
    count_items: Callable[[dict], int]
    check: str

    def cli_args(self, config_path, out_dir):
        args = [self.command, "--config", config_path, "--out", out_dir]
        if self.jobs:
            args += ["--jobs", str(self.jobs)]
        return args


def _evaluate_items(doc):
    return doc["grid_size"] * len(doc["seeds"])


def _simulate_items(doc):
    sim = doc["sim"]
    return (int(round(sim["t_end"] / sim["dt"])) + 1) * len(doc["seeds"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="reduce-large",
            command="reduce",
            jobs=None,
            item="one seed reduced at n = 1280",
            make_config=lambda seed: _config((320, 640, 320), _graph_seeds(seed, 1)),
            count_items=lambda doc: len(doc["seeds"]),
            check="check_reduce",
        ),
        Workload(
            name="evaluate-band",
            command="evaluate",
            jobs=None,
            item="one grid frequency at n = 160",
            make_config=lambda seed: _config((40, 80, 40), _graph_seeds(seed, 1), grid_size=12),
            count_items=_evaluate_items,
            check="check_evaluate",
        ),
        Workload(
            name="simulate-step",
            command="simulate",
            jobs=None,
            item="one output time sample at n = 80",
            make_config=lambda seed: _config(
                (20, 40, 20),
                _graph_seeds(seed, 1),
                sim={"dt": 1e-3, "t_end": 4.0, "input_node": 1},
            ),
            count_items=_simulate_items,
            check="check_simulate",
        ),
        Workload(
            name="experiment-pool",
            command="experiment",
            jobs=2,
            item="one experiment cell (scale, seed) at n = 32 and 64",
            make_config=lambda seed: _config(
                (8, 16, 8), _graph_seeds(seed, 4), scales=[1, 2], grid_size=20
            ),
            count_items=lambda doc: len(doc["scales"]) * len(doc["seeds"]),
            check="check_experiment",
        ),
    )
}
