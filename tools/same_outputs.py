"""Check that two source trees write byte-identical CLI outputs.

Usage (from the repository root):

    python tools/same_outputs.py --before OTHER/src

Runs one set of CLI commands with the ``netreduce`` of ``--before`` (a
source tree of another commit) and with this repository's ``src``, each
command in a fresh interpreter that writes to its own temporary directory,
and compares the two output trees file by file:

- all five commands on ``configs/three_group.json`` trimmed to seeds
  [0, 1], scales [1], 20 grid points and ``sim.t_end`` 2;
- ``experiment`` on that config with k = 200, where every cell fails with
  ``KTooLarge``;
- ``simulate`` on that config with sizes scaled by 4 (n = 320), seed 0
  and ``sim.t_end`` 4, where the full loop's output blocks are shorter
  than the reduced loop's;
- ``simulate`` on that config with explicit nodes 1/(1 + s), but
  1/(1 - s) at node 1 and 1/(1 - s^2) at node 41, which exits with
  ``Diverged`` (the reduced loop diverges first);
- ``simulate`` on that config with explicit biproper nodes (1 + s/2)/(1 + s)
  and (2 + s)/(1 + 2s), alternating, and the biproper coupling
  (1 + s/2)/(1/2 + s): a stable loop whose feedthrough loop matrix is not
  the identity;
- ``evaluate``, ``simulate`` and ``experiment --jobs 2`` on the configs of
  the ``evaluate-band``, ``simulate-step`` and ``experiment-pool``
  workloads of ``perfbench/workloads.py`` at benchmark seed 7.

Every file that differs or exists on one side only is listed, and so is a
command whose exit code or standard error differs; the exit status is 1 if
there is any. The temporary directories are deleted.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile

from bench_simulate import ROOT, child_env

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import WORKLOADS  # noqa: E402

BENCH_SEED = 7


def runs():
    """(name, config document, command, jobs) of every run."""
    with open(os.path.join(ROOT, "configs", "three_group.json")) as fh:
        base = json.load(fh)
    base.update(seeds=[0, 1], scales=[1], grid_size=20)
    base["sim"] = dict(base["sim"], t_end=2.0)
    commands = ("generate", "reduce", "evaluate", "simulate", "experiment")
    out = [(f"three_group-{cmd}", base, cmd, 1) for cmd in commands]
    out.append(("three_group-k200-experiment", dict(base, k=200), "experiment", 1))
    sizes = [4 * size for size in base["wsbm"]["sizes"]]
    scaled = dict(base, seeds=[0], wsbm=dict(base["wsbm"], sizes=sizes), sim=dict(base["sim"], t_end=4.0))
    out.append(("three_group-n320-simulate", scaled, "simulate", 1))
    tfs = [{"num": [1.0], "den": [1.0, 1.0]}] * sum(base["wsbm"]["sizes"])
    tfs[1] = {"num": [1.0], "den": [1.0, -1.0]}
    tfs[41] = {"num": [1.0], "den": [1.0, 0.0, -1.0]}
    unstable = dict(base, nodes={"preset": "explicit", "tfs": tfs})
    out.append(("three_group-diverging-simulate", unstable, "simulate", 1))
    biproper = [{"num": [1.0, 0.5], "den": [1.0, 1.0]}, {"num": [2.0, 1.0], "den": [1.0, 2.0]}]
    feedthrough = dict(
        base,
        nodes={"preset": "explicit", "tfs": [biproper[i % 2] for i in range(sum(base["wsbm"]["sizes"]))]},
        coupling={"num": [1.0, 0.5], "den": [0.5, 1.0]},
    )
    out.append(("three_group-biproper-simulate", feedthrough, "simulate", 1))
    for name in ("evaluate-band", "simulate-step", "experiment-pool"):
        w = WORKLOADS[name]
        out.append((name, w.make_config(BENCH_SEED), w.command, w.jobs))
    return out


def run_all(src, work, plan):
    """Run every command of ``plan`` against ``src``; returns {run name: (exit code, stderr)}."""
    codes = {}
    for name, config_path, command, jobs in plan:
        args = [command, "--config", config_path, "--out", os.path.join(work, name)]
        if jobs:
            args += ["--jobs", str(jobs)]
        proc = subprocess.run(
            [sys.executable, "-m", "netreduce.cli", *args],
            env=child_env(src), cwd=work, capture_output=True, text=True,
        )
        codes[name] = proc.returncode, proc.stderr
        print(f"# {os.path.basename(work)} {name}: exit {proc.returncode}", file=sys.stderr)
    return codes


def tree_files(root):
    """Relative paths of the files under ``root``."""
    return {
        os.path.relpath(os.path.join(d, f), root) for d, _, files in os.walk(root) for f in files
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--before", required=True, help="src directory of the tree to compare against")
    args = ap.parse_args(argv)

    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        plan = []
        for name, doc, command, jobs in runs():
            config_path = os.path.join(tmp, f"{name}.json")
            with open(config_path, "w") as fh:
                json.dump(doc, fh)
            plan.append((name, config_path, command, jobs))
        before, after = os.path.join(tmp, "before"), os.path.join(tmp, "after")
        codes = {}
        for work, src in ((before, args.before), (after, os.path.join(ROOT, "src"))):
            os.mkdir(work)
            codes[work] = run_all(src, work, plan)
        for name, (code, err) in codes[before].items():
            code_after, err_after = codes[after][name]
            if code != code_after:
                differ.append(f"{name}: exit code {code} -> {code_after}")
            if err != err_after:
                differ.append(f"{name}: standard error {err!r} -> {err_after!r}")
        names = tree_files(before) | tree_files(after)
        for rel in sorted(names):
            a, b = os.path.join(before, rel), os.path.join(after, rel)
            if not (os.path.isfile(a) and os.path.isfile(b)):
                differ.append(f"{rel}: only {'before' if os.path.isfile(a) else 'after'}")
            elif not filecmp.cmp(a, b, shallow=False):
                differ.append(f"{rel}: bytes differ")

    for line in differ:
        print(line)
    print(f"{len(plan)} runs, {len(names)} files, {len(differ)} differences")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
