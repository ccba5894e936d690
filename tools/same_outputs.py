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
- ``simulate`` on that config with seed 0 and ``sim.t_end`` 30 (30001
  samples), where the full loop's 1875 block starts (16 samples each) are
  cut into runs of 40;
- ``simulate`` on a two-block config (sizes 30 and 50, k = 2), whose
  reduced loop has two outputs and steps its 125 block starts in one
  product;
- ``evaluate`` on that config with seed 0 on the grid [0.1, 1, 10] and
  explicit nodes 1/(1 + s), but (s^2 + 1)/(s + 1)^2 at node 0, whose
  inverse has a pole at omega = 1: the band has one gap, and the
  passivity check then exits with ``NotPassiveOnGrid`` at omega = 1;
- ``evaluate`` on that grid with (s^2 + w^2)/(s + 1)^2 at nodes 0, 1 and
  2 for w = 0.1, 1 and 10, so that every grid frequency is a gap and the
  command exits with ``NoFrequencyEvaluated`` naming omega = 0.1;
- ``reduce``, ``evaluate``, ``simulate`` and ``experiment`` on that config
  with k = 1, and on that config with static nodes (gains 1, 2 and 1/2 in
  turn) and the static coupling 1/2, a loop without states; ``simulate``
  on the static config with k = 1;
- ``simulate`` on that config with the static gain 2 and the node
  1/(1 + s) in turn, and ``experiment`` on that config with scales [1, 2];
- ``reduce``, ``evaluate``, ``simulate`` and ``experiment --jobs 2`` on
  the configs of the ``reduce-large``, ``evaluate-band``, ``simulate-step``
  and ``experiment-pool`` workloads of ``perfbench/workloads.py`` at
  benchmark seed 7; ``reduce-large`` (n = 1280) is the only run above
  n = 1024, where ``bottom_k_eig`` takes its Chebyshev-filter branch;
- ``experiment`` on the ``experiment-pool`` config with ``--jobs 3``
  (workers of 3, 3 and 2 of its 8 cells) and ``--jobs 20`` (more workers
  asked for than there are cells).

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

from bench import BENCH_SEED, ROOT, WORKLOADS, child_env


def runs():
    """(name, config document, command, jobs) of every run."""
    with open(os.path.join(ROOT, "configs", "three_group.json")) as fh:
        base = json.load(fh)
    base.update(seeds=[0, 1], scales=[1], grid_size=20)
    base["sim"] = dict(base["sim"], t_end=2.0)
    commands = ("generate", "reduce", "evaluate", "simulate", "experiment")
    n = sum(base["wsbm"]["sizes"])
    out = [(f"three_group-{cmd}", base, cmd, 1) for cmd in commands]
    out.append(("three_group-k200-experiment", dict(base, k=200), "experiment", 1))
    sizes = [4 * size for size in base["wsbm"]["sizes"]]
    scaled = dict(base, seeds=[0], wsbm=dict(base["wsbm"], sizes=sizes), sim=dict(base["sim"], t_end=4.0))
    out.append(("three_group-n320-simulate", scaled, "simulate", 1))
    tfs = [{"num": [1.0], "den": [1.0, 1.0]}] * n
    tfs[1] = {"num": [1.0], "den": [1.0, -1.0]}
    tfs[41] = {"num": [1.0], "den": [1.0, 0.0, -1.0]}
    unstable = dict(base, nodes={"preset": "explicit", "tfs": tfs})
    out.append(("three_group-diverging-simulate", unstable, "simulate", 1))
    biproper = [{"num": [1.0, 0.5], "den": [1.0, 1.0]}, {"num": [2.0, 1.0], "den": [1.0, 2.0]}]
    feedthrough = dict(
        base,
        nodes={"preset": "explicit", "tfs": [biproper[i % 2] for i in range(n)]},
        coupling={"num": [1.0, 0.5], "den": [0.5, 1.0]},
    )
    out.append(("three_group-biproper-simulate", feedthrough, "simulate", 1))
    long = dict(base, seeds=[0], sim=dict(base["sim"], t_end=30.0))
    out.append(("three_group-t30-simulate", long, "simulate", 1))
    two_blocks = {"sizes": [30, 50], "q": [[0.8, 0.1], [0.1, 0.8]], "w": [[20.0, 0.5], [0.5, 20.0]]}
    out.append(("two_group-simulate", dict(base, k=2, wsbm=two_blocks), "simulate", 1))
    for name, notches in (("one-gap", [1.0]), ("all-gap", [0.1, 1.0, 10.0])):
        tfs = [{"num": [1.0], "den": [1.0, 1.0]}] * n
        for i, w in enumerate(notches):
            tfs[i] = {"num": [w * w, 0.0, 1.0], "den": [1.0, 2.0, 1.0]}
        gaps = dict(base, seeds=[0], omega_min=0.1, eta=10.0, grid_size=3, nodes={"preset": "explicit", "tfs": tfs})
        out.append((f"three_group-{name}-evaluate", gaps, "evaluate", 1))
    # paths that no benchmark workload takes: one group, loops without
    # states, static nodes beside dynamic ones, and more than one scale
    gains = [{"num": [g], "den": [1.0]} for g in (1.0, 2.0, 0.5)]
    static = dict(
        base,
        nodes={"preset": "explicit", "tfs": [gains[i % 3] for i in range(n)]},
        coupling={"num": [0.5], "den": [1.0]},
    )
    for cmd in commands[1:]:
        out.append((f"three_group-k1-{cmd}", dict(base, k=1), cmd, 1))
        out.append((f"three_group-static-{cmd}", static, cmd, 1))
    out.append(("three_group-static-k1-simulate", dict(static, k=1), "simulate", 1))
    pair = [gains[1], {"num": [1.0], "den": [1.0, 1.0]}]
    mixed = dict(base, nodes={"preset": "explicit", "tfs": [pair[i % 2] for i in range(n)]})
    out.append(("three_group-mixed-simulate", mixed, "simulate", 1))
    out.append(("three_group-scales12-experiment", dict(base, scales=[1, 2]), "experiment", 1))
    for name in ("reduce-large", "evaluate-band", "simulate-step", "experiment-pool"):
        w = WORKLOADS[name]
        out.append((name, w.make_config(BENCH_SEED), w.command, w.jobs))
    pool = WORKLOADS["experiment-pool"]
    for jobs in (3, 20):
        out.append((f"experiment-pool-jobs{jobs}", pool.make_config(BENCH_SEED), pool.command, jobs))
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
