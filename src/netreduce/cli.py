"""Command-line front end.

Subcommands: generate | reduce | evaluate | simulate | experiment. The four
model commands take one path per seed, ``_reduce_one``: sample a WSBM model,
reduce it by spectral clustering, and note whether the clustering found the
true blocks; each command then checks the reduced network its own way, in
frequency (``evaluate``, ``experiment``) or in time (``simulate``). Every
output file is named through ``_Outputs``, which lists it in the command's
``manifest.json`` in the order written. The columns of ``experiment.csv``
are ``EXPERIMENT_COLUMNS``; those of a band CSV are ``ErrorReport.COLUMNS``.

Every command is a pure function of (config, seeds): re-running with the
same inputs reproduces outputs byte for byte. Exit codes: 0 success, 1
config validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from .config import build_model, load_config
from .errors import ConfigError, NetreduceError
from .evaluation import FreqGrid, band_error, band_suprema, passivity_check, sweep
from .graphs import concentration, expected_laplacian, laplacian, sample_adjacency
from .io import (
    append_matrix_csv,
    config_hash,
    dump_json,
    staged_files,
    write_matrix_csv,
    write_table_csv,
)
from .reduction import run_algorithm_1
from .simulate import ResponseDeviation, close_loop, lockstep, realize_reduced, step_chunks

BAND_NOTE = "band quantities computed on omega in [omega_min, eta]; omega=0 excluded (coupling pole)"

# a cell dict's keys that experiment.csv prints, in order; a missing key prints empty
EXPERIMENT_COLUMNS = (
    "scale", "n", "seed", "status", "sup_err", "clustering_success",
    "concentration", "lambda_k1", "refine_objective", "error_type", "stage",
)


class _Outputs:
    """The output files of one command, listed in the order they are named."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.files = []

    def path(self, name):
        self.files.append(name)
        return os.path.join(self.out_dir, name)

    def manifest(self, command, config, **extra):
        doc = {
            "command": command,
            "config_hash": config_hash(config.to_dict()),
            "netreduce_version": __version__,
            "k": config.k,
            "sizes": list(config.wsbm.sizes),
            "n": config.wsbm.n,
            "seeds": list(config.seeds),
            "files": self.files,
            **extra,
        }
        dump_json(os.path.join(self.out_dir, "manifest.json"), doc)


def _grid(config):
    return FreqGrid.default(config.eta, config.omega_min, config.grid_size)


def _reduce_one(config, seed, scale=1):
    """Sample one model and reduce it: (model, params, gamma, reduced, found).

    ``params`` and ``gamma`` are :func:`config.build_model`'s; ``found``
    says whether the clustering recovered the true WSBM blocks.
    """
    model, params, gamma = build_model(config, seed, scale=scale)
    reduced = run_algorithm_1(model, config.k, seed=seed, restarts=config.restarts)
    found = bool(reduced.partition.same_blocks(params.true_partition()))
    return model, params, gamma, reduced, found


def cmd_generate(config, out_dir):
    out = _Outputs(out_dir)
    for seed in config.seeds:
        a = sample_adjacency(config.wsbm, seed)
        write_matrix_csv(out.path(f"adjacency_seed{seed}.csv"), a)
        write_matrix_csv(out.path(f"laplacian_seed{seed}.csv"), laplacian(a))
    out.manifest("generate", config)
    return 0


def cmd_reduce(config, out_dir):
    out = _Outputs(out_dir)
    for seed in config.seeds:
        _, _, gamma, reduced, found = _reduce_one(config, seed)
        doc = dict(reduced.to_dict(), clustering_matches_true=found, gamma_analytic=gamma)
        dump_json(out.path(f"reduced_seed{seed}.json"), doc)
        write_matrix_csv(out.path(f"embedding_seed{seed}.csv"), reduced.spectral.v_k)
    out.manifest("reduce", config)
    return 0


def cmd_evaluate(config, out_dir):
    out = _Outputs(out_dir)
    grid = _grid(config)
    summary = {"band_note": BAND_NOTE, "per_seed": {}}
    for seed in config.seeds:
        model, _, _, reduced, found = _reduce_one(config, seed)
        sw = sweep(model, grid)
        report = band_error(model, reduced, reduced.spectral, sw)
        write_table_csv(out.path(f"band_seed{seed}.csv"), report.COLUMNS, report.rows())
        passivity = passivity_check(sw)
        summary["per_seed"][str(seed)] = {
            "sup_err": report.sup_err,
            "sup_err_structure": report.sup_struct,
            "bound_satisfied": report.bound_satisfied,
            "n_failures": len(report.failures),
            "hinf_t_yu": report.hinf_t_yu,
            "hinf_t_hat_k": report.hinf_t_hat_k,
            "gamma_hat": passivity.gamma,
            "m_eta_hat": passivity.m_eta,
            "f_lower_hat": passivity.f_lower,
            "coupling_real_on_axis": passivity.coupling_real_on_axis,
            "clustering_matches_true": found,
        }
    dump_json(out.path("summary.json"), summary)
    out.manifest("evaluate", config)
    return 0


def cmd_simulate(config, out_dir):
    out = _Outputs(out_dir)
    sim = config.sim
    summary = {"per_seed": {}}
    for seed in config.seeds:
        model, _, _, reduced, found = _reduce_one(config, seed)
        assignment = reduced.partition.assignment
        full_loop = close_loop(model.nodes, model.coupling, model.laplacian)
        red_loop = realize_reduced(reduced)
        group_in = int(assignment[sim.input_node])
        paths = out.path(f"full_seed{seed}.csv"), out.path(f"reduced_seed{seed}.csv")
        # node i repeats its group's aggregate column
        columns = [0, *(assignment + 1).tolist()]
        deviation = ResponseDeviation(reduced.partition)
        with staged_files(*paths) as (full_csv, red_csv):
            for times, y, red_times, y_red in lockstep(
                step_chunks(full_loop, sim.input_node, sim.t_end, sim.dt),
                step_chunks(red_loop, group_in, sim.t_end, sim.dt),
            ):
                append_matrix_csv(full_csv, y, lead=times)
                append_matrix_csv(red_csv, y_red, columns=columns, lead=red_times)
                deviation.add(times, y, red_times, y_red)
        cmp_report = deviation.report()
        write_table_csv(
            out.path(f"compare_seed{seed}.csv"),
            ["node", "group", "rel_l2"],
            [(i, int(assignment[i]), cmp_report.per_node[i]) for i in range(reduced.n)],
        )
        summary["per_seed"][str(seed)] = {
            "input_node": sim.input_node,
            "input_group": group_in,
            "max_rel_l2": float(cmp_report.per_node.max()),
            "per_group_max_rel_l2": cmp_report.per_group.tolist(),
            "clustering_matches_true": found,
        }
    dump_json(out.path("summary.json"), summary)
    out.manifest("simulate", config)
    return 0


def _experiment_cell(args):
    config, scale, seed = args
    try:
        model, params, _, reduced, found = _reduce_one(config, seed, scale)
        report = band_suprema(model, reduced, reduced.spectral, sweep(model, _grid(config)))
        l_blk, _ = expected_laplacian(params)
        conc = concentration(model.laplacian, l_blk)
        return {
            "scale": scale,
            "n": params.n,
            "seed": seed,
            "status": "ok",
            "sup_err": report.sup_err,
            "bound_satisfied": report.bound_satisfied,
            "clustering_success": found,
            "concentration": conc,
            "lambda_k1": reduced.lambda_next,
            "refine_objective": reduced.refine_objective,
        }
    except Exception as exc:
        return {
            "scale": scale,
            "seed": seed,
            "status": "failed",
            "error_type": type(exc).__name__,
            "stage": getattr(exc, "stage", ""),
            "message": str(exc),
        }


def __getattr__(name):
    # the process pool is imported on first use, since only a pooled
    # ``experiment`` needs it; cmd_experiment looks it up as a module
    # attribute, which perfbench/traced_cli.py replaces to trace the workers
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _median(values):
    # np.median of a list of floats, without the numpy.ma import it triggers
    v = sorted(values)
    mid = len(v) // 2
    return float(v[mid]) if len(v) % 2 else (v[mid - 1] + v[mid]) / 2.0


def cmd_experiment(config, out_dir, jobs=None):
    out = _Outputs(out_dir)
    jobs = jobs or os.cpu_count() or 1
    cells = [(config, scale, seed) for scale in config.scales for seed in config.seeds]
    if jobs > 1 and len(cells) > 1:
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_experiment_cell, cells))
    else:
        results = [_experiment_cell(c) for c in cells]

    write_table_csv(
        out.path("experiment.csv"),
        EXPERIMENT_COLUMNS,
        [[r.get(c, "") for c in EXPERIMENT_COLUMNS] for r in results],
    )
    failures = [
        {key: r[key] for key in ("scale", "seed", "error_type", "stage", "message")}
        for r in results
        if r["status"] == "failed"
    ]
    summary = {"per_scale": {}, "failed_cells": len(failures), "failures": failures}
    ns, med_conc = [], []
    for scale in config.scales:
        ok = [r for r in results if r["scale"] == scale and r["status"] == "ok"]
        if not ok:
            summary["per_scale"][str(scale)] = {"ok_seeds": 0}
            continue
        summary["per_scale"][str(scale)] = {
            "ok_seeds": len(ok),
            "n": ok[0]["n"],
            "median_sup_err": _median([r["sup_err"] for r in ok]),
            "recovery_rate": float(np.mean([r["clustering_success"] for r in ok])),
            "median_concentration": _median([r["concentration"] for r in ok]),
            "median_lambda_k1": _median([r["lambda_k1"] for r in ok]),
        }
        ns.append(ok[0]["n"])
        med_conc.append(summary["per_scale"][str(scale)]["median_concentration"])
    if len(ns) >= 2 and all(c > 0 for c in med_conc):
        slope = float(np.polyfit(np.log(ns), np.log(med_conc), 1)[0])
        summary["concentration_exponent"] = slope
    dump_json(out.path("summary.json"), summary)
    out.manifest("experiment", config, scales=list(config.scales))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="netreduce",
        description="Structure-preserving network reduction via spectral clustering",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("generate", "reduce", "evaluate", "simulate", "experiment"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", required=True, help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None, help="override config seeds with one seed")
        p.add_argument("--jobs", type=int, default=None, help="worker processes (experiment only)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        for option, value, least in (("--seed", args.seed, 0), ("--jobs", args.jobs, 1)):
            if value is not None and value < least:
                raise ConfigError(f"option '{option}': must be >= {least}")
        if args.seed is not None:
            config = dataclasses.replace(config, seeds=(args.seed,))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    serial = {
        "generate": cmd_generate,
        "reduce": cmd_reduce,
        "evaluate": cmd_evaluate,
        "simulate": cmd_simulate,
    }
    try:
        if args.command in serial:
            return serial[args.command](config, args.out)
        return cmd_experiment(config, args.out, jobs=args.jobs)
    except NetreduceError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
