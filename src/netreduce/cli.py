"""Command-line front end.

Subcommands: generate | reduce | evaluate | simulate | experiment. Every
command is a pure function of (config, seeds): re-running with the same
inputs reproduces outputs byte for byte. Exit codes: 0 success, 1 config
validation error, 2 runtime failure.
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
from .evaluation import FreqGrid, band_error
from .graphs import expected_laplacian, laplacian, sample_adjacency
from .io import config_hash, dump_json, write_matrix_csv, write_table_csv
from .reduction import run_algorithm_1
from .simulate import close_loop, compare_responses, realize_reduced, step_response
from .transfer import passivity_check

BAND_NOTE = "band quantities computed on omega in [omega_min, eta]; omega=0 excluded (coupling pole)"


def _manifest(command, config, extra=None):
    doc = {
        "command": command,
        "config_hash": config_hash(config.to_dict()),
        "netreduce_version": __version__,
        "k": config.k,
        "sizes": list(config.wsbm.sizes),
        "n": config.wsbm.n,
        "seeds": list(config.seeds),
    }
    if extra:
        doc.update(extra)
    return doc


def _grid(config):
    return FreqGrid.default(config.eta, config.omega_min, config.grid_size)


def cmd_generate(config, out_dir):
    files = []
    for seed in config.seeds:
        a = sample_adjacency(config.wsbm, seed)
        lap = laplacian(a)
        for name, mat in (("adjacency", a), ("laplacian", lap)):
            path = os.path.join(out_dir, f"{name}_seed{seed}.csv")
            write_matrix_csv(path, mat)
            files.append(os.path.basename(path))
    dump_json(os.path.join(out_dir, "manifest.json"), _manifest("generate", config, {"files": files}))
    return 0


def _reduce_one(config, seed):
    model, params, gamma = build_model(config, seed)
    reduced = run_algorithm_1(model, config.k, seed=seed, restarts=config.restarts)
    doc = reduced.to_dict()
    doc["clustering_matches_true"] = bool(
        reduced.partition.same_blocks(params.true_partition())
    )
    doc["gamma_analytic"] = gamma
    return model, reduced, doc


def cmd_reduce(config, out_dir):
    files = []
    for seed in config.seeds:
        _, reduced, doc = _reduce_one(config, seed)
        path = os.path.join(out_dir, f"reduced_seed{seed}.json")
        dump_json(path, doc)
        files.append(os.path.basename(path))
        emb_path = os.path.join(out_dir, f"embedding_seed{seed}.csv")
        write_matrix_csv(emb_path, reduced.spectral.v_k)
        files.append(os.path.basename(emb_path))
    dump_json(os.path.join(out_dir, "manifest.json"), _manifest("reduce", config, {"files": files}))
    return 0


def cmd_evaluate(config, out_dir):
    grid = _grid(config)
    summary = {"band_note": BAND_NOTE, "per_seed": {}}
    files = []
    for seed in config.seeds:
        model, reduced, doc = _reduce_one(config, seed)
        report = band_error(model, reduced, reduced.spectral, grid, hinf=True)
        path = os.path.join(out_dir, f"band_seed{seed}.csv")
        write_table_csv(
            path,
            ["omega", "err_yu_hatk", "err_yu_tk", "theorem1_bound", "feasible"],
            report.rows(),
        )
        files.append(os.path.basename(path))
        passivity = passivity_check(model, grid)
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
            "clustering_matches_true": doc["clustering_matches_true"],
        }
    dump_json(os.path.join(out_dir, "summary.json"), summary)
    dump_json(
        os.path.join(out_dir, "manifest.json"),
        _manifest("evaluate", config, {"files": files + ["summary.json"]}),
    )
    return 0


def cmd_simulate(config, out_dir):
    files = []
    summary = {"per_seed": {}}
    for seed in config.seeds:
        model, reduced, doc = _reduce_one(config, seed)
        sim = config.sim
        full_loop = close_loop(model.nodes, model.coupling, model.laplacian)
        red_loop = realize_reduced(reduced)
        full = step_response(full_loop, sim.input_node, sim.t_end, sim.dt)
        group_in = int(reduced.partition.assignment[sim.input_node])
        red = step_response(red_loop, group_in, sim.t_end, sim.dt)

        full_path = os.path.join(out_dir, f"full_seed{seed}.csv")
        red_path = os.path.join(out_dir, f"reduced_seed{seed}.csv")
        write_matrix_csv(full_path, np.column_stack([full.times, full.outputs]))
        # node i repeats its group's aggregate column
        write_matrix_csv(
            red_path,
            np.column_stack([red.times, red.outputs]),
            columns=[0, *(reduced.partition.assignment + 1).tolist()],
        )
        files += [os.path.basename(full_path), os.path.basename(red_path)]

        cmp_report = compare_responses(full, red, reduced.partition)
        cmp_path = os.path.join(out_dir, f"compare_seed{seed}.csv")
        write_table_csv(
            cmp_path,
            ["node", "group", "rel_l2"],
            [
                (i, int(reduced.partition.assignment[i]), cmp_report.per_node[i])
                for i in range(reduced.n)
            ],
        )
        files.append(os.path.basename(cmp_path))
        summary["per_seed"][str(seed)] = {
            "input_node": sim.input_node,
            "input_group": group_in,
            "max_rel_l2": float(cmp_report.per_node.max()),
            "per_group_max_rel_l2": cmp_report.per_group.tolist(),
            "clustering_matches_true": doc["clustering_matches_true"],
        }
    dump_json(os.path.join(out_dir, "summary.json"), summary)
    dump_json(
        os.path.join(out_dir, "manifest.json"),
        _manifest("simulate", config, {"files": files + ["summary.json"]}),
    )
    return 0


def _experiment_cell(args):
    config, scale, seed = args
    try:
        model, params, gamma = build_model(config, seed, scale=scale)
        l_blk, _ = expected_laplacian(params)
        reduced = run_algorithm_1(model, config.k, seed=seed, restarts=config.restarts)
        report = band_error(model, reduced, reduced.spectral, _grid(config))
        conc = float(np.abs(np.linalg.eigvalsh(model.laplacian - l_blk)).max())
        return {
            "scale": scale,
            "n": params.n,
            "seed": seed,
            "status": "ok",
            "sup_err": report.sup_err,
            "bound_satisfied": report.bound_satisfied,
            "clustering_success": bool(reduced.partition.same_blocks(params.true_partition())),
            "concentration": conc,
            "lambda_k1": reduced.lambda_next,
            "refine_objective": reduced.refine_objective,
        }
    except Exception as exc:
        return {
            "scale": scale,
            "n": None,
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


def cmd_experiment(config, out_dir, jobs=None):
    jobs = jobs or os.cpu_count() or 1
    cells = [(config, scale, seed) for scale in config.scales for seed in config.seeds]
    if jobs > 1 and len(cells) > 1:
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_experiment_cell, cells))
    else:
        results = [_experiment_cell(c) for c in cells]

    header = [
        "scale", "n", "seed", "status", "sup_err", "clustering_success",
        "concentration", "lambda_k1", "refine_objective", "error_type", "stage",
    ]
    rows = []
    failures = []
    for r in results:
        if r["status"] == "ok":
            rows.append(
                (
                    r["scale"], r["n"], r["seed"], "ok", r["sup_err"],
                    int(r["clustering_success"]), r["concentration"],
                    r["lambda_k1"], r["refine_objective"], "", "",
                )
            )
        else:
            empty = ("",) * 5
            rows.append((r["scale"], "", r["seed"], "failed", *empty, r["error_type"], r["stage"]))
            failures.append(
                {key: r[key] for key in ("scale", "seed", "error_type", "stage", "message")}
            )
    write_table_csv(os.path.join(out_dir, "experiment.csv"), header, rows)

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
            "median_sup_err": float(np.median([r["sup_err"] for r in ok])),
            "recovery_rate": float(np.mean([r["clustering_success"] for r in ok])),
            "median_concentration": float(np.median([r["concentration"] for r in ok])),
            "median_lambda_k1": float(np.median([r["lambda_k1"] for r in ok])),
        }
        ns.append(ok[0]["n"])
        med_conc.append(summary["per_scale"][str(scale)]["median_concentration"])
    if len(ns) >= 2 and all(c > 0 for c in med_conc):
        slope = float(np.polyfit(np.log(ns), np.log(med_conc), 1)[0])
        summary["concentration_exponent"] = slope
    dump_json(os.path.join(out_dir, "summary.json"), summary)
    dump_json(
        os.path.join(out_dir, "manifest.json"),
        _manifest(
            "experiment", config,
            {"files": ["experiment.csv", "summary.json"], "scales": list(config.scales)},
        ),
    )
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
        if args.seed is not None:
            config = dataclasses.replace(config, seeds=(args.seed,))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(args.out, exist_ok=True)
    try:
        if args.command == "generate":
            return cmd_generate(config, args.out)
        if args.command == "reduce":
            return cmd_reduce(config, args.out)
        if args.command == "evaluate":
            return cmd_evaluate(config, args.out)
        if args.command == "simulate":
            return cmd_simulate(config, args.out)
        return cmd_experiment(config, args.out, jobs=args.jobs)
    except NetreduceError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
