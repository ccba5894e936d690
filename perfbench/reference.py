"""Output checks of the CLI pipeline benchmark.

The checks recompute sampled quantities with plain numpy/scipy (dense
inverses, SVDs, ``scipy.linalg.expm``), using the package only to build the
input model and the reduced model it evaluates. Tolerances are loose (1e-6
relative) so that reformulations that move results at the 1e-10 level still
pass. run.py imports this module only after the timed children have run,
and the checks import netreduce inside their bodies because run.py puts
``src`` on ``sys.path`` only after it has found it there.
"""

import csv
import json
import os

import numpy as np
import scipy.linalg

from workloads import REL_TOL


def _poly(coeffs, s):
    return np.polyval(list(coeffs)[::-1], s)


def _ginv(model, s):
    return np.array([_poly(g.den, s) / _poly(g.num, s) for g in model.nodes])


def _coupling(doc, s):
    return _poly(doc["coupling"]["num"], s) / _poly(doc["coupling"]["den"], s)


def _t_yu(model, doc, s):
    return np.linalg.inv(np.diag(_ginv(model, s)) + _coupling(doc, s) * model.laplacian)


def _t_hat(model, reduced, doc, s):
    ginv = _ginv(model, s)
    a = np.asarray(reduced.partition.assignment)
    k = reduced.k
    ghat = 1.0 / np.array([ginv[a == j].sum() for j in range(k)])
    core = np.linalg.solve(
        np.eye(k) + ghat[:, None] * reduced.l_k * _coupling(doc, s), np.diag(ghat)
    )
    return core[a][:, a]


def _t_k(model, lam, vec, doc, s):
    core = (vec.T * _ginv(model, s)) @ vec + _coupling(doc, s) * np.diag(lam)
    return vec @ np.linalg.solve(core, vec.T)


def _norm2(m):
    return float(np.linalg.norm(m, 2))


def _read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _step_reference(a_diag, b_diag, lap, input_idx, times):
    """Outputs y(t) of y' = -a y + b (u - z), z' = L y from rest, u a unit step.

    Exact zero-order-hold solution via the augmented matrix exponential
    expm([[A, B], [0, 0]] t), whose last column holds x(t).
    """
    n = len(a_diag)
    m = np.zeros((2 * n + 1, 2 * n + 1))
    m[:n, :n] = -np.diag(a_diag)
    m[:n, n : 2 * n] = -np.diag(b_diag)
    m[n : 2 * n, :n] = lap
    m[input_idx, 2 * n] = b_diag[input_idx]
    return np.array([scipy.linalg.expm(m * t)[:n, 2 * n] for t in times])


def _first_order(model):
    """(a, b) with g_i = b_i / (s + a_i); raises for any other node form."""
    a, b = [], []
    for g in model.nodes:
        if len(g.den) != 2 or len(g.num) != 1:
            raise ValueError("the step reference covers first-order nodes only")
        a.append(g.den[0])
        b.append(g.num[0])
    return np.array(a), np.array(b)


def check_reduce(out_dir, doc, checks):
    from netreduce.config import build_model, config_from_dict

    config = config_from_dict(doc)
    for seed in doc["seeds"]:
        red = _load_json(os.path.join(out_dir, f"reduced_seed{seed}.json"))
        checks.add(f"seed{seed}.clustering_matches_true", red["clustering_matches_true"] is True)

        def embedding(seed=seed, red=red):
            model, _, _ = build_model(config, seed)
            lap = model.laplacian
            v = np.loadtxt(os.path.join(out_dir, f"embedding_seed{seed}.csv"), delimiter=",", ndmin=2)
            lam = np.asarray(red["lambda_k"])
            scale = np.abs(lap).max()
            resid = np.abs(lap @ v - v * lam).max() / scale
            checks.add(f"seed{seed}.eigen_residual", resid <= REL_TOL, f"{resid:.3e}")
            ortho = np.abs(v.T @ v - np.eye(v.shape[1])).max()
            checks.add(f"seed{seed}.embedding_orthonormal", ortho <= REL_TOL, f"{ortho:.3e}")
            below = np.sum(np.linalg.eigvalsh(lap) < lam.max() - REL_TOL * scale)
            checks.add(f"seed{seed}.bottom_k", below < len(lam), f"{below} eigenvalues below")

        def reduced_lap(seed=seed, red=red):
            s = np.asarray(red["s_matrix"])
            lam = np.asarray(red["lambda_k"])
            s_inv = np.linalg.inv(s)
            want = s_inv.T @ np.diag(lam) @ s_inv
            got = np.asarray(red["l_k"])
            err = np.abs(got - want).max() / np.abs(want).max()
            checks.add(f"seed{seed}.l_k_congruence", err <= REL_TOL, f"{err:.3e}")
            rows = np.abs(got.sum(axis=1)).max() / np.abs(got).max()
            checks.add(f"seed{seed}.l_k_row_sums", rows <= REL_TOL, f"{rows:.3e}")

        checks.run(f"seed{seed}.embedding", embedding)
        checks.run(f"seed{seed}.reduced_laplacian", reduced_lap)
    return 0, 0


def check_evaluate(out_dir, doc, checks):
    from netreduce.config import build_model, config_from_dict
    from netreduce.reduction import run_algorithm_1

    config = config_from_dict(doc)
    summary = _load_json(os.path.join(out_dir, "summary.json"))
    attempted = failed = 0
    for seed in doc["seeds"]:
        per = summary["per_seed"][str(seed)]
        header, rows = _read_table(os.path.join(out_dir, f"band_seed{seed}.csv"))
        attempted += len(rows) + per["n_failures"]
        failed += per["n_failures"]
        checks.add(f"seed{seed}.bound_satisfied", per["bound_satisfied"] is True)
        checks.add(f"seed{seed}.n_failures", per["n_failures"] == 0, str(per["n_failures"]))
        checks.add(f"seed{seed}.clustering_matches_true", per["clustering_matches_true"] is True)
        col = {name: i for i, name in enumerate(header)}
        errs = [float(r[col["err_yu_hatk"]]) for r in rows]
        checks.close(f"seed{seed}.sup_err_is_column_max", per["sup_err"], max(errs), rel=1e-12)
        for r in rows:
            if r[col["feasible"]] == "1":
                etk, bound = float(r[col["err_yu_tk"]]), float(r[col["theorem1_bound"]])
                if etk > bound * (1 + REL_TOL):
                    checks.add(f"seed{seed}.theorem1_at_{r[0]}", False, f"{etk} > {bound}")

        def recompute(seed=seed, rows=rows, col=col):
            model, _, _ = build_model(config, seed)
            reduced = run_algorithm_1(model, config.k, seed=seed, restarts=config.restarts)
            lam, vec = np.linalg.eigh(model.laplacian)
            lam, vec = lam[: config.k], vec[:, : config.k]
            for r in (rows[0], rows[len(rows) // 2], rows[-1]):
                s = 1j * float(r[0])
                t_yu = _t_yu(model, doc, s)
                checks.close(
                    f"seed{seed}.err_yu_hatk_at_{r[0]}",
                    float(r[col["err_yu_hatk"]]),
                    _norm2(t_yu - _t_hat(model, reduced, doc, s)),
                )
                checks.close(
                    f"seed{seed}.err_yu_tk_at_{r[0]}",
                    float(r[col["err_yu_tk"]]),
                    _norm2(t_yu - _t_k(model, lam, vec, doc, s)),
                )

        checks.run(f"seed{seed}.recompute", recompute)
    return attempted, failed


def check_simulate(out_dir, doc, checks):
    from netreduce.config import build_model, config_from_dict
    from netreduce.reduction import run_algorithm_1

    config = config_from_dict(doc)
    summary = _load_json(os.path.join(out_dir, "summary.json"))
    sim = config.sim
    for seed in doc["seeds"]:
        per = summary["per_seed"][str(seed)]
        checks.add(f"seed{seed}.clustering_matches_true", per["clustering_matches_true"] is True)
        full = np.loadtxt(os.path.join(out_dir, f"full_seed{seed}.csv"), delimiter=",")
        red = np.loadtxt(os.path.join(out_dir, f"reduced_seed{seed}.csv"), delimiter=",")
        steps = int(round(sim.t_end / sim.dt))
        checks.add(f"seed{seed}.samples", full.shape[0] == red.shape[0] == steps + 1, str(full.shape))

        y, yhat = full[:, 1:], red[:, 1:]
        base = np.sqrt((y**2).sum(axis=0))
        rel_l2 = np.sqrt(((y - yhat) ** 2).sum(axis=0)) / base
        checks.close(f"seed{seed}.max_rel_l2", per["max_rel_l2"], float(rel_l2.max()), rel=1e-9)

        def expm_reference(seed=seed, full=full, red=red):
            model, _, _ = build_model(config, seed)
            reduced = run_algorithm_1(model, config.k, seed=seed, restarts=config.restarts)
            idx = [steps // 3, (2 * steps) // 3, steps]
            times = full[idx, 0]
            checks.close(f"seed{seed}.final_time", float(times[-1]), steps * sim.dt, rel=1e-12)
            a, b = _first_order(model)
            want = _step_reference(a, b, model.laplacian, sim.input_node, times)
            err = np.abs(full[idx, 1:] - want).max() / np.abs(want).max()
            checks.add(f"seed{seed}.full_vs_expm", err <= REL_TOL, f"{err:.3e}")

            assign = np.asarray(reduced.partition.assignment)
            # aggregate of first-order nodes: 1 / sum((s + a_i) / b_i)
            p = np.array([(1.0 / b[assign == j]).sum() for j in range(reduced.k)])
            q = np.array([(a / b)[assign == j].sum() for j in range(reduced.k)])
            group_in = int(assign[sim.input_node])
            want_r = _step_reference(q / p, 1.0 / p, reduced.l_k, group_in, times)[:, assign]
            err = np.abs(red[idx, 1:] - want_r).max() / np.abs(want_r).max()
            checks.add(f"seed{seed}.reduced_vs_expm", err <= REL_TOL, f"{err:.3e}")

        checks.run(f"seed{seed}.expm_reference", expm_reference)
    return 0, 0


def check_experiment(out_dir, doc, checks):
    from netreduce.config import build_model, config_from_dict
    from netreduce.reduction import run_algorithm_1

    config = config_from_dict(doc)
    summary = _load_json(os.path.join(out_dir, "summary.json"))
    header, rows = _read_table(os.path.join(out_dir, "experiment.csv"))
    col = {name: i for i, name in enumerate(header)}
    cells = len(doc["scales"]) * len(doc["seeds"])
    failed = summary["failed_cells"]
    checks.add("failed_cells", failed == 0, str(failed))
    checks.add("cell_rows", len(rows) == cells, f"{len(rows)} rows for {cells} cells")
    for r in rows:
        tag = f"scale{r[col['scale']]}.seed{r[col['seed']]}"
        checks.add(f"{tag}.status", r[col["status"]] == "ok", r[col["status"]])
        checks.add(f"{tag}.clustering_success", r[col["clustering_success"]] == "1")
    checks.add("concentration_exponent", "concentration_exponent" in summary)

    def recompute():
        r = rows[0]
        scale, seed = int(r[col["scale"]]), int(r[col["seed"]])
        model, params, _ = build_model(config, seed, scale=scale)
        lap = model.laplacian
        lam = np.linalg.eigvalsh(lap)
        checks.close(f"scale{scale}.seed{seed}.lambda_k1", float(r[col["lambda_k1"]]), float(lam[config.k]))
        b = np.asarray(doc["wsbm"]["q"]) * np.asarray(doc["wsbm"]["w"])
        labels = np.repeat(np.arange(config.k), params.sizes)
        a_blk = b[labels][:, labels]
        l_blk = np.diag(a_blk.sum(axis=1)) - a_blk
        conc = float(np.abs(np.linalg.eigvalsh(lap - l_blk)).max())
        checks.close(f"scale{scale}.seed{seed}.concentration", float(r[col["concentration"]]), conc)
        reduced = run_algorithm_1(model, config.k, seed=seed, restarts=config.restarts)
        grid = np.logspace(np.log10(config.omega_min), np.log10(config.eta), config.grid_size)
        sup = max(_norm2(_t_yu(model, doc, 1j * w) - _t_hat(model, reduced, doc, 1j * w)) for w in grid)
        checks.close(f"scale{scale}.seed{seed}.sup_err", float(r[col["sup_err"]]), sup)

    checks.run("recompute", recompute)
    return cells, failed
