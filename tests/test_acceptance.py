"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
Monte-Carlo draws use fixed seeds, so outcomes are deterministic.
"""

import json

import numpy as np
import pytest

from netreduce import (
    NetworkModel,
    Partition,
    ResponseDeviation,
    Sweep,
    band_error,
    band_suprema,
    block_spectrum_oracle,
    bottom_k_eig,
    cluster_embedding,
    close_loop,
    eval_t_k,
    eval_t_hat_k,
    expected_laplacian,
    laplacian,
    log_grid,
    realize_reduced,
    refine_embedding,
    run_algorithm_1,
    sample_adjacency,
    sin_theta,
    spectral_norm,
    sweep,
    theorem1_bound,
)
from netreduce.cli import main
from netreduce.evaluation import _loop_inverse, _norm_bound, _rank_k_cores
from netreduce.transfer import sample_swing_nodes

from conftest import (
    COUPLING_INTEGRATOR,
    EQ15_Q,
    EQ15_SIZES,
    EQ15_W,
    make_swing_model,
    random_wsbm,
    step_outputs,
)


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} - {detail}", flush=True)
    return ok


class TestCriterion1:
    def test_theorem1_bound_never_violated(self):
        # 50 random models (n <= 120, k in {2,3,4}), 200 grid frequencies:
        # wherever the precondition holds, the truncation error respects
        # the bound within 1e-7 (1 + bound)
        grid = log_grid(1e-3, 10.0, 200)
        violations = 0
        feasible_points = 0
        rng = np.random.default_rng(2024)
        for trial in range(50):
            params = random_wsbm(rng, k=int(rng.integers(2, 5)))
            model, _ = make_swing_model(params, trial)
            data = bottom_k_eig(model.laplacian, params.k)
            lam_next = data.lambda_next
            # one sweep of the trial's points, which gives each point the
            # bits of the one-point eval_t_yu and eval_t_k
            sw = Sweep(model, 1j * grid)
            assert not sw.gaps
            cores, singular = _rank_k_cores(data, sw.ginv, sw.f)
            assert not singular.any()
            for f, w in enumerate(grid):
                t_yu = _loop_inverse(model, 1j * w, sw.ginv[f], sw.f[f])
                t_k = data.v_k @ cores[f]
                m1 = spectral_norm(t_k)
                m2 = max(abs(d / v) for d, v in zip(sw.den[f].tolist(), sw.num[f].tolist()))
                bound = theorem1_bound(m1, m2, 1.0 / w, lam_next)
                if bound is None:
                    continue
                feasible_points += 1
                diff, tol = t_yu - t_k, bound + 1e-7 * (1.0 + bound)
                # the padded O(n^2) bound of the computed ||diff|| clears a
                # point without its SVD; no cleared point can violate
                if _norm_bound(diff) > tol and spectral_norm(diff) > tol:
                    violations += 1
        ok = violations == 0 and feasible_points > 0
        assert _report(
            1, ok, f"{violations} violations over {feasible_points} feasible points"
        )


class TestCriterion2:
    def test_theorem2_exactness_on_ideal_models(self):
        # eigenform and network form agree within 1e-7 relative at 20
        # random complex points on 20 block-ideal instances
        rng = np.random.default_rng(77)
        worst = 0.0
        for trial in range(20):
            params = random_wsbm(rng, k=int(rng.integers(2, 5)))
            assert block_spectrum_oracle(params).delta > 0
            l_blk = expected_laplacian(params)
            nodes, _, _ = sample_swing_nodes(params.n, rng)
            model = NetworkModel(nodes=nodes, coupling=COUPLING_INTEGRATOR, laplacian=l_blk)
            reduced = run_algorithm_1(model, params.k, seed=trial)
            data = bottom_k_eig(l_blk, params.k)
            for _ in range(20):
                s = complex(rng.uniform(0.05, 2.0), rng.uniform(-3.0, 3.0))
                t_k = eval_t_k(model, data, s)
                t_hat = eval_t_hat_k(model, reduced, s)
                rel = np.abs(t_k - t_hat).max() / np.abs(t_k).max()
                worst = max(worst, rel)
        ok = worst <= 1e-7
        assert _report(2, ok, f"worst relative deviation {worst:.3e} (tol 1e-7)")


def _embedding_with_kernel_column(n, k, rng):
    m = np.column_stack([np.full(n, 1 / np.sqrt(n)), rng.standard_normal((n, k - 1))])
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))[None, :]


def _objective(v, p, s):
    return float(np.linalg.norm(v - p @ s) ** 2)


class TestCriterion3:
    def test_refinement_matches_brute_force(self):
        rng = np.random.default_rng(33)
        worst_gap = -np.inf

        # k = 2: enumerate the entire feasible set (two sign choices)
        sizes2 = (5, 9)
        part2 = Partition(np.repeat([0, 1], sizes2), 2)
        n2 = sum(sizes2)
        n1f, n2f = float(sizes2[0]), float(sizes2[1])
        p2 = part2.indicator()
        for _ in range(25):
            v = _embedding_with_kernel_column(n2, 2, rng)
            res = refine_embedding(v, part2)
            cands = []
            for sign in (+1.0, -1.0):
                tail = sign * np.array([np.sqrt(n2f / n1f), -np.sqrt(n1f / n2f)]) / np.sqrt(n2)
                cands.append(np.column_stack([np.full(2, 1 / np.sqrt(n2)), tail]))
            brute = min(_objective(v, p2, s) for s in cands)
            worst_gap = max(worst_gap, res.objective - brute)

        # k = 3: 10^4-point grid over rotations and reflections
        sizes3 = (6, 8, 5)
        part3 = Partition(np.repeat([0, 1, 2], sizes3), 3)
        n3 = sum(sizes3)
        ns3 = np.asarray(sizes3, float)
        root3 = np.sqrt(ns3)
        u = root3 / np.sqrt(n3)
        basis = []
        for e in np.eye(3):
            wv = e - u * (u @ e)
            for bb in basis:
                wv -= bb * (bb @ wv)
            if np.linalg.norm(wv) > 1e-12:
                basis.append(wv / np.linalg.norm(wv))
        q_basis = np.column_stack(basis[:2])
        p3 = part3.indicator()
        thetas = np.linspace(0.0, 2 * np.pi, 5000, endpoint=False)
        cos_t, sin_t = np.cos(thetas), np.sin(thetas)
        for _ in range(25):
            v = _embedding_with_kernel_column(n3, 3, rng)
            res = refine_embedding(v, part3)
            best = np.inf
            for c, s in zip(cos_t, sin_t):
                for o in (np.array([[c, -s], [s, c]]), np.array([[c, s], [s, -c]])):
                    s_cand = np.column_stack(
                        [np.full(3, 1 / np.sqrt(n3)), (q_basis @ o) / root3[:, None]]
                    )
                    best = min(best, _objective(v, p3, s_cand))
            worst_gap = max(worst_gap, res.objective - best)

        ok = worst_gap <= 1e-6
        assert _report(3, ok, f"closed form exceeds brute force by at most {worst_gap:.3e}")


class TestCriterion4:
    def test_block_spectrum_oracle_equivalence(self, eq15_params):
        rng = np.random.default_rng(4)
        worst = 0.0
        tested = 0
        for trial in range(50):
            params = random_wsbm(rng)
            spec = block_spectrum_oracle(params)
            assert spec.delta > 0
            l_blk = expected_laplacian(params)
            dense = np.linalg.eigvalsh(l_blk)
            worst = max(worst, np.abs(spec.full_spectrum() - dense).max())
            tested += 1
        spec = block_spectrum_oracle(eq15_params)
        l_blk = expected_laplacian(eq15_params)
        worst = max(worst, np.abs(spec.full_spectrum() - np.linalg.eigvalsh(l_blk)).max())
        ok = worst <= 1e-8
        assert _report(4, ok, f"worst eigenvalue deviation {worst:.3e} over {tested + 1} sets")


class TestCriterion5:
    def test_hinf_grid_below_analytic_gamma(self, eq15_params):
        grid = log_grid(1e-3, 10.0, 200)
        worst_ratio = 0.0
        for seed in range(20):
            model, gamma = make_swing_model(eq15_params, seed)
            reduced = run_algorithm_1(model, 3, seed=seed)
            report = band_error(model, reduced, sweep(model, grid))
            h_full, h_red = report.hinf_t_yu, report.hinf_t_hat_k
            worst_ratio = max(worst_ratio, h_full / gamma, h_red / gamma)
        ok = worst_ratio <= 1 + 1e-6
        assert _report(5, ok, f"max Hinf/gamma ratio {worst_ratio:.6f} over 20 instances")


def _sup_error(model, reduced, grid):
    # max ||T_yu - T_hat_k|| over the grid, every frequency evaluated
    result = band_suprema(model, reduced, sweep(model, grid))
    assert result.failures == ()
    return result.sup_err


class TestCriterion6:
    def test_error_decreases_with_network_size(self, eq15_params):
        # 48-point grid: the supremum is over a fixed grid, and the trend
        # across sizes is insensitive to the grid density
        grid = log_grid(1e-3, 10.0, 48)
        medians = []
        recovery = []
        for scale in (1, 2, 4):
            params = eq15_params.scaled(scale)
            true_part = params.true_partition()
            sups = []
            hits = 0
            runs = 0
            for seed in range(20):
                model, _ = make_swing_model(params, seed)
                reduced = run_algorithm_1(model, 3, seed=seed)
                runs += 1
                if reduced.partition.same_blocks(true_part):
                    hits += 1
                sups.append(_sup_error(model, reduced, grid))
            medians.append(float(np.median(sups)))
            recovery.append(hits / runs)
        decreasing = medians[0] > medians[1] > medians[2]
        recovery_ok = recovery[0] >= 0.8 and recovery[0] <= recovery[1] <= recovery[2]
        ok = decreasing and recovery_ok
        assert _report(
            6,
            ok,
            f"median sup errors {['%.4f' % m for m in medians]}, recovery {recovery}",
        )


class TestCriterion7:
    def test_concentration_scaling_exponent(self, eq15_params):
        meds = []
        ns = []
        for scale in (1, 2, 4, 8):
            params = eq15_params.scaled(scale)
            l_blk = expected_laplacian(params)
            stats = []
            for seed in range(40):
                lap = laplacian(sample_adjacency(params, seed))
                stats.append(np.abs(np.linalg.eigvalsh(lap - l_blk)).max())
            meds.append(float(np.median(stats)))
            ns.append(params.n)
        exponent = float(np.polyfit(np.log(ns), np.log(meds), 1)[0])
        ok = 0.4 <= exponent <= 0.85
        assert _report(7, ok, f"regression exponent {exponent:.3f} (target [0.4, 0.85])")


@pytest.fixture(scope="module")
def sim_results(eq15_params):
    results = []
    true_part = eq15_params.true_partition()
    for seed in range(20):
        model, _ = make_swing_model(eq15_params, seed)
        reduced = run_algorithm_1(model, 3, seed=seed)
        if not reduced.partition.same_blocks(true_part):
            continue
        full_loop = close_loop(model.nodes, model.coupling, model.laplacian)
        red_loop = realize_reduced(reduced)
        times, full = step_outputs(full_loop, 1, t_end=30.0, dt=1e-3)
        group_in = int(reduced.partition.assignment[1])
        red_times, red = step_outputs(red_loop, group_in, t_end=30.0, dt=1e-3)
        deviation = ResponseDeviation(reduced.partition)
        deviation.add(times, full, red_times, red)
        results.append((reduced, full, red, deviation.report()))
    return results


class TestCriterion8:
    def test_three_visibly_distinct_group_responses(self, sim_results):
        # artifact-chosen quantification of "visibly distinct": every pair
        # of group-mean trajectories separates, at its peak, by >= 5% of
        # that pair's own peak magnitude
        ok_all = True
        min_sep = np.inf
        for reduced, full, _, _ in sim_results:
            blocks = reduced.partition.blocks()
            means = np.stack([full[:, idx].mean(axis=1) for idx in blocks])
            for i in range(3):
                for j in range(i + 1, 3):
                    sep = np.abs(means[i] - means[j]).max() / np.abs(means[[i, j]]).max()
                    min_sep = min(min_sep, sep)
                    ok_all &= sep >= 0.05
        assert _report(
            "8a", ok_all, f"min pairwise group separation {min_sep:.3f} of pair scale (>= 0.05)"
        )

    def test_per_node_relative_l2_threshold(self, sim_results):
        # every node within 0.15 of its own L2 norm on >= 80 % of seeds, with
        # the error (Pi y)_i - yhat taken against the full group mean Pi y: two
        # members of a group differ by a pairwise floor no broadcast can undercut
        passing = 0
        max_errs = []
        max_raw = []
        floors = []
        for reduced, y, red, report in sim_results:
            part = reduced.partition
            means = np.stack([y[:, idx].mean(axis=1) for idx in part.blocks()], axis=1)
            diff = (means - red)[:, part.assignment]
            per_node = np.sqrt((diff**2).sum(axis=0)) / report.full_l2
            max_errs.append(float(per_node.max()))
            if per_node.max() <= 0.15:
                passing += 1
            max_raw.append(float(report.per_node.max()))
            floors.append(max(_pairwise_floor(y[:, idx]) for idx in part.blocks()))
        frac = passing / len(max_errs) if max_errs else 0.0
        share_within = float(
            np.mean([np.mean(r.per_node <= 0.15) for _, _, _, r in sim_results])
        )
        ok = frac >= 0.8
        assert _report(
            "8b",
            ok,
            f"seeds with all nodes <= 0.15 against the group mean: {frac:.2f} (>= 0.8 required); "
            f"median max-node error {np.median(max_errs):.4f}; "
            f"against the node itself: median max-node error {np.median(max_raw):.3f}, "
            f"mean fraction of nodes within 0.15 {share_within:.3f}; "
            f"within-group pairwise floor {min(floors):.3f}-{max(floors):.3f}",
        )


def _pairwise_floor(y):
    """Largest ||y_i - y_j||_2 / (||y_i||_2 + ||y_j||_2) over column pairs.

    Any output that is constant on these columns misses one of the pair by
    at least this fraction of its own norm (triangle inequality).
    """
    gram = y.T @ y
    sq = np.diag(gram)
    dist = np.sqrt(np.clip(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0, None))
    norms = np.sqrt(sq)
    return float((dist / (norms[:, None] + norms[None, :])).max())


@pytest.fixture(scope="module")
def draws(eq15_params):
    l_blk = expected_laplacian(eq15_params)
    blk_eigs = np.linalg.eigvalsh(l_blk)
    v_blk = bottom_k_eig(l_blk, 3).v_k
    true_part = eq15_params.true_partition()
    out = []
    for seed in range(20):
        lap = laplacian(sample_adjacency(eq15_params, seed))
        data = bottom_k_eig(lap, 3)
        part = cluster_embedding(data.v_k, 3, restarts=50, seed=seed)
        if not part.same_blocks(true_part):
            continue
        res = refine_embedding(data.v_k, true_part)
        rep = sin_theta(data.v_k, v_blk)
        err_norm = spectral_norm(lap - l_blk)
        out.append((data, res, rep, err_norm, np.linalg.eigvalsh(lap), blk_eigs))
    return out


class TestCriterion9:
    def test_lemma7_refinement_inequality(self, draws, eq15_params):
        # V_hat is the nearest orthonormal basis of span(P) = span(V_blk), so on
        # every draw ||V_hat - V||_F = sqrt(2 sum(1 - cos theta_i)) exactly; as
        # 2(1 - cos) >= sin^2 it lies in [||sin Theta||_F, sqrt(2) ||sin Theta||_F + 1e-7]
        p = eq15_params.true_partition().indicator()
        v_blk = bottom_k_eig(expected_laplacian(eq15_params), 3).v_k
        span_res = float(np.linalg.norm(v_blk - p @ np.linalg.lstsq(p, v_blk, rcond=None)[0]))
        worst_identity = 0.0
        worst_excess = -np.inf
        min_lower = np.inf
        failures = 0
        for data, res, rep, _, _, _ in draws:
            lhs = float(np.linalg.norm(res.v_hat - data.v_k))
            exact = float(np.sqrt(2.0 * np.sum(1.0 - np.cos(rep.angles))))
            identity = abs(lhs - exact)
            excess = lhs - np.sqrt(2.0) * rep.frobenius
            lower = lhs - rep.frobenius
            worst_identity = max(worst_identity, identity)
            worst_excess = max(worst_excess, excess)
            min_lower = min(min_lower, lower)
            if identity > 1e-10 or excess > 1e-7 or lower < -1e-10:
                failures += 1
        ok = failures == 0 and span_res <= 1e-10
        assert _report(
            "9a",
            ok,
            f"{failures}/{len(draws)} draws violate the bounds; V_blk off span(P) by "
            f"{span_res:.1e}; worst |distance - sqrt(2 sum(1 - cos))| {worst_identity:.1e}; "
            f"distance - ||sin Theta||_F >= {min_lower:.3e}; "
            f"distance - sqrt(2) ||sin Theta||_F <= {worst_excess:.3e}",
        )

    def test_davis_kahan_and_weyl(self, draws):
        ok = True
        for data, _, rep, err_norm, eigs, blk_eigs in draws:
            gap = blk_eigs[3] - blk_eigs[2]
            assert gap > 0
            if rep.frobenius > 2 * np.sqrt(3) * err_norm / gap + 1e-6:
                ok = False
            for i in range(4):
                if abs(eigs[i] - blk_eigs[i]) > err_norm + 1e-8:
                    ok = False
        assert _report("9b", ok, f"Davis-Kahan and Weyl checks on {len(draws)} draws")


class TestCriterion10:
    def test_byte_identical_reruns(self, tmp_path):
        import os

        doc = {
            "wsbm": {"sizes": list(EQ15_SIZES), "q": EQ15_Q, "w": EQ15_W},
            "nodes": {"preset": "swing", "m_range": [1.0, 3.0], "d_range": [0.5, 1.5]},
            "coupling": {"num": [1.0], "den": [0.0, 1.0]},
            "k": 3,
            "eta": 10.0,
            "omega_min": 1e-3,
            "grid_size": 25,
            "seeds": [0],
            "sim": {"dt": 1e-3, "t_end": 2.0, "input_node": 1},
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))

        def tree(root):
            out = {}
            for dirpath, _, files in os.walk(root):
                for f in sorted(files):
                    p = os.path.join(dirpath, f)
                    with open(p, "rb") as fh:
                        out[os.path.relpath(p, root)] = fh.read()
            return out

        ok = True
        for command in ("generate", "reduce", "evaluate", "simulate", "experiment"):
            out1 = tmp_path / f"{command}_a"
            out2 = tmp_path / f"{command}_b"
            args = ["--config", str(cfg)]
            if command == "experiment":
                args += ["--jobs", "1"]
            assert main([command, *args, "--out", str(out1)]) == 0
            assert main([command, *args, "--out", str(out2)]) == 0
            if tree(out1) != tree(out2):
                ok = False
        assert _report(10, ok, "all five commands reproduce byte-identical outputs")
