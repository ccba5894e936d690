import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netreduce import (
    NetworkModel,
    RationalTF,
    SpectralData,
    WsbmParams,
    band_error,
    band_suprema,
    bottom_k_eig,
    eval_t_hat_k,
    eval_t_k,
    eval_t_yu,
    expected_laplacian,
    first_order_swing,
    laplacian,
    log_grid,
    passivity_check,
    run_algorithm_1,
    spectral_norm,
    sweep,
    theorem1_bound,
    tf_eval,
)
from netreduce import evaluation
from netreduce.errors import ModelMismatch, NearSingular, NoFrequencyEvaluated
from netreduce.graphs import Partition
from netreduce.reduction import ReducedModel, refine_embedding, reduced_laplacian

from conftest import COUPLING_INTEGRATOR, EQ15_Q, EQ15_W, make_swing_model


UNIT_GAIN = RationalTF((1.0,), (1.0,))
PATH2 = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _random_model(n, seed, coupling=COUPLING_INTEGRATOR):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 2, (n, n))
    a = np.triu(a, 1)
    a = a + a.T
    from netreduce.transfer import sample_swing_nodes

    nodes, _, _ = sample_swing_nodes(n, rng)
    return NetworkModel(nodes=nodes, coupling=coupling, laplacian=laplacian(a))


class TestEvalTyu:
    def test_single_node_no_coupling(self):
        # n=2 with L=0 decouples into the diagonal of node dynamics
        g1 = first_order_swing(1.0, 1.0)
        g2 = first_order_swing(2.0, 0.5)
        model = NetworkModel(nodes=[g1, g2], coupling=UNIT_GAIN, laplacian=np.zeros((2, 2)))
        s = 0.7j
        t = eval_t_yu(model, s)
        np.testing.assert_allclose(np.diag(t), [tf_eval(g1, s), tf_eval(g2, s)], rtol=1e-12)
        assert abs(t[0, 1]) < 1e-14 and abs(t[1, 0]) < 1e-14

    def test_unit_gain_constant_inverse(self):
        model = NetworkModel(nodes=[UNIT_GAIN, UNIT_GAIN], coupling=UNIT_GAIN, laplacian=PATH2)
        t = eval_t_yu(model, 1.0 + 0.0j)
        np.testing.assert_allclose(t, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0, atol=1e-12)

    def test_two_algebraic_forms_agree(self, eq15_params):
        # oracle: the feedback form (I + G f L)^-1 G computed independently
        model, _ = make_swing_model(eq15_params, seed=0)
        s = 0.5j
        g = np.array([tf_eval(gi, s) for gi in model.nodes])
        f = tf_eval(model.coupling, s)
        n = model.n
        loop = np.eye(n, dtype=complex) + (g[:, None] * model.laplacian) * f
        oracle = np.linalg.solve(loop, np.diag(g))
        t = eval_t_yu(model, s)
        assert np.abs(t - oracle).max() <= 1e-9 * np.abs(oracle).max()

    def test_conjugate_symmetry(self, eq15_params):
        model, _ = make_swing_model(eq15_params, seed=1)
        s = 0.4 + 1.7j
        t_conj = eval_t_yu(model, np.conj(s))
        np.testing.assert_allclose(t_conj, np.conj(eval_t_yu(model, s)), atol=1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_exactly_singular_loop_matrix_raises_only_near_singular(self):
        # nodes 1/(s^2 + 1) at s = j: G^-1 vanishes and the loop matrix is
        # PATH2, whose LU has an exact zero pivot
        g = RationalTF((1.0,), (1.0, 0.0, 1.0))
        model = NetworkModel(nodes=[g, g], coupling=UNIT_GAIN, laplacian=PATH2)
        with pytest.raises(NearSingular, match="rcond=0.00e"):
            eval_t_yu(model, 1j)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loop_matrix_raises_near_singular(self, bad):
        model = _random_model(6, 0)
        ginv = np.full(6, 1.0 + 0j)
        ginv[2] = bad
        with pytest.raises(NearSingular, match="loop matrix"):
            evaluation._loop_inverse(model, 1j, ginv, tf_eval(model.coupling, 1j))


class TestEvalTk:
    def test_full_basis_reproduces_t_yu(self):
        model = _random_model(6, 0)
        data = bottom_k_eig(model.laplacian, 6)
        for s in (0.3j, 1 + 1j):
            t_yu = eval_t_yu(model, s)
            t_k = eval_t_k(model, data, s)
            assert np.abs(t_yu - t_k).max() <= 1e-9 * np.abs(t_yu).max()

    @pytest.mark.parametrize("seed", range(10))
    def test_full_basis_on_random_models(self, seed):
        model = _random_model(8, 10 + seed)
        data = bottom_k_eig(model.laplacian, 8)
        s = 0.2 + 0.9j
        t_yu = eval_t_yu(model, s)
        t_k = eval_t_k(model, data, s)
        assert np.abs(t_yu - t_k).max() <= 1e-8 * np.abs(t_yu).max()

    @pytest.mark.parametrize("n,k", [(30, 2), (60, 4)])
    def test_one_sweep_gives_the_one_point_bits(self, n, k):
        # the loop inverse and the stacked rank-k cores of one sweep over
        # many points equal eval_t_yu and eval_t_k at each point, bit for bit
        model = _random_model(n, 7)
        data = bottom_k_eig(model.laplacian, k)
        grid = log_grid(1e-3, 10.0, 50)
        sw = evaluation.Sweep(model, 1j * grid)
        cores, singular = evaluation._rank_k_cores(data, sw.ginv, sw.f)
        assert not singular.any()
        for f, w in enumerate(grid):
            t_yu = evaluation._loop_inverse(model, 1j * w, sw.ginv[f], sw.f[f])
            np.testing.assert_array_equal(t_yu, eval_t_yu(model, 1j * w))
            np.testing.assert_array_equal(data.v_k @ cores[f], eval_t_k(model, data, 1j * w))

    def test_identical_nodes_coherent_rank_one(self):
        # k=1 with identical nodes: T_1(s) = ghat(s) * ones / via v1 = 1/sqrt(n)
        g = first_order_swing(1.0, 1.0)
        n = 5
        a = np.ones((n, n)) - np.eye(n)
        model = NetworkModel(nodes=[g] * n, coupling=UNIT_GAIN, laplacian=laplacian(a))
        data = bottom_k_eig(model.laplacian, 1)
        s = 0.7j
        ghat = 1.0 / sum(1.0 / tf_eval(g, s) for g in model.nodes)
        t1 = eval_t_k(model, data, s)
        np.testing.assert_allclose(t1, ghat * np.ones((n, n)), rtol=1e-9)

    def test_matches_straight_line_reimplementation(self):
        # oracle: same formula assembled step by step, solved with lstsq
        model = _random_model(6, 3)
        data = bottom_k_eig(model.laplacian, 3)
        s = 1 + 1j
        v = data.v_k
        g_inv = np.diag([1.0 / tf_eval(g, s) for g in model.nodes])
        f = tf_eval(model.coupling, s)
        core = v.T @ g_inv @ v + f * np.diag(data.lambda_k)
        oracle = v @ np.linalg.lstsq(core, v.T.astype(complex), rcond=None)[0]
        t_k = eval_t_k(model, data, s)
        assert np.abs(t_k - oracle).max() <= 1e-10 * np.abs(oracle).max()


class TestEvalTHatK:
    def test_k1_rank_one_form(self, eq15_params):
        model, _ = make_swing_model(eq15_params, seed=0)
        reduced = run_algorithm_1(model, 1, seed=0)
        s = 0.9j
        ghat = 1.0 / sum(1.0 / tf_eval(g, s) for g in model.nodes)
        t_hat = eval_t_hat_k(model, reduced, s)
        np.testing.assert_allclose(t_hat, ghat * np.ones((model.n,) * 2), rtol=1e-9)
        # algebraic identity of the rank-one form: 1^T T_hat 1 = n^2 ghat
        total = np.ones(model.n) @ t_hat @ np.ones(model.n)
        assert total == pytest.approx(model.n**2 * ghat, rel=1e-9)

    def test_matches_eigenform_on_ideal(self, eq15_params):
        l_blk = expected_laplacian(eq15_params)
        rng = np.random.default_rng(7)
        from netreduce.transfer import sample_swing_nodes

        nodes, _, _ = sample_swing_nodes(80, rng)
        model = NetworkModel(nodes=nodes, coupling=COUPLING_INTEGRATOR, laplacian=l_blk)
        reduced = run_algorithm_1(model, 3, seed=0)
        data = bottom_k_eig(l_blk, 3)
        for _ in range(20):
            s = complex(rng.uniform(0.05, 2), rng.uniform(-3, 3))
            t_k = eval_t_k(model, data, s)
            t_hat = eval_t_hat_k(model, reduced, s)
            assert np.abs(t_k - t_hat).max() <= 1e-7 * np.abs(t_k).max()


class TestTheorem1Bound:
    def test_direct_substitution(self):
        assert theorem1_bound(1.0, 1.0, 1.0, 10.0) == pytest.approx(0.5)

    def test_zero_m2(self):
        assert theorem1_bound(3.0, 0.0, 2.0, 5.0) == pytest.approx(1.0 / 10.0)

    def test_boundary_infeasible(self):
        # f_abs * lambda == m2 + m1 m2^2 sits exactly on the precondition
        assert theorem1_bound(1.0, 2.0, 1.0, 6.0) is None
        assert theorem1_bound(1.0, 2.0, 1.0, 5.9) is None
        assert theorem1_bound(1.0, 2.0, 1.0, 6.1) is not None

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            theorem1_bound(-1.0, 1.0, 1.0, 1.0)


class TestBandError:
    def test_ideal_full_basis_reduction_is_exact(self):
        # singleton partition on an ideal Laplacian: k = n blocks, the
        # reduced network is the original network
        from netreduce import WsbmParams

        params = WsbmParams((3, 3), np.ones((2, 2)), [[2.0, 0.4], [0.4, 2.0]])
        l_blk = expected_laplacian(params)
        n = params.n
        rng = np.random.default_rng(0)
        from netreduce.transfer import sample_swing_nodes

        nodes, _, _ = sample_swing_nodes(n, rng)
        model = NetworkModel(nodes=nodes, coupling=COUPLING_INTEGRATOR, laplacian=l_blk)
        data = bottom_k_eig(l_blk, n)
        part = Partition(np.arange(n), n)
        res = refine_embedding(data.v_k, part)
        l_k = reduced_laplacian(res.s_matrix, data.lambda_k)
        reduced = ReducedModel(
            partition=part,
            spectral=data,
            l_k=l_k,
            nodes=tuple(nodes),
            s_matrix=res.s_matrix,
            coupling=COUPLING_INTEGRATOR,
            refine_objective=res.objective,
        )
        grid = log_grid(1e-3, 10.0, 25)
        report = band_error(model, reduced, sweep(model, grid))
        assert report.sup_err <= 1e-8
        assert not report.failures

    def test_eq15_bound_satisfied(self, eq15_params):
        model, _ = make_swing_model(eq15_params, seed=0)
        reduced = run_algorithm_1(model, 3, seed=0)
        grid = log_grid(1e-3, 10.0, 60)
        report = band_error(model, reduced, sweep(model, grid))
        assert report.bound_satisfied
        assert report.sup_err > 0
        assert len(report.per_freq) == 60
        feasible = [b for b in report.bounds if b is not None]
        assert feasible, "expected at least one feasible frequency"

    def test_triangle_inequality_pointwise(self, eq15_params):
        model, _ = make_swing_model(eq15_params, seed=1)
        reduced = run_algorithm_1(model, 3, seed=1)
        data = bottom_k_eig(model.laplacian, 3)
        for w in log_grid(1e-3, 10.0, 40):
            s = 1j * w
            t_yu = eval_t_yu(model, s)
            t_k = eval_t_k(model, data, s)
            t_hat = eval_t_hat_k(model, reduced, s)
            lhs = spectral_norm(t_yu - t_hat)
            rhs = spectral_norm(t_yu - t_k) + spectral_norm(t_k - t_hat)
            assert lhs <= rhs + 1e-9

    def test_low_rank_difference_bound(self, eq15_params):
        # ||T_k - T_hat_k|| <= 2 (gamma + gamma^2 M(eta)) ||V_k - V_hat_k||_F
        # with the certificate constants; exact for swing nodes since the
        # grid maxima match the band suprema
        model, gamma = make_swing_model(eq15_params, seed=2)
        reduced = run_algorithm_1(model, 3, seed=2)
        data = bottom_k_eig(model.laplacian, 3)
        part = reduced.partition
        res = refine_embedding(data.v_k, part)
        v_dist = float(np.linalg.norm(data.v_k - res.v_hat))
        report = passivity_check(sweep(model, log_grid(1e-3, 10.0, 200)))
        budget = 2 * (report.gamma + report.gamma**2 * report.m_eta) * v_dist
        for w in (0.01, 0.5, 5.0):
            s = 1j * w
            t_k = eval_t_k(model, data, s)
            t_hat = eval_t_hat_k(model, reduced, s)
            assert spectral_norm(t_k - t_hat) <= budget + 1e-6

    def test_inputs_of_different_networks_raise(self, eq15_params):
        # a reduction of the n = 80 network must not report on the n = 160 one
        small, _ = make_swing_model(eq15_params, seed=0)
        large, _ = make_swing_model(eq15_params.scaled(2), seed=0)
        reduced = run_algorithm_1(small, 3, seed=0)
        grid = log_grid(1e-3, 10.0, 20)
        with pytest.raises(ModelMismatch, match="node counts differ"):
            band_error(large, reduced, sweep(large, grid))
        # eigendata of another k cannot be put on the reduced model at all
        with pytest.raises(ValueError, match="k=4; partition n=80, k=3"):
            replace(reduced, spectral=bottom_k_eig(small.laplacian, 4))

    def test_sweep_of_points_j_omega_is_a_band(self, eq15_params):
        # a Sweep built from its points reads as the sweep of their omegas
        model, _ = make_swing_model(eq15_params, seed=0)
        reduced = run_algorithm_1(model, 3, seed=0)
        omega = log_grid(1e-3, 10.0, 9)
        built, direct = sweep(model, omega), evaluation.Sweep(model, 1j * omega)
        assert band_error(model, reduced, direct).rows() == band_error(model, reduced, built).rows()
        assert band_suprema(model, reduced, direct).sup_err == band_suprema(model, reduced, built).sup_err
        cert_direct, cert_built = passivity_check(direct), passivity_check(built)
        for name in ("gamma", "m_eta", "f_lower"):
            assert getattr(cert_direct, name) == getattr(cert_built, name)

    def test_sweep_off_the_imaginary_axis_raises(self, eq15_params):
        model, _ = make_swing_model(eq15_params, seed=0)
        reduced = run_algorithm_1(model, 3, seed=0)
        for s in ([0.1j, 0.1 + 1j], []):
            sw = evaluation.Sweep(model, s)
            readers = (
                lambda: band_error(model, reduced, sw),
                lambda: band_suprema(model, reduced, sw),
                lambda: passivity_check(sw),
            )
            for read in readers:
                with pytest.raises(ValueError, match="imaginary axis"):
                    read()

    @pytest.mark.parametrize(
        "omega", [[], [[0.1, 1.0]], [1.0, 1.0], [2.0, 1.0], [0.0, 1.0], [-1.0, 1.0], [np.nan, 1.0], [0.1, np.nan]]
    )
    def test_sweep_rejects_omega_that_is_no_band(self, omega):
        # empty, not 1-D, not strictly increasing or not positive
        with pytest.raises(ValueError, match="positive, strictly increasing"):
            sweep(_random_model(4, 0), omega)

    def test_programming_error_propagates(self, eq15_params, monkeypatch):
        # only typed evaluation failures become gaps
        model, _ = make_swing_model(eq15_params, seed=0)
        reduced = run_algorithm_1(model, 3, seed=0)

        def broken(*args, **kwargs):
            raise ValueError("broken kernel")

        # the loop inverse is the per-frequency call of the dense work
        monkeypatch.setattr(evaluation, "_loop_inverse", broken)
        with pytest.raises(ValueError, match="broken kernel"):
            band_error(model, reduced, sweep(model, log_grid(1e-3, 10.0, 5)))

    @staticmethod
    def _notch_model():
        # (s^2 + 1)/(s + 1)^2 vanishes at s = j, so its inverse has a pole;
        # two heavy triangles joined by one light edge
        notch = RationalTF((1.0, 0.0, 1.0), (1.0, 2.0, 1.0))
        nodes = [notch] + [first_order_swing(1.0, 1.0)] * 5
        a = np.kron(np.eye(2), 5.0 * (1 - np.eye(3)))
        a[0, 3] = a[3, 0] = 0.1
        model = NetworkModel(nodes=nodes, coupling=UNIT_GAIN, laplacian=laplacian(a))
        return model, run_algorithm_1(model, 2, seed=0)

    def test_pole_of_a_node_inverse_is_a_gap(self):
        model, reduced = self._notch_model()
        grid = np.array([0.1, 1.0, 10.0])
        report = band_error(model, reduced, sweep(model, grid))
        assert report.failures == ((1.0, "inverse dynamics has a pole at s=1j"),)
        assert [w for w, _ in report.per_freq] == [0.1, 10.0]

    def test_all_gap_band_raises(self):
        # a band without one evaluated frequency has no error to report
        model, reduced = self._notch_model()
        grid = np.array([1.0])
        want = "all 1 grid frequencies failed; first at omega=1: inverse dynamics has a pole at s=1j"
        with pytest.raises(NoFrequencyEvaluated, match=f"^{re.escape(want)}$"):
            band_error(model, reduced, sweep(model, grid))

    def test_csv_rows_shape(self, eq15_params):
        model, _ = make_swing_model(eq15_params, seed=0)
        reduced = run_algorithm_1(model, 3, seed=0)
        report = band_error(model, reduced, sweep(model, log_grid(1e-3, 10.0, 10)))
        rows = report.rows()
        assert len(rows) == 10
        assert all(len(r) == 5 for r in rows)


def _misclustered(model, data):
    # labels i mod 3 cut across the true blocks
    part = Partition(np.arange(model.n) % 3, 3)
    res = refine_embedding(data.v_k, part)
    return ReducedModel(
        partition=part,
        spectral=data,
        l_k=reduced_laplacian(res.s_matrix, data.lambda_k),
        nodes=model.nodes,
        s_matrix=res.s_matrix,
        coupling=model.coupling,
    )


class TestBandErrorNorms:
    @pytest.mark.parametrize("misclustered", [False, True])
    def test_projected_structure_gap_matches_dense(self, eq15_params, misclustered):
        model, _ = make_swing_model(eq15_params, seed=0)
        reduced = run_algorithm_1(model, 3, seed=0)
        data = reduced.spectral
        if misclustered:
            reduced = _misclustered(model, data)
        grid = log_grid(1e-3, 10.0, 15)
        report = band_error(model, reduced, sweep(model, grid))
        for w, got in zip(grid, report.err_struct):
            t_k = eval_t_k(model, data, 1j * w)
            dense = spectral_norm(t_k - eval_t_hat_k(model, reduced, 1j * w))
            assert abs(got - dense) <= 1e-13 * spectral_norm(t_k)
        if misclustered:
            assert report.sup_struct > 0.5

    def test_dense_svds_of_the_table(self, eq15_params, monkeypatch):
        # two dense SVDs per frequency for the table columns; ||T_yu|| only at
        # the frequencies whose padded Frobenius norm reaches the largest
        # ||T_yu||, since no other one can hold hinf_t_yu
        model, _ = make_swing_model(eq15_params, seed=0)
        reduced = run_algorithm_1(model, 3, seed=0)
        grid = log_grid(1e-3, 10.0, 7)
        sw = sweep(model, grid)
        t_yu = [evaluation._loop_inverse(model, sw.s[i], sw.ginv[i], sw.f[i]) for i in range(7)]
        peak = max(spectral_norm(t) for t in t_yu)
        candidates = sum(evaluation._fro_bound(t) >= peak for t in t_yu)
        assert 1 <= candidates < 7
        shapes = _count_svds(monkeypatch)
        report = band_error(model, reduced, sw)
        assert report.hinf_t_yu == peak
        assert shapes.count((model.n, model.n)) == 2 * 7 + candidates
        # the other norms are stacked SVDs of at most 2k x 2k matrices
        assert max(max(s[-2:]) for s in shapes if s != (model.n, model.n)) <= 6

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_svds_of_an_experiment_cell(self, eq15_params, monkeypatch, seed):
        # sup_err and bound_satisfied of an eq15 cell on the default 200-point
        # grid take at most 3 dense SVDs, against 400 for the table
        model, _ = make_swing_model(eq15_params, seed=seed)
        reduced = run_algorithm_1(model, 3, seed=seed)
        sw = sweep(model, log_grid(1e-3, 10.0, 200))
        shapes = _count_svds(monkeypatch)
        result = band_suprema(model, reduced, sw)
        assert shapes.count((model.n, model.n)) <= 3
        assert result.bound_satisfied and result.failures == ()


def _count_svds(monkeypatch):
    # the shapes of the matrices np.linalg.svd is called with from now on
    shapes = []
    svd = np.linalg.svd

    def counting_svd(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return shapes


NOTCH = RationalTF((1.0, 0.0, 1.0), (1.0, 2.0, 1.0))  # 1/g has a pole at s = j


@st.composite
def _bands(draw):
    """An eq15-like model of 20 to 160 nodes, its reduction and a grid sweep.

    Grid kinds: ``log`` (2 to 30 points on a random band), ``one`` (a
    one-point grid), ``gap`` (node 0 a notch whose inverse has a pole at
    omega = 1, which is on the grid) and ``low`` (omega <= 1e-4, where T_yu is
    nearly rank 1, so ||T_yu||_F and ||T_yu|| agree to 3e-10 relative or
    closer and the pad of the Frobenius bound decides which frequencies are
    tried).
    """
    quarter = draw(st.sampled_from([5, 10, 20, 40]))
    params = WsbmParams((quarter, 2 * quarter, quarter), EQ15_Q, EQ15_W)
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(["log", "one", "gap", "low"]))
    model, _ = make_swing_model(params, seed)
    if kind == "gap":
        model = NetworkModel((NOTCH,) + model.nodes[1:], model.coupling, model.laplacian)
    lo = draw(st.floats(1e-3, 1.0)) if kind != "low" else draw(st.floats(1e-6, 1e-5))
    hi = lo * 10 ** draw(st.floats(0.5, 4.0 if kind != "low" else 1.0))
    points = log_grid(lo, hi, draw(st.integers(2, 30)))
    if kind == "one":
        points = points[-1:]
    elif kind == "gap":
        points = np.union1d(points, [1.0])
    return model, run_algorithm_1(model, 3, seed=seed), sweep(model, points), kind


class TestPrunedSuprema:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(_bands())
    def test_equal_to_the_maximum_over_every_svd(self, case):
        # band_error takes both differences' dense SVD at every frequency, so
        # its sup_err and bound_satisfied are the brute-force values; the
        # brute-force hinf_t_yu is the largest dense ||T_yu|| over the same
        # frequencies
        model, reduced, sw, kind = case
        report = band_error(model, reduced, sw)
        pruned = band_suprema(model, reduced, sw)
        assert pruned.sup_err == max(err for _, err in report.per_freq)
        assert pruned.bound_satisfied == report.bound_satisfied
        assert pruned.failures == report.failures
        index = {w: i for i, w in enumerate(sw.s.imag.tolist())}
        brute = max(
            spectral_norm(evaluation._loop_inverse(model, sw.s[i], sw.ginv[i], sw.f[i]))
            for i in (index[w] for w, _ in report.per_freq)
        )
        assert report.hinf_t_yu == brute
        if kind == "gap":
            assert (1.0, "inverse dynamics has a pole at s=1j") in report.failures

    def test_every_frequency_tried_when_the_frobenius_order_is_reversed(self, monkeypatch):
        # n = 20 at omega in [1e-6, 1e-5]: ||T_yu||_F exceeds ||T_yu|| by up
        # to 3e-10 relative and rises with omega while ||T_yu|| falls by 2e-10,
        # so the largest bound is at the smallest norm and no frequency can be
        # skipped; a bound padded by less than the rounding would stop early
        params = WsbmParams((5, 10, 5), EQ15_Q, EQ15_W)
        model, _ = make_swing_model(params, 3)
        reduced = run_algorithm_1(model, 3, seed=3)
        sw = sweep(model, log_grid(1e-6, 1e-5, 8))
        t_yu = [evaluation._loop_inverse(model, sw.s[i], sw.ginv[i], sw.f[i]) for i in range(8)]
        norms = [spectral_norm(t) for t in t_yu]
        bounds = [evaluation._fro_bound(t) for t in t_yu]
        assert np.argsort(bounds).tolist() == np.argsort(norms)[::-1].tolist()
        shapes = _count_svds(monkeypatch)
        report = band_error(model, reduced, sw)
        assert report.hinf_t_yu == max(norms)
        assert shapes.count((20, 20)) == 2 * 8 + 8

    def test_violated_bound_is_found(self, eq15_params, monkeypatch):
        # a tolerance no frequency meets: every feasible frequency fails the
        # upper-bound certificate and its exact norm decides the verdict
        model, _ = make_swing_model(eq15_params, seed=0)
        reduced = run_algorithm_1(model, 3, seed=0)
        sw = sweep(model, log_grid(1e-3, 10.0, 30))
        monkeypatch.setattr(evaluation, "_tolerance", lambda bound: 1e-3 * bound)
        report = band_error(model, reduced, sw)
        assert not report.bound_satisfied
        assert not band_suprema(model, reduced, sw).bound_satisfied


class TestGridPass:
    def test_matches_per_point_evaluation(self, eq15_params):
        # the stacked k x k algebra against the one-point functions and the
        # formulas it replaces: M1 = ||V^T T_k V||, ||T_k - T_hat_k|| and
        # ||T_hat_k|| from dense SVDs
        model, _ = make_swing_model(eq15_params, seed=3)
        reduced = run_algorithm_1(model, 3, seed=3)
        data = reduced.spectral
        grid = log_grid(1e-3, 10.0, 12)
        report = band_error(model, reduced, sweep(model, grid))
        assert report.failures == ()
        hinf_yu = hinf_hat = 0.0
        for i, w in enumerate(grid):
            s = 1j * w
            t_yu = eval_t_yu(model, s)
            t_k = eval_t_k(model, data, s)
            t_hat = eval_t_hat_k(model, reduced, s)
            m1 = spectral_norm(data.v_k.T @ t_k @ data.v_k)
            m2 = float(np.max(1.0 / np.abs([tf_eval(g, s) for g in model.nodes])))
            f_abs = abs(tf_eval(model.coupling, s))
            want = {
                "err": spectral_norm(t_yu - t_hat),
                "etk": spectral_norm(t_yu - t_k),
                "struct": spectral_norm(t_k - t_hat),
                "bound": theorem1_bound(m1, m2, f_abs, data.lambda_next),
            }
            got = {
                "err": report.per_freq[i][1],
                "etk": report.err_tk[i],
                "struct": report.err_struct[i],
                "bound": report.bounds[i],
            }
            assert report.per_freq[i][0] == w
            for key, value in want.items():
                if value is None:
                    assert got[key] is None, key
                else:
                    assert got[key] == pytest.approx(value, rel=1e-13, abs=1e-13 * spectral_norm(t_k)), key
            hinf_yu = max(hinf_yu, spectral_norm(t_yu))
            hinf_hat = max(hinf_hat, spectral_norm(t_hat))
        assert report.hinf_t_yu == pytest.approx(hinf_yu, rel=1e-13)
        assert report.hinf_t_hat_k == pytest.approx(hinf_hat, rel=1e-13)

    @staticmethod
    def _four_nodes(nodes, data=None):
        # path 0-1-2-3, groups {0, 1} and {2, 3}, unit coupling, and the
        # reduced Laplacian [[1, -1], [-1, 1]]
        a = np.diag([1.0, 2.0, 1.0], 1)
        model = NetworkModel(nodes=nodes, coupling=UNIT_GAIN, laplacian=laplacian(a + a.T))
        part = Partition(np.array([0, 0, 1, 1]), 2)
        reduced = ReducedModel(
            partition=part,
            spectral=data or bottom_k_eig(model.laplacian, 2),
            l_k=np.array([[1.0, -1.0], [-1.0, 1.0]]),
            nodes=tuple(nodes),
            s_matrix=np.eye(2),
            coupling=UNIT_GAIN,
        )
        grid = np.array([0.5, 1.0, 2.0])
        return band_error(model, reduced, sweep(model, grid))

    def test_singular_rank_k_core_is_one_gap(self):
        # with V = [e_0, e_2] and Lambda = diag(0, 1) the core at s = j is
        # diag(1/g_0(j), 1/g_2(j) + 1), and 1/g_0 = s^2 + 1 vanishes there
        nodes = [RationalTF((1.0,), (1.0, 0.0, 1.0)), RationalTF((1.0,), (1.0, 1.0))]
        nodes += [RationalTF((1.0,), (2.0, 1.0))] * 2
        data = SpectralData(np.array([0.0, 1.0]), np.eye(4)[:, [0, 2]])
        report = self._four_nodes(nodes, data)
        assert report.failures == ((1.0, "rank-k core singular at s=1j"),)
        assert [w for w, _ in report.per_freq] == [0.5, 2.0]
        assert len(report.err_tk) == len(report.bounds) == len(report.err_struct) == 2

    def test_singular_reduced_loop_is_one_gap(self):
        # aggregates -1/2 + j/2 and -1/2 - j/2 at s = j, so the reduced loop
        # I + G_hat L_k has two equal rows there and an exactly zero pivot
        nodes = [RationalTF((2.0,), (0.0, -1.0, 1.0))] * 2 + [RationalTF((2.0,), (0.0, 1.0, 1.0))] * 2
        report = self._four_nodes(nodes)
        assert report.failures == ((1.0, "reduced loop singular at s=1j"),)
        assert [w for w, _ in report.per_freq] == [0.5, 2.0]
        assert len(report.err_tk) == len(report.bounds) == len(report.err_struct) == 2


def _decoupled_report(model, grid):
    # L = 0: the trivial reduction with one block per node and l_k = 0
    n = model.n
    reduced = ReducedModel(
        partition=Partition(np.arange(n), n),
        spectral=SpectralData(np.zeros(n), np.eye(n)),
        l_k=np.zeros((n, n)),
        nodes=model.nodes,
        s_matrix=np.eye(n),
        coupling=model.coupling,
    )
    return band_error(model, reduced, sweep(model, grid))


class TestHinfGrid:
    def test_single_lag_peak_at_dc(self):
        d = 0.8
        g = first_order_swing(1.0, d)
        model = NetworkModel(nodes=[g, g], coupling=UNIT_GAIN, laplacian=np.zeros((2, 2)))
        grid = log_grid(1e-3, 10.0, 50)
        val = _decoupled_report(model, grid).hinf_t_yu
        assert val <= 1.0 / d + 1e-9
        assert val == pytest.approx(1.0 / d, rel=1e-3)

    def test_bounded_by_passivity_certificate(self, eq15_params):
        model, gamma = make_swing_model(eq15_params, seed=3)
        grid = log_grid(1e-3, 10.0, 60)
        reduced = run_algorithm_1(model, 3, seed=3)
        report = band_error(model, reduced, sweep(model, grid))
        assert report.hinf_t_yu <= gamma * (1 + 1e-6)
        assert report.hinf_t_hat_k <= gamma * (1 + 1e-6)

    def test_decoupled_diagonal_system(self):
        g1 = first_order_swing(1.0, 1.0)
        g2 = first_order_swing(1.0, 0.5)
        model = NetworkModel(nodes=[g1, g2], coupling=UNIT_GAIN, laplacian=np.zeros((2, 2)))
        grid = log_grid(1e-3, 10.0, 80)
        expected = max(
            max(abs(tf_eval(g, 1j * w)) for w in grid) for g in (g1, g2)
        )
        report = _decoupled_report(model, grid)
        assert report.hinf_t_yu == pytest.approx(expected, rel=1e-12)
        assert report.hinf_t_hat_k == pytest.approx(expected, rel=1e-12)

    def test_rank_k_norms_match_dense(self, eq15_params, monkeypatch):
        # ||T_k|| and ||T_hat_k|| are taken on k x k matrices inside
        # band_error; they must equal the n x n spectral norms
        model, _ = make_swing_model(eq15_params, seed=0)
        reduced = run_algorithm_1(model, 3, seed=0)
        seen_m1 = []

        def record_m1(m1, m2, f_abs, lambda_k1):
            seen_m1.append(m1)
            return theorem1_bound(m1, m2, f_abs, lambda_k1)

        monkeypatch.setattr(evaluation, "theorem1_bound", record_m1)
        for w in (0.01, 0.5, 2.0):
            grid = np.array([w])
            report = band_error(model, reduced, sweep(model, grid))
            t_k = eval_t_k(model, reduced.spectral, 1j * w)
            t_hat = eval_t_hat_k(model, reduced, 1j * w)
            assert seen_m1[-1] == pytest.approx(spectral_norm(t_k), rel=1e-12)
            assert report.hinf_t_hat_k == pytest.approx(spectral_norm(t_hat), rel=1e-12)
        assert len(seen_m1) == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_frequency_is_a_gap(self):
        # identical nodes 1/(s^2 + 1): at omega = 1 the inverse dynamics
        # vanish, the loop matrix is f L and singular
        g = RationalTF((1.0,), (1.0, 0.0, 1.0))
        a = np.array(
            [
                [0, 5, 5, 0.1, 0, 0],
                [5, 0, 5, 0, 0, 0],
                [5, 5, 0, 0, 0, 0],
                [0.1, 0, 0, 0, 5, 5],
                [0, 0, 0, 5, 0, 5],
                [0, 0, 0, 5, 5, 0],
            ]
        )
        model = NetworkModel(nodes=[g] * 6, coupling=UNIT_GAIN, laplacian=laplacian(a))
        reduced = run_algorithm_1(model, 2, seed=0)
        grid = np.array([0.1, 1.0, 10.0])
        report = band_error(model, reduced, sweep(model, grid))
        assert [w for w, _ in report.failures] == [1.0]
        assert [w for w, _ in report.per_freq] == [0.1, 10.0]
        expected = max(spectral_norm(eval_t_yu(model, 1j * w)) for w in (0.1, 10.0))
        assert report.hinf_t_yu == expected
