import numpy as np
import pytest

from netreduce import (
    AggregateEvaluator,
    FreqGrid,
    NetworkModel,
    RationalTF,
    SpectralData,
    band_error,
    bottom_k_eig,
    eval_t_hat_k,
    eval_t_k,
    eval_t_yu,
    expected_laplacian,
    first_order_swing,
    laplacian,
    passivity_check,
    run_algorithm_1,
    sample_adjacency,
    sin_theta,
    spectral_norm,
    theorem1_bound,
    tf_eval,
)
from netreduce import evaluation
from netreduce.errors import ModelMismatch, NearSingular
from netreduce.graphs import Partition
from netreduce.reduction import ReducedModel, refine_embedding, reduced_laplacian

from conftest import COUPLING_INTEGRATOR, make_swing_model


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
            eval_t_yu(model, 1j, ginv)


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

    def test_identical_nodes_coherent_rank_one(self):
        # k=1 with identical nodes: T_1(s) = ghat(s) * ones / via v1 = 1/sqrt(n)
        g = first_order_swing(1.0, 1.0)
        n = 5
        a = np.ones((n, n)) - np.eye(n)
        model = NetworkModel(nodes=[g] * n, coupling=UNIT_GAIN, laplacian=laplacian(a))
        data = bottom_k_eig(model.laplacian, 1)
        agg = AggregateEvaluator(model.nodes)
        s = 0.7j
        t1 = eval_t_k(model, data, s)
        np.testing.assert_allclose(t1, agg(s) * np.ones((n, n)), rtol=1e-9)

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
        agg = AggregateEvaluator(model.nodes)
        s = 0.9j
        t_hat = eval_t_hat_k(model, reduced, s)
        np.testing.assert_allclose(t_hat, agg(s) * np.ones((model.n,) * 2), rtol=1e-9)
        # algebraic identity of the rank-one form: 1^T T_hat 1 = n^2 ghat
        total = np.ones(model.n) @ t_hat @ np.ones(model.n)
        assert total == pytest.approx(model.n**2 * agg(s), rel=1e-9)

    def test_matches_eigenform_on_ideal(self, eq15_params):
        l_blk, _ = expected_laplacian(eq15_params)
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
        l_blk, _ = expected_laplacian(params)
        n = params.n
        rng = np.random.default_rng(0)
        from netreduce.transfer import sample_swing_nodes

        nodes, _, _ = sample_swing_nodes(n, rng)
        model = NetworkModel(nodes=nodes, coupling=COUPLING_INTEGRATOR, laplacian=l_blk)
        data = bottom_k_eig(l_blk, n)
        part = Partition(np.arange(n), n)
        res = refine_embedding(data, part)
        l_k = reduced_laplacian(res.s_matrix, data.lambda_k)
        reduced = ReducedModel(
            partition=part,
            lambda_k=data.lambda_k,
            l_k=l_k,
            aggregates=tuple(AggregateEvaluator([g]) for g in nodes),
            s_matrix=res.s_matrix,
            coupling=COUPLING_INTEGRATOR,
            lambda_next=None,
            refine_objective=res.objective,
        )
        grid = FreqGrid.default(n_points=25)
        report = band_error(model, reduced, data, grid)
        assert report.sup_err <= 1e-8
        assert not report.failures

    def test_eq15_bound_satisfied(self, eq15_params):
        model, _ = make_swing_model(eq15_params, seed=0)
        reduced = run_algorithm_1(model, 3, seed=0)
        data = bottom_k_eig(model.laplacian, 3)
        grid = FreqGrid.default(n_points=60)
        report = band_error(model, reduced, data, grid)
        assert report.bound_satisfied
        assert report.sup_err > 0
        assert len(report.per_freq) == 60
        feasible = [b for b in report.bounds if b is not None]
        assert feasible, "expected at least one feasible frequency"

    def test_triangle_inequality_pointwise(self, eq15_params):
        model, _ = make_swing_model(eq15_params, seed=1)
        reduced = run_algorithm_1(model, 3, seed=1)
        data = bottom_k_eig(model.laplacian, 3)
        for w in FreqGrid.default(n_points=40).points:
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
        res = refine_embedding(data, part)
        v_dist = float(np.linalg.norm(data.v_k - res.v_hat))
        report = passivity_check(model, FreqGrid.default(eta=10.0, n_points=200))
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
        grid = FreqGrid.default(n_points=20)
        with pytest.raises(ModelMismatch, match="node counts differ"):
            band_error(large, reduced, reduced.spectral, grid)
        with pytest.raises(ModelMismatch, match="k=3, eigendata k=4"):
            band_error(small, reduced, bottom_k_eig(small.laplacian, 4), grid)

    def test_programming_error_propagates(self, eq15_params, monkeypatch):
        # only typed evaluation failures become gaps
        model, _ = make_swing_model(eq15_params, seed=0)
        reduced = run_algorithm_1(model, 3, seed=0)

        def broken(*args, **kwargs):
            raise ValueError("broken kernel")

        monkeypatch.setattr(evaluation, "eval_t_k", broken)
        with pytest.raises(ValueError, match="broken kernel"):
            band_error(model, reduced, reduced.spectral, FreqGrid.default(n_points=5))

    def test_pole_of_a_node_inverse_is_a_gap(self):
        # (s^2 + 1)/(s + 1)^2 vanishes at s = j, so its inverse has a pole
        notch = RationalTF((1.0, 0.0, 1.0), (1.0, 2.0, 1.0))
        nodes = [notch] + [first_order_swing(1.0, 1.0)] * 5
        # two heavy triangles joined by one light edge
        a = np.kron(np.eye(2), 5.0 * (1 - np.eye(3)))
        a[0, 3] = a[3, 0] = 0.1
        model = NetworkModel(nodes=nodes, coupling=UNIT_GAIN, laplacian=laplacian(a))
        reduced = run_algorithm_1(model, 2, seed=0)
        grid = FreqGrid(eta=10.0, omega_min=0.1, points=np.array([0.1, 1.0, 10.0]))
        report = band_error(model, reduced, reduced.spectral, grid)
        assert report.failures == ((1.0, "inverse dynamics has a pole at s=1j"),)
        assert [w for w, _ in report.per_freq] == [0.1, 10.0]

    def test_csv_rows_shape(self, eq15_params):
        model, _ = make_swing_model(eq15_params, seed=0)
        reduced = run_algorithm_1(model, 3, seed=0)
        data = bottom_k_eig(model.laplacian, 3)
        report = band_error(model, reduced, data, FreqGrid.default(n_points=10))
        rows = report.rows()
        assert len(rows) == 10
        assert all(len(r) == 5 for r in rows)


def _misclustered(model, data):
    # labels i mod 3 cut across the true blocks
    part = Partition(np.arange(model.n) % 3, 3)
    res = refine_embedding(data, part)
    return ReducedModel(
        partition=part,
        lambda_k=data.lambda_k,
        l_k=reduced_laplacian(res.s_matrix, data.lambda_k),
        aggregates=tuple(AggregateEvaluator([model.nodes[j] for j in b]) for b in part.blocks()),
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
        grid = FreqGrid.default(n_points=15)
        report = band_error(model, reduced, data, grid)
        for w, got in zip(grid.points, report.err_struct):
            t_k = eval_t_k(model, data, 1j * w)
            dense = spectral_norm(t_k - eval_t_hat_k(model, reduced, 1j * w))
            assert abs(got - dense) <= 1e-13 * spectral_norm(t_k)
        if misclustered:
            assert report.sup_struct > 0.5

    @pytest.mark.parametrize("hinf, per_freq", [(False, 2), (True, 3)])
    def test_dense_svds_per_frequency(self, eq15_params, monkeypatch, hinf, per_freq):
        model, _ = make_swing_model(eq15_params, seed=0)
        reduced = run_algorithm_1(model, 3, seed=0)
        shapes = []
        svd = np.linalg.svd

        def counting_svd(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        band_error(model, reduced, reduced.spectral, FreqGrid.default(n_points=7), hinf=hinf)
        assert shapes.count((model.n, model.n)) == per_freq * 7
        assert max(max(s) for s in shapes if s != (model.n, model.n)) <= 6

    def test_hinf_fields_only_on_request(self, eq15_params):
        model, _ = make_swing_model(eq15_params, seed=0)
        reduced = run_algorithm_1(model, 3, seed=0)
        grid = FreqGrid.default(n_points=5)
        report = band_error(model, reduced, reduced.spectral, grid)
        assert report.hinf_t_yu is None and report.hinf_t_hat_k is None
        full = band_error(model, reduced, reduced.spectral, grid, hinf=True)
        assert full.hinf_t_yu > 0 and full.hinf_t_hat_k > 0
        assert full.per_freq == report.per_freq and full.err_struct == report.err_struct


def _decoupled_report(model, grid):
    # L = 0: the trivial reduction with one block per node and l_k = 0
    n = model.n
    reduced = ReducedModel(
        partition=Partition(np.arange(n), n),
        lambda_k=np.zeros(n),
        l_k=np.zeros((n, n)),
        aggregates=tuple(AggregateEvaluator([g]) for g in model.nodes),
        s_matrix=np.eye(n),
        coupling=model.coupling,
    )
    return band_error(model, reduced, SpectralData(np.zeros(n), np.eye(n)), grid, hinf=True)


class TestHinfGrid:
    def test_single_lag_peak_at_dc(self):
        d = 0.8
        g = first_order_swing(1.0, d)
        model = NetworkModel(nodes=[g, g], coupling=UNIT_GAIN, laplacian=np.zeros((2, 2)))
        grid = FreqGrid.default(eta=10.0, omega_min=1e-3, n_points=50)
        val = _decoupled_report(model, grid).hinf_t_yu
        assert val <= 1.0 / d + 1e-9
        assert val == pytest.approx(1.0 / d, rel=1e-3)

    def test_bounded_by_passivity_certificate(self, eq15_params):
        model, gamma = make_swing_model(eq15_params, seed=3)
        grid = FreqGrid.default(n_points=60)
        reduced = run_algorithm_1(model, 3, seed=3)
        report = band_error(model, reduced, reduced.spectral, grid, hinf=True)
        assert report.hinf_t_yu <= gamma * (1 + 1e-6)
        assert report.hinf_t_hat_k <= gamma * (1 + 1e-6)

    def test_decoupled_diagonal_system(self):
        g1 = first_order_swing(1.0, 1.0)
        g2 = first_order_swing(1.0, 0.5)
        model = NetworkModel(nodes=[g1, g2], coupling=UNIT_GAIN, laplacian=np.zeros((2, 2)))
        grid = FreqGrid.default(n_points=80)
        expected = max(
            max(abs(tf_eval(g, 1j * w)) for w in grid.points) for g in (g1, g2)
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
            grid = FreqGrid(eta=2.0 * w, omega_min=0.5 * w, points=np.array([w]))
            report = band_error(model, reduced, reduced.spectral, grid, hinf=True)
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
        grid = FreqGrid(eta=10.0, omega_min=0.1, points=np.array([0.1, 1.0, 10.0]))
        report = band_error(model, reduced, reduced.spectral, grid, hinf=True)
        assert [w for w, _ in report.failures] == [1.0]
        assert [w for w, _ in report.per_freq] == [0.1, 10.0]
        expected = max(spectral_norm(eval_t_yu(model, 1j * w)) for w in (0.1, 10.0))
        assert report.hinf_t_yu == expected
