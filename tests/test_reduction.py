import numpy as np
import pytest

from netreduce import (
    DisconnectedGraph,
    KTooLarge,
    NetworkModel,
    NotOrthonormal,
    Partition,
    RankDeficientWarning,
    RationalTF,
    ReducedModel,
    ReductionFailed,
    SingularS,
    block_ideal_check,
    block_spectrum_oracle,
    bottom_k_eig,
    eval_t_hat_k,
    eval_t_k,
    expected_laplacian,
    first_order_swing,
    laplacian,
    reduced_laplacian,
    refine_embedding,
    run_algorithm_1,
    sample_adjacency,
    tf_eval,
)

from conftest import COUPLING_INTEGRATOR, make_swing_model, random_wsbm


def _embedding_with_kernel_column(n, k, seed):
    """Random orthonormal n x k matrix whose first column is 1/sqrt(n)."""
    rng = np.random.default_rng(seed)
    m = np.column_stack([np.full(n, 1 / np.sqrt(n)), rng.standard_normal((n, k - 1))])
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))[None, :]
    return q


def _objective(v, partition, s):
    return float(np.linalg.norm(v - partition.indicator() @ s) ** 2)


def _feasible_s_k2(partition, sign):
    """All feasible refinement matrices for k=2, derived from scratch.

    The second column must satisfy s~^T dg{n_i} s~ = 1 and
    s~^T dg{n_i} 1/sqrt(n) = 0; in two dimensions that leaves exactly the
    two sign choices of (sqrt(n2/n1), -sqrt(n1/n2)) / sqrt(n).
    """
    n1, n2 = partition.sizes.astype(float)
    n = n1 + n2
    tail = sign * np.array([np.sqrt(n2 / n1), -np.sqrt(n1 / n2)]) / np.sqrt(n)
    return np.column_stack([np.full(2, 1 / np.sqrt(n)), tail])


class TestRefineEmbedding:
    def test_ideal_embedding_attains_zero(self, eq15_params):
        l_blk = expected_laplacian(eq15_params)
        data = bottom_k_eig(l_blk, 3)
        res = refine_embedding(data.v_k, eq15_params.true_partition())
        assert res.objective <= 1e-18
        np.testing.assert_allclose(res.v_hat, data.v_k, atol=1e-9)

    def test_constraints_hold(self, eq15_params):
        lap = laplacian(sample_adjacency(eq15_params, 0))
        data = bottom_k_eig(lap, 3)
        part = eq15_params.true_partition()
        res = refine_embedding(data.v_k, part)
        n = eq15_params.n
        np.testing.assert_allclose(res.s_matrix[:, 0], np.full(3, 1 / np.sqrt(n)), atol=1e-12)
        gram = res.s_matrix.T @ np.diag(part.sizes.astype(float)) @ res.s_matrix
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-8)
        np.testing.assert_allclose(res.v_hat.T @ res.v_hat, np.eye(3), atol=1e-8)

    @pytest.mark.parametrize("sizes", [(4, 4), (3, 7)])
    def test_k2_matches_sign_enumeration(self, sizes):
        # brute force over the entire feasible set (two sign choices)
        part = Partition(np.repeat([0, 1], sizes), 2)
        n = sum(sizes)
        for seed in range(5):
            v = _embedding_with_kernel_column(n, 2, seed)
            brute = min(
                _objective(v, part, _feasible_s_k2(part, sign)) for sign in (+1.0, -1.0)
            )
            res = refine_embedding(v, part)
            assert res.objective <= brute + 1e-6
            assert res.objective == pytest.approx(brute, abs=1e-9)

    def test_k3_beats_orthogonal_group_grid(self):
        # brute force: 10^4 points over O(2) = rotations and reflections,
        # mapped through an independently built feasible parametrization
        sizes = (5, 8, 6)
        part = Partition(np.repeat([0, 1, 2], sizes), 3)
        n = sum(sizes)
        ns = np.asarray(sizes, float)
        root = np.sqrt(ns)
        u = root / np.sqrt(n)
        # Gram-Schmidt complement of u in R^3 (independent of the library's QR)
        basis = []
        for e in np.eye(3):
            w = e - u * (u @ e)
            for b in basis:
                w -= b * (b @ w)
            if np.linalg.norm(w) > 1e-12:
                basis.append(w / np.linalg.norm(w))
        q_basis = np.column_stack(basis[:2])
        thetas = np.linspace(0, 2 * np.pi, 5000, endpoint=False)
        for seed in range(3):
            v = _embedding_with_kernel_column(n, 3, seed)
            res = refine_embedding(v, part)
            best = np.inf
            for th in thetas:
                c, s = np.cos(th), np.sin(th)
                for o in (np.array([[c, -s], [s, c]]), np.array([[c, s], [s, -c]])):
                    s_cand = np.column_stack(
                        [np.full(3, 1 / np.sqrt(n)), (q_basis @ o) / root[:, None]]
                    )
                    best = min(best, _objective(v, part, s_cand))
            assert res.objective <= best + 1e-6

    def test_optimality_under_orthogonal_perturbation(self):
        sizes = (6, 5, 9)
        part = Partition(np.repeat([0, 1, 2], sizes), 3)
        n = sum(sizes)
        v = _embedding_with_kernel_column(n, 3, 42)
        res = refine_embedding(v, part)
        ns = np.sqrt(part.sizes.astype(float))
        # recover the alignment factor from S and perturb it
        basis = np.linalg.qr(np.column_stack([ns / np.sqrt(n), np.eye(3)]))[0][:, 1:3]
        o_star = basis.T @ (res.s_matrix[:, 1:] * ns[:, None])
        rng = np.random.default_rng(0)
        for _ in range(100):
            ang = rng.normal() * 0.05
            c, s = np.cos(ang), np.sin(ang)
            o_pert = o_star @ np.array([[c, -s], [s, c]])
            s_cand = np.column_stack([np.full(3, 1 / np.sqrt(n)), (basis @ o_pert) / ns[:, None]])
            assert _objective(v, part, s_cand) >= res.objective - 1e-9

    def test_k1_trivial(self):
        n = 6
        v = np.full((n, 1), 1 / np.sqrt(n))
        res = refine_embedding(v, Partition(np.zeros(n, dtype=int), 1))
        assert res.objective <= 1e-18
        np.testing.assert_allclose(res.s_matrix, [[1 / np.sqrt(n)]])
        assert res.degenerate is False

    def test_rank_deficient_alignment_warns(self):
        # the second column sums to zero over each group, so the alignment
        # matrix is zero and every feasible S attains the optimum
        v = np.column_stack([np.full(4, 0.5), [0.5, -0.5, 0.5, -0.5]])
        part = Partition([0, 0, 1, 1], 2)
        with pytest.warns(RankDeficientWarning):
            res = refine_embedding(v, part)
        assert res.degenerate is True
        gram = res.s_matrix.T @ np.diag(part.sizes.astype(float)) @ res.s_matrix
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)

    def test_rejects_missing_kernel_column(self):
        v = np.linalg.qr(np.random.default_rng(1).standard_normal((8, 2)))[0]
        with pytest.raises(DisconnectedGraph):
            refine_embedding(v, Partition(np.repeat([0, 1], 4), 2))


class TestBlockIdealCheck:
    def test_expected_laplacian_is_ideal(self, eq15_params):
        l_blk = expected_laplacian(eq15_params)
        assert block_spectrum_oracle(eq15_params).delta > 0
        data = bottom_k_eig(l_blk, 3)
        is_ideal, residual = block_ideal_check(data.v_k, eq15_params.true_partition())
        assert is_ideal
        assert residual <= 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_random_expected_laplacians_are_ideal(self, seed):
        rng = np.random.default_rng(900 + seed)
        params = random_wsbm(rng)
        assert block_spectrum_oracle(params).delta > 0
        l_blk = expected_laplacian(params)
        data = bottom_k_eig(l_blk, params.k)
        is_ideal, residual = block_ideal_check(data.v_k, params.true_partition())
        assert is_ideal, f"residual {residual}"

    def test_sampled_laplacian_is_not_ideal(self, eq15_params):
        lap = laplacian(sample_adjacency(eq15_params, 1))
        data = bottom_k_eig(lap, 3)
        is_ideal, residual = block_ideal_check(data.v_k, eq15_params.true_partition())
        assert not is_ideal
        assert residual > 1e-6

    def test_hand_built_block_constant(self):
        sizes = (3, 5)
        part = Partition(np.repeat([0, 1], sizes), 2)
        n = sum(sizes)
        v = part.indicator() @ _feasible_s_k2(part, +1.0)
        is_ideal, residual = block_ideal_check(v, part)
        assert is_ideal
        assert residual <= 1e-10


class TestReducedLaplacian:
    def test_identity_s(self):
        lam = np.array([0.0, 1.5, 4.0])
        np.testing.assert_allclose(reduced_laplacian(np.eye(3), lam), np.diag(lam))

    def test_k1_zero(self):
        np.testing.assert_allclose(
            reduced_laplacian(np.array([[1 / np.sqrt(9)]]), np.array([0.0])), [[0.0]]
        )

    def test_equal_block_ideal_pattern(self):
        # two equal blocks of size m on an ideal Laplacian: S is the scaled
        # 2x2 Hadamard matrix and L_k is proportional to [[1,-1],[-1,1]]
        m = 4
        params_b = np.array([[3.0, 1.0], [1.0, 3.0]])
        from netreduce import WsbmParams

        params = WsbmParams((m, m), np.ones((2, 2)), params_b)
        l_blk = expected_laplacian(params)
        data = bottom_k_eig(l_blk, 2)
        res = refine_embedding(data.v_k, params.true_partition())
        l_k = reduced_laplacian(res.s_matrix, data.lambda_k)
        lam2 = data.lambda_k[1]
        pattern = np.array([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(l_k, (2 * m / 4) * lam2 * pattern, atol=1e-9)

    def test_congruence_spectrum(self, eq15_params):
        # the feasibility constraint S^T dg{n_i} S = I makes dg{n_i} the
        # weight of the pencil: det(L_k - lambda dg{n_i}) vanishes exactly
        # on the retained eigenvalues
        lap = laplacian(sample_adjacency(eq15_params, 4))
        data = bottom_k_eig(lap, 3)
        part = eq15_params.true_partition()
        res = refine_embedding(data.v_k, part)
        l_k = reduced_laplacian(res.s_matrix, data.lambda_k)
        import scipy.linalg

        pencil = scipy.linalg.eigh(
            l_k, np.diag(part.sizes.astype(float)), eigvals_only=True
        )
        np.testing.assert_allclose(np.sort(pencil), data.lambda_k, atol=1e-7)

    def test_singular_s_rejected(self):
        s = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        with pytest.raises(SingularS):
            reduced_laplacian(s, np.array([0.0, 1.0]))


class TestRunAlgorithm1:
    def test_k1_coherent_limit(self, eq15_params):
        model, _ = make_swing_model(eq15_params, seed=0)
        reduced = run_algorithm_1(model, 1, seed=0)
        assert reduced.k == 1
        np.testing.assert_allclose(reduced.l_k, [[0.0]], atol=0.0)
        # T_hat_1 must be the rank-one aggregate ghat(s) * ones
        s = 0.3 + 0.7j
        ghat = 1.0 / sum(1.0 / tf_eval(g, s) for g in model.nodes)
        t_hat = eval_t_hat_k(model, reduced, s)
        np.testing.assert_allclose(t_hat, ghat * np.ones((model.n, model.n)), rtol=1e-9)

    def test_k_equal_n_rejected(self, eq15_params):
        model, _ = make_swing_model(eq15_params, seed=0)
        with pytest.raises(KTooLarge):
            run_algorithm_1(model, model.n, seed=0)

    def test_eq15_reduction_shape(self, eq15_params):
        model, _ = make_swing_model(eq15_params, seed=0)
        reduced = run_algorithm_1(model, 3, seed=0)
        assert reduced.partition.same_blocks(eq15_params.true_partition())
        assert reduced.nodes is model.nodes
        assert sorted(len(idx) for idx in reduced.partition.blocks()) == [20, 20, 40]
        assert reduced.spectral.lambda_next > 100
        assert reduced.refine_objective > 0

    def test_zero_numerator_node_fails_aggregation(self):
        # the aggregate sums member inverses, and 0/(s + 1) has none
        a = np.kron(np.eye(2), 1 - np.eye(3))
        a[0, 3] = a[3, 0] = 0.1
        nodes = [first_order_swing(1, 1)] * 6
        nodes[4] = RationalTF((0.0,), (1.0, 1.0))
        model = NetworkModel(nodes=nodes, coupling=COUPLING_INTEGRATOR, laplacian=laplacian(a))
        with pytest.raises(ReductionFailed, match="member 1 has zero numerator") as info:
            run_algorithm_1(model, 2, seed=0)
        assert info.value.stage == "aggregation"

    def test_disconnected_graph_rejected(self):
        lap = np.zeros((4, 4))
        lap[:2, :2] = [[1.0, -1.0], [-1.0, 1.0]]
        lap[2:, 2:] = [[1.0, -1.0], [-1.0, 1.0]]
        model = NetworkModel(
            nodes=[first_order_swing(1, 1)] * 4,
            coupling=COUPLING_INTEGRATOR,
            laplacian=lap,
        )
        with pytest.raises(DisconnectedGraph):
            run_algorithm_1(model, 2, seed=0)

    def test_keeps_the_spectral_data_it_used(self, eq15_params):
        model, _ = make_swing_model(eq15_params, seed=2)
        reduced = run_algorithm_1(model, 3, seed=2)
        fresh = bottom_k_eig(model.laplacian, 3)
        spec = reduced.spectral
        assert spec.v_k.tobytes() == fresh.v_k.tobytes()
        assert spec.lambda_next == fresh.lambda_next
        # the kernel eigenvalue is zeroed, the others kept as computed
        assert spec.lambda_k[0] == 0.0
        assert spec.lambda_k[1:].tobytes() == fresh.lambda_k[1:].tobytes()

    def test_document_round_trip(self, eq15_params):
        model, _ = make_swing_model(eq15_params, seed=2)
        reduced = run_algorithm_1(model, 3, seed=2)
        doc = reduced.to_dict()
        clone = ReducedModel.from_dict(doc)
        for name in ("lambda_k", "v_k"):
            assert getattr(clone.spectral, name).tobytes() == getattr(reduced.spectral, name).tobytes()
        assert clone.spectral.lambda_next == reduced.spectral.lambda_next
        assert clone.nodes == reduced.nodes
        assert clone.to_dict() == doc
        s = 0.1 + 1.3j
        np.testing.assert_allclose(
            eval_t_hat_k(model, clone, s), eval_t_hat_k(model, reduced, s), rtol=1e-12
        )
        # a bad embedding fails the eigendata's own checks
        emb = np.asarray(doc["embedding"])
        with pytest.raises(ValueError, match="one column per eigenvalue"):
            ReducedModel.from_dict(dict(doc, embedding=emb[:, :2].tolist()))
        with pytest.raises(NotOrthonormal):
            ReducedModel.from_dict(dict(doc, embedding=(2.0 * emb).tolist()))
        # every node needs its dynamics in the document
        del doc["aggregates"][1]["members"][0]
        with pytest.raises(ValueError, match="no dynamics for node"):
            ReducedModel.from_dict(doc)


class TestTheorem2Equivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_eigenform_equals_network_form_on_ideal(self, seed):
        rng = np.random.default_rng(500 + seed)
        params = random_wsbm(rng, k=int(rng.integers(2, 4)))
        l_blk = expected_laplacian(params)
        nodes, _, _ = __import__("netreduce").transfer.sample_swing_nodes(params.n, rng)
        model = NetworkModel(nodes=nodes, coupling=COUPLING_INTEGRATOR, laplacian=l_blk)
        reduced = run_algorithm_1(model, params.k, seed=seed)
        data = bottom_k_eig(l_blk, params.k)
        for _ in range(20):
            s = complex(rng.uniform(0.05, 2.0), rng.uniform(-3.0, 3.0))
            t_k = eval_t_k(model, data, s)
            t_hat = eval_t_hat_k(model, reduced, s)
            scale = np.abs(t_k).max()
            assert np.abs(t_k - t_hat).max() <= 1e-7 * scale
