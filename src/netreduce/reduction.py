"""Embedding refinement, reduced Laplacian, and the end-to-end reduction.

The refinement step solves, in closed form, the problem of finding the
block-constant orthonormal embedding closest (in Frobenius norm) to the
spectral embedding, subject to the first column being the normalized
all-ones vector:

    min_S ||V - P S||_F^2   s.t.  S e_1 = 1_k / sqrt(n),
                                  S^T dg{|I_i|} S = I_k.

Eliminating the pinned first column and substituting O = dg{sqrt(n_i)} S~
turns the remainder into an orthogonal Procrustes problem on the
complement of the unit vector u = (sqrt(n_i / n))_i, solved by an SVD.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DisconnectedGraph, KTooLarge, RankDeficientWarning, ReductionFailed, SingularS
from .graphs import Partition
from .spectral import SpectralData, cluster_embedding, wcss_of

# NetworkModel has validated its Laplacian at a tighter tolerance than
# bottom_k_eig checks, so the reduction calls the eigensolver without those
# checks; it keeps the public name, under which perfbench times the stage
from .spectral import _bottom_k_eig as bottom_k_eig
from .transfer import RationalTF


@dataclass(frozen=True, eq=False)
class RefinementResult:
    """Closed-form solution of the fixed-partition embedding refinement."""

    s_matrix: np.ndarray = field(repr=False)
    v_hat: np.ndarray = field(repr=False)
    objective: float = 0.0
    degenerate: bool = False

    def __post_init__(self):
        s = np.asarray(self.s_matrix, dtype=float)
        v = np.asarray(self.v_hat, dtype=float)
        k = s.shape[0]
        n = v.shape[0]
        if np.abs(s[:, 0] - 1.0 / np.sqrt(n)).max() > 1e-9:
            raise ValueError("first column of S must be 1/sqrt(n)")
        if np.abs(v.T @ v - np.eye(k)).max() > 1e-8:
            raise ValueError("refined embedding columns are not orthonormal")
        if self.objective < 0:
            raise ValueError("objective must be nonnegative")


def refine_embedding(data, partition):
    """Refine a spectral embedding into the nearest block-constant one.

    Parameters
    ----------
    data : ndarray
        n x k embedding with orthonormal columns whose first column is the
        normalized all-ones vector (the Laplacian kernel direction).
    partition : Partition
        Fixed k-way partition; must have as many blocks as embedding columns.

    Returns
    -------
    RefinementResult
        With the optimal S, the refined embedding V_hat = P S, the attained
        squared-Frobenius objective, and ``degenerate``, True (after a
        RankDeficientWarning) when the optimum is not unique. With k = 1
        the alignment SVD is of a 0 x 0 matrix, and S = [[1/sqrt(n)]].
    """
    v = np.asarray(data, dtype=float)
    n, k = v.shape
    if partition.k != k:
        raise ValueError(f"partition has {partition.k} blocks, embedding has {k} columns")
    if partition.n != n:
        raise ValueError("partition and embedding disagree on n")
    if np.abs(v[:, 0] - 1.0 / np.sqrt(n)).max() > 1e-6:
        raise DisconnectedGraph(
            "first embedding column is not 1/sqrt(n); the graph is likely disconnected"
        )

    p = partition.indicator()
    root = np.sqrt(partition.sizes)
    # orthonormal basis of the complement of u = sqrt(n_i/n): QR of
    # [u | I] with the first column pinned, keeping columns 2..k
    basis = np.linalg.qr(np.column_stack([root / np.sqrt(n), np.eye(k)]))[0]
    q_mat = basis[:, 1:k]
    p_tilde = p / root[None, :]
    m = q_mat.T @ p_tilde.T @ v[:, 1:]
    u_svd, sig, vt_svd = np.linalg.svd(m)
    # a Python bool, which json can write
    degenerate = bool(sig.size and sig.min() < 1e-12)
    if degenerate:
        warnings.warn(
            "alignment SVD is rank deficient; the optimum is not unique",
            RankDeficientWarning,
            stacklevel=2,
        )
    o_star = u_svd @ vt_svd
    s = np.column_stack([np.full(k, 1.0 / np.sqrt(n)), (q_mat @ o_star) / root[:, None]])
    v_hat = p @ s
    objective = float(np.linalg.norm(v - v_hat) ** 2)
    return RefinementResult(s_matrix=s, v_hat=v_hat, objective=objective, degenerate=degenerate)


def block_ideal_check(data, partition):
    """Check whether an embedding is exactly block-constant for a partition.

    Returns (is_ideal, residual) with residual the Frobenius-norm distance
    from the embedding to its refinement; ideal means residual <= 1e-8 * n.
    """
    res = refine_embedding(data, partition)
    residual = float(np.sqrt(res.objective))
    n = partition.n
    return residual <= 1e-8 * n, residual


def reduced_laplacian(s_matrix, lambda_k):
    """Coupling matrix of the reduced network: (S^-T) dg{lambda} (S^-1).

    Computed via linear solves rather than an explicit inverse, asserted
    nearly symmetric, then symmetrized to cap floating-point drift.
    """
    s = np.asarray(s_matrix, dtype=float)
    lam = np.asarray(lambda_k, dtype=float)
    if np.linalg.cond(s) >= 1e10:
        raise SingularS(f"refinement matrix condition number {np.linalg.cond(s):.2e}")
    half = np.linalg.solve(s.T, np.diag(lam))
    l_k = np.linalg.solve(s.T, half.T).T
    asym = np.abs(l_k - l_k.T).max()
    if asym > 1e-8 * (1.0 + np.abs(lam).max()):
        raise SingularS(f"congruence lost symmetry: asymmetry {asym:.2e}")
    return (l_k + l_k.T) / 2.0


@dataclass(frozen=True, eq=False)
class ReducedModel:
    """Structure-preserving reduced network produced by the pipeline.

    Carries the partition, the bottom-k eigendata ``spectral`` the
    reduction was built from (kernel eigenvalue set to zero; its
    ``lambda_next`` is the Theorem-1 constant), the reduced Laplacian, the
    full model's node tuple ``nodes`` (aggregate j is the harmonic sum over
    ``partition.blocks()[j]``), the refinement matrix, the (unchanged)
    coupling dynamics, and pipeline diagnostics.
    """

    partition: Partition
    spectral: SpectralData = field(repr=False)
    l_k: np.ndarray = field(repr=False)
    nodes: tuple = field(repr=False)
    s_matrix: np.ndarray = field(repr=False)
    coupling: RationalTF = None
    refine_objective: float = 0.0
    clustering_wcss: float = 0.0
    degenerate_refinement: bool = False

    def __post_init__(self):
        data, part = self.spectral, self.partition
        if (data.n, data.k) != (part.n, part.k):
            raise ValueError(f"eigendata has n={data.n}, k={data.k}; partition n={part.n}, k={part.k}")
        l_k = np.asarray(self.l_k, dtype=float)
        scale = 1.0 + np.abs(l_k).max()
        if np.abs(l_k - l_k.T).max() > 1e-8 * scale:
            raise ValueError("reduced Laplacian is not symmetric")
        if np.abs(l_k @ np.ones(l_k.shape[0])).max() > 1e-7 * scale:
            raise ValueError("reduced Laplacian row sums are not zero")
        if np.linalg.eigvalsh(l_k).min() < -1e-8 * scale:
            raise ValueError("reduced Laplacian is not positive semidefinite")

    @property
    def k(self):
        return self.partition.k

    @property
    def n(self):
        return self.partition.n

    def to_dict(self):
        """Self-contained document of the reduced network.

        :meth:`from_dict` rebuilds from it the partition, the eigendata
        (``lambda_k``, ``lambda_next`` and the n x k ``embedding``),
        ``l_k``, ``s_matrix``, the member transfer functions and the
        coupling. Floats written by ``dump_json`` read back exactly, so a
        model read back band-evaluates and simulates as the one written.
        """
        data = self.spectral
        return {
            "assignment": self.partition.assignment.tolist(),
            "k": self.k,
            "lambda_k": data.lambda_k.tolist(),
            "lambda_next": data.lambda_next,
            "embedding": data.v_k.tolist(),
            "l_k": self.l_k.tolist(),
            "s_matrix": self.s_matrix.tolist(),
            "coupling": self.coupling.to_dict() if self.coupling else None,
            "aggregates": [
                {
                    "members": idx.tolist(),
                    "member_tfs": [self.nodes[i].to_dict() for i in idx],
                }
                for idx in self.partition.blocks()
            ],
            "refine_objective": self.refine_objective,
            "clustering_wcss": self.clustering_wcss,
            "degenerate_refinement": self.degenerate_refinement,
        }

    @classmethod
    def from_dict(cls, doc):
        nodes = [None] * len(doc["assignment"])
        for agg in doc["aggregates"]:
            for i, d in zip(agg["members"], agg["member_tfs"]):
                nodes[i] = RationalTF.from_dict(d)
        if None in nodes:
            raise ValueError(f"aggregates list no dynamics for node {nodes.index(None)}")
        return cls(
            partition=Partition(doc["assignment"], doc["k"]),
            spectral=SpectralData(
                np.asarray(doc["lambda_k"], dtype=float),
                np.asarray(doc["embedding"], dtype=float),
                doc["lambda_next"],
            ),
            l_k=np.asarray(doc["l_k"], dtype=float),
            nodes=tuple(nodes),
            s_matrix=np.asarray(doc["s_matrix"], dtype=float),
            coupling=RationalTF.from_dict(doc["coupling"]) if doc["coupling"] else None,
            refine_objective=doc["refine_objective"],
            clustering_wcss=doc["clustering_wcss"],
            degenerate_refinement=doc["degenerate_refinement"],
        )


def run_algorithm_1(model, k, seed=0, restarts=50):
    """Full reduction pipeline on a network model.

    Composes the bottom-k eigendecomposition, spectral clustering of the
    embedding rows, a check that every node has an inverse to aggregate,
    embedding refinement, and the reduced Laplacian construction. Any stage
    error is wrapped in ReductionFailed with the stage name. The returned
    model keeps the eigendata on ``spectral`` so callers need not recompute
    it.
    """
    n = model.n
    if not 1 <= k < n:
        raise KTooLarge(f"need 1 <= k < n, got k={k}, n={n}")

    try:
        spec = bottom_k_eig(model.laplacian, k)
    except Exception as exc:
        raise ReductionFailed("eigendecomposition", str(exc)) from exc
    lambda2 = float(spec.lambda_k[1]) if k >= 2 else spec.lambda_next
    if lambda2 is not None and lambda2 <= 1e-9:
        raise DisconnectedGraph(f"graph is disconnected (lambda_2={lambda2:.3e})")
    # the graph is connected, so the kernel eigenvalue is structurally zero;
    # dropping its eigensolver roundoff (~eps ||L||) keeps the reduced
    # Laplacian's row sums exactly zero at any weight scale
    lam = spec.lambda_k.copy()
    lam[0] = 0.0
    spec = SpectralData(lambda_k=lam, v_k=spec.v_k, lambda_next=spec.lambda_next)

    try:
        partition = cluster_embedding(spec.v_k, k, restarts=restarts, seed=seed)
        wcss = wcss_of(spec.v_k, partition)
    except Exception as exc:
        raise ReductionFailed("clustering", str(exc)) from exc

    # each aggregate sums its members' inverses, so none may be zero
    for idx in partition.blocks():
        for i, j in enumerate(idx):
            if all(c == 0.0 for c in model.nodes[j].num):
                msg = f"member {i} has zero numerator; inverse undefined"
                raise ReductionFailed("aggregation", msg)

    try:
        refined = refine_embedding(spec.v_k, partition)
    except Exception as exc:
        raise ReductionFailed("refinement", str(exc)) from exc

    try:
        l_k = reduced_laplacian(refined.s_matrix, spec.lambda_k)
    except Exception as exc:
        raise ReductionFailed("reduced-laplacian", str(exc)) from exc

    return ReducedModel(
        partition=partition,
        spectral=spec,
        l_k=l_k,
        nodes=model.nodes,
        s_matrix=refined.s_matrix,
        coupling=model.coupling,
        refine_objective=refined.objective,
        clustering_wcss=wcss,
        degenerate_refinement=refined.degenerate,
    )
