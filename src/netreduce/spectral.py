"""Bottom-k eigendecomposition, spectral clustering, and subspace angles."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import (
    DegenerateEmbedding,
    KTooLarge,
    NotOrthonormal,
    TiedSpectrumWarning,
)
from .graphs import Partition, check_symmetric


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Bottom-k eigenvalues and eigenvectors of a symmetric matrix.

    ``lambda_next`` carries the (k+1)-th eigenvalue when it exists; it feeds
    the low-rank approximation error bound downstream. Columns follow a
    deterministic sign convention: the first entry of largest magnitude in
    each column is positive.
    """

    lambda_k: np.ndarray
    v_k: np.ndarray = field(repr=False)
    lambda_next: float | None = None

    def __post_init__(self):
        lam = np.asarray(self.lambda_k, dtype=float)
        v = np.asarray(self.v_k, dtype=float)
        if v.ndim != 2 or v.shape[1] != lam.size:
            raise ValueError("v_k must have one column per eigenvalue")
        if np.any(np.diff(lam) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        gram = v.T @ v
        if np.abs(gram - np.eye(lam.size)).max() > 1e-9:
            raise NotOrthonormal("eigenvector columns are not orthonormal")

    @property
    def k(self):
        return self.lambda_k.size

    @property
    def n(self):
        return self.v_k.shape[0]


def _sign_normalize(v):
    v = v.copy()
    for c in range(v.shape[1]):
        lead = np.argmax(np.abs(v[:, c]))
        if v[lead, c] < 0:
            v[:, c] = -v[:, c]
    return v


# Largest n solved by the full numpy eigh; above it scipy's partial solve
# repays its import (0.16-0.28 s, +28 MB RSS). On one BLAS thread (2-core
# x86-64, numpy 2.4.6, scipy 1.17.1) the full solve took 0.14 s longer than
# the partial one at n = 1024 and 0.30 s at n = 1280, and peak RSS of the
# two paths broke even near n = 1000.
_DENSE_MAX_N = 1024


def bottom_k_eig(l, k):
    """Eigenpairs for the k smallest eigenvalues of a symmetric matrix.

    Keeps the bottom k pairs with sign-normalized eigenvectors and reports
    the (k+1)-th eigenvalue as well. Emits TiedSpectrumWarning when the
    k-th and (k+1)-th eigenvalues are numerically tied. Non-finite entries
    raise NonFinite, a ValueError; ``l`` is left unchanged.

    For n <= ``_DENSE_MAX_N`` the full ``np.linalg.eigh`` reads the lower
    triangle of ``l`` (numpy copies it into its own LAPACK buffer), so no
    scipy module is loaded. Larger n imports scipy here and solves for the
    bottom k+1 pairs only (all n when k = n), in place on the one n x n
    copy (l + l^T) / 2. Both read the same matrix when ``l`` is exactly
    symmetric, as every Laplacian that ``laplacian`` builds is.
    """
    l = np.asarray(l, dtype=float)
    check_symmetric(l, 1e-10, "matrix")
    n = l.shape[0]
    if not 1 <= k <= n:
        raise KTooLarge(f"k={k} outside [1, {n}]")
    if n <= _DENSE_MAX_N:
        lam, vec = np.linalg.eigh(l, UPLO="L")
    else:
        import scipy.linalg

        sym = l + l.T
        sym /= 2.0
        # sym is exactly symmetric, so its transpose is the same matrix in
        # Fortran order and LAPACK overwrites it without a further copy
        lam, vec = scipy.linalg.eigh(sym.T, subset_by_index=[0, min(k, n - 1)], overwrite_a=True)
    lambda_next = float(lam[k]) if k < n else None
    if lambda_next is not None and abs(lam[k - 1] - lambda_next) <= 1e-12 * (1.0 + abs(lambda_next)):
        warnings.warn(
            f"eigenvalues {k} and {k + 1} are numerically tied", TiedSpectrumWarning, stacklevel=2
        )
    return SpectralData(
        lambda_k=lam[:k].copy(),
        v_k=_sign_normalize(vec[:, :k]),
        lambda_next=lambda_next,
    )


def _kmeans_pp_init(x, k, rng):
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    idx = rng.integers(n)
    centers[0] = x[idx]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            # all remaining points coincide with a chosen center
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=d2 / total)
        centers[j] = x[idx]
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))
    return centers


def _canonical_labels(labels, centroids):
    # relabel clusters by lexicographic centroid order so the labelling
    # depends on the embedding values, not on the row order; columns that
    # are constant across centroids up to roundoff (the Laplacian kernel
    # direction) are left out, or roundoff would decide the order
    spread = np.ptp(centroids, axis=0)
    keys = centroids[:, spread > 1e-9 * np.abs(centroids).max()]
    order = np.lexsort(keys.T[::-1]) if keys.size else np.arange(len(centroids))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[labels]


def cluster_embedding(data, k, restarts=50, seed=0, max_iter=300):
    """k-means on the rows of the spectral embedding.

    k-means++ initialization, best of ``restarts`` runs by within-cluster
    sum of squares, assignment ties broken toward the lowest cluster index,
    and empty clusters repaired by reseeding from the farthest point. Final
    labels are canonicalized by lexicographic centroid order, leaving out
    columns that are constant across centroids up to a relative 1e-9.

    Raises DegenerateEmbedding when every restart converges with two
    centroids closer than 1e-12.
    """
    if isinstance(data, SpectralData):
        x = np.asarray(data.v_k, dtype=float)
    else:
        x = np.asarray(data, dtype=float)
    n = x.shape[0]
    if x.shape[1] < k:
        raise KTooLarge(f"embedding has {x.shape[1]} columns < k={k}")
    if k > n:
        raise KTooLarge(f"k={k} exceeds number of rows {n}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")

    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        init = _kmeans_pp_init(x, k, rng)
        labels, cent, wcss, _ = _kernels.lloyd(x, init, max_iter)
        sep = np.inf
        for i in range(k):
            for j in range(i + 1, k):
                sep = min(sep, float(np.linalg.norm(cent[i] - cent[j])))
        if sep > 1e-12 and (best is None or wcss < best[0]):
            best = (wcss, labels, cent)
    if best is None:
        raise DegenerateEmbedding("all restarts converged with coinciding centroids")
    _, labels, cent = best
    return Partition(_canonical_labels(labels, cent), k)


def wcss_of(x, partition):
    """Within-cluster sum of squares of embedding rows under a partition."""
    if isinstance(x, SpectralData):
        x = x.v_k
    x = np.asarray(x, dtype=float)
    total = 0.0
    for idx in partition.blocks():
        total += float(((x[idx] - x[idx].mean(axis=0)) ** 2).sum())
    return total


@dataclass(frozen=True, eq=False)
class SinThetaReport:
    """Principal angles between two subspaces and their sine Frobenius norm."""

    angles: np.ndarray
    frobenius: float

    def __post_init__(self):
        a = np.asarray(self.angles, dtype=float)
        if np.any(np.diff(a) < 0):
            raise ValueError("angles must be sorted ascending")
        if abs(self.frobenius**2 - float(np.sum(np.sin(a) ** 2))) > 1e-9:
            raise ValueError("frobenius value inconsistent with angles")


def sin_theta(v_a, v_b):
    """Principal angles between the column spans of two orthonormal matrices.

    The singular values of ``v_a.T @ v_b`` are the cosines of the principal
    angles; the report carries the angles (ascending) and the Frobenius norm
    of their sines.
    """
    v_a = np.asarray(v_a, dtype=float)
    v_b = np.asarray(v_b, dtype=float)
    for name, v in (("v_a", v_a), ("v_b", v_b)):
        gram = v.T @ v
        if np.abs(gram - np.eye(v.shape[1])).max() > 1e-8:
            raise NotOrthonormal(f"{name} columns are not orthonormal")
    sig = np.linalg.svd(v_a.T @ v_b, compute_uv=False)
    sig = np.clip(sig, 0.0, 1.0)
    angles = np.sort(np.arccos(sig))
    k = min(v_a.shape[1], v_b.shape[1])
    frob = float(np.sqrt(max(k - float(np.sum(sig**2)), 0.0)))
    return SinThetaReport(angles=angles, frobenius=frob)
