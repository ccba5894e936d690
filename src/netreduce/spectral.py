"""Bottom-k eigendecomposition, spectral clustering, and subspace angles."""

from __future__ import annotations

import math
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


# Largest n solved by the full numpy eigh. Above it all eigenvalues come
# from one values-only eigvalsh and the bottom-k eigenvectors from a
# Chebyshev-filtered block, with no library beyond numpy. On one BLAS thread
# (2-core x86-64, numpy 2.4.6), on the three-group graph of the benchmark at
# n = 1280, eigvalsh took 0.15 s, the filter 0.05 s and the full eigh 0.31 s.
# The full solve is kept below the threshold, so the outputs of smaller
# models stay as they were; there the filter would save 0.005 s at n = 320,
# 0.023 s at n = 640 and 0.074 s at n = 1024.
_DENSE_MAX_N = 1024
# The filter damps [lambda_{k+1}, lambda_max] by this factor relative to
# lambda_k. Its reciprocal must exceed sqrt(n) / eps (2e17 at n = 1280) for
# the residual to reach roundoff: on 1024- to 2000-node three-group graphs
# 1e-16 left residuals of up to 80 eps ||L||, and 1e-18 (two or three more
# products) 1-23 eps ||L||.
_FILTER_DAMPING = 1e-18
# products of the Chebyshev recurrence between two Rayleigh-Ritz steps; each
# step re-orthonormalizes the block, so that the columns do not all turn
# toward the eigenvector whose value lies farthest below the interval. With
# 8, residuals were 3-10 eps ||L|| on the benchmark graph at n = 1280 (16-33
# with no restart), and 3-10 on a spectrum 0, 40, 50 below [200, 1000] at
# n = 1025, where with no restart the residual check failed.
_FILTER_CYCLE = 8


def _rayleigh_ritz(l, y):
    # Ritz values, Ritz vectors and l times them on the span of y
    q, _ = np.linalg.qr(y)
    lq = l @ q
    theta, w = np.linalg.eigh(q.T @ lq)
    return theta, q @ w, lq @ w


def _filtered_bottom_k(l, lam, k):
    """Bottom-k eigenvectors of ``l`` by Chebyshev-filtered subspace iteration.

    Zhou, Saad, Tiago & Chelikowsky, J. Comput. Phys. 219(1), 2006.
    ``lam`` holds all n eigenvalues of ``l`` in ascending order. The filter
    maps the unwanted interval [lambda_{k+1}, lambda_max] onto [-1, 1],
    where the Chebyshev polynomial T_m stays within 1, and grows lambda_k by
    T_m(t) = cosh(m arccosh t); the degree m is the least that damps the
    interval by ``_FILTER_DAMPING``. A fixed-seed n x k block goes through
    cycles of ``_FILTER_CYCLE`` recurrence steps, each followed by a QR and
    a Rayleigh-Ritz step whose product with ``l`` is also the first step of
    the next cycle, so the filter costs m + 1 products.

    Returns the Ritz vectors, or None when the filter would cost more than
    the full eigh: when k = n, when the interval is a single point or the
    degree is too high. One product of the n x n matrix with the n x k block
    took at least 1/120 of the time the full eigh needs beyond eigvalsh
    (n = 1025-2048, k <= 8, one thread), so a degree m pays while
    m k <= n / 4. Also returns None unless every Ritz value lies within
    n eps ||L|| of its eigenvalue in ``lam`` and every residual
    ||l v - theta v|| is within the same bound.
    """
    n = l.shape[0]
    if k >= n:
        return None
    half = (lam[-1] - lam[k]) / 2.0
    center = lam[-1] - half
    t = (center - lam[k - 1]) / half if half > 0.0 else 1.0
    if not t > 1.0:
        return None
    degree = math.ceil(math.acosh(1.0 / _FILTER_DAMPING) / math.acosh(t))
    if degree * k > n / 4:
        return None
    theta, v, lv = _rayleigh_ritz(l, np.random.default_rng(0).standard_normal((n, k)))
    for done in range(0, degree, _FILTER_CYCLE):
        # T_0 and T_1 of the scaled matrix (l - center) / half applied to v
        y_prev, y = v, (lv - center * v) / half
        for _ in range(min(_FILTER_CYCLE, degree - done) - 1):
            y_prev, y = y, (2.0 / half) * (l @ y - center * y) - y_prev
        theta, v, lv = _rayleigh_ritz(l, y)
    tol = n * np.finfo(float).eps * max(-lam[0], lam[-1])
    resid = np.linalg.norm(lv - v * theta, axis=0)
    if np.abs(theta - lam[:k]).max() > tol or resid.max() > tol:
        return None
    return v


def bottom_k_eig(l, k):
    """Eigenpairs for the k smallest eigenvalues of a symmetric matrix.

    Keeps the bottom k pairs with sign-normalized eigenvectors and reports
    the (k+1)-th eigenvalue as well. Emits TiedSpectrumWarning when the
    k-th and (k+1)-th eigenvalues are numerically tied. Non-finite entries
    raise NonFinite, a ValueError; an asymmetry above a relative 1e-10
    raises NotSymmetric; ``l`` is left unchanged.

    For n <= ``_DENSE_MAX_N`` the full ``np.linalg.eigh`` reads the lower
    triangle of ``l`` (numpy copies it into its own LAPACK buffer). Larger n
    take every eigenvalue from one ``np.linalg.eigvalsh``, which also reads
    the lower triangle, and the eigenvectors from a Chebyshev filter whose
    products read all of ``l``; the two read the same matrix when ``l`` is
    exactly symmetric, as every Laplacian that ``laplacian`` builds is. The
    full ``eigh`` runs instead when k = n, when the gap between the k-th and
    (k+1)-th eigenvalues is too small for the filter to beat it, and when
    the filtered vectors fail their eigenvalue or residual check.
    """
    l = np.asarray(l, dtype=float)
    check_symmetric(l, 1e-10, "matrix")
    n = l.shape[0]
    if not 1 <= k <= n:
        raise KTooLarge(f"k={k} outside [1, {n}]")
    return _bottom_k_eig(l, k)


def _bottom_k_eig(l, k):
    # bottom_k_eig without its input checks, for a matrix already validated
    n = l.shape[0]
    if n <= _DENSE_MAX_N:
        lam, vec = np.linalg.eigh(l, UPLO="L")
    else:
        lam = np.linalg.eigvalsh(l, UPLO="L")
        vec = _filtered_bottom_k(l, lam, k)
        if vec is None:
            lam, vec = np.linalg.eigh(l, UPLO="L")
    lambda_next = float(lam[k]) if k < n else None
    if lambda_next is not None and abs(lam[k - 1] - lambda_next) <= 1e-12 * (1.0 + abs(lambda_next)):
        warnings.warn(
            f"eigenvalues {k} and {k + 1} are numerically tied", TiedSpectrumWarning, stacklevel=3
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
