"""Bottom-k eigendecomposition, spectral clustering, and subspace angles.

Clustering runs k-means++ and Lloyd's iterations for all restarts in
lockstep, as (restarts, ...) arrays: the random draws are taken in the
order restarts run one after another would take them, and distances, sums
and the WCSS are formed in the order a single run forms them, so every
restart, and the partition chosen, is bit-equal to running them in turn.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateEmbedding,
    KTooLarge,
    NonFinite,
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


def _distinct_rows(x):
    # number of distinct rows: sort them lexicographically, count the changes
    xs = x[np.lexsort(x.T[::-1])]
    return 1 + int(np.count_nonzero((xs[1:] != xs[:-1]).any(axis=1)))


def _pairwise_sum(term, lo, hi):
    # term(lo) + ... + term(hi - 1) elementwise, in the order of numpy's
    # pairwise summation (PW_BLOCKSIZE 128, 8 accumulators): the order in
    # which ``a.sum(axis=-1)`` adds a contiguous last axis of hi - lo
    # entries. Each term is made just before it is added, in place.
    m = hi - lo
    if m < 8:
        total = term(lo)
        for c in range(lo + 1, hi):
            total += term(c)
        return total
    if m <= 128:
        r = [term(lo + j) for j in range(8)]
        for i in range(8, m - m % 8, 8):
            for j in range(8):
                r[j] += term(lo + i + j)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for c in range(lo + m - m % 8, hi):
            total += term(c)
        return total
    half = m // 2 - (m // 2) % 8
    return _pairwise_sum(term, lo, lo + half) + _pairwise_sum(term, lo + half, hi)


def _sq_dist(a, b):
    # ((a - b) ** 2).sum(axis=-1) for broadcastable a and b, bit for bit,
    # formed one column at a time instead of as the broadcast difference
    def term(c):
        diff = a[..., c] - b[..., c]
        return np.square(diff, out=diff)

    return _pairwise_sum(term, 0, a.shape[-1])


def _cdf_pick(weights, total, u):
    # rng.choice(n, p=weights[r] / total[r]) of each row r, given the
    # uniform draw u[r] that choice makes: the normalized CDF of p, searched
    # with side="right", which counts the entries <= u[r]
    cdf = (weights / total[:, None]).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= u[:, None]).sum(axis=1)


def _kmeans_pp(x, k, restarts, rng):
    """k-means++ initial centroids of all restarts, a (restarts, k, d) array.

    Consumes ``rng`` as restarts run one after another would: per restart
    ``rng.integers(n)`` for the first center, then per further center one
    ``rng.random()`` mapped through the normalized CDF of d^2 weights, which
    is what ``rng.choice(n, p=d2 / d2.sum())`` does, or ``rng.integers(n)``
    once the chosen centers cover every distinct row and d^2 is zero. Each
    CDF draw picks a row not yet covered, so with m distinct rows the first
    min(m, k) - 1 further centers are CDF draws in every restart.
    """
    n = x.shape[0]
    n_cdf = min(_distinct_rows(x), k) - 1
    u = np.empty((restarts, n_cdf))
    picks = np.empty((restarts, k), dtype=np.int64)
    for r in range(restarts):
        picks[r, 0] = rng.integers(n)
        u[r] = rng.random(n_cdf)
        picks[r, n_cdf + 1 :] = [rng.integers(n) for _ in range(k - 1 - n_cdf)]
    d2 = _sq_dist(x, x[picks[:, 0]][:, None, :])
    for j in range(1, n_cdf + 1):
        total = d2.sum(axis=1)
        # zero only when the squares of distinct rows' differences underflow
        if not np.all((total > 0.0) & (total < np.inf)):
            raise DegenerateEmbedding("squared distances between embedding rows under- or overflow")
        picks[:, j] = _cdf_pick(d2, total, u[:, j - 1])
        if j < n_cdf:
            d2 = np.minimum(d2, _sq_dist(x, x[picks[:, j]][:, None, :]))
    return x[picks]


def _repair_empty(labels, dist_own, counts):
    # reseed each empty cluster, in ascending order, with the point farthest
    # from its own centroid among those whose cluster keeps another member
    for j in np.flatnonzero(counts == 0):
        movable = counts[labels] > 1
        far = int(np.argmax(np.where(movable, dist_own, -1.0)))
        counts[labels[far]] -= 1
        labels[far] = j
        counts[j] = 1
        dist_own[far] = 0.0


def lloyd(x, centroids, max_iter):
    """Lloyd iterations of many k-means runs on the rows of ``x`` in lockstep.

    ``centroids`` is a (runs, k, d) array of initial centroids. Each run
    assigns every row to its nearest centroid, ties to the lowest cluster
    index; reseeds an empty cluster with the rule of ``_repair_empty``; and
    moves each centroid to the mean of its rows. A run stops when its
    assignment is unchanged or after ``max_iter`` sweeps. Distances, sums
    and the WCSS are formed in the order a run on its own would use, so
    every run's result is bit-equal to running it alone. Returns (labels,
    centroids, wcss, n_iter) with shapes (runs, n), (runs, k, d), (runs,)
    and (runs,).
    """
    runs, k, _ = centroids.shape
    n = x.shape[0]
    cent = centroids.copy()
    labels = np.full((runs, n), -1, dtype=np.int64)
    n_iter = np.zeros(runs, dtype=np.int64)
    live = np.arange(runs)
    for _ in range(max_iter):
        n_iter[live] += 1
        # (runs, k, n): the rows run along the contiguous axis; the nearest
        # centroid is found cluster by cluster, ties to the lowest index
        d2 = _sq_dist(x, cent[live][:, :, None, :])
        new = np.zeros((live.size, n), dtype=np.int64)
        dist_own = d2[:, 0].copy()
        for j in range(1, k):
            new[d2[:, j] < dist_own] = j
            np.minimum(dist_own, d2[:, j], out=dist_own)
        bins = (new + k * np.arange(live.size)[:, None]).ravel()
        counts = np.bincount(bins, minlength=live.size * k).reshape(-1, k)
        for r in np.flatnonzero(counts.min(axis=1) == 0):
            _repair_empty(new[r], dist_own[r], counts[r])
        moved = (new != labels[live]).any(axis=1)
        labels[live] = new
        live, new, counts = live[moved], new[moved], counts[moved]
        if not live.size:
            break
        # per-cluster sums in row order, as np.add.at accumulates them
        bins = (new + k * np.arange(live.size)[:, None]).ravel()
        moved_cent = np.empty((live.size, k, x.shape[1]))
        for c, col in enumerate(x.T):
            sums = np.bincount(bins, weights=np.tile(col, live.size), minlength=live.size * k)
            moved_cent[:, :, c] = sums.reshape(live.size, k) / counts
        cent[live] = moved_cent
    # (own - x)^2 equals (x - own)^2 bit for bit: IEEE subtraction is antisymmetric
    diff = cent[np.arange(runs)[:, None], labels]
    diff -= x
    wcss = np.square(diff, out=diff).reshape(runs, -1).sum(axis=1)
    return labels, cent, wcss, n_iter


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
    """k-means on the rows of the spectral embedding ``data``, an n x d array.

    k-means++ initialization, best of ``restarts`` runs by within-cluster
    sum of squares, assignment ties broken toward the lowest cluster index,
    and empty clusters repaired by reseeding from the farthest point. Final
    labels are canonicalized by lexicographic centroid order, leaving out
    columns that are constant across centroids up to a relative 1e-9.

    All restarts run in lockstep (``_kmeans_pp`` and ``lloyd``) and give the
    labels, centroids and WCSS that running them one after another from the
    same ``seed`` gives, so the best restart is the first one of least WCSS
    whose centroids are pairwise more than 1e-12 apart.

    Raises NonFinite, a ValueError, when the embedding holds NaN or inf, and
    DegenerateEmbedding when every restart converges with two centroids
    closer than 1e-12, or when two distinct rows are so close (below about
    1e-154 apart) that their squared distance underflows to zero, which
    k-means++ cannot tell from equal rows.
    """
    x = np.asarray(data, dtype=float)
    n = x.shape[0]
    if x.shape[1] < k:
        raise KTooLarge(f"embedding has {x.shape[1]} columns < k={k}")
    if k > n:
        raise KTooLarge(f"k={k} exceeds number of rows {n}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not np.isfinite(x).all():
        raise NonFinite("embedding has non-finite entries")

    init = _kmeans_pp(x, k, restarts, np.random.default_rng(seed))
    labels, cent, wcss, _ = lloyd(x, init, max_iter)
    i, j = np.triu_indices(k, 1)
    sep = np.sqrt(_sq_dist(cent[:, i], cent[:, j])).min(axis=1, initial=np.inf)
    ok = sep > 1e-12
    if not ok.any():
        raise DegenerateEmbedding("all restarts converged with coinciding centroids")
    best = int(np.argmin(np.where(ok, wcss, np.inf)))
    return Partition(_canonical_labels(labels[best], cent[best]), k)


def wcss_of(x, partition):
    """Within-cluster sum of squares of embedding rows under a partition."""
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
