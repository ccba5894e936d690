"""Weighted stochastic block model sampling and block Laplacian analysis.

Provides the seeded WSBM adjacency sampler, graph Laplacian construction,
the expected (block) Laplacian of the model, and a closed-form oracle for
the block Laplacian's spectrum that avoids any eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# imported with the module, not at the first draw: every command samples a
# graph, and a lazy import inside a stage would count its ~0.6 MB of module
# objects in that stage's traced peak
from numpy.random import PCG64, Generator

from .errors import EmptyBlock, NonFinite, NotSymmetric


@dataclass(frozen=True, eq=False)
class WsbmParams:
    """Parameters (sizes, Q, W) of a weighted stochastic block model.

    ``sizes[i]`` is the number of nodes in block i; edge {u, v} appears
    independently with probability ``q[bu, bv]`` and carries weight
    ``w[bu, bv]`` where bu, bv are the endpoints' block labels.
    """

    sizes: tuple
    q: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)

    def __init__(self, sizes, q, w):
        sizes = tuple(int(s) for s in sizes)
        q = np.array(q, dtype=float)
        w = np.array(w, dtype=float)
        k = len(sizes)
        if k < 1 or any(s < 1 for s in sizes) or sum(sizes) < 2:
            raise ValueError("need k >= 1 blocks, all sizes >= 1, total >= 2")
        if q.shape != (k, k) or w.shape != (k, k):
            raise ValueError("q and w must be k x k")
        # NaN passes every comparison below and would sample a wrong graph
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(w))):
            raise NonFinite("entries of q and w must be finite")
        if np.abs(q - q.T).max() > 1e-12 or np.abs(w - w.T).max() > 1e-12 * max(1.0, np.abs(w).max()):
            raise NotSymmetric("q and w must be symmetric")
        if q.min() < 0 or q.max() > 1:
            raise ValueError("entries of q must lie in [0, 1]")
        if w.min() < 0:
            raise ValueError("entries of w must be nonnegative")
        q.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "w", w)

    @property
    def k(self):
        return len(self.sizes)

    @property
    def n(self):
        return sum(self.sizes)

    @property
    def b(self):
        """Expected edge-weight matrix B = Q (Hadamard) W."""
        return self.q * self.w

    def labels(self):
        """Block label of each node, blocks laid out contiguously."""
        return np.repeat(np.arange(self.k), self.sizes)

    def true_partition(self):
        return Partition(self.labels(), self.k)

    def scaled(self, factor):
        """Same Q, W with every block size multiplied by ``factor``."""
        return WsbmParams(tuple(s * int(factor) for s in self.sizes), self.q, self.w)


@dataclass(frozen=True, eq=False)
class Partition:
    """A k-way partition of node indices, stored as a label per node."""

    assignment: np.ndarray = field(repr=False)
    k: int = 0

    def __init__(self, assignment, k):
        assignment = np.asarray(assignment, dtype=np.int64).copy()
        k = int(k)
        if assignment.ndim != 1:
            raise ValueError("assignment must be one-dimensional")
        if assignment.min(initial=0) < 0 or (assignment.size and assignment.max() >= k):
            raise ValueError("labels must lie in [0, k)")
        counts = np.bincount(assignment, minlength=k)
        if np.any(counts == 0):
            raise EmptyBlock(f"blocks {np.nonzero(counts == 0)[0].tolist()} are empty")
        assignment.setflags(write=False)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "k", k)

    @property
    def n(self):
        return self.assignment.size

    @property
    def sizes(self):
        return np.bincount(self.assignment, minlength=self.k)

    @property
    def n_min(self):
        return int(self.sizes.min())

    @property
    def n_max(self):
        return int(self.sizes.max())

    @property
    def rho(self):
        """Block balance ratio n_max / n_min."""
        return self.n_max / self.n_min

    def blocks(self):
        return [np.nonzero(self.assignment == i)[0] for i in range(self.k)]

    def indicator(self):
        """The n x k 0/1 indicator matrix with one column per block."""
        p = np.zeros((self.n, self.k))
        p[np.arange(self.n), self.assignment] = 1.0
        return p

    def same_blocks(self, other):
        """True when both partitions induce the same set partition."""
        if self.n != other.n or self.k != other.k:
            return False
        pair = self.assignment * other.k + other.assignment
        return np.count_nonzero(np.bincount(pair)) == self.k


@dataclass(frozen=True, eq=False)
class BlockSpectrum:
    """Closed-form spectrum of the expected block Laplacian.

    ``eigenvalues_clustered`` are the k bottom eigenvalues carried by
    block-constant eigenvectors; ``eigenvalue_bulk[i]`` repeats with
    multiplicity sizes[i]-1. ``delta`` is the intra- vs inter-block margin
    and ``lambda_k1_lower`` the closed-form lower bound on the (k+1)-th
    eigenvalue.
    """

    eigenvalues_clustered: np.ndarray
    eigenvalue_bulk: np.ndarray
    b_min: float
    delta: float
    lambda_k1_lower: float
    sizes: tuple

    def full_spectrum(self):
        """All n eigenvalues (clustered plus repeated bulk), sorted ascending."""
        reps = [np.full(s - 1, lam) for s, lam in zip(self.sizes, self.eigenvalue_bulk)]
        return np.sort(np.concatenate([self.eigenvalues_clustered] + reps))


def sample_adjacency(params, seed):
    """Sample a WSBM adjacency matrix, deterministically in ``seed``.

    Uses the PCG64 generator; one uniform per unordered pair (i, j) with
    i >= j, drawn in row-major order over the lower triangle (including the
    diagonal; a self-loop weight cancels exactly in the Laplacian). Entry
    A[i, j] equals w[bi, bj] when the uniform is below q[bi, bj], else 0.
    Row i draws its i + 1 uniforms as one call, so the stream is the same
    as one draw over the whole triangle; each row is written in place and
    mirrored into its column, and A is the only n x n array allocated.
    """
    rng = Generator(PCG64(seed))
    n = params.n
    labels = params.labels()
    q_rows = params.q[:, labels]
    # + 0.0 turns a -0.0 weight into 0.0, so no entry of A prints as -0
    w_rows = params.w[:, labels] + 0.0
    a = np.zeros((n, n))
    for i, b in enumerate(labels):
        row = np.where(rng.random(i + 1) < q_rows[b, : i + 1], w_rows[b, : i + 1], 0.0)
        a[i, : i + 1] = row
        a[:i, i] = row[:i]
    return a


_ASYM_BLOCK = 64  # rows per block of check_symmetric; 16 to 128 time alike at n = 1280


def check_symmetric(m, rtol, what):
    """Validate a finite symmetric square matrix; return its (min, max) entries.

    Raises ValueError when ``m`` is not square, NonFinite when an entry is
    NaN or infinite, and NotSymmetric when max |M - M^T| exceeds ``rtol``
    times max(1, max |M|). The finite check comes first because a NaN
    compares false against any tolerance. max |M - M^T| is taken over
    blocks of rows of the upper triangle, so no n x n temporary is formed.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square")
    lo, hi = m.min(), m.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NonFinite(f"{what} has non-finite entries")
    asym = 0.0
    for r in range(0, m.shape[0], _ASYM_BLOCK):
        d = m[r : r + _ASYM_BLOCK, r:] - m[r:, r : r + _ASYM_BLOCK].T
        asym = max(asym, float(np.abs(d, out=d).max()))
    if asym > rtol * max(1.0, hi, -lo):
        raise NotSymmetric(f"{what} is not symmetric")
    return float(lo), float(hi)


def laplacian(a):
    """Graph Laplacian dg{A 1} - A of a symmetric nonnegative adjacency.

    Allocates only the result; ``a`` is left unchanged. Raises NonFinite on
    NaN or infinite entries and NotSymmetric on an asymmetric ``a``.
    """
    a = np.asarray(a, dtype=float)
    lo, _ = check_symmetric(a, 1e-12, "adjacency")
    if lo < 0:
        raise ValueError("adjacency must be nonnegative")
    # 0.0 - a, not -a: negation would leave -0.0 off the diagonal
    lap = 0.0 - a
    lap.flat[:: a.shape[0] + 1] += a.sum(axis=1)
    return lap


def expected_laplacian(params):
    """Expected Laplacian L_blk = dg{A_blk 1} - A_blk of the model.

    A_blk = P B P^T is the expected adjacency, with B = Q o W (``params.b``)
    and P the block indicator matrix.
    """
    p = params.true_partition().indicator()
    a_blk = p @ params.b @ p.T
    return np.diag(a_blk.sum(axis=1)) - a_blk


def block_spectrum_oracle(params):
    """Closed-form spectrum of the expected block Laplacian.

    The k clustered eigenvalues are those of dg{(B dg{n}) 1} - B dg{n},
    computed through the symmetric similarity dg{sqrt(n)} B dg{sqrt(n)};
    each block additionally contributes the bulk eigenvalue
    n_i B_ii + sum_{j != i} B_ij n_j with multiplicity n_i - 1. A
    nonpositive margin ``delta`` is reported, not rejected.
    """
    b = params.b
    ns = np.asarray(params.sizes, dtype=float)

    b_tilde_rowsum = (b * ns[None, :]).sum(axis=1)
    sq = np.sqrt(ns)
    sym = np.diag(b_tilde_rowsum) - (sq[:, None] * b * sq[None, :])
    clustered = np.sort(np.linalg.eigvalsh(sym))
    # sym @ sqrt(n) = 0 exactly, so the smallest eigenvalue is zero by
    # structure; the solver's roundoff (~eps ||B dg{n}||) is dropped
    clustered[0] = 0.0

    # n_i B_ii + sum_{j != i} B_ij n_j is exactly the i-th row sum of B dg{n}
    bulk = b_tilde_rowsum.copy()

    rho = ns.max() / ns.min()
    off_rowsum = b.sum(axis=1) - np.diag(b)
    delta = float(np.diag(b).min() - 2.0 * rho * off_rowsum.max())
    b_min = float(b.sum(axis=1).min())

    return BlockSpectrum(
        eigenvalues_clustered=clustered,
        eigenvalue_bulk=bulk,
        b_min=b_min,
        delta=delta,
        lambda_k1_lower=b_min * float(ns.min()),
        sizes=params.sizes,
    )


def concentration(lap, l_blk):
    """Spectral norm ||L - L_blk|| of a Laplacian's deviation from the expected one.

    The difference is symmetric, so the norm is the largest absolute
    eigenvalue from a dense symmetric eigendecomposition.
    """
    return float(np.abs(np.linalg.eigvalsh(lap - l_blk)).max())


def concentration_stat(params, seeds):
    """``concentration`` of L(seed) for each seed."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    l_blk = expected_laplacian(params)
    return [concentration(laplacian(sample_adjacency(params, seed)), l_blk) for seed in seeds]
