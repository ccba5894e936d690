"""Frequency-domain evaluation of the full, low-rank, and reduced networks.

Evaluates the closed-loop transfer matrix, its rank-k spectral truncation,
and the structure-preserving reduced form; computes the per-frequency
truncation-error bound and band-wise error reports. Spectral norms are
largest singular values from SVDs: dense n x n ones for the differences
against T_yu and for ||T_yu|| itself, and small ones (k x k or at most
2k x 2k) for every quantity whose rows and columns lie in a known
low-dimensional subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelMismatch, NearSingular, NetreduceError, PoleAtS
from .transfer import log_grid, node_values, tf_eval


@dataclass(frozen=True, eq=False)
class FreqGrid:
    """Logarithmic frequency grid on [omega_min, eta]."""

    eta: float
    omega_min: float
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if not (self.omega_min > 0 and self.eta > self.omega_min):
            raise ValueError("need 0 < omega_min < eta")
        if pts.size < 1 or np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")

    @classmethod
    def default(cls, eta=10.0, omega_min=1e-3, n_points=200):
        return cls(eta=eta, omega_min=omega_min, points=log_grid(omega_min, eta, n_points))


def _g_inverse(nodes, s):
    """G^-1 at the points ``s`` as an (F, n) array, and the (F,) pole mask."""
    num, den, pole = node_values(nodes, s)
    with np.errstate(divide="ignore", invalid="ignore"):
        return den / num, pole


def _g_inverse_at(model, s):
    ginv, pole = _g_inverse(model.nodes, [s])
    if pole[0]:
        raise PoleAtS(f"inverse dynamics has a pole at s={s}")
    return ginv[0]


def eval_t_yu(model, s, ginv=None):
    """Closed-loop transfer matrix at ``s`` via (G^-1(s) + f(s) L)^-1.

    Inverts the loop matrix h with ``np.linalg.inv`` (LU with partial
    pivoting) and raises NearSingular unless its exact 1-norm reciprocal
    condition number 1 / (||h||_1 ||h^-1||_1), read from that inverse, is
    at least 1e-12; an exactly zero pivot reports rcond=0.00e+00, and a
    non-finite h fails the check too. ``ginv`` is the diagonal of G^-1(s)
    when the caller has it already.
    """
    n = model.n
    if ginv is None:
        ginv = _g_inverse_at(model, s)
    f = tf_eval(model.coupling, s)
    h = f * model.laplacian
    h.flat[:: n + 1] += ginv
    try:
        inv = np.linalg.inv(h)
    except np.linalg.LinAlgError as exc:
        raise NearSingular(f"loop matrix at s={s}: rcond=0.00e+00") from exc
    rcond = 1.0 / (np.abs(h).sum(axis=0).max() * np.abs(inv).sum(axis=0).max())
    # a NaN fails the comparison too
    if not rcond >= 1e-12:
        raise NearSingular(f"loop matrix at s={s}: rcond={rcond:.2e}")
    return inv


def eval_t_k(model, data, s, ginv=None):
    """Rank-k truncation V_k (V_k^T G^-1(s) V_k + f(s) Lambda_k)^-1 V_k^T.

    ``ginv`` is the diagonal of G^-1(s) when the caller has it already.
    """
    v = data.v_k
    if ginv is None:
        ginv = _g_inverse_at(model, s)
    f = tf_eval(model.coupling, s)
    core = (v.T * ginv) @ v + f * np.diag(data.lambda_k)
    try:
        x = np.linalg.solve(core, v.T.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise NearSingular(f"rank-k core singular at s={s}") from exc
    return v @ x


def eval_t_hat_k(model, reduced, s, ghat=None):
    """Reduced-network transfer matrix P (I + G_hat L_k f)^-1 G_hat P^T.

    Aggregate dynamics are evaluated pointwise unless ``ghat``, their values
    at ``s``, is given; the k x k loop is solved and the result broadcast
    back to node level through the partition.
    """
    f = tf_eval(model.coupling if model is not None else reduced.coupling, s)
    assign = reduced.partition.assignment
    return _t_hat_core(reduced, f, s, ghat)[assign][:, assign]


def _t_hat_core(reduced, f, s, ghat=None):
    k = reduced.k
    if ghat is None:
        ghat = np.array([agg(s) for agg in reduced.aggregates])
    loop = np.eye(k, dtype=complex) + (ghat[:, None] * reduced.l_k) * f
    rhs = np.diag(ghat)
    try:
        return np.linalg.solve(loop, rhs)
    except np.linalg.LinAlgError as exc:
        raise NearSingular(f"reduced loop singular at s={s}") from exc


def theorem1_bound(m1, m2, f_abs, lambda_k1):
    """Truncation-error bound (m1 m2 + 1)^2 / (f_abs lambda_k1 - m2 - m1 m2^2).

    Returns None (infeasible) when the denominator is not strictly positive,
    i.e. when f_abs * lambda_k1 <= m2 + m1 * m2^2.
    """
    if min(m1, m2, f_abs, lambda_k1) < 0:
        raise ValueError("all bound inputs must be nonnegative")
    denom = f_abs * lambda_k1 - m2 - m1 * m2 * m2
    if denom <= 0:
        return None
    return (m1 * m2 + 1.0) ** 2 / denom


def spectral_norm(m):
    """Largest singular value via dense SVD."""
    return float(np.linalg.svd(m, compute_uv=False)[0])


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """Per-frequency approximation errors over a band.

    ``per_freq`` holds (omega, ||T_yu - T_hat_k||); ``err_tk`` the matching
    ||T_yu - T_k|| values; ``err_struct`` the structure-preservation gaps
    ||T_k - T_hat_k|| (zero up to roundoff on block-ideal models);
    ``bounds`` the per-frequency truncation bound (None where its
    precondition fails). ``hinf_t_yu`` and ``hinf_t_hat_k`` are grid
    estimates of the H-infinity norms of T_yu and T_hat_k (the largest
    spectral norm over the grid), or None when they were not requested;
    sampling estimates never exceed the true norm of a stable system.
    Frequencies whose evaluation failed are recorded in ``failures`` and
    leave gaps in per_freq and in both H-infinity estimates.
    """

    per_freq: tuple
    err_tk: tuple
    bounds: tuple
    sup_err: float
    bound_satisfied: bool
    failures: tuple = ()
    err_struct: tuple = ()
    sup_struct: float = 0.0
    hinf_t_yu: float | None = None
    hinf_t_hat_k: float | None = None

    def __post_init__(self):
        if self.per_freq:
            sup = max(err for _, err in self.per_freq)
            if abs(sup - self.sup_err) > 1e-12 * (1.0 + sup):
                raise ValueError("sup_err does not match per-frequency errors")

    def rows(self):
        """Rows (omega, err_yu_hatk, err_yu_tk, theorem1_bound, feasible)."""
        out = []
        for (w, err), etk, bd in zip(self.per_freq, self.err_tk, self.bounds):
            out.append((w, err, etk, np.nan if bd is None else bd, 0 if bd is None else 1))
        return out


def _check_shapes(model, reduced, data):
    sizes = {"model": model.n, "reduced": reduced.n, "eigendata": data.v_k.shape[0]}
    if len(set(sizes.values())) > 1:
        raise ModelMismatch(f"node counts differ: {sizes}")
    if reduced.k != data.k:
        raise ModelMismatch(f"reduced model has k={reduced.k}, eigendata k={data.k}")


def band_error(model, reduced, data, grid, hinf=False):
    """Frequency-band error report between the full and reduced networks.

    At each grid frequency computes ||T_yu - T_hat_k|| and ||T_yu - T_k||
    (largest singular values), and the truncation bound evaluated with the
    per-frequency constants M1 = ||T_k(jw)||, M2 = max_i |1/g_i(jw)| and
    the (k+1)-th Laplacian eigenvalue. ``bound_satisfied`` is the
    conjunction of ||T_yu - T_k|| <= bound + 1e-7 (1 + bound) over feasible
    frequencies. Frequencies where the loop is near singular or some node
    or aggregate has a pole are recorded as failures, not fatal; inputs of
    different networks raise ModelMismatch.

    The two differences against T_yu take dense n x n SVDs. The other norms
    are exact but small: ||T_k|| = ||V_k^T T_k V_k|| because V_k is
    orthonormal; ||T_hat_k|| = ||D C D|| with C the reduced core (one
    representative row and column per block) and D = diag(sqrt(n_i)),
    because the block indicator P is an orthonormal matrix times D; and
    ||T_k - T_hat_k|| = ||Q^T (T_k - T_hat_k) Q|| with Q an orthonormal
    basis of [V_k | P], which holds the rows and columns of both terms.
    ``hinf_t_yu`` and ``hinf_t_hat_k`` are filled only when ``hinf`` is
    true: ||T_yu|| is a third dense SVD per frequency.
    """
    _check_shapes(model, reduced, data)
    lam_next = data.lambda_next
    v = data.v_k
    assign = reduced.partition.assignment
    reps = np.unique(assign, return_index=True)[1]
    root_sizes = np.sqrt(reduced.partition.sizes)
    p = np.eye(reduced.k)[assign]
    q = np.linalg.qr(np.hstack([v, p]))[0]
    q_v, q_p = q.T @ v, q.T @ p
    points = np.asarray(grid.points, dtype=float)
    ginv, node_pole = _g_inverse(model.nodes, 1j * points)
    m2 = np.abs(ginv).max(axis=1)
    ghat = np.empty((points.size, reduced.k), dtype=complex)
    agg_pole = np.zeros(points.size, dtype=bool)
    for j, agg in enumerate(reduced.aggregates):
        ghat[:, j], pole = agg.over(1j * points)
        agg_pole |= pole
    hinf_yu = hinf_hat = 0.0 if hinf else None
    per_freq = []
    err_tk = []
    err_struct = []
    bounds = []
    failures = []
    bound_ok = True
    for i, w in enumerate(points):
        s = 1j * w
        try:
            if node_pole[i]:
                raise PoleAtS(f"inverse dynamics has a pole at s={s}")
            if agg_pole[i]:
                raise PoleAtS(f"aggregate has a pole at s={s}")
            t_yu = eval_t_yu(model, s, ginv[i])
            t_k = eval_t_k(model, data, s, ginv[i])
            t_hat = eval_t_hat_k(model, reduced, s, ghat[i])
        except NetreduceError as exc:  # recorded as a gap
            failures.append((float(w), str(exc)))
            continue
        err = spectral_norm(t_yu - t_hat)
        etk = spectral_norm(t_yu - t_k)
        x = v.T @ t_k @ v
        c = t_hat[np.ix_(reps, reps)]
        m1 = spectral_norm(x)
        f_abs = abs(tf_eval(model.coupling, s))
        bd = None if lam_next is None else theorem1_bound(m1, float(m2[i]), f_abs, lam_next)
        if bd is not None and etk > bd + 1e-7 * (1.0 + bd):
            bound_ok = False
        per_freq.append((float(w), err))
        err_tk.append(etk)
        err_struct.append(spectral_norm(q_v @ x @ q_v.T - q_p @ c @ q_p.T))
        bounds.append(bd)
        if hinf:
            hinf_yu = max(hinf_yu, spectral_norm(t_yu))
            hinf_hat = max(hinf_hat, spectral_norm(root_sizes[:, None] * c * root_sizes))
    sup_err = max((e for _, e in per_freq), default=0.0)
    return ErrorReport(
        per_freq=tuple(per_freq),
        err_tk=tuple(err_tk),
        bounds=tuple(bounds),
        sup_err=sup_err,
        bound_satisfied=bound_ok,
        failures=tuple(failures),
        err_struct=tuple(err_struct),
        sup_struct=max(err_struct, default=0.0),
        hinf_t_yu=hinf_yu,
        hinf_t_hat_k=hinf_hat,
    )
