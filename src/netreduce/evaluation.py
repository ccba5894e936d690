"""Frequency-domain evaluation of the full, low-rank, and reduced networks.

Evaluates the closed-loop transfer matrix, its rank-k spectral truncation,
and the structure-preserving reduced form; computes the per-frequency
truncation-error bound and band-wise error reports. All spectral norms are
largest singular values from dense SVDs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NearSingular
from .transfer import log_grid, tf_eval


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


def _g_inverse_diag(model, s):
    return np.array([g.inverse_at(s) for g in model.nodes])


def eval_t_yu(model, s):
    """Closed-loop transfer matrix at ``s`` via (G^-1(s) + f(s) L)^-1.

    Solved by complex LU with partial pivoting applied to the identity;
    raises NearSingular when the reciprocal condition estimate of the loop
    matrix falls below 1e-12.
    """
    n = model.n
    f = tf_eval(model.coupling, s)
    h = np.diag(_g_inverse_diag(model, s)) + f * model.laplacian.astype(complex)
    with warnings.catch_warnings():
        # an exactly singular h is reported by the rcond check below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(h, check_finite=False)
    anorm = np.abs(h).sum(axis=0).max()
    rcond = scipy.linalg.lapack.zgecon(lu, anorm)[0]
    if rcond < 1e-12:
        raise NearSingular(f"loop matrix at s={s}: rcond={rcond:.2e}")
    return scipy.linalg.lu_solve((lu, piv), np.eye(n, dtype=complex), check_finite=False)


def eval_t_k(model, data, s):
    """Rank-k truncation V_k (V_k^T G^-1(s) V_k + f(s) Lambda_k)^-1 V_k^T."""
    v = data.v_k
    f = tf_eval(model.coupling, s)
    ginv = _g_inverse_diag(model, s)
    core = (v.T * ginv) @ v + f * np.diag(data.lambda_k)
    try:
        x = np.linalg.solve(core, v.T.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise NearSingular(f"rank-k core singular at s={s}") from exc
    return v @ x


def eval_t_hat_k(model, reduced, s):
    """Reduced-network transfer matrix P (I + G_hat L_k f)^-1 G_hat P^T.

    Aggregate dynamics are evaluated pointwise; the k x k loop is solved
    and the result broadcast back to node level through the partition.
    """
    f = tf_eval(model.coupling if model is not None else reduced.coupling, s)
    return _t_hat_core(reduced, f, s)[reduced.partition.assignment][:, reduced.partition.assignment]


def _t_hat_core(reduced, f, s):
    k = reduced.k
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
    spectral norm over the grid); sampling estimates never exceed the true
    norm of a stable system. Frequencies whose evaluation failed are
    recorded in ``failures`` and leave gaps in per_freq and in both
    H-infinity estimates.
    """

    per_freq: tuple
    err_tk: tuple
    bounds: tuple
    sup_err: float
    bound_satisfied: bool
    failures: tuple = ()
    err_struct: tuple = ()
    sup_struct: float = 0.0
    hinf_t_yu: float = 0.0
    hinf_t_hat_k: float = 0.0

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


def band_error(model, reduced, data, grid):
    """Frequency-band error report between the full and reduced networks.

    At each grid frequency computes ||T_yu - T_hat_k|| and ||T_yu - T_k||
    (largest singular values), and the truncation bound evaluated with the
    per-frequency constants M1 = ||T_k(jw)||, M2 = max_i |1/g_i(jw)| and
    the (k+1)-th Laplacian eigenvalue. ``bound_satisfied`` is the
    conjunction of ||T_yu - T_k|| <= bound + 1e-7 (1 + bound) over feasible
    frequencies. Per-frequency failures are recorded, not fatal.

    The rank-k norms are taken on k x k matrices: ||T_k|| = ||V_k^T T_k V_k||
    because V_k is orthonormal, and ||T_hat_k|| = ||D X D|| with X the
    reduced core (one representative row and column per block) and
    D = diag(sqrt(n_i)), because the block indicator is Q D with Q
    orthonormal.
    """
    lam_next = data.lambda_next
    v = data.v_k
    reps = np.unique(reduced.partition.assignment, return_index=True)[1]
    root_sizes = np.sqrt(reduced.partition.sizes)
    hinf_yu = hinf_hat = 0.0
    per_freq = []
    err_tk = []
    err_struct = []
    bounds = []
    failures = []
    bound_ok = True
    for w in np.asarray(grid.points, dtype=float):
        s = 1j * w
        try:
            t_yu = eval_t_yu(model, s)
            t_k = eval_t_k(model, data, s)
            t_hat = eval_t_hat_k(model, reduced, s)
        except Exception as exc:  # recorded as a gap
            failures.append((float(w), str(exc)))
            continue
        err = spectral_norm(t_yu - t_hat)
        etk = spectral_norm(t_yu - t_k)
        m1 = spectral_norm(v.T @ t_k @ v)
        m2 = float(np.abs(_g_inverse_diag(model, s)).max())
        f_abs = abs(tf_eval(model.coupling, s))
        bd = None if lam_next is None else theorem1_bound(m1, m2, f_abs, lam_next)
        if bd is not None and etk > bd + 1e-7 * (1.0 + bd):
            bound_ok = False
        per_freq.append((float(w), err))
        err_tk.append(etk)
        err_struct.append(spectral_norm(t_k - t_hat))
        bounds.append(bd)
        hinf_yu = max(hinf_yu, spectral_norm(t_yu))
        core = t_hat[np.ix_(reps, reps)]
        hinf_hat = max(hinf_hat, spectral_norm(root_sizes[:, None] * core * root_sizes))
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

