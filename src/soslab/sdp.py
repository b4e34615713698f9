"""Operator-splitting solver for the small dense moment-matrix programs.

The program is: maximize c.y / scale subject to A y = b and M(y) PSD, where
M(y) is the moment matrix read through the program's entry map. The solver
is ADMM on the splitting Z = M(y), Z PSD, with scaled dual U:

  y-step   minimize -c.y + (rho/2) ||M(y) - Z + U||_F^2  s.t.  A y = b.
           M(y) is linear with disjoint cell supports per variable, so the
           quadratic is diagonal (weight m_v = cell count of variable v) and
           the step is one matrix-vector product with the inverse of
           G = A diag(1/m) A^T, formed once per solve (the eigen
           pseudo-inverse when the equalities are linearly dependent).
  Z-step   Z = PSD projection of M(y) + U, recomposed from the positive
           eigenpairs only (near the optimum there are a few).
  U-step   U += M(y) - Z.

Residuals (checked every iteration against options.tol):

  eq_res   = max |A y - b|               (machine-level: y is projected)
  psd_gap  = ||M(y) - Z||_F              (bounds -lambda_min of M(y))
  primal_residual = eq_res + psd_gap
  dual_residual   = rho * ||Z - Z_prev||_F

The iterate is Optimal when primal and dual residuals are both at most
tol * (1 + |value|) and psd_gap <= tol; the returned matrix is M(y), which
satisfies the equalities exactly and has lambda_min >= -psd_gap.

Step-size adaptation: every 100 iterations the penalty rho is doubled
(halved) when the primal residual exceeds 10x the dual (or vice versa),
clamped to [1e-4, 1e4], with the scaled dual U rescaled accordingly. All of
this is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import EigFailure
from .sos import SosProgram

if TYPE_CHECKING:
    import scipy.sparse

OPTIMAL = "optimal"
MAX_ITER_REACHED = "max-iter-reached"

_RHO_MIN, _RHO_MAX = 1e-4, 1e4
_ADAPT_EVERY = 100
_ADAPT_RATIO = 10.0


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-7
    max_iter: int = 100_000
    step: float = 1.0

    def validate(self) -> None:
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.step <= 0:
            raise ValueError("step must be > 0")


@dataclass
class SdpSolution:
    status: str
    value: float
    matrix: np.ndarray
    primal_residual: float
    dual_residual: float
    iterations: int


# LAPACK's MRRR eigensolver (what scipy.linalg.eigh runs for a value range),
# called directly: eigh re-validates its arguments and re-queries the
# workspace on every call, over a third of its time at dim 17. scipy is
# imported by the first solve, not with the package: a process that only
# scans or certifies never loads it (about 30 MiB of resident memory).
@lru_cache(maxsize=None)
def _syevr(n: int):
    """LAPACK syevr and its workspace sizes (lwork, liwork) at dimension n."""
    import scipy.linalg

    syevr, syevr_lwork = scipy.linalg.get_lapack_funcs(("syevr", "syevr_lwork"), dtype=np.float64)
    lwork, liwork, _ = syevr_lwork(n, lower=1)
    return syevr, int(lwork), int(liwork)


def project_psd(S: np.ndarray) -> np.ndarray:
    """Spectral projection onto the PSD cone (symmetrizes defensively).

    Only the eigenpairs with positive eigenvalues are computed:
    Z = V+ diag(w+) V+^T.
    """
    S = np.asarray(S, dtype=np.float64)
    S = (S + S.T) / 2.0
    if not np.isfinite(S).all():
        raise EigFailure("symmetric eigendecomposition failed: non-finite entries")
    syevr, lwork, liwork = _syevr(len(S))
    w, V, k, _, info = syevr(
        S, compute_v=1, range="V", lower=1, vl=0.0, vu=np.inf, lwork=lwork, liwork=liwork
    )
    if info != 0:
        raise EigFailure(f"symmetric eigendecomposition failed: LAPACK info {info}")
    V = V[:, :k]
    P = (V * w[:k]) @ V.T
    return (P + P.T) / 2.0


# Cholesky pivots below this fraction of the largest one mark G as rank
# deficient: its explicit inverse would then amplify rounding without bound.
_PIVOT_RATIO = 1e-6


def _equality_inverse(A: scipy.sparse.csr_matrix, inv_m: np.ndarray) -> np.ndarray:
    """Inverse of G = A diag(1/m) A^T, or its eigen pseudo-inverse when the
    equality rows are linearly dependent (then A y = b is still met exactly
    for consistent b)."""
    import scipy.linalg
    import scipy.sparse

    G = (A @ scipy.sparse.diags(inv_m) @ A.T).toarray()
    try:
        cho = scipy.linalg.cho_factor(G)
        pivots = np.diag(cho[0])
        if pivots.min() > _PIVOT_RATIO * pivots.max():
            return scipy.linalg.cho_solve(cho, np.eye(len(G)))
    except scipy.linalg.LinAlgError:
        pass
    w, Q = np.linalg.eigh(G)
    cut = max(w.max(), 1.0) * 1e-12
    inv_w = np.where(w > cut, 1.0 / np.maximum(w, cut), 0.0)
    return (Q * inv_w) @ Q.T


def solve(program: SosProgram, options: SolverOptions | None = None) -> SdpSolution:
    """Run the splitting iteration on an assembled program."""
    options = options or SolverOptions()
    options.validate()
    entry = program.entry_map
    entry_flat = entry.ravel()
    V = program.var_count
    m = np.bincount(entry_flat, minlength=V).astype(np.float64)
    # Every variable appears in the matrix, so m >= 1 (program invariant).
    inv_m = 1.0 / m
    c = program.objective_vector()
    A, b = program.constraint_arrays()
    AT = A.T.tocsr()
    G_inv = _equality_inverse(A, inv_m)

    rho = options.step
    Z = np.zeros_like(entry, dtype=np.float64)
    U = np.zeros_like(Z)

    def y_step(rho: float) -> np.ndarray:
        w = np.bincount(entry_flat, weights=(Z - U).ravel(), minlength=V)
        q = rho * w + c
        lam = G_inv @ (A @ (q * inv_m) - rho * b)
        return (q - AT @ lam) * inv_m / rho

    y = np.zeros(V)
    primal = dual = np.inf
    value = 0.0
    it = 0
    for it in range(1, options.max_iter + 1):
        y = y_step(rho)
        My = y[entry]
        Z_prev = Z
        Z = project_psd(My + U)
        R = My - Z
        U = U + R
        psd_gap = float(np.linalg.norm(R))
        eq_res = float(np.max(np.abs(A @ y - b))) if b.size else 0.0
        primal = eq_res + psd_gap
        dual = rho * float(np.linalg.norm(Z - Z_prev))
        value = float(c @ y) / program.scale
        bar = options.tol * (1.0 + abs(value))
        if primal <= bar and dual <= bar and psd_gap <= options.tol:
            return SdpSolution(
                status=OPTIMAL,
                value=value,
                matrix=y[entry],
                primal_residual=primal,
                dual_residual=dual,
                iterations=it,
            )
        if it % _ADAPT_EVERY == 0:
            new_rho = rho
            if primal > _ADAPT_RATIO * dual:
                new_rho = min(rho * 2.0, _RHO_MAX)
            elif dual > _ADAPT_RATIO * primal:
                new_rho = max(rho / 2.0, _RHO_MIN)
            if new_rho != rho:
                U = U * (rho / new_rho)
                rho = new_rho
    return SdpSolution(
        status=MAX_ITER_REACHED,
        value=value,
        matrix=y[entry],
        primal_residual=primal,
        dual_residual=dual,
        iterations=it,
    )
