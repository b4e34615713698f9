"""Operator-splitting solver for the small dense moment-matrix programs.

The program is: maximize c.y / scale subject to A y = b and M(y) PSD, where
M(y) is the moment matrix read through the program's entry map. The solver
is ADMM on the splitting Z = M(y), Z PSD, with scaled dual U:

  y-step   minimize -c.y + (rho/2) ||M(y) - Z + U||_F^2  s.t.  A y = b.
           M(y) is linear with disjoint cell supports per variable, so the
           quadratic is diagonal (weight m_v = cell count of variable v) and
           the step is one symmetric matrix-vector product (BLAS symv, which
           reads one triangle) with the inverse of G = A diag(1/m) A^T (the
           eigen pseudo-inverse when the equalities are linearly dependent).
  Z-step   Z = PSD projection of M(y) + U, recomposed from the positive
           eigenpairs only (near the optimum there are a few) as W W^T with
           W = V+ sqrt(w+), a BLAS syrk: Z is exactly symmetric.
  U-step   U += M(y) - Z.

The set-up (1/m, the CSR triplets of A and the inverse of G) reads only
the program's ``Constraints``, the entry map and A of its shape, never c,
so it is computed once per ``Constraints`` object and shared, read-only,
by every later solve with the same one: an LRU cache of 8, keyed on the
object's identity. Assembled programs of one shape share one object; a
``Constraints`` built by hand gets its own set-up, even when it equals an
assembled one in value. The inverse of G, the set-up's one large array
(1352 x 1352 at d=20, l=2), is computed in the buffer that holds G, so the
set-up's peak memory is about what it keeps. The loop uses no
scipy.sparse: A y and A^T lambda are np.bincount sums over the triplets, in
the same order as scipy's CSR product, so bit-identical to it. A program
without equalities skips the projection: y = q / (rho m).

Residuals:

  eq_res   = max |A y - b|               (machine-level: y is projected)
  psd_gap  = ||M(y) - Z||_F              (bounds -lambda_min of M(y))
  primal_residual = eq_res + psd_gap
  dual_residual   = rho * ||Z - Z_prev||_F

psd_gap (and the value) are computed every iteration; the other three
only where something reads them: when psd_gap <= tol (the stop test cannot
pass otherwise), on the rho-adaptation iterations, and on the last one. So
every decision and every returned field is what computing all of them on
every iteration would give. The iterate is Optimal when primal and dual
residuals are both at most tol * (1 + |value|) and psd_gap <= tol; the
returned matrix is M(y), which satisfies the equalities exactly and has
lambda_min >= -psd_gap.

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
from .sos import Constraints, SosProgram

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
        # A NaN fails every comparison, so the stop test would never pass;
        # an infinite tol passes it at the first iterate.
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0 < self.step < np.inf:
            raise ValueError(f"step must be finite and > 0, got {self.step}")


@dataclass
class SdpSolution:
    """The last iterate and what the iteration did to reach it: the number
    of iterations and of penalty changes, and the final residuals."""

    status: str
    value: float
    matrix: np.ndarray
    primal_residual: float
    dual_residual: float
    iterations: int
    rho_changes: int
    eq_res: float
    psd_gap: float


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


@lru_cache(maxsize=None)
def _symv():
    """BLAS dsymv: y = alpha * A x, reading one triangle of a symmetric A."""
    import scipy.linalg.blas

    return scipy.linalg.blas.dsymv


def project_psd(S: np.ndarray) -> np.ndarray:
    """Spectral projection onto the PSD cone (symmetrizes defensively).

    Only the eigenpairs with positive eigenvalues are computed, and the
    result is W W^T with W = V+ diag(sqrt(w+)): numpy runs that product as
    a BLAS syrk, so it is exactly symmetric.
    """
    S = np.asarray(S, dtype=np.float64)
    S = (S + S.T) / 2.0
    if not np.isfinite(S).all():
        raise EigFailure("symmetric eigendecomposition failed: non-finite entries")
    syevr, lwork, liwork = _syevr(len(S))
    # S is exactly symmetric, so S.T is the same matrix in Fortran order,
    # which LAPACK may overwrite without a copy.
    w, V, k, _, info = syevr(
        S.T, compute_v=1, range="V", lower=1, vl=0.0, vu=np.inf, lwork=lwork, liwork=liwork,
        overwrite_a=1,
    )
    if info != 0:
        raise EigFailure(f"symmetric eigendecomposition failed: LAPACK info {info}")
    W = V[:, :k] * np.sqrt(w[:k])
    return W @ W.T


# Cholesky pivots below this fraction of the largest one mark G as rank
# deficient: its explicit inverse would then amplify rounding without bound.
_PIVOT_RATIO = 1e-6


def _equality_inverse(A: scipy.sparse.csr_matrix, inv_m: np.ndarray) -> np.ndarray:
    """Inverse of G = A diag(1/m) A^T, symmetric and in Fortran order, or
    its eigen pseudo-inverse when the equality rows are linearly dependent
    (then A y = b is still met exactly for consistent b).

    G is built once, in C order; being symmetric, that buffer is the same
    matrix in Fortran order, which LAPACK overwrites without a copy. potrf
    writes the Cholesky factor over its lower triangle, potri the inverse
    over the factor, and the upper triangle is mirrored from the lower one.
    The rank-deficient path rebuilds G in the same buffer and holds one
    more n x n array, the eigenvectors.
    """
    import scipy.linalg
    import scipy.sparse
    from scipy.linalg.lapack import dpotrf, dpotri

    if A.shape[0] == 0:
        return np.zeros((0, 0))
    G_sparse = A @ scipy.sparse.diags(inv_m) @ A.T
    G = G_sparse.toarray()
    # clean=0: potrf leaves the upper triangle as it is, no pass over it.
    L, info = dpotrf(G.T, lower=1, clean=0, overwrite_a=1)
    pivots = np.diagonal(L)
    if info == 0 and pivots.min() > _PIVOT_RATIO * pivots.max():
        inv, info = dpotri(L, lower=1, overwrite_c=1)
        if info == 0:
            for j in range(len(inv) - 1):
                inv[j, j + 1:] = inv[j + 1:, j]
            return inv
    # csr_todense adds into its output, so clear the factor first.
    G.fill(0.0)
    G_sparse.toarray(out=G)
    w, Q = scipy.linalg.eigh(G.T, overwrite_a=True, check_finite=False)
    cut = max(w.max(), 1.0) * 1e-12
    # Q diag(1/w) Q^T as P P^T with P = Q diag(1/sqrt(w)), scaled in place.
    Q *= np.where(w > cut, 1.0 / np.sqrt(np.maximum(w, cut)), 0.0)
    np.matmul(Q, Q.T, out=G)
    return G.T


@dataclass(frozen=True)
class _Setup:
    """What the iteration needs of one ``Constraints``; all arrays read-only.

    A is kept as its CSR triplets in CSR order: ``np.bincount`` adds the
    terms of each sum in that order from 0.0, as scipy's CSR product does,
    so the products below are bit-identical to scipy's without its per-call
    overhead.
    """

    inv_m: np.ndarray  # 1 / (cell count) per variable
    rows: np.ndarray  # row of each stored entry of A
    cols: np.ndarray  # column of each stored entry of A
    data: np.ndarray  # value of each stored entry of A
    G_inv: np.ndarray  # symmetric, Fortran order: symv reads it without a copy

    def a_mul(self, x: np.ndarray) -> np.ndarray:
        """A @ x (A has len(G_inv) rows)."""
        return np.bincount(self.rows, weights=self.data * x[self.cols], minlength=len(self.G_inv))

    def at_mul(self, lam: np.ndarray) -> np.ndarray:
        """A^T @ lam."""
        return np.bincount(self.cols, weights=self.data * lam[self.rows], minlength=len(self.inv_m))


# The level-2 set-up at d=16 holds a 698 x 698 inverse (3.9 MB); the gap
# experiment uses three shapes.
_SETUPS_CACHED = 8


@lru_cache(maxsize=_SETUPS_CACHED)
def _setup(constraints: Constraints) -> _Setup:
    A = constraints.A
    m = np.bincount(constraints.entry_map.ravel(), minlength=A.shape[1]).astype(np.float64)
    # Every variable appears in the matrix, so m >= 1 (program invariant).
    inv_m = 1.0 / m
    rows = np.repeat(np.arange(A.shape[0], dtype=np.intp), np.diff(A.indptr))
    cols = A.indices.astype(np.intp)
    G_inv = _equality_inverse(A, inv_m)
    for arr in (inv_m, rows, cols, G_inv):
        arr.flags.writeable = False
    return _Setup(inv_m=inv_m, rows=rows, cols=cols, data=A.data, G_inv=G_inv)


def solve(program: SosProgram, options: SolverOptions | None = None) -> SdpSolution:
    """Run the splitting iteration on an assembled program."""
    options = options or SolverOptions()
    options.validate()
    setup = _setup(program.constraints)
    entry, b, c = program.entry_map, program.constraints.b, program.c
    inv_m, G_inv = setup.inv_m, setup.G_inv
    entry_flat = entry.ravel()
    symv = _symv()
    V = program.var_count

    rho = options.step
    rho_changes = 0
    Z = np.zeros(entry.shape)
    # Buffers updated in place: U, M(y), M(y) - Z, and a scratch matrix.
    U = np.zeros_like(Z)
    My = np.empty_like(Z)
    R = np.empty_like(Z)
    T = np.empty_like(Z)

    def y_step(rho: float) -> np.ndarray:
        w = np.bincount(entry_flat, weights=np.subtract(Z, U, out=T).ravel(), minlength=V)
        q = rho * w + c
        if b.size:
            lam = symv(1.0, G_inv, setup.a_mul(q * inv_m) - rho * b, lower=1)
            q = q - setup.at_mul(lam)
        return q * inv_m / rho

    primal = dual = eq_res = psd_gap = np.inf
    value = 0.0
    it = 0
    status = MAX_ITER_REACHED
    for it in range(1, options.max_iter + 1):
        y = y_step(rho)
        np.take(y, entry, out=My)
        Z_prev = Z
        Z = project_psd(np.add(My, U, out=T))
        np.subtract(My, Z, out=R)
        U += R
        psd_gap = float(np.linalg.norm(R))
        value = float(c @ y) / program.scale
        adapt = it % _ADAPT_EVERY == 0
        # The other residuals are read by the stop test, which cannot pass
        # while psd_gap > tol, by the rho adaptation and by the return.
        if psd_gap > options.tol and not adapt and it < options.max_iter:
            continue
        eq_res = float(np.max(np.abs(setup.a_mul(y) - b))) if b.size else 0.0
        primal = eq_res + psd_gap
        dual = rho * float(np.linalg.norm(np.subtract(Z, Z_prev, out=T)))
        bar = options.tol * (1.0 + abs(value))
        if primal <= bar and dual <= bar and psd_gap <= options.tol:
            status = OPTIMAL
            break
        if adapt:
            new_rho = rho
            if primal > _ADAPT_RATIO * dual:
                new_rho = min(rho * 2.0, _RHO_MAX)
            elif dual > _ADAPT_RATIO * primal:
                new_rho = max(rho / 2.0, _RHO_MIN)
            if new_rho != rho:
                U *= rho / new_rho
                rho = new_rho
                rho_changes += 1
    return SdpSolution(
        status=status,
        value=value,
        matrix=My,
        primal_residual=primal,
        dual_residual=dual,
        iterations=it,
        rho_changes=rho_changes,
        eq_res=eq_res,
        psd_gap=psd_gap,
    )
