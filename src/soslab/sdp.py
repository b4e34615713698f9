"""Operator-splitting solver for the small dense moment-matrix programs.

The program is: maximize c.y / scale subject to A y = b and M(y) PSD, where
M(y) is the moment matrix read through the program's entry map. The solver
is ADMM on the splitting Z = M(y), Z PSD, with scaled dual U:

  y-step   minimize -c.y + (rho/2) ||M(y) - Z + U||_F^2  s.t.  A y = b.
           M(y) is linear with disjoint cell supports per variable, so the
           quadratic is diagonal (weight m_v = cell count of variable v):
           its free minimizer is y0 = (mean over v's cells of Z - U)
           + c / (rho m), and the step is y0's projection onto A y = b in
           the diag(m) metric, y = y0 - diag(1/m) A^T G^+ (A y0 - b). G^+
           is the inverse of G = A diag(1/m) A^T (the pseudo-inverse when
           the equalities are linearly dependent), applied as two sparse
           products, Up (Down x): relabelling the vertices permutes the
           equalities among themselves, so the inverse is fixed by a few
           coefficients per pair of row types and intersection size
           (``_equality_orbits``).
  Z-step   Z = PSD projection of M(y) + U, recomposed from the eigenpairs
           above the cut tau = n eps ||M(y) + U||_F only, as W W^T with
           W = V+ sqrt(w+), a BLAS syrk: Z is exactly symmetric. An
           eigenpair at or below tau moves Z by at most tau, LAPACK's own
           backward error; the known kernel of the moment matrix leaves
           late iterates with such rounding-level positive eigenvalues
           beside the real ones. The eigensolver is chosen by the previous
           iteration's count k above the cut (the first counts as k = n):
           above 12, LAPACK syevd computes the full spectrum; else syevr
           computes the range (tau, inf) only, at a cost that grows with
           the eigenpairs it finds (early and block-model iterates keep
           many positive eigenvalues, late planted ones a few). Both run
           with LAPACK's minimum workspace. The packed M(y) + U is
           unpacked into both triangles of the loop's one n x n scratch
           buffer, so it is exactly symmetric; LAPACK works in that buffer
           and overwrites it, and the projection is written back into it.
           Its Frobenius norm, the one pass over it before LAPACK's, also
           rejects a NaN or an infinity. Z is packed from it into the
           buffer of the Z before last.
  U-step   U += M(y) - Z.

Every matrix of the loop (U, Z and the previous Z, M(y), the plain state
and the residuals) is kept packed, as a vector of n(n+1)/2 entries: the
diagonal first, then the strict upper triangle row by row (``_packing``).
One take packs a matrix and one take unpacks it; a packed vector v has
Frobenius norm sqrt(v.v + v[n:].v[n:]), each off-diagonal entry counted
twice. Only the projection's input and output and the returned M(y) are
n x n, all in one buffer.

This is Douglas-Rachford splitting on the projection's input v = M(y) + U:
Z = PSD projection of v, U = v - Z, the y-step reads Z - U, and the plain
next state is F = M(y) + U. The loop accelerates it by Anderson mixing
(type II; Walker and Ni, SIAM J. Numer. Anal. 49, 2011) with a safeguard,
as SCS does (Zhang, O'Donoghue and Boyd, SIAM J. Optim. 30, 2020). With
g = F - v the fixed-point residual, it keeps the last ``_AA_MEMORY``
differences of F and of g (the packed vectors, with their plain inner
product: an off-diagonal entry counts once), solves the small
least-squares problem min |g - dG gamma|^2 with a Tikhonov term of
``_AA_REG`` times each difference's squared norm, and projects the mixed
state F - (dV + dG) gamma = F - dF gamma instead of F; then U = v - Z.
These steps are plain (they project F and update U += M(y) - Z):

  - the first step, and the first after each history reset;
  - every step whose residuals may be read: the step after one with
    psd_gap <= TOL, every 100th step and the max_iter step.

The stop test and the rho adaptation read only plain steps: rho ||Z -
Z_prev|| is a dual residual only when Z came from a plain Z-step. The
safeguard: when the residual at a mixed state exceeds the residual before
the mix, the mix is dropped, the plain state it replaced is projected
instead (a restart, which reads no residual either) and the history is
cleared. A rho change clears it too, since v scales with 1/rho. With
``_AA_MEMORY = 0`` every step is plain and the loop is plain ADMM, bit for
bit. The history of differences is kept in single precision: at side 137
(level 2, d=16) the mixing state takes about 0.65 MiB.

The set-up (1/m, the packed entry map, the cell-mean matrix on packed
vectors, -diag(1/m) A^T, Down and Up, the matrices CSR) reads only the
program's ``Constraints``, never c, so it lives on that object:
cached properties computed by its first solve and read-only, shared by
every later solve of the same object. ``sos`` builds one ``Constraints``
per shape and shares it, so every program of a shape shares one set-up.
Down and Up are read off one small quotient system per row type, on the
orbits of the relabellings that fix that type's representative row, with
one path for independent and dependent equalities: the set-up forms no
n x n array and keeps only sparse arrays (Down and Up: 21k nonzeros at
d=20, l=2), and its peak is under 1.5 times what it keeps.

The y-step allocates no array. Its five sparse products (the cell means
of Z - U, A y0, Down, Up and -diag(1/m) A^T lambda) call scipy's CSR
kernel directly, without the public product's per-call checks; the
kernel adds each row's products, in CSR order, to the entry already in
its output buffer. So y is seeded with c / (rho m) (recomputed when rho
changes) and takes the cell means, the buffer of A y0 - b is seeded with
-b, the outputs of Down and Up are zeroed, and the last product adds the
correction into y.

Residuals:

  eq_res   = max |A y - b|               (machine-level: y is projected)
  psd_gap  = ||M(y) - Z||_F              (bounds -lambda_min of M(y))
                                         (both norms on packed vectors)
  primal_residual = eq_res + psd_gap
  dual_residual   = rho * ||Z - Z_prev||_F

psd_gap is computed every iteration; the other three and the value only
on plain steps where something reads them: when psd_gap <= TOL (the stop
test cannot pass otherwise), on the rho-adaptation iterations, and on the
last one. So every decision and every returned field is what computing
all of them on every plain step would give. The iterate is Optimal when
primal and dual residuals are both at most TOL * (1 + |value|) and
psd_gap <= TOL, with the constant TOL = 1e-7; the returned matrix is M(y),
which satisfies the equalities exactly and has lambda_min >= -psd_gap. A
solve that has not stopped after ``SolverOptions.max_iter`` iterations,
the one setting, returns its last iterate as max-iter-reached.

Step-size adaptation: rho starts at 1; every 100 iterations it is doubled
(halved) when the primal residual exceeds 10x the dual (or vice versa),
clamped to [1e-4, 1e4], with the scaled dual U rescaled accordingly. All of
this is deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import TYPE_CHECKING

import numpy as np

from .errors import EigFailure, InvalidParams
from .subsets import _picks, _read_only, rank, var_count

if TYPE_CHECKING:
    import scipy.sparse

    from .sos import SosProgram

OPTIMAL = "optimal"
MAX_ITER_REACHED = "max-iter-reached"

# The stop test's tolerance; the penalty rho starts at _RHO_START and adapts
# within [_RHO_MIN, _RHO_MAX].
TOL = 1e-7
_RHO_START, _RHO_MIN, _RHO_MAX = 1.0, 1e-4, 1e4
_ADAPT_EVERY = 100
_ADAPT_RATIO = 10.0
# Anderson acceleration: the differences the mixing step reads (0 runs the
# plain iteration), and the weight of its least-squares problem's Tikhonov
# term, relative to each difference's squared norm.
_AA_MEMORY = 5
_AA_REG = 1e-10


@dataclass(frozen=True)
class SolverOptions:
    """The iteration budget: a solve that has not met the stop test after
    ``max_iter`` iterations returns its last iterate as max-iter-reached."""

    max_iter: int = 100_000

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise InvalidParams(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True, eq=False)
class SdpSolution:
    """The last iterate and what the iteration did to reach it: the number
    of iterations, of penalty changes, of Anderson-mixed steps
    (``accelerated``) and of mixes the safeguard dropped (``rejected``),
    and the final residuals."""

    status: str
    value: float
    matrix: np.ndarray
    primal_residual: float
    dual_residual: float
    iterations: int
    rho_changes: int
    eq_res: float
    psd_gap: float
    accelerated: int
    rejected: int


# The LAPACK eigensolvers, called directly: eigh re-validates its arguments
# and re-queries the workspace on every call, over a third of its time at
# dim 17. scipy is imported by the first solve, not with the package: a
# process that only scans or certifies never loads it (about 30 MiB of
# resident memory).
@lru_cache(maxsize=None)
def _eigensolver(name: str):
    """LAPACK ``name``: syevr (MRRR, here the eigenpairs of a value range)
    or syevd (divide and conquer, the full spectrum). Called without
    lwork/liwork, the wrappers pass LAPACK's documented minimum workspace:
    26n and 10n for syevr, 1 + 6n + 2n^2 and 3 + 5n for syevd. syevd's
    query returns the same sizes; syevr's returns more (4521 against 3562
    at n = 137), and that larger workspace is slower at these sizes
    (BENCH_admm_psd_cut.json)."""
    import scipy.linalg

    return scipy.linalg.get_lapack_funcs(name, dtype=np.float64)


# Above this many eigenvalues over the cut the full syevd is faster than
# syevr on the range: syevr's cost grows with the eigenpairs it computes,
# syevd's does not. On ADMM iterates syevd wins from k = 6 at n = 17, from
# k = 17-19 at n = 137 (k = 13-16 was 4 of 1,538 projections there) and by
# 2.4-4x at n = 79, k >= 32 (BENCH_admm_psd_cut.json); k > 5 is rare at
# n = 17.
_FULL_ABOVE = 12

_EPS = float(np.finfo(np.float64).eps)


def project_psd(X: np.ndarray, *, out: np.ndarray | None = None, positive: int):
    """Spectral projection onto the PSD cone, and its count of eigenvalues
    above the cut: ``(P, k)``.

    X is the loop's M(y) + U, exactly symmetric float64 of side n >= 3;
    LAPACK overwrites it. The result is W W^T with W = V+ diag(sqrt(w+))
    over the eigenpairs with eigenvalues above the cut tau = n eps ||X||_F:
    numpy runs that product as a BLAS syrk, so it is exactly symmetric. It
    is written into ``out`` (C-contiguous float64 n x n, which may be X
    itself) when given, else into a fresh array. An
    eigenpair at or below tau moves the projection by at most tau in
    2-norm, the size of LAPACK's own backward error; ADMM iterates of a
    program whose moment matrix has a kernel carry such rounding-level
    positive eigenvalues, which the cut neither computes nor adds back.

    ``positive`` is the count above tau of the previous projection in a
    sequence of nearby inputs (the ADMM loop's); the eigensolver is chosen
    by it: the full spectrum (syevd) when it is above ``_FULL_ABOVE``, else
    only the range (tau, inf) (syevr). k is the same on both paths. Both
    drivers run with LAPACK's minimum workspace (``_eigensolver``).

    ||X||_F is one pass over X, and the only one before LAPACK's: a NaN or
    an infinity makes it non-finite, and only then are the entries checked,
    so non-finite input raises EigFailure while a finite X whose sum of
    squares overflows is measured again scaled by its largest entry.
    """
    n = len(X)
    cut = n * _EPS * math.sqrt(np.vdot(X, X))
    if not math.isfinite(cut):
        if not np.isfinite(X).all():
            raise EigFailure("symmetric eigendecomposition failed: non-finite entries")
        top = float(np.abs(X).max())
        Y = X / top
        cut = n * _EPS * math.sqrt(np.vdot(Y, Y)) * top
    # X is exactly symmetric, so X.T is the same matrix in Fortran order,
    # which LAPACK overwrites without a copy.
    if positive > _FULL_ABOVE:
        w, V, info = _eigensolver("syevd")(X.T, compute_v=1, lower=1, overwrite_a=1)
        # ascending: the eigenvalues above the cut are the last k
        k = n - int(np.searchsorted(w, cut, side="right"))
        w, V = w[n - k:], V[:, n - k:]
    else:
        w, V, k, _, info = _eigensolver("syevr")(
            X.T, compute_v=1, range="V", lower=1, vl=cut, vu=np.inf, overwrite_a=1
        )
        w, V = w[:k], V[:, :k]
    if info != 0:
        raise EigFailure(f"symmetric eigendecomposition failed: LAPACK info {info}")
    # np.dot, not np.matmul: at k = 1, the most common count late in a
    # solve, matmul takes 2-3x as long; from k = 2 matmul is the faster,
    # but over the counts of the gap workload's projections dot costs less
    # at both sides (BENCH_admm_packed.json)
    W = V * np.sqrt(w)
    return np.dot(W, W.T, out=out), k


# Eigenvalues of a quotient matrix at most this fraction of its largest one
# (or of 1, if that is larger) count as zero: the pseudo-inverse drops them.
_EIG_CUT = 1e-12

# Largest distance, relative to the largest entry of G p, of G Up Down G p
# from G p for a probe vector p.
_PROBE_TOL = 1e-8


def _equality_orbits(
    cons: Constraints,
) -> tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix]:
    """``(Down, Up)``, sparse, with ``Up @ Down`` the inverse of
    G = A diag(1/m) A^T, or its pseudo-inverse, by the relabelling symmetry
    of the equalities.

    Relabelling the vertices permutes the variables and the rows of each
    equality family among themselves, and m depends only on a variable's
    size, so G and its inverse are invariant: the inverse's entry at rows
    r, r' is ``g(type r, type r', |S_r & S_r'|)``, where a row's type is its
    family and the size of its subset. The 0/1 inclusion matrix W_j of the
    j-subsets in the rows' subsets has ``(W_j^T W_j)[r, r'] =
    C(|S_r & S_r'|, j)``. So with ``g(i) = sum_j gamma(j) C(i, j)`` per pair
    of types (binomial inversion; an intersection size that no pair of rows
    has reads g = 0), the inverse is ``Down^T Gamma Down``: Down stacks W_j
    restricted to each type, rows ordered (j, type, j-subset), and Gamma is
    block diagonal with blocks ``gamma_j (x) I``. Up is ``Down^T Gamma``.

    g is the column of the inverse at one representative row per type. The
    relabellings that fix the representative's subset split the rows into
    orbits, labelled (type r, |S_r & S_rep|), the representative an orbit of
    its own, and the column is constant on them. With P the 0/1
    row-by-orbit matrix, G P = P B, B read as A diag(1/m) A^T P at one row
    per orbit; with D the orbit sizes, C = D^1/2 B D^-1/2 is symmetric, and
    the column is P D^-1/2 pinv(C) e_o, o the representative's orbit: one
    eigendecomposition of a few dozen orbits, with eigenvalues below
    ``_EIG_CUT`` of the largest dropped. That is the inverse's column when G
    is invertible and the pseudo-inverse's when the rows are dependent
    (A y = b is then still met exactly for consistent b), on one path; no
    n x n array is formed. Should the equalities not be invariant, the
    sparse operator is no generalized inverse of G, which a probe vector p
    shows: G Up Down G p must be G p, else InvalidParams is raised.
    """
    import scipy.sparse

    d, sets, A = cons.d, cons.row_sets, cons.A
    n, width = sets.shape
    size = (sets < d).sum(axis=1)
    # the first row of each (family, size) type stands for it
    _, reps, kind = np.unique(
        np.column_stack([cons.row_families, size]), axis=0, return_index=True, return_inverse=True
    )
    kind = kind.ravel()  # numpy 2.0.0 returns it as a column
    # |S_r & S_rep| for every row r and representative rep
    shared = (
        (sets[:, None, :, None] == sets[reps][None, :, None, :]) & (sets < d)[:, None, :, None]
    ).sum(axis=(2, 3))
    g = np.zeros((len(reps), len(reps), width + 1))
    for t, rep in enumerate(reps):
        # the orbits of the relabellings that fix S_rep, and one row of each
        _, first, orbit = np.unique(
            kind * (width + 1) + shared[:, t], return_index=True, return_inverse=True
        )
        P = scipy.sparse.csr_matrix((np.ones(n), orbit, np.arange(n + 1)), shape=(n, len(first)))
        # G restricted to the orbits' rows, read through -diag(1/m) A^T
        B = -(A[first] @ (cons.neg_weighted_AT @ P)).toarray()
        root = np.sqrt(np.bincount(orbit))
        w, Q = np.linalg.eigh(root[:, None] * B / root)
        # D^-1/2 times the column of pinv(C) at the representative's orbit
        cut = max(w.max(), 1.0) * _EIG_CUT
        column = Q @ np.where(w > cut, Q[orbit[rep]] / np.maximum(w, cut), 0.0) / root
        g[kind[first], t, shared[first, t]] = column
    # G's inverse is symmetric: averaging the two readings of each type
    # pair makes Gamma symmetric too, so Up = (Gamma Down)^T = Down^T Gamma
    g = (g + g.transpose(1, 0, 2)) / 2.0
    inverse_pascal = np.array(
        [[(-1) ** (j - i) * math.comb(j, i) for i in range(width + 1)] for j in range(width + 1)]
    )
    gamma = g @ inverse_pascal.T
    down_rows, down_cols, blocks = [], [], []
    offset = 0
    for j in range(size.max() + 1):
        types = np.flatnonzero(size[reps] >= j)
        n_j = math.comb(d, j)
        for k, t in enumerate(types):
            rows = np.flatnonzero(kind == t)
            picks = _picks(int(size[reps[t]]), j)
            subsets = sets[rows][:, picks].reshape(len(rows) * len(picks), j)
            down_rows.append(offset + k * n_j + rank(d, subsets) - var_count(d, j - 1))
            down_cols.append(np.repeat(rows, len(picks)))
        blocks.append(scipy.sparse.kron(gamma[np.ix_(types, types)][..., j], scipy.sparse.identity(n_j)))
        offset += len(types) * n_j
    down_rows = np.concatenate(down_rows)
    down = scipy.sparse.csr_matrix(
        (np.ones(len(down_rows)), (down_rows, np.concatenate(down_cols))), shape=(offset, len(sets))
    )
    up = (scipy.sparse.block_diag(blocks, format="csr") @ down).T.tocsr()
    up.eliminate_zeros()

    def normal(x: np.ndarray) -> np.ndarray:
        return -(A @ (cons.neg_weighted_AT @ x))

    Gp = normal(np.random.default_rng(0).standard_normal(n))
    if not np.abs(normal(up @ (down @ Gp)) - Gp).max() <= _PROBE_TOL * np.abs(Gp).max():
        raise InvalidParams(
            "the equalities are not invariant under relabelling the vertices: "
            "the inverse of their normal matrix does not follow the row subsets and families"
        )
    return _read_only_csr(down), _read_only_csr(up)


def _accumulate(M: scipy.sparse.csr_matrix):
    """(x, out) -> out += M @ x for a CSR M, through scipy's CSR kernel
    called directly: the public product spends most of its time at dim 17
    on argument checks. Row i adds its products to out[i] in CSR order, so
    on an out of zeros it gives the bits of ``M @ x``. x and out must be
    contiguous float64 vectors of lengths M.shape[1] and M.shape[0]; the
    kernel does not check."""
    from scipy.sparse._sparsetools import csr_matvec

    return partial(csr_matvec, *M.shape, M.indptr, M.indices, M.data)


@lru_cache(maxsize=None)
def _packing(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(pack, unpack)``, read-only: the packed order of a symmetric n x n
    matrix X, its diagonal first, then its strict upper triangle row by row.
    ``X.take(pack)`` is X packed, n(n+1)/2 entries; ``v.take(unpack)`` is
    the n x n matrix whose packed form is v, each off-diagonal entry written
    into both triangles."""
    rows, cols = np.triu_indices(n, 1)
    diagonal = np.arange(n)
    pack = np.concatenate([diagonal * (n + 1), rows * n + cols])
    unpack = np.empty((n, n), dtype=np.intp)
    unpack[diagonal, diagonal] = diagonal
    unpack[rows, cols] = unpack[cols, rows] = np.arange(n, len(pack))
    return _read_only(pack), _read_only(unpack)


def _read_only_csr(M: scipy.sparse.csr_matrix) -> scipy.sparse.csr_matrix:
    for arr in (M.data, M.indices, M.indptr):
        arr.flags.writeable = False
    return M


@dataclass(frozen=True, eq=False)
class Constraints:
    """The equalities ``A y = b`` of one program shape, with the entry map
    of its moment matrix, and the solver's set-up for them; every array
    read-only.

    Each equality row names the subset of {1..d} it belongs to, as a row of
    ``row_sets`` (sorted 0-based vertices padded with ``d``, the form of
    ``subsets``), and its family in ``row_families``; rows that repeat an
    equality carry a family of their own. The solver's set-up, ``inv_m``,
    ``packed_entry``, ``cell_means``, ``neg_weighted_AT`` and ``orbits``,
    is computed on first use and kept. Compared and hashed by identity
    (``eq=False``); ``len()`` is the number of equality rows, at least one.
    """

    entry_map: np.ndarray
    A: scipy.sparse.csr_matrix
    b: np.ndarray
    d: int
    row_sets: np.ndarray
    row_families: np.ndarray

    def __post_init__(self) -> None:
        if len(self) == 0:
            raise InvalidParams("a program needs at least one equality (y[empty] = 1)")
        _read_only_csr(self.A)
        for arr in (self.entry_map, self.b, self.row_sets, self.row_families):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return self.A.shape[0]

    @cached_property
    def inv_m(self) -> np.ndarray:
        """1 / (cell count) per variable; every variable appears in the
        matrix, so m >= 1 (program invariant)."""
        return _read_only(1.0 / np.bincount(self.entry_map.ravel(), minlength=self.A.shape[1]))

    @cached_property
    def packed_entry(self) -> np.ndarray:
        """The entry map in packed order (``_packing``): ``y.take`` of it
        is M(y) packed."""
        return _read_only(self.entry_map.take(_packing(len(self.entry_map))[0]))

    @cached_property
    def cell_means(self) -> scipy.sparse.csr_matrix:
        """The mean of each variable's cells of a symmetric matrix, read off
        its packed form, as a CSR matrix: row v holds 1/m_v at v's diagonal
        cells and 2/m_v at its strict upper ones (each stands for two
        cells), at their packed positions, ascending."""
        import scipy.sparse

        flat = self.packed_entry
        weight = self.inv_m[flat]
        weight[len(self.entry_map):] *= 2.0
        shape = (self.A.shape[1], len(flat))
        return _read_only_csr(
            scipy.sparse.csr_matrix((weight, (flat, np.arange(len(flat)))), shape=shape)
        )

    @cached_property
    def neg_weighted_AT(self) -> scipy.sparse.csr_matrix:
        """-diag(1/m) A^T in CSR form: the y-step adds its product with the
        multipliers to y."""
        AT = self.A.T.tocsr()
        AT.data *= np.repeat(-self.inv_m, np.diff(AT.indptr))
        return _read_only_csr(AT)

    @cached_property
    def orbits(self) -> tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix]:
        """``(Down, Up)``, CSR, with ``Up @ Down`` the inverse of
        G = A diag(1/m) A^T (see ``_equality_orbits``)."""
        return _equality_orbits(self)


def solve(program: SosProgram, options: SolverOptions | None = None) -> SdpSolution:
    """Run the splitting iteration on an assembled program."""
    options = options or SolverOptions()
    cons = program.constraints
    entry, b, c = cons.packed_entry, cons.b, program.c
    n = len(cons.entry_map)
    pack, unpack = _packing(n)
    inv_m = cons.inv_m
    add_cell_means = _accumulate(cons.cell_means)
    down, up = cons.orbits
    add_A, add_down, add_up = _accumulate(cons.A), _accumulate(down), _accumulate(up)
    add_correction = _accumulate(cons.neg_weighted_AT)
    minus_b = -b
    # A y0 - b (then A y - b for eq_res), Down's and Up's outputs
    Ay_b = np.empty(len(b))
    coarse = np.empty(down.shape[0])
    lam = np.empty(len(b))

    rho = _RHO_START
    rho_changes = 0
    # y's seed, recomputed when rho changes
    c_step = c * inv_m / rho
    # Buffers updated in place: y, and packed (``_packing``) U, M(y), the
    # plain next state F, a scratch vector R (Z - U, then M(y) - Z, then
    # Z - Z_prev) whose Frobenius norm is |R|^2 + |R[n:]|^2, and Z with its
    # previous value, which swap. Only T is n x n: the state projected is
    # unpacked into it, LAPACK overwrites it and the projection is written
    # back into it.
    y = np.empty(len(c))
    Z = np.zeros(len(entry))
    Z_spare = np.empty_like(Z)
    U = np.zeros_like(Z)
    My = np.empty_like(Z)
    F = np.empty_like(Z)
    R = np.empty_like(Z)
    R_off = R[n:]
    T = np.empty((n, n))
    # the first projection counts as all positive
    positive = n

    # Anderson mixing works on the packed state. It keeps ring buffers of the
    # last differences of plain states F and of residuals g = F - v, in
    # single precision (they only steer the mix, which the safeguard and the
    # plain-step stop test check), with the Gram matrix of the g differences;
    # and the last F and g in double precision, so each new difference is
    # exact before it is rounded. F and F_last swap, and the mixed state is
    # formed in the one not holding the last plain state.
    memory = _AA_MEMORY
    if memory:
        from scipy.linalg.lapack import dposv

        dF, dG = np.empty((2, memory, len(entry)), dtype=np.float32)
        g_single = np.empty(len(entry), dtype=np.float32)
        gram = np.empty((memory, memory))
        ridge = 1.0 + _AA_REG * np.eye(memory)
        F_last, g_last, g_new = np.empty((3, len(entry)))
    depth = slot = 0
    have_last = mixed = False
    g_norm_last = math.inf
    accelerated = rejected = 0

    primal = dual = eq_res = psd_gap = np.inf
    value = 0.0
    it = 0
    status = MAX_ITER_REACHED
    for it in range(1, options.max_iter + 1):
        # y-step: y0 = cell means of Z - U + c / (rho m), then
        # y = y0 - diag(1/m) A^T Up Down (A y0 - b), accumulated in place
        np.copyto(y, c_step)
        np.subtract(Z, U, out=R)
        add_cell_means(R, y)
        np.copyto(Ay_b, minus_b)
        add_A(y, Ay_b)
        coarse.fill(0.0)
        add_down(Ay_b, coarse)
        lam.fill(0.0)
        add_up(coarse, lam)
        add_correction(lam, y)
        # mode='wrap': 'raise' would buffer the output; every index is in range
        y.take(entry, out=My, mode="wrap")
        np.add(My, U, out=F)
        adapt = it % _ADAPT_EVERY == 0
        # the state projected: F, a mix of the last plain states, or (a
        # restart) the plain state a dropped mix replaced
        state, plain_step = F, True
        if memory:
            np.subtract(My, Z, out=g_new)
            if have_last:
                np.subtract(g_new, g_last, out=dG[slot])
            g_new, g_last = g_last, g_new
            g_norm = math.sqrt(np.vdot(g_last, g_last))
            # the steps whose residuals may be read take no mix
            plain = psd_gap <= TOL or adapt or it == options.max_iter
            if mixed and not plain and g_norm > g_norm_last:
                # the mix raised the residual: restart from the plain state
                # it replaced, with no history
                state, plain_step = F_last, False
                have_last = mixed = False
                depth = slot = 0
                rejected += 1
            else:
                if have_last:
                    np.subtract(F, F_last, out=dF[slot])
                    depth = min(depth + 1, memory)
                    gram[slot, :depth] = gram[:depth, slot] = dG[:depth] @ dG[slot]
                    slot = (slot + 1) % memory
                F, F_last = F_last, F
                state = F_last
                have_last, g_norm_last, mixed = True, g_norm, False
                if depth and not plain:
                    # gamma = argmin |g - dG gamma|^2 + reg sum_j |dG_j|^2 gamma_j^2;
                    # the mixed state is F - (dV + dG) gamma = F - dF gamma
                    H = gram[:depth, :depth] * ridge[:depth, :depth]
                    np.copyto(g_single, g_last)
                    _, gamma, info = dposv(H, dG[:depth] @ g_single)
                    if info == 0:
                        mix = gamma.astype(np.float32) @ dF[:depth]
                        state = np.subtract(F_last, mix, out=F)
                        plain_step, mixed = False, True
                        accelerated += 1
        Z_prev = Z
        state.take(unpack, out=T, mode="wrap")
        P, positive = project_psd(T, out=T, positive=positive)
        P.take(pack, out=Z_spare, mode="wrap")
        Z, Z_spare = Z_spare, Z_prev
        np.subtract(My, Z, out=R)
        if plain_step:
            U += R
        else:
            np.subtract(state, Z, out=U)
        psd_gap = math.sqrt(np.vdot(R, R) + np.vdot(R_off, R_off))
        # The value and the other residuals are read by the stop test, which
        # cannot pass while psd_gap > TOL, by the rho adaptation and by the
        # return, and only after a plain step.
        if not plain_step or (psd_gap > TOL and not adapt and it < options.max_iter):
            continue
        value = float(c @ y) / program.scale
        np.copyto(Ay_b, minus_b)
        add_A(y, Ay_b)
        eq_res = float(np.abs(Ay_b).max())
        primal = eq_res + psd_gap
        np.subtract(Z, Z_prev, out=R)
        dual = rho * math.sqrt(np.vdot(R, R) + np.vdot(R_off, R_off))
        bar = TOL * (1.0 + abs(value))
        if primal <= bar and dual <= bar and psd_gap <= TOL:
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
                c_step = c * inv_m / rho
                # the states and residuals scale with 1/rho: the history ends
                have_last = False
                depth = slot = 0
    return SdpSolution(
        status=status,
        value=value,
        matrix=y.take(cons.entry_map, out=T, mode="wrap"),
        primal_residual=primal,
        dual_residual=dual,
        iterations=it,
        rho_changes=rho_changes,
        eq_res=eq_res,
        psd_gap=psd_gap,
        accelerated=accelerated,
        rejected=rejected,
    )
