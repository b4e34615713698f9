"""Expansivity-based pseudo-moment certificates, verified in exact arithmetic.

Given a null observation, the positivity graph keeps the pairs whose entry
is strictly positive (sign mode) or exactly one (binary mode); diagonals are
positive by construction and never stored. The expansivity of a subset S is
the number of 2l-cliques of that graph containing S. The certificate maps
each subset S with |S| = k <= 2l to

    (eta(S) / eta(empty)) * perm(s_star, k) / perm(2l, k),

where perm is the falling factorial, and satisfies the level-l program's
equalities exactly whenever eta(empty) > 0.

Every stage works on integer arrays in the subset indexer's variable order
(``subsets.rank``), with no loop over moments: the table is ``eta[j]``, and
the certificate is the numerators ``num[j] = eta[j] * perm(s_star, k) *
(2l - k)!`` over the one denominator ``eta(empty) * (2l)!``. Integers are
int64 where a bound computed beforehand shows that no sum or product can
overflow, and Python integers (``dtype=object``) otherwise, so the exact
checks cannot be corrupted by overflow or rounding. Positive
semidefiniteness of the float moment matrix is checked numerically with
tolerance lambda_min >= -1e-8 * max(1, lambda_max). The eigenvalues come
from the principal block on the nonzero rows: the matrix is symmetric, so
each zero row is also a zero column and adds one eigenvalue of exactly 0
while leaving every other eigenvalue unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import (
    CertificateUndefined,
    EigFailure,
    InvalidParams,
    MissingValue,
    NotBinary,
    TooLarge,
)
from .matrix import NoisyMatrix, pair_indices, pair_iter
from .sos import PseudoExpectation, exact_dtype, max_abs, moment_matrix
from .subsets import NonzeroView, SubsetIndexer, parents, rank, sizes, subset_counts, subset_indexer, var_count

SIGN_POSITIVE = "sign-positive"
BINARY_ONE = "binary-one"

# Largest C(d, 2l) whose 2l-cliques expansivity_table will enumerate.
MAX_CLIQUE_COMBOS = 10**7

PSD_REL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class PositivityGraph:
    """Vertices 1..d; edge {i,j} iff the observed entry counts as positive.
    ``positive`` marks the edges in pair storage order (read-only)."""

    d: int
    positive: np.ndarray

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(pair for pair, k in zip(pair_iter(self.d), self.positive) if k)

    def adjacency(self) -> np.ndarray:
        """Symmetric boolean d x d adjacency matrix."""
        adj = np.zeros((self.d, self.d), dtype=bool)
        adj[pair_indices(self.d)] = self.positive
        return adj | adj.T


@dataclass(frozen=True, eq=False)
class ExpansivityTable:
    """Counts eta(S) for all subsets with |S| <= 2*ell: a read-only int64
    array in the indexer's variable order. ``counts`` views its nonzero
    entries by subset; absent subsets read 0."""

    d: int
    ell: int
    eta: np.ndarray

    @property
    def clique_count(self) -> int:
        return int(self.eta[0])

    @cached_property
    def counts(self) -> NonzeroView:
        return NonzeroView(self.d, self.ell, self.eta, int)

    def get(self, subset) -> int:
        return self.counts.get(tuple(sorted(subset)), 0)


@dataclass(frozen=True)
class FeasibilityReport:
    normalization_ok: bool
    rowsum_max_violation: Fraction
    min_eigenvalue: float
    psd: bool
    objective: Fraction | None = None
    eta_empty: int | None = None


def positivity_graph(X: NoisyMatrix, mode: str) -> PositivityGraph:
    """Edges where X_ij > 0 (sign-positive) or X_ij = 1 (binary-one)."""
    if mode == BINARY_ONE:
        if not X.is_binary():
            raise NotBinary("binary-one mode requires a {0,1}-valued matrix")
        keep = X.entries == 1.0
    elif mode == SIGN_POSITIVE:
        keep = X.entries > 0.0
    else:
        raise InvalidParams(f"unknown positivity mode {mode!r}")
    keep.flags.writeable = False
    return PositivityGraph(d=X.d, positive=keep)


def _cliques(adj: np.ndarray, size: int) -> np.ndarray:
    """All size-cliques as rows of increasing 0-based vertices, in
    lexicographic order: each level extends every clique by each common
    neighbour above its last vertex."""
    d = len(adj)
    upper = np.triu(adj, 1)
    cliques = np.arange(d).reshape(d, 1)
    for _ in range(size - 1):
        common = upper[cliques[:, -1]]
        for col in cliques[:, :-1].T:
            common &= adj[col]
        rows, new = np.nonzero(common)
        cliques = np.column_stack([cliques[rows], new])
    return cliques


def expansivity_table(g: PositivityGraph, ell: int) -> ExpansivityTable:
    """eta over the indexer's variables: the 2l-cliques containing each subset."""
    if ell < 1:
        raise InvalidParams("ell must be >= 1")
    size = 2 * ell
    if math.comb(g.d, size) > MAX_CLIQUE_COMBOS:
        raise TooLarge(
            f"C({g.d},{size}) = {math.comb(g.d, size)} exceeds the clique "
            f"enumeration budget {MAX_CLIQUE_COMBOS}"
        )
    eta = subset_counts(g.d, size, _cliques(g.adjacency(), size))
    eta.flags.writeable = False
    return ExpansivityTable(d=g.d, ell=ell, eta=eta)


def build_certificate(table: ExpansivityTable, s_star: int, ell: int) -> PseudoExpectation:
    """Pseudo-expectation of the expansivity construction: ``eta * w[|S|]``
    over ``eta(empty) * (2l)!``, with ``w_k = perm(s_star, k) * (2l - k)!``."""
    if not 2 <= s_star <= table.d:
        raise InvalidParams(f"need 2 <= s_star <= d, got s_star={s_star}, d={table.d}")
    if ell != table.ell:
        raise InvalidParams(f"table was built for ell={table.ell}, not {ell}")
    eta0 = table.clique_count
    if eta0 == 0:
        raise CertificateUndefined(
            "no all-positive 2l-clique exists; the construction divides by eta(empty) = 0"
        )
    # perm is the falling factorial, 0 when k > s_star; eta <= eta0 bounds every product.
    weights = [math.perm(s_star, k) * math.factorial(2 * ell - k) for k in range(2 * ell + 1)]
    dtype = exact_dtype(eta0 * max(weights))
    num = table.eta.astype(dtype) * np.array(weights, dtype=dtype)[sizes(table.d, 2 * ell)]
    return PseudoExpectation(
        d=table.d, ell=ell, s_star=s_star, num=num, den=eta0 * math.factorial(2 * ell),
        eta_empty=eta0,
    )


def verify_certificate(
    pe: PseudoExpectation, d: int, s_star: int, ell: int
) -> FeasibilityReport:
    """Exact equality checks plus a numerical PSD verdict.

    Checks, in exact integers over ``pe.den``: the normalization y[empty] = 1
    and, for every subset S with |S| <= 2*ell - 1, the folded row-sum
    identity sum_{i not in S} y[S + {i}] = (s_star - |S|) * y[S]. The left
    sides are gathered from the nonzero moments alone: each nonzero T adds
    its numerator at every parent T - {i} (``subsets.parents``). The maximum
    violation is reported exactly.

    lambda_min and the PSD verdict come from the float moment matrix,
    restricted to its nonzero rows: a zero row is a zero column too, so it
    contributes one eigenvalue of exactly 0 and leaves the others as they
    are. With a row dropped, lambda_min and lambda_max are those of the
    block taken together with 0; with every row zero both are 0.
    """
    idx = subset_indexer(d, ell)
    min_eig, max_eig = _eig_range(moment_matrix(pe, idx))
    return FeasibilityReport(
        normalization_ok=int(pe.num[0]) == pe.den,
        rowsum_max_violation=_rowsum_violation(pe, idx, s_star),
        min_eigenvalue=min_eig,
        psd=min_eig >= -PSD_REL_TOL * max(1.0, max_eig),
        eta_empty=pe.eta_empty,
    )


def _rowsum_violation(pe: PseudoExpectation, idx: SubsetIndexer, s_star: int) -> Fraction:
    """max over |S| <= 2l - 1 of |sum_{i not in S} y[S+{i}] - (s_star - |S|) y[S]|."""
    d, width = idx.d, 2 * idx.ell
    # A left side sums at most d numerators; |s_star - |S|| <= |s_star| + d.
    dtype = exact_dtype((2 * d + abs(s_star)) * max_abs(pe.num))
    nz = np.flatnonzero(pe.num)
    y = pe.num[nz].astype(dtype)
    n_rows = var_count(d, width - 1)
    lhs = np.zeros(n_rows + 1, dtype=dtype)  # the last entry gathers the pads
    for col in parents(d, idx.members[nz]).T:
        np.add.at(lhs, col, y)
    rhs = (s_star - sizes(d, width - 1)).astype(dtype) * pe.num[:n_rows].astype(dtype)
    return Fraction(max_abs(lhs[:n_rows] - rhs), pe.den)


def _eig_range(M: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric M, from its nonzero rows."""
    keep = M.any(axis=1)
    if not keep.any():
        return 0.0, 0.0
    block = M if keep.all() else M[np.ix_(keep, keep)]
    try:
        evals = np.linalg.eigvalsh(block)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(f"eigvalsh failed on the moment matrix: {exc}") from exc
    lo, hi = float(evals[0]), float(evals[-1])
    if block is M:
        return lo, hi
    return min(lo, 0.0), max(hi, 0.0)


def certificate_objective(X: NoisyMatrix, pe: PseudoExpectation, s_star: int) -> Fraction:
    """Exact objective of a pseudo-expectation on data X.

    Float entries are promoted exactly (every float is a binary rational);
    matrices meant for exact objectives should be binary or +/-nu valued.
    Only the nonzero pair moments contribute: their numerators are summed
    per distinct entry value in exact integers, and each value's sum is
    weighted by the value's exact ratio.
    """
    if s_star < 2:
        raise InvalidParams(f"need s_star >= 2, got s_star={s_star}")
    if X.d > pe.d:
        raise MissingValue(f"pseudo-expectation covers d={pe.d}, data has d={X.d}")
    pairs = rank(pe.d, np.column_stack(pair_indices(X.d)))  # X's storage order
    y = pe.num[pairs]
    nz = np.flatnonzero(y)
    values, group = np.unique(X.entries[nz], return_inverse=True)
    sums = np.zeros(len(values), dtype=exact_dtype(len(nz) * max_abs(y)))
    np.add.at(sums, group, y[nz].astype(sums.dtype))
    terms = [(a * n, b) for x, n in zip(values.tolist(), sums.tolist()) for a, b in [x.as_integer_ratio()]]
    D = math.lcm(*{b for _, b in terms})
    total = sum(an * (D // b) for an, b in terms)
    return Fraction(2 * total, s_star * (s_star - 1) * D * pe.den)


def certify(X: NoisyMatrix, mode: str, s_star: int, ell: int) -> FeasibilityReport:
    """The certificate of X end to end: positivity graph, expansivity table,
    certificate, verification, and the report with its exact objective."""
    table = expansivity_table(positivity_graph(X, mode), ell)
    pe = build_certificate(table, s_star, ell)
    report = verify_certificate(pe, X.d, s_star, ell)
    return replace(report, objective=certificate_objective(X, pe, s_star))


def frac_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def report_to_json_dict(report: FeasibilityReport) -> dict:
    return {
        "eta_empty": report.eta_empty,
        "normalization_ok": report.normalization_ok,
        "rowsum_max_violation": frac_str(report.rowsum_max_violation),
        "min_eigenvalue": report.min_eigenvalue,
        "psd": report.psd,
        "objective": frac_str(report.objective) if report.objective is not None else None,
        "objective_float": float(report.objective) if report.objective is not None else None,
    }
