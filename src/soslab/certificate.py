"""Expansivity-based pseudo-moment certificates, verified in exact arithmetic.

Given a null observation, the positivity graph keeps the pairs whose entry
is strictly positive, as a symmetric boolean d x d adjacency with a False
diagonal (cliques need no loops); on a block model's 0/1 adjacency these
are the entries equal to one. The expansivity of a subset S is the number
of 2l-cliques of that graph containing S. The certificate maps
each subset S with |S| = k <= 2l to

    (eta(S) / eta(empty)) * perm(s_star, k) / perm(2l, k),

where perm is the falling factorial, and satisfies the level-l program's
equalities exactly whenever eta(empty) > 0.

Every stage works on integer arrays in the variable order (``subsets.rank``),
with no loop over moments: the table is ``eta[j]``, and the certificate, a
``PseudoExpectation``, is the numerators ``num[j] = eta[j] * perm(s_star, k)
* (2l - k)!`` over the one denominator ``eta(empty) * (2l)!``. Integers are
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
from fractions import Fraction

import numpy as np

from .errors import (
    CertificateUndefined,
    EigFailure,
    InvalidParams,
    MissingValue,
    NotBinary,
    check_s_star,
)
from .matrix import NoisyMatrix, pair_indices
from .subsets import (
    check_side, entry_map, pair_variables, parents, sizes, subset_counts, var_count, variables,
)

SIGN_POSITIVE = "sign-positive"
BINARY_ONE = "binary-one"

PSD_REL_TOL = 1e-8


def exact_dtype(bound: int):
    """int64 when every integer of a computation is at most ``bound`` in
    absolute value and ``bound`` fits, else Python ints (``object``)."""
    return np.int64 if bound < 2**63 else object


def max_abs(arr: np.ndarray) -> int:
    """Largest absolute value of an integer array, as a Python int (0 when empty)."""
    return int(np.abs(arr).max()) if arr.size else 0


@dataclass(frozen=True, eq=False)
class PseudoExpectation:
    """Exact pseudo-moments ``y[S] = num[j] / den`` of the subsets S of
    {1..d} with |S| <= 2*ell, where j is S's index in the variable order
    (``subsets.rank``).

    ``num`` is a read-only integer array, int64 or Python ints
    (``dtype=object``) when a value does not fit, and ``den`` a positive
    Python int, not necessarily in lowest terms. ``values`` holds the
    nonzero numerators in variable order; its length counts the nonzero
    moments.
    """

    d: int
    ell: int
    num: np.ndarray
    den: int

    def __post_init__(self) -> None:
        if self.num.shape != (var_count(self.d, 2 * self.ell),) or self.den < 1:
            raise InvalidParams(
                f"need {var_count(self.d, 2 * self.ell)} numerators and a positive denominator"
            )
        kind = self.num.dtype.kind
        if not (kind in "iu" or kind == "O" and all(isinstance(n, int) for n in self.num.tolist())):
            raise InvalidParams(f"numerators must be integers, got dtype {self.num.dtype}")
        self.num.flags.writeable = False

    @property
    def values(self) -> np.ndarray:
        return self.num[self.num != 0]

    def floats(self) -> np.ndarray:
        """``num / den`` correctly rounded: a float division when both sides
        are exact as floats (below 2**53), else Python ``int / int``."""
        if self.den < 2**53 and max_abs(self.num) < 2**53:
            return self.num.astype(np.float64) / float(self.den)
        return (self.num.astype(object) / self.den).astype(np.float64)


def nonzero_block(pe: PseudoExpectation) -> np.ndarray:
    """``pe.floats()[entry_map(pe.d, pe.ell)]`` on its nonzero rows, found
    from a boolean mask of the nonzero moments; only the block is gathered
    as floats, never the full float moment matrix."""
    em = entry_map(pe.d, pe.ell)
    rows = np.flatnonzero((pe.num != 0)[em].any(axis=1))
    return pe.floats().take(em.take(rows, axis=0).take(rows, axis=1))


@dataclass(frozen=True, eq=False)
class ExpansivityTable:
    """Counts eta(S) for all subsets with |S| <= 2*ell: a read-only int64
    array in the variable order."""

    d: int
    ell: int
    eta: np.ndarray

    @property
    def clique_count(self) -> int:
        return int(self.eta[0])


@dataclass(frozen=True)
class FeasibilityReport:
    normalization_ok: bool
    rowsum_max_violation: Fraction
    min_eigenvalue: float
    psd: bool
    objective: Fraction | None = None
    eta_empty: int | None = None


def positivity_graph(X: NoisyMatrix, mode: str) -> np.ndarray:
    """The read-only symmetric boolean d x d adjacency of vertices 1..d,
    with edge {i,j} where X_ij > 0; the diagonal is False. Binary-one mode
    first checks that X is 0/1, whose positive entries are its ones."""
    if mode not in (SIGN_POSITIVE, BINARY_ONE):
        raise InvalidParams(f"unknown positivity mode {mode!r}")
    if mode == BINARY_ONE and not X.is_binary():
        raise NotBinary("binary-one mode requires a {0,1}-valued matrix")
    adj = np.zeros((X.d, X.d), dtype=bool)
    adj[pair_indices(X.d)] = X.entries > 0.0
    adj = adj | adj.T
    adj.flags.writeable = False
    return adj


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


def expansivity_table(adj: np.ndarray, ell: int) -> ExpansivityTable:
    """eta over the variables of (d, ell): the 2l-cliques of the graph
    with adjacency ``adj`` containing each subset. The moment-matrix side
    budget is checked first, before any counting."""
    d = len(adj)
    check_side(d, ell)
    eta = subset_counts(d, 2 * ell, _cliques(adj, 2 * ell))
    eta.flags.writeable = False
    return ExpansivityTable(d=d, ell=ell, eta=eta)


def build_certificate(table: ExpansivityTable, s_star: int, ell: int) -> PseudoExpectation:
    """Pseudo-expectation of the expansivity construction: ``eta * w[|S|]``
    over ``eta(empty) * (2l)!``, with ``w_k = perm(s_star, k) * (2l - k)!``."""
    check_s_star(s_star, table.d)
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
    return PseudoExpectation(d=table.d, ell=ell, num=num, den=eta0 * math.factorial(2 * ell))


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
    restricted to its nonzero rows and gathered as that block alone
    (``nonzero_block``): a zero row is a zero column too, so it
    contributes one eigenvalue of exactly 0 and leaves the others as they
    are. With a row dropped, lambda_min and lambda_max are those of the
    block taken together with 0; with every row zero both are 0.
    """
    check_s_star(s_star, d)
    if (pe.d, pe.ell) != (d, ell):
        raise MissingValue(
            f"pseudo-expectation covers (d={pe.d}, ell={pe.ell}), not (d={d}, ell={ell})"
        )
    min_eig, max_eig = _eig_range(nonzero_block(pe), check_side(d, ell))
    return FeasibilityReport(
        normalization_ok=int(pe.num[0]) == pe.den,
        rowsum_max_violation=_rowsum_violation(pe, s_star),
        min_eigenvalue=min_eig,
        psd=min_eig >= -PSD_REL_TOL * max(1.0, max_eig),
    )


def _rowsum_violation(pe: PseudoExpectation, s_star: int) -> Fraction:
    """max over |S| <= 2l - 1 of |sum_{i not in S} y[S+{i}] - (s_star - |S|) y[S]|."""
    d, width = pe.d, 2 * pe.ell
    # A left side sums at most d numerators; |s_star - |S|| <= |s_star| + d.
    dtype = exact_dtype((2 * d + abs(s_star)) * max_abs(pe.num))
    nz = np.flatnonzero(pe.num)
    y = pe.num[nz].astype(dtype)
    n_rows = var_count(d, width - 1)
    lhs = np.zeros(n_rows + 1, dtype=dtype)  # the last entry gathers the pads
    for col in parents(d, variables(d, pe.ell)[nz]).T:
        np.add.at(lhs, col, y)
    rhs = (s_star - sizes(d, width - 1)).astype(dtype) * pe.num[:n_rows].astype(dtype)
    return Fraction(max_abs(lhs[:n_rows] - rhs), pe.den)


def _eig_range(block: np.ndarray, dim: int) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a symmetric dim x dim matrix, from its
    principal block on its nonzero rows."""
    if not len(block):
        return 0.0, 0.0
    try:
        evals = np.linalg.eigvalsh(block)
    except np.linalg.LinAlgError as exc:
        raise EigFailure(f"eigvalsh failed on the moment matrix: {exc}") from exc
    lo, hi = float(evals[0]), float(evals[-1])
    if len(block) == dim:
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
    check_s_star(s_star, pe.d)
    if X.d != pe.d:
        raise MissingValue(f"pseudo-expectation covers d={pe.d}, data has d={X.d}")
    y = pe.num[pair_variables(X.d)]
    nz = np.flatnonzero(y)
    values, group = np.unique(X.entries[nz], return_inverse=True)
    sums = np.zeros(len(values), dtype=exact_dtype(len(nz) * max_abs(y)))
    np.add.at(sums, group, y[nz].astype(sums.dtype))
    terms = [(a * n, b) for x, n in zip(values.tolist(), sums.tolist()) for a, b in [x.as_integer_ratio()]]
    D = math.lcm(*{b for _, b in terms})
    total = sum(an * (D // b) for an, b in terms)
    return Fraction(2 * total, s_star * (s_star - 1) * D * pe.den)


def certify(X: NoisyMatrix, s_star: int, ell: int) -> FeasibilityReport:
    """The certificate of X end to end: the graph of X's positive entries,
    expansivity table, certificate, verification, and the report with its
    exact objective and clique count (``eta_empty``, which
    ``verify_certificate`` leaves None). The moment-matrix side budget is
    checked before any counting (``expansivity_table``)."""
    table = expansivity_table(positivity_graph(X, SIGN_POSITIVE), ell)
    pe = build_certificate(table, s_star, ell)
    report = verify_certificate(pe, X.d, s_star, ell)
    objective = certificate_objective(X, pe, s_star)
    return replace(report, objective=objective, eta_empty=table.clique_count)


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
