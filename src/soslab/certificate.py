"""Expansivity-based pseudo-moment certificates, verified in exact rationals.

Given a null observation, the positivity graph keeps the pairs whose entry
is strictly positive (sign mode) or exactly one (binary mode); diagonals are
positive by construction and never stored. The expansivity of a subset S is
the number of 2l-cliques of that graph containing S. The certificate maps
each subset S with |S| = k <= 2l to

    (eta(S) / eta(empty)) * perm(s_star, k) / perm(2l, k),

where perm is the falling factorial, and satisfies the level-l program's
equalities exactly whenever eta(empty) > 0. Feasibility is checked in exact
rational arithmetic (Python integers never overflow, so the checks cannot be
corrupted by rounding); positive semidefiniteness of the float moment matrix
is checked numerically with tolerance lambda_min >= -1e-8 * max(1, lambda_max).
The eigenvalues come from the principal block on the nonzero rows: the
matrix is symmetric, so each zero row is also a zero column and adds one
eigenvalue of exactly 0 while leaving every other eigenvalue unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import (
    CertificateUndefined,
    EigFailure,
    InvalidParams,
    MissingValue,
    NotBinary,
    TooLarge,
)
from .matrix import NoisyMatrix, pair_index, pair_iter
from .sos import PseudoExpectation, moment_matrix
from .subsets import subset_indexer

SIGN_POSITIVE = "sign-positive"
BINARY_ONE = "binary-one"

DEFAULT_MAX_CLIQUE_COMBOS = 10**7

PSD_REL_TOL = 1e-8


@dataclass(frozen=True)
class PositivityGraph:
    """Vertices 1..d; edge {i,j} iff the observed entry counts as positive."""

    d: int
    edges: frozenset[tuple[int, int]]

    def neighbor_masks(self) -> list[int]:
        """Adjacency as bitmasks over 0-based vertices (index 0 unused space)."""
        nbr = [0] * self.d
        for i, j in self.edges:
            nbr[i - 1] |= 1 << (j - 1)
            nbr[j - 1] |= 1 << (i - 1)
        return nbr


@dataclass(frozen=True)
class ExpansivityTable:
    """Counts eta(S) for all subsets with |S| <= 2*ell; absent keys are 0."""

    d: int
    ell: int
    counts: dict
    clique_count: int

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
    edges = frozenset(pair for pair, k in zip(pair_iter(X.d), keep) if k)
    return PositivityGraph(d=X.d, edges=edges)


def _enumerate_cliques(nbr: list[int], d: int, size: int):
    """All size-cliques as increasing 0-based tuples, in lexicographic order."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], cand: int) -> None:
        if len(prefix) == size:
            out.append(tuple(prefix))
            return
        if cand.bit_count() < size - len(prefix):
            return
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            rec(prefix + [v], cand & nbr[v] & ~((1 << (v + 1)) - 1))

    rec([], (1 << d) - 1)
    return out


def expansivity_table(
    g: PositivityGraph, ell: int, max_combos: int = DEFAULT_MAX_CLIQUE_COMBOS
) -> ExpansivityTable:
    """One pass over the 2l-cliques, incrementing eta for every subset of each."""
    if ell < 1:
        raise InvalidParams("ell must be >= 1")
    size = 2 * ell
    if math.comb(g.d, size) > max_combos:
        raise TooLarge(
            f"C({g.d},{size}) = {math.comb(g.d, size)} exceeds the clique "
            f"enumeration budget {max_combos}"
        )
    counts: dict = {}
    cliques = _enumerate_cliques(g.neighbor_masks(), g.d, size)
    for clique0 in cliques:
        clique = tuple(v + 1 for v in clique0)
        for r in range(size + 1):
            for sub in combinations(clique, r):
                counts[sub] = counts.get(sub, 0) + 1
    return ExpansivityTable(d=g.d, ell=ell, counts=counts, clique_count=counts.get((), 0))


def build_certificate(table: ExpansivityTable, s_star: int, ell: int) -> PseudoExpectation:
    """Pseudo-expectation of the expansivity construction, as exact rationals."""
    if s_star < 2:
        raise InvalidParams("s_star must be >= 2")
    if ell != table.ell:
        raise InvalidParams(f"table was built for ell={table.ell}, not {ell}")
    eta0 = table.clique_count
    if eta0 == 0:
        raise CertificateUndefined(
            "no all-positive 2l-clique exists; the construction divides by eta(empty) = 0"
        )
    values: dict[tuple[int, ...], Fraction] = {}
    for subset, eta in table.counts.items():
        k = len(subset)
        weight = math.perm(s_star, k)  # falling factorial; 0 when k > s_star
        if eta and weight:
            values[subset] = Fraction(eta * weight, eta0 * math.perm(2 * ell, k))
    return PseudoExpectation(
        d=table.d, ell=ell, s_star=s_star, values=values, eta_empty=eta0
    )


def verify_certificate(
    pe: PseudoExpectation, d: int, s_star: int, ell: int
) -> FeasibilityReport:
    """Exact equality checks plus a numerical PSD verdict.

    Checks, in rational arithmetic: the normalization y[empty] = 1 and, for
    every subset S with |S| <= 2*ell - 1, the folded row-sum identity
    sum_{i not in S} y[S + {i}] = (s_star - |S|) * y[S]. An identity can
    fail only at a nonzero key or inside one, so the check runs over the
    nonzero moments alone: each nonzero key T with |T| >= 1 adds y[T] to the
    left side at every T - {i}, in exact integers over the common
    denominator of the values. Keys that are not moments of the indexer
    (sorted tuples inside 1..d of size <= 2*ell) are ignored. The maximum
    violation is reported exactly.

    lambda_min and the PSD verdict come from the float moment matrix,
    restricted to its nonzero rows: a zero row is a zero column too, so it
    contributes one eigenvalue of exactly 0 and leaves the others as they
    are. With a row dropped, lambda_min and lambda_max are those of the
    block taken together with 0; with every row zero both are 0.
    """
    idx = subset_indexer(d, ell)
    moments = {T: v for T, v in pe.values.items() if v and T in idx.var_index}
    D = math.lcm(*{v.denominator for v in moments.values()})
    scaled = {T: v.numerator * (D // v.denominator) for T, v in moments.items()}
    lhs: dict[tuple[int, ...], int] = {}
    for T, n in scaled.items():
        for pos in range(len(T)):
            S = T[:pos] + T[pos + 1 :]
            lhs[S] = lhs.get(S, 0) + n
    rows = lhs.keys() | {S for S in scaled if len(S) < 2 * ell}
    max_violation = max(
        (abs(lhs.get(S, 0) - (s_star - len(S)) * scaled.get(S, 0)) for S in rows),
        default=0,
    )
    min_eig, max_eig = _eig_range(moment_matrix(pe, idx))
    return FeasibilityReport(
        normalization_ok=pe.get(()) == 1,
        rowsum_max_violation=Fraction(max_violation, D),
        min_eigenvalue=min_eig,
        psd=min_eig >= -PSD_REL_TOL * max(1.0, max_eig),
        eta_empty=pe.eta_empty,
    )


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


def _is_subset_key(key: tuple[int, ...], d: int) -> bool:
    """True for a strictly increasing tuple of vertices inside 1..d."""
    return all(a < b for a, b in zip(key, key[1:])) and (
        not key or (1 <= key[0] and key[-1] <= d)
    )


def certificate_objective(X: NoisyMatrix, pe: PseudoExpectation, s_star: int) -> Fraction:
    """Exact objective of a pseudo-expectation on data X.

    Float entries are promoted exactly (every float is a binary rational);
    matrices meant for exact objectives should be binary or +/-nu valued.
    Only the nonzero pair moments contribute, summed in exact integers over
    their common denominator.
    """
    if X.d > pe.d:
        raise MissingValue(f"pseudo-expectation covers d={pe.d}, data has d={X.d}")
    terms = []
    for key, v in pe.values.items():
        if v and len(key) == 2 and _is_subset_key(key, X.d):
            num, den = float(X.entries[pair_index(X.d, *key)]).as_integer_ratio()
            terms.append((num * v.numerator, den * v.denominator))
    D = math.lcm(*{den for _, den in terms})
    total = sum(num * (D // den) for num, den in terms)
    return Fraction(2 * total, s_star * (s_star - 1) * D)


def with_objective(report: FeasibilityReport, objective: Fraction) -> FeasibilityReport:
    return replace(report, objective=objective)


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
