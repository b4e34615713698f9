"""Closed-form and combinatorial estimators of the signal strength.

The scan estimator maximizes the off-diagonal average over all principal
s x s submatrices. Both strategies return the exact maximum; ties in the
argmax are broken by the lexicographically smallest subset. The avg, max
and lp estimators are closed forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InvalidParams, TooLarge, check_s_star
from .matrix import NoisyMatrix

EXHAUSTIVE = "exhaustive"
BRANCH_AND_BOUND = "branch-and-bound"

DEFAULT_MAX_SUBSETS = 10**8

# Relative slack of branch-and-bound's prune test, beside the rounding
# bound `_branch_and_bound` derives; candidate leaves are re-evaluated with
# the same canonical summation the exhaustive strategy uses.
_PRUNE_SLACK = 1e-9

# Largest s_star**2 * max|X| that branch-and-bound searches (see its docstring).
_SUM_LIMIT = 2.0**1022


@dataclass(frozen=True)
class ScanResult:
    """Scan value, the maximizing support, and what the search did.

    subsets_examined: the subsets whose pair sum was evaluated (the leaves
    reached): all C(d, s_star) for exhaustive. nodes: the partial subsets
    whose children were bounded (the root included); pruned: the children
    cut by the bound, leaves included. Every child of a node is a node, a
    leaf or pruned, so the children of all nodes number
    nodes - 1 + subsets_examined + pruned. Exhaustive enumeration builds
    no search tree and reports nodes == pruned == 0.
    """

    value: float
    support: frozenset[int]
    subsets_examined: int
    nodes: int
    pruned: int


def _pair_sum(dense: np.ndarray, subset: tuple[int, ...]) -> float:
    """Canonical upper-triangle sum over a sorted 0-based subset.

    Both scan strategies finalize every candidate through this helper, in
    this exact accumulation order, so their values agree bit for bit.
    """
    total = 0.0
    for t in range(1, len(subset)):
        row = dense[subset[t]]
        for u in range(t):
            total += row[subset[u]]
    return total


def _scan_value(pair_sum: float, s_star: int) -> float:
    return 2.0 * pair_sum / (s_star * (s_star - 1))


def _exhaustive(dense: np.ndarray, d: int, s_star: int) -> tuple[float, tuple[int, ...], int]:
    # The first subset seeds the maximum, so a sum that overflows to -inf
    # everywhere still has an argmax.
    subsets = combinations(range(d), s_star)
    best_subset = next(subsets)
    best_val = _pair_sum(dense, best_subset)
    count = 1
    for subset in subsets:
        count += 1
        val = _pair_sum(dense, subset)
        if val > best_val:
            best_val = val
            best_subset = subset
    return best_val, best_subset, count


def _greedy_seed(dense: np.ndarray, d: int, s_star: int) -> tuple[float, tuple[int, ...]]:
    """A feasible subset and its canonical pair sum, a floor for the
    search: the largest entry's pair, grown by the vertex of largest row
    sum into the chosen set until it has s_star vertices."""
    masked = dense.copy()
    np.fill_diagonal(masked, -np.inf)
    i, j = np.unravel_index(int(np.argmax(masked)), masked.shape)
    chosen = [int(i), int(j)]
    rowsum = dense[chosen[0]] + dense[chosen[1]]
    while len(chosen) < s_star:
        # the unchosen vertices, not those of finite score: sums can overflow to -inf
        free = np.flatnonzero(np.bincount(chosen, minlength=d) == 0)
        v = int(free[np.argmax(rowsum[free])])
        chosen.append(v)
        rowsum = rowsum + dense[v]
    subset = tuple(sorted(chosen))
    return _pair_sum(dense, subset), subset


def _row_top_sums(dense: np.ndarray, d: int, s_star: int) -> np.ndarray:
    """H[r, c, u] = half the sum of the r largest entries of row u in columns >= c,
    column u left out, for r <= s_star - 2; -inf where u < c (a vertex the
    search front has passed).

    With x a row (x_u = -inf) and top_r(c) its r-th largest entry in
    columns >= c (-inf when there are fewer than r),
        top_1(c) = max_{j >= c} x_j,
        top_r(c) = max_{j >= c} min(x_j, top_{r-1}(j + 1)).
    The r-th largest is at least min(x_j, top_{r-1}(j + 1)) for every j,
    as x_j and the r-1 largest after j are r entries at least that large;
    and equality holds at the first column j of a set of r largest
    entries. So each level is one elementwise minimum and one running
    maximum over the matrix, taken from column d-1 down (the matrix is
    symmetric, so columns are read as rows). max and min return one of
    their inputs, so top_r is the same float a sort of the row gives, and
    H sums them in the same order, largest first: bit for bit the table a
    per-column sort builds (kept in the tests as the reference).
    """
    take = s_star - 2
    H = np.empty((take + 1, d, d))
    H[0] = 0.0
    if take:
        # Reversed columns: rev[k, u] = x_u at column d-1-k of row u, so a
        # suffix over columns is a prefix over k.
        rev = dense[::-1].copy()
        rev[np.arange(d), np.arange(d - 1, -1, -1)] = -np.inf
        top = np.maximum.accumulate(rev, axis=0)
        total = top.copy()
        np.multiply(total[::-1], 0.5, out=H[1])
        for r in range(2, take + 1):
            top[1:] = np.minimum(rev[1:], top[:-1])
            top[0] = -np.inf
            np.maximum.accumulate(top, axis=0, out=top)
            total += top
            np.multiply(total[::-1], 0.5, out=H[r])
    H[:, np.tri(d, d, -1, dtype=bool)] = -np.inf
    return H


def _branch_and_bound(
    dense: np.ndarray, d: int, s_star: int, max_abs: float
) -> tuple[float, tuple[int, ...], int, int, int]:
    """Depth-first lexicographic search with an admissible per-vertex gain bound.

    At a node with chosen vertices P (pair sum cur, row sums rowsum) that
    still needs `need` vertices, child v adds v and then need-1 vertices Q
    after v. With rowsum' = rowsum + row v, the pairs of Q sum to half of
    the sum over u in Q of its row entries inside Q, so each u in Q adds at
    most its gain
        rowsum'[u] + 1/2 * (the need-2 largest entries of row u in columns > v,
        column u left out),
    and the child's bound is cur + rowsum[v] plus the need-1 largest gains
    over u > v. The row top-sums come from one table per scan
    (`_row_top_sums`); each node bounds all its children at once from a
    children x d gain matrix and `np.partition`. At the last level the
    bound is the leaf's own (incrementally summed) pair sum.

    A greedy incumbent seeds the value floor and the support. Bounds are
    computed once per node; each child is still compared with the current
    floor, minus a slack, before it is expanded. The slack is
    `_PRUNE_SLACK` relative to the floor plus a bound on float rounding:
    a child's bound and a leaf's canonical pair sum are each a float sum
    of at most s_star**2 terms, entries or half entries, in a summation
    tree of height at most s_star**2, so each lies within
    s_star**4 * max|X| * 2**-53 of its exact value (Higham, "Accuracy and
    Stability of Numerical Algorithms", section 4.2), and choosing the top
    gains by their float values loses at most 2 * s_star**3 of those
    units. `s_star**4 * max|X| * 2**-50` covers both sides of every
    comparison, so no subtree holding a leaf whose canonical sum reaches
    the floor is cut, however the entries cancel, provided no sum overflows
    (inf - inf is a NaN bound, which prunes). A float partial sum is at most
    (1 + 2**-53)**(s_star**2) < 2 times the sum of its absolute terms, at
    most s_star**2 * max|X| (``max_abs``); `scan_estimate` searches only if
    that is at most 2**1022 (`_SUM_LIMIT`), so every sum stays below 2**1023.
    The support is only replaced from search leaves, each finalized by
    `_pair_sum`, so the value and the lexicographic tie rule match the
    exhaustive strategy. Returns the pair sum, the subset, and the leaf,
    node and pruned counts.
    """
    H = _row_top_sums(dense, d, s_star)
    best_val, best_subset = _greedy_seed(dense, d, s_star)
    rounding = s_star**4 * max_abs * 2.0**-50
    leaves = nodes = pruned = 0
    chosen: list[int] = []
    # rowsums[p]: the row sums into the first p chosen vertices; scratch
    # holds one node's children x d gain matrix at a time.
    rowsums = np.zeros((s_star, d))
    scratch = np.empty((d, d))

    def visit_leaf(subset: tuple[int, ...]) -> None:
        nonlocal best_val, best_subset, leaves
        leaves += 1
        val = _pair_sum(dense, subset)
        if val > best_val or (val == best_val and subset < best_subset):
            best_val = val
            best_subset = subset

    def rec(start: int, cur: float) -> None:
        nonlocal nodes, pruned
        nodes += 1
        depth = len(chosen)
        rowsum = rowsums[depth]
        need = s_star - depth
        stop = d - need + 1
        bound = cur + rowsum[start:stop]
        if need > 1:
            # The scratch is consumed here, before any child reuses it.
            kth = d - need + 1
            gains = scratch[: stop - start]
            np.add(H[need - 2, start + 1 : stop + 1], dense[start:stop], out=gains)
            gains += rowsum
            gains.partition(kth, axis=1)
            bound += gains[:, kth:].sum(axis=1)
        slack = _PRUNE_SLACK * (1.0 + abs(best_val)) + rounding
        keep = (bound >= best_val - slack).nonzero()[0]
        pruned += bound.size - keep.size
        for i in keep.tolist():
            if bound[i] < best_val - slack:
                pruned += 1
                continue
            v = start + i
            if need == 1:
                visit_leaf(tuple(chosen) + (v,))
                continue
            chosen.append(v)
            np.add(rowsum, dense[v], out=rowsums[depth + 1])
            rec(v + 1, cur + rowsum[v])
            chosen.pop()

    rec(0, 0.0)
    return best_val, best_subset, leaves, nodes, pruned


def scan_estimate(
    X: NoisyMatrix,
    s_star: int,
    strategy: str = EXHAUSTIVE,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> ScanResult:
    """Exact maximum of the submatrix average over all s_star-subsets.
    Branch-and-bound scans exhaustively (``max_subsets`` guard included)
    where its sums could overflow (see `_branch_and_bound`)."""
    check_s_star(s_star, X.d)
    if strategy not in (EXHAUSTIVE, BRANCH_AND_BOUND):
        raise InvalidParams(f"unknown scan strategy {strategy!r}")
    if max_subsets < 1:
        raise InvalidParams(f"max_subsets must be >= 1, got {max_subsets}")
    dense = X.to_dense()
    max_abs = float(np.abs(X.entries).max())
    if strategy == EXHAUSTIVE or s_star**2 * max_abs > _SUM_LIMIT:
        if math.comb(X.d, s_star) > max_subsets:
            raise TooLarge(
                f"C({X.d},{s_star}) = {math.comb(X.d, s_star)} exceeds the "
                f"exhaustive guard {max_subsets}"
            )
        pair_sum, subset, examined = _exhaustive(dense, X.d, s_star)
        nodes = pruned = 0
    else:
        pair_sum, subset, examined, nodes, pruned = _branch_and_bound(dense, X.d, s_star, max_abs)
    return ScanResult(
        value=_scan_value(pair_sum, s_star),
        support=frozenset(v + 1 for v in subset),
        subsets_examined=examined,
        nodes=nodes,
        pruned=pruned,
    )


def avg_estimate(X: NoisyMatrix, s_star: int) -> float:
    """Full-matrix sum (both triangles) divided by s_star(s_star - 1)."""
    check_s_star(s_star, X.d)
    return 2.0 * float(X.entries.sum()) / (s_star * (s_star - 1))


def max_estimate(X: NoisyMatrix) -> float:
    """Largest off-diagonal entry."""
    return X.max_offdiag()


def lp_estimate(X: NoisyMatrix, s_star: int) -> float:
    """Closed-form optimum of the entrywise linear relaxation:
    s_star/(s_star - 1) times the max estimator."""
    check_s_star(s_star, X.d)
    return s_star / (s_star - 1) * max_estimate(X)
