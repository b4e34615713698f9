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

from .errors import InvalidParams, TooLarge
from .matrix import NoisyMatrix

EXHAUSTIVE = "exhaustive"
BRANCH_AND_BOUND = "branch-and-bound"

DEFAULT_MAX_SUBSETS = 10**8

# Relative slack used by branch-and-bound so float rounding in incremental
# sums can never prune the true argmax; candidate leaves are re-evaluated
# with the same canonical summation the exhaustive strategy uses.
_PRUNE_SLACK = 1e-9


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
    best_val = -math.inf
    best_subset: tuple[int, ...] | None = None
    count = 0
    for subset in combinations(range(d), s_star):
        count += 1
        val = _pair_sum(dense, subset)
        if val > best_val:
            best_val = val
            best_subset = subset
    assert best_subset is not None
    return best_val, best_subset, count


def _greedy_seed(dense: np.ndarray, d: int, s_star: int) -> float:
    """Lower bound on the optimal pair sum: greedy growth plus 1-swap refinement."""
    masked = dense.copy()
    np.fill_diagonal(masked, -np.inf)
    i, j = np.unravel_index(int(np.argmax(masked)), masked.shape)
    chosen = [int(i), int(j)]
    rowsum = dense[chosen[0]] + dense[chosen[1]]
    while len(chosen) < s_star:
        scores = rowsum.copy()
        scores[chosen] = -np.inf
        v = int(np.argmax(scores))
        chosen.append(v)
        rowsum = rowsum + dense[v]
    improved = True
    while improved:
        improved = False
        inside = set(chosen)
        for idx, u in enumerate(list(chosen)):
            base = rowsum - dense[u]
            gains = base.copy()
            gains[list(inside)] = -np.inf
            v = int(np.argmax(gains))
            if gains[v] > base[u]:
                chosen[idx] = v
                rowsum = base + dense[v]
                inside.discard(u)
                inside.add(v)
                improved = True
    return _pair_sum(dense, tuple(sorted(chosen)))


def _row_top_sums(dense: np.ndarray, d: int, s_star: int) -> np.ndarray:
    """H[r, c, u] = half the sum of the r largest entries of row u in columns >= c,
    column u left out, for r <= s_star - 2; -inf where u < c (a vertex the
    search front has passed).

    Built from column d-1 down: the largest entries of every row over
    columns >= c are those over columns >= c+1 merged with column c, by one
    sort of a d x (s_star - 1) array per column offset.
    """
    take = s_star - 2
    masked = dense.copy()
    np.fill_diagonal(masked, -np.inf)
    # Column 0 takes the next column's entries; after the sort, columns
    # 1..take hold each row's largest entries so far, ascending.
    work = np.full((d, take + 1), -np.inf)
    tops = np.empty((d, d, take))
    for c in range(d - 1, -1, -1):
        work[:, 0] = masked[:, c]
        work.sort(axis=1)
        tops[c] = work[:, 1:]
    H = np.empty((take + 1, d, d))
    H[0] = 0.0
    H[1:] = 0.5 * np.cumsum(tops[:, :, ::-1], axis=2).transpose(2, 0, 1)
    H[:, np.tri(d, d, -1, dtype=bool)] = -np.inf
    return H


def _branch_and_bound(
    dense: np.ndarray, d: int, s_star: int
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

    A greedy incumbent seeds the value floor. Bounds are computed once per
    node; each child is still compared with the current floor, minus
    `_PRUNE_SLACK`, before it is expanded. The argmax subset is only
    recorded from search leaves, each finalized by `_pair_sum`, so the
    value and the lexicographic tie rule match the exhaustive strategy.
    Returns the pair sum, the subset, and the leaf, node and pruned counts.
    """
    H = _row_top_sums(dense, d, s_star)
    best_val = _greedy_seed(dense, d, s_star)
    best_subset: tuple[int, ...] | None = None
    leaves = nodes = pruned = 0
    chosen: list[int] = []

    def visit_leaf(subset: tuple[int, ...]) -> None:
        nonlocal best_val, best_subset, leaves
        leaves += 1
        val = _pair_sum(dense, subset)
        if val > best_val:
            best_val = val
            best_subset = subset
        elif val == best_val and (best_subset is None or subset < best_subset):
            best_subset = subset

    def rec(start: int, cur: float, rowsum: np.ndarray) -> None:
        nonlocal nodes, pruned
        nodes += 1
        need = s_star - len(chosen)
        stop = d - need + 1
        bound = cur + rowsum[start:stop]
        if need > 1:
            gains = H[need - 2, start + 1 : stop + 1] + dense[start:stop] + rowsum
            bound = bound + np.partition(gains, d - need + 1, axis=1)[:, d - need + 1 :].sum(axis=1)
        slack = _PRUNE_SLACK * (1.0 + abs(best_val))
        keep = np.flatnonzero(bound >= best_val - slack)
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
            rec(v + 1, cur + rowsum[v], rowsum + dense[v])
            chosen.pop()

    rec(0, 0.0, np.zeros(d))
    # The greedy floor is attained by a feasible subset, which bounds cannot
    # prune, so a leaf always lands.
    assert best_subset is not None
    return best_val, best_subset, leaves, nodes, pruned


def scan_estimate(
    X: NoisyMatrix,
    s_star: int,
    strategy: str = EXHAUSTIVE,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> ScanResult:
    """Exact maximum of the submatrix average over all s_star-subsets."""
    if not 2 <= s_star <= X.d:
        raise InvalidParams(f"need 2 <= s_star <= d, got s_star={s_star}, d={X.d}")
    if strategy not in (EXHAUSTIVE, BRANCH_AND_BOUND):
        raise InvalidParams(f"unknown scan strategy {strategy!r}")
    dense = X.to_dense()
    if strategy == EXHAUSTIVE:
        if math.comb(X.d, s_star) > max_subsets:
            raise TooLarge(
                f"C({X.d},{s_star}) = {math.comb(X.d, s_star)} exceeds the "
                f"exhaustive guard {max_subsets}"
            )
        pair_sum, subset, examined = _exhaustive(dense, X.d, s_star)
        nodes = pruned = 0
    else:
        pair_sum, subset, examined, nodes, pruned = _branch_and_bound(dense, X.d, s_star)
    return ScanResult(
        value=_scan_value(pair_sum, s_star),
        support=frozenset(v + 1 for v in subset),
        subsets_examined=examined,
        nodes=nodes,
        pruned=pruned,
    )


def avg_estimate(X: NoisyMatrix, s_star: int) -> float:
    """Full-matrix sum (both triangles) divided by s_star(s_star - 1)."""
    if s_star < 2:
        raise InvalidParams("s_star must be >= 2")
    return 2.0 * float(X.entries.sum()) / (s_star * (s_star - 1))


def max_estimate(X: NoisyMatrix) -> float:
    """Largest off-diagonal entry."""
    return X.max_offdiag()


def lp_estimate(X: NoisyMatrix, s_star: int) -> float:
    """Closed-form optimum of the entrywise linear relaxation:
    s_star/(s_star - 1) times the max estimator."""
    if s_star < 2:
        raise InvalidParams("s_star must be >= 2")
    return s_star / (s_star - 1) * max_estimate(X)
