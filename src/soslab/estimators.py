"""Closed-form and combinatorial estimators of the signal strength.

The scan estimator maximizes the off-diagonal average over all principal
s x s submatrices. Both strategies return the exact maximum; ties in the
argmax are broken by the lexicographically smallest subset. The avg, max
and lp estimators are closed forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import InvalidParams, TooLarge, check_s_star
from .matrix import NoisyMatrix

EXHAUSTIVE = "exhaustive"
BRANCH_AND_BOUND = "branch-and-bound"

DEFAULT_MAX_SUBSETS = 10**8

# Relative slack of branch-and-bound's prune test where its sums are not
# exact, beside the rounding bound `_branch_and_bound` derives; candidate
# leaves are re-evaluated with the same canonical summation the exhaustive
# strategy uses.
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
    return 2.0 * float(pair_sum) / (s_star * (s_star - 1))


def _exhaustive(dense: np.ndarray, d: int, s_star: int) -> tuple[float, tuple[int, ...], int]:
    # max keeps the first of equal sums: the lexicographically smallest subset
    subset = max(combinations(range(d), s_star), key=lambda S: _pair_sum(dense, S))
    return _pair_sum(dense, subset), subset, math.comb(d, s_star)


def _greedy_seed(dense: np.ndarray, d: int, s_star: int) -> tuple[float, tuple[int, ...]]:
    """A feasible subset and its canonical pair sum, a floor for the
    search: the largest entry's pair, grown by the vertex of largest row
    sum into the chosen set until it has s_star vertices. ``dense`` has
    -inf on its diagonal, so neither argmax picks a chosen vertex: its
    entry, and its row sum, read -inf."""
    i, j = divmod(int(np.argmax(dense)), d)
    chosen = [i, j]
    rowsum = dense[i] + dense[j]
    while len(chosen) < s_star:
        v = int(np.argmax(rowsum))
        chosen.append(v)
        rowsum += dense[v]
    subset = tuple(sorted(chosen))
    return _pair_sum(dense, subset), subset


@lru_cache(maxsize=8)
def _front(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The two read-only d x d constants of a search front at column c:
    `layer0[c, u]` is 0, or -inf where u < c (a vertex the front has
    passed), the r = 0 layer of `_row_top_sums`; `ceiling[k, u]` is +inf,
    or -inf where u < d-1-k (passed, with the columns reversed)."""
    passed = np.tri(d, d, -1, dtype=bool)
    layer0 = np.where(passed, -np.inf, 0.0)
    ceiling = np.where(passed[::-1], -np.inf, np.inf)
    layer0.flags.writeable = ceiling.flags.writeable = False
    return layer0, ceiling


def _row_top_sums(dense: np.ndarray, d: int, s_star: int) -> np.ndarray:
    """H[r, c, u] = half the sum of the r largest entries of row u in columns >= c,
    column u left out, for r <= s_star - 2; -inf where u < c (a vertex the
    search front has passed). ``dense`` has -inf on its diagonal, which
    leaves column u out; this reads it through a reversed view and neither
    copies nor writes it.

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

    The passed vertices come from the per-d constants of `_front`: layer 0
    is `layer0`, and the running total starts as min(top_1, ceiling),
    which is top_1 or, where passed, -inf. Every later top is an entry or
    -inf, never +inf, so the passed stay -inf in every layer. The table is
    a new array: the search adds to it in place.
    """
    take = s_star - 2
    layer0, ceiling = _front(d)
    H = np.empty((take + 1, d, d))
    H[0] = layer0
    if take:
        # Reversed columns: rev[k, u] = x_u at column d-1-k of row u, so a
        # suffix over columns is a prefix over k.
        rev = dense[::-1]
        top = np.maximum.accumulate(rev, axis=0)
        total = np.minimum(top, ceiling)
        np.multiply(total[::-1], 0.5, out=H[1])
        for r in range(2, take + 1):
            top[1:] = np.minimum(rev[1:], top[:-1])
            top[0] = -np.inf
            np.maximum.accumulate(top, axis=0, out=top)
            total += top
            np.multiply(total[::-1], 0.5, out=H[r])
    return H


def _sums_are_exact(entries: np.ndarray, s_star: int, max_abs: float) -> bool:
    """Whether every float sum of a branch-and-bound scan is exact.

    True when every entry (of the dense matrix or of its upper triangle)
    is an integer multiple of one power of two, u, and s_star**2 * max|X|
    is below 2**53 units of u/2. A bound or pair sum adds at most
    s_star**2 entries and half entries (the halves come from
    `_row_top_sums`), so each of its partial sums is then a multiple of
    u/2 below 2**53 of them: a float. Entries that are multiples of some
    such u are multiples of the smallest, 2**(e - 52) for
    s_star**2 * max|X| in [2**(e-1), 2**e), raised to 2**-1073 so that u/2
    is a float; that u is tested. The product s_star**2 * max|X| is exact
    when the answer is True, and its rounding never lowers e, so no other
    input passes.
    """
    unit = max(math.ldexp(1.0, math.frexp(s_star**2 * max_abs)[1] - 52), 2.0**-1073)
    # entries / unit is exact or, for entries below unit, not an integer
    return bool(np.all(np.rint(entries / unit) * unit == entries))


def _potential_order(dense: np.ndarray, d: int, s_star: int) -> np.ndarray:
    """Vertices by descending root gain, half the sum of the s_star - 1
    largest entries of their row (diagonal left out: ``dense`` has -inf
    there, and this only reads it); a stable sort."""
    top = np.partition(dense, d - s_star + 1, axis=1)
    gain = 0.5 * top[:, d - s_star + 1 :].sum(axis=1)
    return np.argsort(-gain, kind="stable")


def _branch_and_bound(
    dense: np.ndarray, d: int, s_star: int, max_abs: float, exact: bool
) -> tuple[float, tuple[int, ...], int, int, int]:
    """Depth-first search with an admissible per-vertex gain bound.

    The search runs over the vertices relabelled in some order (below); at
    a node with chosen vertices P (pair sum cur, row sums rowsum) that
    still needs `need` vertices, child v adds v and then need-1 vertices Q
    after v. With rowsum' = rowsum + row v, the pairs of Q sum to half of
    the sum over u in Q of its row entries inside Q, so each u in Q adds at
    most its gain
        rowsum'[u] + 1/2 * (the need-2 largest entries of row u in columns > v,
        column u left out),
    and the child's bound is cur + rowsum[v] plus the need-1 largest gains
    over u > v. The row top-sums come from one table per scan
    (`_row_top_sums`, whose passed-vertex layers are per-d constants),
    into which the scan folds the matrix once: HS[r, v] = H[r, v + 1] +
    searched[v], the association the gains always had, so a node forms
    its children x d gain matrix with one add of rowsum. It bounds all its
    children at once from that matrix: by its row maxima when need is 2,
    else by `np.partition` and a sum of the need-1 largest. At the last
    level the bound is the leaf's own (incrementally summed) pair sum.
    Every leaf is finalized by `_pair_sum` on its original labels, sorted,
    and replaces the incumbent when (value, subset) is larger in value or
    equal in value and lexicographically smaller: the exhaustive
    strategy's value and tie rule.

    A greedy incumbent seeds the value floor and the support. Bounds are
    computed once per node; each child is still compared with the current
    floor before it is expanded. ``exact``, whether the input's sums are
    exact (`_sums_are_exact`), chooses the order and the prune rule:

    - Exact sums. The search keeps the original lexicographic order, and
      bounds and sums are exact, so a child is pruned when its bound is
      below the floor. A child whose bound equals the floor is pruned too
      when its prefix (P and v) is lexicographically later than the
      incumbent's prefix of the same length: every subset in its subtree
      is then later than the incumbent, so none can replace it. This
      always holds once the incumbent came from the search, which visits
      subsets in lexicographic order. On +-1 and 0/1 matrices, where ties
      are everywhere, this cuts the search to a few nodes.
    - Otherwise. The search runs over the vertices in descending root gain
      (`_potential_order`), so strong vertices raise the floor early, and
      keeps every child whose bound is at least the floor minus a slack:
      `_PRUNE_SLACK` relative to the floor plus a bound on float rounding.
      A child's bound and a leaf's canonical pair sum are each a float sum
      of at most s_star**2 terms, entries or half entries, in a summation
      tree of height at most s_star**2, so each lies within
      s_star**4 * max|X| * 2**-53 of its exact value (Higham, "Accuracy
      and Stability of Numerical Algorithms", section 4.2), and choosing
      the top gains by their float values loses at most 2 * s_star**3 of
      those units. `s_star**4 * max|X| * 2**-50` covers both sides of
      every comparison, so no subtree holding a leaf whose canonical sum
      reaches the floor is cut, however the entries cancel. Every sum is
      finite: a float partial sum is at most (1 + 2**-53)**(s_star**2) < 2
      times the sum of its absolute terms, at most s_star**2 * max|X|,
      which `NoisyMatrix`'s entry bound keeps at or below 2**1022. Ties
      are never pruned here, so every leaf of the best value is visited.

    ``dense`` has -inf on its diagonal and is never written. Its diagonal
    adds -inf only to cells of HS that are -inf (passed vertices) and to
    chosen vertices' row sums, read only beside those cells: every bound
    is the float a zero diagonal gives.

    Returns the pair sum, the subset (original labels), and the leaf, node
    and pruned counts.
    """
    best_val, best_subset = _greedy_seed(dense, d, s_star)
    if exact:
        searched, labels = dense, range(d)
        relative = rounding = 0.0
    else:
        order = _potential_order(dense, d, s_star)
        searched, labels = dense.take(order, axis=0).take(order, axis=1), order.tolist()
        relative, rounding = _PRUNE_SLACK, s_star**4 * max_abs * 2.0**-50
    # HS[r, v] = H[r, v + 1] + searched[v] for v < d - 1, added in place.
    H = _row_top_sums(searched, d, s_star)
    HS = H[:, 1:]
    HS += searched[:-1]
    leaves = nodes = pruned = 0
    chosen: list[int] = []
    # rowsums[p]: the row sums into the first p chosen vertices; scratch
    # holds one node's children x d gain matrix at a time.
    rowsums = np.zeros((s_star, d))
    scratch = np.empty((d, d))
    rows = np.arange(d)

    def visit_leaf(v: int) -> None:
        nonlocal best_val, best_subset, leaves
        leaves += 1
        subset = tuple(sorted([labels[u] for u in chosen] + [labels[v]]))
        val = _pair_sum(dense, subset)
        if val > best_val or (val == best_val and subset < best_subset):
            best_val = val
            best_subset = subset

    def tie_limit() -> int:
        """The largest child v of the current node whose subtree can hold
        a subset that ties the incumbent and precedes it; d if ties are
        never pruned. Exact searches run on the original labels, so the
        prefixes compare with the incumbent as they are."""
        if not exact:
            return d
        depth = len(chosen)
        prefix, head = tuple(chosen), best_subset[:depth]
        if prefix != head:
            return d if prefix < head else -1
        return best_subset[depth]

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
            gains = scratch[: stop - start]
            np.add(HS[need - 2, start:stop], rowsum, out=gains)
            if need == 2:
                # the one largest gain; argmax then a gather is faster than max
                bound += gains[rows[: stop - start], gains.argmax(axis=1)]
            else:
                kth = d - need + 1
                gains.partition(kth, axis=1)
                bound += gains[:, kth:].sum(axis=1)
        slack = relative * (1.0 + abs(best_val)) + rounding
        floor = best_val - slack
        keep = bound >= floor
        if exact:
            cut = max(tie_limit() + 1 - start, 0)
            if cut < bound.size:
                keep[cut:] = bound[cut:] > floor
        keep = keep.nonzero()[0]
        pruned += bound.size - keep.size
        for i in keep.tolist():
            floor = best_val - slack
            v = start + i
            if bound[i] < floor or (bound[i] == floor and v > tie_limit()):
                pruned += 1
                continue
            if need == 1:
                visit_leaf(v)
                continue
            chosen.append(v)
            np.add(rowsum, searched[v], out=rowsums[depth + 1])
            rec(v + 1, cur + rowsum[v])
            chosen.pop()

    rec(0, 0.0)
    return best_val, best_subset, leaves, nodes, pruned


def check_scan_settings(strategy: str, max_subsets: int) -> None:
    """The one check of the scan settings, for ``scan_estimate``, configs and the CLI."""
    if strategy not in (EXHAUSTIVE, BRANCH_AND_BOUND):
        raise InvalidParams(f"unknown scan strategy {strategy!r}")
    if max_subsets < 1:
        raise InvalidParams(f"max_subsets must be >= 1, got {max_subsets}")


def scan_estimate(
    X: NoisyMatrix,
    s_star: int,
    strategy: str = BRANCH_AND_BOUND,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> ScanResult:
    """Exact maximum of the submatrix average over all s_star-subsets, by
    branch-and-bound unless ``strategy`` is exhaustive, which ``max_subsets``
    guards."""
    check_s_star(s_star, X.d)
    check_scan_settings(strategy, max_subsets)
    # The scan's own array (see `NoisyMatrix.to_dense`), masked once for
    # every stage; `_pair_sum` never reads a diagonal cell.
    dense = X.to_dense()
    np.fill_diagonal(dense, -np.inf)
    if strategy == EXHAUSTIVE:
        if math.comb(X.d, s_star) > max_subsets:
            raise TooLarge(
                f"C({X.d},{s_star}) = {math.comb(X.d, s_star)} exceeds the "
                f"exhaustive guard {max_subsets}"
            )
        pair_sum, subset, examined = _exhaustive(dense, X.d, s_star)
        nodes = pruned = 0
    else:
        max_abs = float(np.abs(X.entries).max())
        exact = _sums_are_exact(X.entries, s_star, max_abs)
        pair_sum, subset, examined, nodes, pruned = _branch_and_bound(
            dense, X.d, s_star, max_abs, exact
        )
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
    return float(X.entries.max())


def lp_estimate(X: NoisyMatrix, s_star: int) -> float:
    """Closed-form optimum of the entrywise linear relaxation:
    s_star/(s_star - 1) times the max estimator."""
    check_s_star(s_star, X.d)
    return s_star / (s_star - 1) * max_estimate(X)
