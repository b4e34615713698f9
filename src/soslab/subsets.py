"""Set-indexed bookkeeping for the reduced moment-matrix formulation.

Rows of the moment matrix are the subsets of ``{1..d}`` of size <= ell,
variables those of size <= 2*ell, both in (size, lexicographic) order with
the empty set at index 0. The order does not depend on ell, so ``rank``
computes a subset's index from ``d`` alone: the subsets of smaller size
come first, then its combinatorial lexicographic rank within its size.

Subsets have one form, member arrays: rows of 0-based vertices, sorted
ascending and padded on the right with ``d`` (a row's size is its count of
entries below ``d``). ``rank`` is the one ranking of rows, and also ranks
rows whose pads sit between their members; ``parents`` gives the ranks of
the rows one member smaller. Arrays over the variables
(expansivity counts, certificate numerators) are indexed in the same order.
A program shape (d, ell) is two cached arrays: its variables as members
(``variables``) and each moment-matrix cell's variable (``entry_map``).
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import InvalidParams, TooLarge

# Largest moment-matrix side that ``variables`` and ``entry_map`` will build.
MAX_DIM = 4096

# Elements per int64 temporary of a chunked array computation (256 KiB).
_CHUNK = 1 << 15

# Shapes kept by each per-shape cache, the one bound on per-shape state:
# the variables and the entry maps here (an entry map is 84 MB at d=80,
# ell=2), and the equality systems of ``sos``, each with the solver's
# set-up once solved (the level-2 system at d=16 keeps about 0.6 MB of
# CSR arrays, 1.5 MB at d=20).
SHAPES_CACHED = 8


def var_count(d: int, max_size: int) -> int:
    """Number of subsets of {1..d} with size <= max_size."""
    return sum(math.comb(d, k) for k in range(max_size + 1))


def sizes(d: int, max_size: int) -> np.ndarray:
    """Size of each subset of {1..d} of size <= max_size, in index order."""
    return np.repeat(np.arange(max_size + 1), [math.comb(d, k) for k in range(max_size + 1)])


def pair_variables(d: int) -> slice:
    """The variables of the pairs {i, j}, i < j, in the row-major storage
    order of ``NoisyMatrix.entries``: in the (size, lex) order the empty
    set and the d singletons come first, and the pairs of one size are in
    lexicographic order, which is that storage order."""
    return slice(1 + d, 1 + d + math.comb(d, 2))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=64)
def _rank_tables(d: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """``binom[a * (width + 1) + r] = C(d - 1 - a, r)``, zero for the pad
    ``a = d``, and ``end[k]``, the index of the last subset of size k."""
    binom = np.array(
        [math.comb(d - 1 - a, r) for a in range(d) for r in range(width + 1)] + [0] * (width + 1),
        dtype=np.int64,
    )
    end = np.cumsum([math.comb(d, k) for k in range(width + 1)], dtype=np.int64) - 1
    return _read_only(binom), _read_only(end)


def rank(d: int, members: np.ndarray) -> np.ndarray:
    """Index of each row of ``members`` (ascending 0-based vertices, with
    the pad ``d`` anywhere among them) in the (size, lex) order of the
    subsets of {1..d}.

    A k-subset ``a_0 < ... < a_{k-1}`` is the last one of its size minus
    ``sum_i C(d - 1 - a_i, k - i)``, its co-lexicographic rank after the
    relabelling ``a -> d - 1 - a``, which reverses lexicographic order.
    ``k - i`` is counted per row as the members from ``a_i`` on, so a pad
    adds nothing wherever it sits.
    """
    cols = np.ascontiguousarray(np.asarray(members).T, dtype=np.intp)  # one row per position
    width = len(cols)
    binom, end = _rank_tables(d, width)
    real = cols < d
    left = real.sum(axis=0)
    out = end[left]
    for col, is_real in zip(cols, real):
        at = col * (width + 1)
        at += left
        out -= binom.take(at)
        left -= is_real
    return out


@lru_cache(maxsize=64)
def _picks(width: int, r: int) -> np.ndarray:
    """The r-subsets of the positions 0..width-1 as rows, in lex order;
    read-only."""
    picks = np.array(list(combinations(range(width), r)), dtype=np.intp)
    return _read_only(picks.reshape(math.comb(width, r), r))


def parents(d: int, members: np.ndarray) -> np.ndarray:
    """``out[r, p]``: the ``rank`` of row r of ``members`` with its p-th
    member dropped, or, where the row has no p-th member, the pad
    ``var_count(d, width - 1)``, one past the rank of every subset of
    fewer than ``width`` members; int64, filled one position at a time
    (a transposed array, so each column is contiguous)."""
    n, width = members.shape
    out = np.full((width, n), var_count(d, width - 1), dtype=np.int64)
    keep = _picks(width, width - 1)[::-1]  # keep[p]: every position but p
    for p, col in enumerate(out):
        has = members[:, p] < d
        col[has] = rank(d, members[has][:, keep[p]])
    return out.T


def subset_counts(d: int, max_size: int, sets: np.ndarray) -> np.ndarray:
    """For each subset of {1..d} of size <= max_size, in index order, the
    number of rows of ``sets`` (sorted 0-based vertices, all of one size)
    that contain it; int64."""
    n, width = sets.shape
    picks = [_picks(width, r) for r in range(min(width, max_size) + 1)]
    counts = np.zeros(var_count(d, max_size), dtype=np.int64)
    step = max(1, _CHUNK // max(1, sum(p.size for p in picks)))
    for start in range(0, n, step):
        chunk = sets[start : start + step]
        ranks = [rank(d, chunk[:, p].reshape(len(chunk) * len(p), p.shape[1])) for p in picks]
        counts += np.bincount(np.concatenate(ranks), minlength=len(counts))
    return counts


def check_side(d: int, ell: int) -> int:
    """The moment-matrix side ``var_count(d, ell)``, once checked: ell >= 1, side <= MAX_DIM."""
    if ell < 1:
        raise InvalidParams("ell must be >= 1")
    side = var_count(d, ell)
    if side > MAX_DIM:
        raise TooLarge(f"moment matrix side {side} exceeds the budget {MAX_DIM} (d={d}, ell={ell})")
    return side


@lru_cache(maxsize=SHAPES_CACHED)
def variables(d: int, ell: int) -> np.ndarray:
    """The subsets of size <= 2*ell, as a read-only member array of width
    2*ell in index order; the moment matrix's rows are its first
    ``check_side(d, ell)``. Built one size at a time, in place: in lex
    order the (k+1)-subsets are the k-subsets, each followed in turn by
    every vertex above its last."""
    check_side(d, ell)
    width = 2 * ell
    # int16 holds every vertex and the pad: the side budget keeps d < 4096.
    members = np.full((var_count(d, width), width), d, dtype=np.int16)
    start, last = 0, np.full(1, -1, dtype=np.int16)  # the empty set, before vertex 0
    for k in range(width):
        rows = members[start : start + math.comb(d, k)]
        start += len(rows)
        grown = members[start : start + math.comb(d, k + 1)]
        if not len(grown):
            break
        counts = d - 1 - last
        for col in range(k):
            grown[:, col] = np.repeat(rows[:, col], counts)
        # the new vertex counts up by one over a row's run, from the row's
        # last + 1, so a run's first step starts from d - 1, where the run
        # before it ended (the first run's from 0)
        steps = np.ones(len(grown), dtype=np.int16)
        runs = counts > 0
        steps[(np.cumsum(counts) - counts)[runs]] = last[runs] + 2 - d
        steps[0] = last[0] + 1
        np.cumsum(steps, dtype=np.int16, out=grown[:, k])
        last = grown[:, k]
    return _read_only(members)


@lru_cache(maxsize=None)
def _merge_network(half: int) -> tuple[tuple[int, int], ...]:
    """Batcher's odd-even merge of two sorted runs of ``half`` values, a
    power of two, at places [0, half) and [half, 2*half): comparators
    (lo, hi), in the order to apply them, each moving the smaller of its
    two values to place lo."""
    def merge(lo: int, hi: int, r: int):  # the places lo, lo + r, ..., hi
        if 2 * r < hi - lo:
            yield from merge(lo, hi, 2 * r)
            yield from merge(lo + r, hi, 2 * r)
            yield from ((i, i + r) for i in range(lo + r, hi - r, 2 * r))
        else:
            yield lo, lo + r

    return tuple(merge(0, 2 * half - 1, 1))


@lru_cache(maxsize=SHAPES_CACHED)
def entry_map(d: int, ell: int) -> np.ndarray:
    """side x side, read-only: cell (r, c) holds the variable of the union of
    rows r and c, computed in row chunks. A chunk's rows and all rows are
    two sorted runs of members per cell, merged by ``_merge_network`` as
    elementwise minima and maxima of whole columns; each run is padded to
    a power of two with pads, which sort past the union's 2*ell places.
    Repeats then become pads, and ``rank`` ranks the unions as they lie."""
    n, width = check_side(d, ell), 2 * ell
    rows = variables(d, ell)[:n, :ell]
    half = 1 << (ell - 1).bit_length()
    pads = [None] * (half - ell)  # None is a column of pads
    em = np.empty((n, n), dtype=np.int64)
    step = max(1, _CHUNK // (n * width))
    union = np.empty((width, step, n), dtype=np.intp)
    for start in range(0, n, step):
        head = rows[start : start + step]
        wires = [head[:, i, None] for i in range(ell)] + pads + list(rows.T) + pads
        for i, j in _merge_network(half):
            lo, hi = wires[i], wires[j]
            if hi is None:  # pads stay above every value
                continue
            if lo is None:
                wires[i], wires[j] = hi, None
            else:
                wires[i], wires[j] = np.minimum(lo, hi), np.maximum(lo, hi)
        cols = union[:, : len(head)]
        for col, wire in zip(cols, wires):
            col[...] = wire
        np.copyto(cols[1:], d, where=cols[1:] == cols[:-1])
        em[start : start + len(head)] = rank(d, cols.reshape(width, -1).T).reshape(len(head), n)
    return _read_only(em)
