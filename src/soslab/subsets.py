"""Set-indexed bookkeeping for the reduced moment-matrix formulation.

Rows of the moment matrix are the subsets of ``{1..d}`` of size <= ell,
variables those of size <= 2*ell, both in (size, lexicographic) order with
the empty set at index 0. The order does not depend on ell, so ``rank``
computes a subset's index from ``d`` alone: the subsets of smaller size
come first, then its combinatorial lexicographic rank within its size.

Subsets have one form, member arrays: rows of 0-based vertices, sorted
ascending and padded on the right with ``d`` (a row's size is its count of
entries below ``d``). ``rank`` is the one ranking of rows, and ``parents``
gives the ranks of the rows one member smaller. Arrays over the variables
(expansivity counts, certificate numerators) are indexed in the same order.
A program shape (d, ell) is two cached arrays: its variables as members
(``variables``) and each moment-matrix cell's variable (``entry_map``).
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .errors import InvalidParams, TooLarge

# Largest moment-matrix side that ``variables`` and ``entry_map`` will build.
MAX_DIM = 4096

# Elements per int64 temporary of a chunked array computation (256 KiB).
_CHUNK = 1 << 15

# Shapes kept by each per-shape cache, the one bound on per-shape state:
# the variables and the entry maps here (an entry map is 88 MB at d=80,
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
    """``binom[j * (width + 1) + r] = C(j - 1, r)``, zero for ``j = 0``
    (where a pad lands), and ``end[k]``, the index of the last subset of
    size k."""
    binom = np.array(
        [0] * (width + 1) + [math.comb(j, r) for j in range(d) for r in range(width + 1)],
        dtype=np.int64,
    )
    end = np.cumsum([math.comb(d, k) for k in range(width + 1)], dtype=np.int64) - 1
    return _read_only(binom), _read_only(end)


def rank(d: int, members: np.ndarray) -> np.ndarray:
    """Index of each row of ``members`` (sorted 0-based vertices padded
    with ``d``) in the (size, lex) order of the subsets of {1..d}.

    A k-subset ``a_0 < ... < a_{k-1}`` is the last one of its size minus
    ``sum_i C(d - 1 - a_i, k - i)``, its co-lexicographic rank after the
    relabelling ``a -> d - 1 - a``, which reverses lexicographic order.
    """
    cols = np.ascontiguousarray(np.asarray(members).T, dtype=np.intp)  # one row per position
    width = len(cols)
    binom, end = _rank_tables(d, width)
    k = (cols < d).sum(axis=0)
    out = end[k]
    for i, col in enumerate(cols):
        out -= binom.take((d - col) * (width + 1) + np.maximum(k - i, 0))
    return out


def parents(d: int, members: np.ndarray) -> np.ndarray:
    """``out[r, p]``: the ``rank`` of row r of ``members`` with its p-th
    member dropped, or, where the row has no p-th member, the pad
    ``var_count(d, width - 1)``, one past the rank of every subset of
    fewer than ``width`` members; int64, filled one position at a time
    (a transposed array, so each column is contiguous)."""
    n, width = members.shape
    out = np.full((width, n), var_count(d, width - 1), dtype=np.int64)
    for p, col in enumerate(out):
        has = members[:, p] < d
        col[has] = rank(d, np.delete(members[has], p, axis=1))
    return out.T


def subset_counts(d: int, max_size: int, sets: np.ndarray) -> np.ndarray:
    """For each subset of {1..d} of size <= max_size, in index order, the
    number of rows of ``sets`` (sorted 0-based vertices, all of one size)
    that contain it; int64."""
    n, width = sets.shape
    picks = [
        np.array(list(combinations(range(width), r)), dtype=np.intp).reshape(math.comb(width, r), r)
        for r in range(min(width, max_size) + 1)
    ]
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
    ``check_side(d, ell)``."""
    check_side(d, ell)
    width = 2 * ell
    # int16 holds every vertex and the pad: the side budget keeps d < 4096.
    members = np.full((var_count(d, width), width), d, dtype=np.int16)
    start = 0
    for k in range(width + 1):
        n = math.comb(d, k)
        flat = chain.from_iterable(combinations(range(d), k))
        members[start : start + n, :k] = np.fromiter(flat, np.int16, n * k).reshape(n, k)
        start += n
    return _read_only(members)


@lru_cache(maxsize=SHAPES_CACHED)
def entry_map(d: int, ell: int) -> np.ndarray:
    """side x side, read-only: cell (r, c) holds the variable of the union of
    rows r and c, computed in row chunks: the two rows' members merged,
    sorted, with repeats turned into pads, then ranked."""
    n, width = check_side(d, ell), 2 * ell
    rows = variables(d, ell)[:n, :ell]
    em = np.empty((n, n), dtype=np.int64)
    step = max(1, _CHUNK // (n * width))
    for start in range(0, n, step):
        head = rows[start : start + step]
        union = np.concatenate(np.broadcast_arrays(head[:, None], rows[None]), axis=2)
        union.sort(axis=2)
        union[..., 1:][union[..., 1:] == union[..., :-1]] = d
        union.sort(axis=2)
        em[start : start + len(head)] = rank(d, union.reshape(-1, width)).reshape(len(head), n)
    return _read_only(em)
