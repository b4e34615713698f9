"""Set-indexed bookkeeping for the reduced moment-matrix formulation.

Rows of the moment matrix are the subsets of ``{1..d}`` of size <= ell,
variables those of size <= 2*ell, both in (size, lexicographic) order with
the empty set at index 0. The order does not depend on ell, so ``rank``
computes a subset's index from ``d`` alone: the subsets of smaller size
come first, then its combinatorial lexicographic rank within its size.

Subsets have one form, member arrays: rows of 0-based vertices, sorted
ascending and padded on the right with ``d`` (a row's size is its count of
entries below ``d``). ``rank`` indexes rows, and ``parents`` the rows one
member smaller. Arrays over the variables (expansivity counts, certificate
numerators) are indexed in the same order; sorted tuples of 1-based labels
are only the key form of their views (``NonzeroView``, ``key_index``).
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from functools import lru_cache
from itertools import chain, combinations
from typing import Callable, Iterable

import numpy as np

from .errors import InvalidParams, TooLarge

# Largest moment-matrix side an indexer will build.
MAX_DIM = 4096

# Elements per int64 temporary of a chunked array computation (256 KiB).
_CHUNK = 1 << 15


def canonical_key(vertices: Iterable[int]) -> tuple[int, ...]:
    """Sorted-tuple key of a vertex collection (duplicates merged)."""
    return tuple(sorted(set(vertices)))


def var_count(d: int, max_size: int) -> int:
    """Number of subsets of {1..d} with size <= max_size."""
    return sum(math.comb(d, k) for k in range(max_size + 1))


def sizes(d: int, max_size: int) -> np.ndarray:
    """Size of each subset of {1..d} of size <= max_size, in index order."""
    return np.repeat(np.arange(max_size + 1), [math.comb(d, k) for k in range(max_size + 1)])


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


def key_index(d: int, key: tuple[int, ...]) -> int:
    """``rank`` of one sorted 1-based key, in Python integers."""
    k = len(key)
    return _size_end(d, k) - sum(math.comb(d - a, k - i) for i, a in enumerate(key))


@lru_cache(maxsize=1024)
def _size_end(d: int, k: int) -> int:
    """Index of the last subset of size k."""
    return var_count(d, k) - 1


def is_subset_key(key, d: int, max_size: int) -> bool:
    """True for a strictly increasing tuple of at most max_size vertices
    inside 1..d."""
    return (
        isinstance(key, tuple)
        and len(key) <= max_size
        and all(a < b for a, b in zip(key, key[1:]))
        and (not key or (1 <= key[0] and key[-1] <= d))
    )


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


class SubsetIndexer:
    """The subsets of one program shape (d, ell) as member arrays.

    ``members`` holds the variables, the subsets of size <= 2*ell, as a
    read-only padded member array (width 2*ell) in index order, so
    ``rank(d, members)`` is ``0..var_count-1`` and ``parents(d, members)``
    gives each variable's parents; the rows of the moment matrix are its
    first ``dim`` entries, and ``entry_map`` gives each cell's variable.
    """

    def __init__(self, d: int, ell: int):
        if ell < 1:
            raise InvalidParams("ell must be >= 1")
        n_rows = var_count(d, ell)
        if n_rows > MAX_DIM:
            raise TooLarge(
                f"moment matrix side {n_rows} exceeds the budget {MAX_DIM} "
                f"(d={d}, ell={ell})"
            )
        self.d = d
        self.ell = ell
        self.dim = n_rows
        self.var_count = var_count(d, 2 * ell)
        width = 2 * ell
        # int16 holds every vertex and the pad: the side budget keeps d < 4096.
        members = np.full((self.var_count, width), d, dtype=np.int16)
        start = 0
        for k in range(width + 1):
            n = math.comb(d, k)
            flat = chain.from_iterable(combinations(range(d), k))
            members[start : start + n, :k] = np.fromiter(flat, np.int16, n * k).reshape(n, k)
            start += n
        self.members = _read_only(members)
        self._entry_map: np.ndarray | None = None

    def entry_map(self) -> np.ndarray:
        """dim x dim array: cell (r, c) holds the variable index of the
        union of row subsets r and c. Symmetric, read-only; computed once,
        in row chunks: each union is the two rows' members merged, sorted,
        with repeats turned into pads, then ranked."""
        if self._entry_map is None:
            n, d, width = self.dim, self.d, 2 * self.ell
            rows = self.members[:n, : self.ell]
            em = np.empty((n, n), dtype=np.int64)
            step = max(1, _CHUNK // (n * width))
            for start in range(0, n, step):
                head = rows[start : start + step]
                union = np.concatenate(np.broadcast_arrays(head[:, None], rows[None]), axis=2)
                union.sort(axis=2)
                union[..., 1:][union[..., 1:] == union[..., :-1]] = d
                union.sort(axis=2)
                em[start : start + len(head)] = rank(d, union.reshape(-1, width)).reshape(len(head), n)
            self._entry_map = _read_only(em)
        return self._entry_map


@lru_cache(maxsize=64)
def subset_indexer(d: int, ell: int) -> SubsetIndexer:
    """Shared indexer instances; safe to cache because they are immutable."""
    return SubsetIndexer(d, ell)


class NonzeroView(Mapping):
    """Read-only mapping over the nonzero entries of an array indexed by
    the subsets of {1..d} of size <= 2*ell: sorted-tuple keys, values
    passed through ``convert``. ``len`` counts the nonzero entries;
    iteration, in index order, decodes each key from the member rows of
    ``subset_indexer``."""

    def __init__(self, d: int, ell: int, arr: np.ndarray, convert: Callable):
        self._d, self._ell, self._arr, self._convert = d, ell, arr, convert

    def __len__(self) -> int:
        return int(np.count_nonzero(self._arr))

    def __iter__(self):
        members = subset_indexer(self._d, self._ell).members[np.flatnonzero(self._arr)]
        return (tuple(v + 1 for v in row if v < self._d) for row in members.tolist())

    def __getitem__(self, key):
        if is_subset_key(key, self._d, 2 * self._ell):
            value = self._arr[key_index(self._d, key)]
            if value:
                return self._convert(value)
        raise KeyError(key)
