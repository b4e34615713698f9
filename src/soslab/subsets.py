"""Set-indexed bookkeeping for the reduced moment-matrix formulation.

Subsets of ``{1..d}`` are keyed by sorted tuples of vertex labels. Rows of
the moment matrix are the subsets of size <= ell, variables are the subsets
of size <= 2*ell; both orderings are (size, lexicographic) with the empty
set at index 0.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Iterable

import numpy as np

from .errors import InvalidParams, TooLarge

DEFAULT_MAX_DIM = 4096


def canonical_key(vertices: Iterable[int]) -> tuple[int, ...]:
    """Sorted-tuple key of a vertex collection (duplicates merged)."""
    return tuple(sorted(set(vertices)))


def union_key(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(set(a) | set(b)))


def subsets_up_to(d: int, max_size: int) -> list[tuple[int, ...]]:
    """All subsets of {1..d} with size <= max_size, ordered (size, lex)."""
    out: list[tuple[int, ...]] = []
    for k in range(max_size + 1):
        out.extend(combinations(range(1, d + 1), k))
    return out


class SubsetIndexer:
    """Bijections between small subsets and contiguous indices.

    ``row_index`` maps subsets of size <= ell to ``0..N-1`` and
    ``var_index`` maps subsets of size <= 2*ell to ``0..V-1``.
    """

    def __init__(self, d: int, ell: int, max_dim: int = DEFAULT_MAX_DIM):
        if ell < 1:
            raise InvalidParams("ell must be >= 1")
        n_rows = sum(math.comb(d, k) for k in range(ell + 1))
        if n_rows > max_dim:
            raise TooLarge(
                f"moment matrix side {n_rows} exceeds the budget {max_dim} "
                f"(d={d}, ell={ell})"
            )
        self.d = d
        self.ell = ell
        self.row_subsets = subsets_up_to(d, ell)
        self.row_index = {s: i for i, s in enumerate(self.row_subsets)}
        self.var_subsets = subsets_up_to(d, 2 * ell)
        self.var_index = {s: i for i, s in enumerate(self.var_subsets)}
        self.dim = len(self.row_subsets)
        self.var_count = len(self.var_subsets)
        self._entry_map: np.ndarray | None = None

    def entry_map(self) -> np.ndarray:
        """dim x dim array: cell (r, c) holds the variable index of the
        union of row subsets r and c. Symmetric, read-only; computed once."""
        if self._entry_map is None:
            n = self.dim
            em = np.empty((n, n), dtype=np.int64)
            for r, sr in enumerate(self.row_subsets):
                for c in range(r, n):
                    v = self.var_index[union_key(sr, self.row_subsets[c])]
                    em[r, c] = v
                    em[c, r] = v
            em.flags.writeable = False
            self._entry_map = em
        return self._entry_map


@lru_cache(maxsize=64)
def subset_indexer(d: int, ell: int, max_dim: int = DEFAULT_MAX_DIM) -> SubsetIndexer:
    """Shared indexer instances; safe to cache because they are immutable."""
    return SubsetIndexer(d, ell, max_dim)
