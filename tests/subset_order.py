"""The tuple-keyed reference order of the subsets, for the tests.

Subsets of {1..d} as sorted tuples of 1-based labels, by size and then
lexicographically, straight from ``itertools.combinations``: the order
that ``soslab.subsets`` computes from member arrays, built independently of
it. Test modules compare the array code against these lists and maps.
"""
import math
from itertools import combinations


def subsets_up_to(d, max_size):
    """All subsets of {1..d} of size <= max_size, ordered (size, lex)."""
    return [S for k in range(max_size + 1) for S in combinations(range(1, d + 1), k)]


def key_index(d, key):
    """The index of one sorted 1-based key in Python integers: the last
    index of its size minus ``sum_i C(d - a_i, k - i)``, the oracle of
    ``soslab.subsets.rank``."""
    k = len(key)
    end = sum(math.comb(d, j) for j in range(k + 1)) - 1
    return end - sum(math.comb(d - a, k - i) for i, a in enumerate(key))


def union_key(a, b):
    return tuple(sorted(set(a) | set(b)))


class TupleOrder:
    """The rows (size <= ell) and variables (size <= 2*ell) of shape
    (d, ell) as tuple lists, and the maps from a tuple to its index."""

    def __init__(self, d, ell):
        self.d, self.ell = d, ell
        self.row_subsets = subsets_up_to(d, ell)
        self.var_subsets = subsets_up_to(d, 2 * ell)
        self.row_index = {S: i for i, S in enumerate(self.row_subsets)}
        self.var_index = {S: i for i, S in enumerate(self.var_subsets)}
