import math

import pytest

from soslab.errors import InvalidParams, TooLarge
from soslab.subsets import SubsetIndexer, canonical_key, subset_indexer, union_key


def test_counts_d4_ell1():
    idx = SubsetIndexer(4, 1)
    assert idx.dim == 5
    assert idx.var_count == 11


def test_counts_d10_ell2():
    idx = SubsetIndexer(10, 2)
    assert idx.dim == 56
    assert idx.var_count == 386


def test_ordering_starts_with_empty_set():
    idx = SubsetIndexer(2, 1)
    assert idx.row_subsets == [(), (1,), (2,)]
    assert idx.row_index[()] == 0


def test_ordering_by_size_then_lex():
    idx = SubsetIndexer(4, 2)
    sizes = [len(s) for s in idx.row_subsets]
    assert sizes == sorted(sizes)
    pairs = [s for s in idx.row_subsets if len(s) == 2]
    assert pairs == sorted(pairs)


def test_bijections():
    idx = SubsetIndexer(6, 2)
    for i, s in enumerate(idx.row_subsets):
        assert idx.row_index[s] == i
    for i, s in enumerate(idx.var_subsets):
        assert idx.var_index[s] == i
    assert len(idx.row_index) == idx.dim
    assert len(idx.var_index) == idx.var_count
    assert idx.var_count == sum(math.comb(6, k) for k in range(5))


def test_entry_map_symmetric_and_total():
    idx = SubsetIndexer(5, 1)
    em = idx.entry_map()
    assert (em == em.T).all()
    # every variable of size <= 2 appears somewhere in the matrix
    assert set(em.ravel()) == set(range(idx.var_count))
    r = idx.row_index[(2,)]
    c = idx.row_index[(4,)]
    assert em[r, c] == idx.var_index[(2, 4)]
    assert em[r, r] == idx.var_index[(2,)]


def test_budget_guard():
    with pytest.raises(TooLarge):
        SubsetIndexer(100, 2)
    with pytest.raises(InvalidParams):
        SubsetIndexer(5, 0)


def test_keys():
    assert canonical_key([3, 1, 3]) == (1, 3)
    assert union_key((1, 2), (2, 5)) == (1, 2, 5)


def test_cached_factory_returns_shared_instance():
    assert subset_indexer(7, 1) is subset_indexer(7, 1)
