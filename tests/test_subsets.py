import math
import tracemalloc

import numpy as np
import pytest

from soslab.errors import InvalidParams, TooLarge
from soslab.subsets import (
    MAX_DIM,
    SHAPES_CACHED,
    check_side,
    entry_map,
    parents,
    rank,
    subset_counts,
    var_count,
    variables,
)
from constructors import nonzero_entries
from subset_order import TupleOrder, key_index, union_key

SHAPES = [(d, ell) for d in range(1, 13) for ell in (1, 2, 3)] + [(30, 2), (8, 4), (9, 4)]


def test_counts_d4_ell1():
    assert check_side(4, 1) == 5
    assert len(variables(4, 1)) == 11
    assert entry_map(4, 1).shape == (5, 5)


def test_counts_d10_ell2():
    assert check_side(10, 2) == 56
    assert len(variables(10, 2)) == 386
    assert entry_map(10, 2).shape == (56, 56)


def test_ordering_starts_with_empty_set():
    idx = TupleOrder(2, 1)
    assert idx.row_subsets == [(), (1,), (2,)]
    assert idx.row_index[()] == 0


def test_ordering_by_size_then_lex():
    idx = TupleOrder(4, 2)
    sizes = [len(s) for s in idx.row_subsets]
    assert sizes == sorted(sizes)
    pairs = [s for s in idx.row_subsets if len(s) == 2]
    assert pairs == sorted(pairs)


def test_bijections():
    order = TupleOrder(6, 2)
    for i, s in enumerate(order.row_subsets):
        assert order.row_index[s] == i
    for i, s in enumerate(order.var_subsets):
        assert order.var_index[s] == i
    assert len(order.row_index) == check_side(6, 2)
    assert len(order.var_index) == len(variables(6, 2))
    assert len(variables(6, 2)) == sum(math.comb(6, k) for k in range(5))


def test_entry_map_symmetric_and_total():
    em = entry_map(5, 1)
    assert (em == em.T).all()
    # every variable of size <= 2 appears somewhere in the matrix
    assert set(em.ravel()) == set(range(var_count(5, 2)))
    order = TupleOrder(5, 1)
    r = order.row_index[(2,)]
    c = order.row_index[(4,)]
    assert em[r, c] == order.var_index[(2, 4)]
    assert em[r, r] == order.var_index[(2,)]


def test_budget_guard():
    # d=90, ell=2 has side 4096, the budget; d=91 one beyond it
    assert check_side(90, 2) == MAX_DIM
    for build in (check_side, variables, entry_map):
        with pytest.raises(TooLarge, match=r"^moment matrix side 4187 exceeds the budget 4096 \(d=91, ell=2\)$"):
            build(91, 2)
        with pytest.raises(InvalidParams, match="^ell must be >= 1$"):
            build(5, 0)


def test_keys():
    assert union_key((1, 2), (2, 5)) == (1, 2, 5)


def test_cached_factory_returns_shared_instance():
    assert variables(7, 1) is variables(7, 1)
    assert entry_map(7, 1) is entry_map(7, 1)


def test_cached_factory_keeps_at_most_SHAPES_CACHED_shapes():
    # an entry map is 84 MB at d=80, ell=2
    for build in (variables, entry_map):
        build.cache_clear()
        first = build(3, 1)
        for d in range(4, 4 + SHAPES_CACHED):
            build(d, 1)
        assert build.cache_info().currsize == SHAPES_CACHED
        assert build(3, 1) is not first


@pytest.mark.parametrize("d, ell", [(30, 2), (60, 2), (20, 3)])
def test_builds_allocate_little_beyond_their_results(d, ell):
    # a build that stacks whole sizes of subsets, or whole unions, and then
    # copies them peaks well above these bounds
    variables.cache_clear()
    entry_map.cache_clear()
    tracemalloc.start()
    try:
        members = variables(d, ell)
        _, peak = tracemalloc.get_traced_memory()
        assert peak <= 2 * members.nbytes
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        em = entry_map(d, ell)
        _, peak = tracemalloc.get_traced_memory()
        assert peak - before <= em.nbytes + 2**20
    finally:
        tracemalloc.stop()
        variables.cache_clear()
        entry_map.cache_clear()


@pytest.mark.parametrize("d, ell", SHAPES)
def test_rank_and_members_match_the_subset_order(d, ell):
    members, order = variables(d, ell), TupleOrder(d, ell)
    assert members.dtype == np.int16 and not members.flags.writeable
    assert [tuple(int(v) + 1 for v in row if v < d) for row in members] == order.var_subsets
    assert rank(d, members).tolist() == list(range(len(members)))
    assert [key_index(d, key) for key in order.var_subsets] == list(range(len(members)))


@pytest.mark.parametrize("d, ell", SHAPES)
def test_entry_map_matches_dict_reference(d, ell):
    order = TupleOrder(d, ell)
    ref = np.array(
        [[order.var_index[union_key(a, b)] for b in order.row_subsets] for a in order.row_subsets],
        dtype=np.int64,
    )
    em = entry_map(d, ell)
    assert em.dtype == np.int64
    assert not em.flags.writeable
    assert em.shape == ref.shape
    assert em.tobytes() == ref.tobytes()


def test_rank_width_zero_and_padding():
    assert rank(5, np.zeros((3, 0), dtype=np.int64)).tolist() == [0, 0, 0]
    # the same subset at every padded width
    for width in (2, 3, 6):
        assert rank(5, np.array([[1, 3] + [5] * (width - 2)])).tolist() == [key_index(5, (2, 4))]


def test_rank_reads_pads_between_members():
    # entry_map ranks unions whose repeats became pads where they lay
    members = variables(9, 2)
    rng = np.random.default_rng(0)
    spread = np.full((len(members), 6), 9)
    for row, out in zip(members, spread):
        out[np.sort(rng.choice(6, 4, replace=False))] = row
    assert (spread[:, :4] != members).any()
    assert rank(9, spread).tolist() == list(range(len(members)))


def test_subset_counts_matches_brute_force():
    sets = np.array([(0, 1, 2, 4), (0, 2, 3, 4), (1, 2, 3, 5)])
    counts = subset_counts(6, 4, sets)
    assert counts.dtype == np.int64
    for j, S in enumerate(TupleOrder(6, 2).var_subsets):
        inside = sum(all(v - 1 in row for v in S) for row in sets.tolist())
        assert counts[j] == inside
    # sizes above max_size are not counted
    assert subset_counts(6, 1, sets).tolist() == counts[:7].tolist()


def test_nonzero_view_reads_only_nonzero_moments():
    # the tests' reader of an array over the variables, keyed by tuples
    arr = np.zeros(var_count(4, 2), dtype=np.int64)
    arr[[0, 2, 6]] = [5, 7, 9]  # (), (2,), (1, 3)
    view = nonzero_entries(4, 1, arr, lambda v: int(v) * 10)
    assert len(view) == 3
    assert view == {(): 50, (2,): 70, (1, 3): 90}
    assert view.get((1,)) is None  # zero entry
    for junk in ((3, 1), (1, 1), (0,), (5,), (1, 2, 3)):
        assert junk not in view


@pytest.mark.parametrize("d, ell", SHAPES)
def test_parents_matches_tuple_reference(d, ell):
    members, order = variables(d, ell), TupleOrder(d, ell)
    pad = var_count(d, 2 * ell - 1)
    ref = np.full((len(members), 2 * ell), pad, dtype=np.int64)
    for j, T in enumerate(order.var_subsets):
        for p in range(len(T)):
            ref[j, p] = order.var_index[T[:p] + T[p + 1 :]]
    got = parents(d, members)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("d, ell", SHAPES)
def test_nonzero_view_iterates_in_tuple_order(d, ell):
    order = TupleOrder(d, ell)
    arr = np.arange(len(order.var_subsets)) % 3  # zero at every third index
    got = list(nonzero_entries(d, ell, arr, int))
    assert got == [S for S, v in zip(order.var_subsets, arr) if v]
