import numpy as np
import pytest

from soslab.errors import InvalidParams
from soslab.matrix import (
    NoisyMatrix,
    n_pairs,
    pair_indices,
    read_matrix_json,
    write_matrix_json,
)
from constructors import entry, matrix_from_dense, pair_position, pairs


def test_pair_index_round_trip():
    d = 7
    seen = set()
    for pos, (i, j) in enumerate(pairs(d)):
        assert pair_position(d, i, j) == pos
        seen.add(pos)
    assert seen == set(range(n_pairs(d)))


def test_pair_indices_are_cached_read_only_triu_indices():
    for d in (2, 3, 7):
        rows, cols = pair_indices(d)
        want = np.triu_indices(d, 1)
        assert np.array_equal(rows, want[0]) and np.array_equal(cols, want[1])
        assert not rows.flags.writeable and not cols.flags.writeable
        assert pair_indices(d)[0] is rows
        assert [(i + 1, j + 1) for i, j in zip(rows.tolist(), cols.tolist())] == pairs(d)


def test_storage_enforces_symmetry_and_zero_diagonal():
    X = NoisyMatrix(d=3, entries=np.array([1.0, 2.0, 3.0]))
    assert entry(X, 1, 2) == 1.0
    assert entry(X, 2, 1) == 1.0
    assert entry(X, 3, 1) == 2.0
    assert entry(X, 2, 2) == 0.0
    dense = X.to_dense()
    assert np.array_equal(dense, dense.T)
    assert np.all(np.diag(dense) == 0.0)


def test_dense_round_trip():
    rng = np.random.default_rng(3)
    full = rng.standard_normal((5, 5))
    full = full + full.T
    np.fill_diagonal(full, 0.0)
    X = matrix_from_dense(full)
    assert np.array_equal(X.to_dense(), full)


def test_invalid_construction():
    with pytest.raises(InvalidParams):
        NoisyMatrix(d=1, entries=np.array([]))
    with pytest.raises(InvalidParams):
        NoisyMatrix(d=3, entries=np.array([1.0, 2.0]))
    with pytest.raises(InvalidParams):
        NoisyMatrix(d=2, entries=np.array([np.nan]))


def test_entries_are_read_only():
    X = NoisyMatrix(d=2, entries=np.array([1.0]))
    with pytest.raises(ValueError):
        X.entries[0] = 2.0


def test_json_round_trip_reals(tmp_path):
    rng = np.random.default_rng(11)
    X = NoisyMatrix(d=6, entries=rng.standard_normal(n_pairs(6)))
    path = tmp_path / "m.json"
    write_matrix_json(str(path), X, ground_truth={"support": [1, 2], "params": {"d": 6}})
    Y, gt = read_matrix_json(str(path))
    assert Y == X  # bit-exact after the float -> text -> float round trip
    assert gt == {"support": [1, 2], "params": {"d": 6}}


def test_json_round_trip_binary(tmp_path):
    X = NoisyMatrix(d=4, entries=np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0]))
    path = tmp_path / "b.json"
    write_matrix_json(str(path), X)
    Y, gt = read_matrix_json(str(path))
    assert Y == X
    assert gt is None
    assert Y.is_binary()


def test_json_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"d": 2, "format": "dense", "entries": [1.0]}')
    with pytest.raises(InvalidParams):
        read_matrix_json(str(path))
