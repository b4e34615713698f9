import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from soslab.errors import InvalidParams, TooLarge
from soslab.estimators import (
    BRANCH_AND_BOUND,
    EXHAUSTIVE,
    avg_estimate,
    lp_estimate,
    max_estimate,
    scan_estimate,
)
from soslab.matrix import NoisyMatrix, n_pairs, pair_index
from soslab.models import ModelParams, Noise, generate
from soslab.seeds import generator


def brute_force_scan(X, s_star):
    """Independent oracle: enumerate subsets, averaging with a fresh formula."""
    best = (-math.inf, None)
    for subset in combinations(range(1, X.d + 1), s_star):
        total = sum(X.value(i, j) for i in subset for j in subset if i != j)
        val = total / (s_star * (s_star - 1))
        if val > best[0]:
            best = (val, frozenset(subset))
    return best


def random_matrix(rng, d, binary=False):
    if binary:
        entries = (rng.random(n_pairs(d)) < 0.5).astype(float)
    else:
        entries = rng.standard_normal(n_pairs(d))
    return NoisyMatrix(d=d, entries=entries)


X3 = NoisyMatrix(d=3, entries=np.array([4.0, 0.0, 2.0]))


def test_scan_pairs_equals_max_entry():
    r = scan_estimate(X3, 2)
    assert r.value == 4.0
    assert r.support == frozenset({1, 2})
    assert r.subsets_examined == 3


def test_scan_triples_example():
    # off-diagonals X_12=1, X_13=2, X_14=-1, X_23=3, X_24=0, X_34=1
    X = NoisyMatrix(d=4, entries=np.array([1.0, 2.0, -1.0, 3.0, 0.0, 1.0]))
    r = scan_estimate(X, 3)
    assert r.value == pytest.approx(2.0)
    assert r.support == frozenset({1, 2, 3})


def test_scan_recovers_noiseless_plant():
    params = ModelParams(
        kind="submatrix", d=8, s_star=3, beta_star=2.5, noise=Noise("gaussian", 0.0), seed=21
    )
    inst = generate(params)
    for strategy in (EXHAUSTIVE, BRANCH_AND_BOUND):
        r = scan_estimate(inst.matrix, 3, strategy=strategy)
        assert r.value == pytest.approx(2.5)
        assert r.support == inst.support


def test_scan_matches_brute_force():
    rng = generator(2024)
    for _ in range(30):
        d = int(rng.integers(4, 9))
        s = int(rng.integers(2, d + 1))
        X = random_matrix(rng, d)
        val, support = brute_force_scan(X, s)
        r = scan_estimate(X, s)
        assert r.value == pytest.approx(val, abs=1e-12)
        assert r.support == support


def test_branch_and_bound_equals_exhaustive():
    rng = generator(51)
    for trial in range(60):
        d = int(rng.integers(4, 13))
        s = int(rng.integers(2, min(6, d) + 1))
        X = random_matrix(rng, d, binary=trial % 3 == 0)
        a = scan_estimate(X, s, strategy=EXHAUSTIVE)
        b = scan_estimate(X, s, strategy=BRANCH_AND_BOUND)
        assert a.value == b.value  # zero tolerance
        assert a.support == b.support


@st.composite
def scan_instances(draw):
    d = draw(st.integers(4, 14))
    s = draw(st.integers(2, min(7, d)))
    if draw(st.booleans()):  # tie-heavy
        values = st.sampled_from([-1.0, 0.0, 1.0])
        entries = np.array(draw(st.lists(values, min_size=n_pairs(d), max_size=n_pairs(d))))
    else:
        entries = generator(draw(st.integers(0, 2**32 - 1))).standard_normal(n_pairs(d))
    return NoisyMatrix(d=d, entries=entries), s


@given(scan_instances())
def test_branch_and_bound_matches_exhaustive_fuzz(instance):
    X, s = instance
    a = scan_estimate(X, s, strategy=EXHAUSTIVE)
    b = scan_estimate(X, s, strategy=BRANCH_AND_BOUND)
    assert a.value == b.value  # zero tolerance
    assert a.support == b.support


@pytest.mark.parametrize("beta", [0.0, 1.5])
def test_branch_and_bound_equals_exhaustive_d22(beta):
    params = ModelParams(
        kind="submatrix", d=22, s_star=5, beta_star=beta, noise=Noise("gaussian", 1.0), seed=22
    )
    X = generate(params).matrix
    a = scan_estimate(X, 5, strategy=EXHAUSTIVE)
    b = scan_estimate(X, 5, strategy=BRANCH_AND_BOUND)
    assert a.subsets_examined == math.comb(22, 5) == 26334
    assert a.value == b.value  # zero tolerance
    assert a.support == b.support


def test_scan_search_counters():
    # A triangle on {1, 2, 3} in d=5: the greedy floor is the triangle's
    # pair sum 3. Root children v=1, 2, 3 (1-based) bound to 3, 1, 0; under
    # v=1 the children 2, 3, 4 bound to 3, 1, 0; under {1, 2} the leaves
    # 3, 4, 5 sum to 3, 1, 1. So 3 nodes, 1 leaf and 2 cuts at each level.
    entries = np.zeros(n_pairs(5))
    for i, j in ((1, 2), (1, 3), (2, 3)):
        entries[pair_index(5, i, j)] = 1.0
    X = NoisyMatrix(d=5, entries=entries)
    b = scan_estimate(X, 3, strategy=BRANCH_AND_BOUND)
    assert (b.value, b.support) == (1.0, frozenset({1, 2, 3}))
    assert (b.nodes, b.subsets_examined, b.pruned) == (3, 1, 6)
    # every child (3 per node here) is a node, a leaf or pruned
    assert 3 * b.nodes == b.nodes - 1 + b.subsets_examined + b.pruned
    a = scan_estimate(X, 3, strategy=EXHAUSTIVE)
    assert (a.nodes, a.subsets_examined, a.pruned) == (0, 10, 0)


def test_scan_tie_breaks_lexicographically():
    # two disjoint pairs with the same value; {1,2} wins over {3,4}
    entries = np.zeros(n_pairs(4))
    entries[pair_index(4, 1, 2)] = 1.0
    entries[pair_index(4, 3, 4)] = 1.0
    X = NoisyMatrix(d=4, entries=entries)
    for strategy in (EXHAUSTIVE, BRANCH_AND_BOUND):
        assert scan_estimate(X, 2, strategy=strategy).support == frozenset({1, 2})


def test_scan_guard_and_validation():
    X = NoisyMatrix(d=10, entries=np.zeros(45))
    with pytest.raises(TooLarge):
        scan_estimate(X, 5, strategy=EXHAUSTIVE, max_subsets=10)
    scan_estimate(X, 5, strategy=BRANCH_AND_BOUND, max_subsets=10)  # guard is exhaustive-only
    with pytest.raises(InvalidParams):
        scan_estimate(X, 1)
    with pytest.raises(InvalidParams):
        scan_estimate(X, 11)
    with pytest.raises(InvalidParams):
        scan_estimate(X, 3, strategy="magic")


def test_scan_examines_all_subsets_exhaustively():
    X = NoisyMatrix(d=7, entries=np.zeros(21))
    assert scan_estimate(X, 3).subsets_examined == math.comb(7, 3)


def test_avg_examples():
    assert avg_estimate(NoisyMatrix(d=3, entries=np.zeros(3)), 2) == 0.0
    assert avg_estimate(NoisyMatrix(d=4, entries=np.ones(6)), 2) == pytest.approx(6.0)
    params = ModelParams(
        kind="submatrix", d=6, s_star=3, beta_star=1.25, noise=Noise("gaussian", 0.0), seed=2
    )
    inst = generate(params)
    assert avg_estimate(inst.matrix, 3) == pytest.approx(1.25)
    with pytest.raises(InvalidParams):
        avg_estimate(X3, 1)


def test_max_examples():
    assert max_estimate(NoisyMatrix(d=3, entries=np.zeros(3))) == 0.0
    assert max_estimate(X3) == 4.0
    inst = generate(
        ModelParams(kind="sbm", d=4, s_star=2, beta_star=1.0, beta_tilde=0.5, seed=8)
    )
    assert max_estimate(inst.matrix) == 1.0


def test_lp_examples():
    assert lp_estimate(X3, 2) == pytest.approx(8.0)
    X = NoisyMatrix(d=3, entries=np.array([2.0, 0.0, 1.0]))
    assert lp_estimate(X, 3) == pytest.approx(3.0)
    assert lp_estimate(NoisyMatrix(d=3, entries=np.zeros(3)), 2) == 0.0


def test_scan_at_pairs_equals_max_exactly():
    rng = generator(4)
    for _ in range(20):
        X = random_matrix(rng, int(rng.integers(3, 10)))
        assert scan_estimate(X, 2).value == max_estimate(X)


def test_scale_equivariance():
    rng = generator(9)
    for _ in range(10):
        d = int(rng.integers(4, 9))
        s = int(rng.integers(2, d + 1))
        X = random_matrix(rng, d)
        c = float(rng.uniform(0.1, 5.0))
        cX = NoisyMatrix(d=d, entries=c * X.entries)
        r, rc = scan_estimate(X, s), scan_estimate(cX, s)
        assert rc.value == pytest.approx(c * r.value, rel=1e-12)
        assert rc.support == r.support
        assert avg_estimate(cX, s) == pytest.approx(c * avg_estimate(X, s), rel=1e-12)
        assert max_estimate(cX) == pytest.approx(c * max_estimate(X), rel=1e-12)
        assert lp_estimate(cX, s) == pytest.approx(c * lp_estimate(X, s), rel=1e-12)


def test_permutation_equivariance():
    rng = generator(10)
    for _ in range(10):
        d = int(rng.integers(4, 9))
        s = int(rng.integers(2, d + 1))
        X = random_matrix(rng, d)
        perm = rng.permutation(d)  # perm[old0] = new0
        dense = X.to_dense()
        permuted = np.zeros_like(dense)
        permuted[np.ix_(perm, perm)] = dense
        Y = NoisyMatrix.from_dense(permuted)
        assert scan_estimate(Y, s).value == pytest.approx(scan_estimate(X, s).value, abs=1e-12)
        mapped = frozenset(int(perm[v - 1]) + 1 for v in scan_estimate(X, s).support)
        assert scan_estimate(Y, s).support == mapped or scan_estimate(Y, s).value == pytest.approx(
            scan_estimate(X, s).value
        )
        assert avg_estimate(Y, s) == pytest.approx(avg_estimate(X, s), rel=1e-12)
        assert max_estimate(Y) == max_estimate(X)
