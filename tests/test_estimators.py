import json
import math
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from soslab import estimators
from soslab.errors import InvalidParams, TooLarge
from soslab.estimators import (
    BRANCH_AND_BOUND,
    EXHAUSTIVE,
    _front,
    _greedy_seed,
    _potential_order,
    _row_top_sums,
    _sums_are_exact,
    avg_estimate,
    lp_estimate,
    max_estimate,
    scan_estimate,
)
from soslab.matrix import NoisyMatrix, n_pairs
from soslab.models import ModelParams, Noise, generate
from soslab.seeds import generator
from constructors import entry, matrix_from_dense, pair_position


def brute_force_scan(X, s_star):
    """Independent oracle: enumerate subsets, averaging with a fresh formula."""
    best = (-math.inf, None)
    for subset in combinations(range(1, X.d + 1), s_star):
        total = sum(entry(X, i, j) for i in subset for j in subset if i != j)
        val = total / (s_star * (s_star - 1))
        if val > best[0]:
            best = (val, frozenset(subset))
    return best


def masked_dense(X):
    """X.to_dense() with -inf on its diagonal: the one array `scan_estimate`
    hands every stage of a scan."""
    dense = X.to_dense()
    np.fill_diagonal(dense, -np.inf)
    return dense


def random_matrix(rng, d, binary=False):
    if binary:
        entries = (rng.random(n_pairs(d)) < 0.5).astype(float)
    else:
        entries = rng.standard_normal(n_pairs(d))
    return NoisyMatrix(d=d, entries=entries)


X3 = NoisyMatrix(d=3, entries=np.array([4.0, 0.0, 2.0]))


def test_scan_pairs_equals_max_entry():
    r = scan_estimate(X3, 2, strategy=EXHAUSTIVE)
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


# Dyadic entries on two scales 2**60 apart: multiples of 2**-30 as large
# as 3 * 2**30, too wide for exact sums at any s_star >= 2.
WIDE_DYADIC = [sign * k * 2.0**e for sign in (-1.0, 1.0) for k in (1, 3) for e in (-30, 30)]


@st.composite
def scan_instances(draw):
    d = draw(st.integers(4, 14))
    s = draw(st.integers(2, min(7, d)))
    kind = draw(st.sampled_from(
        ["tie-heavy", "plus-minus-one", "zero-one", "quarter", "wide-dyadic", "gaussian",
         "cancelling"]
    ))
    if kind == "tie-heavy":
        values = st.sampled_from([-1.0, 0.0, 1.0])
    elif kind == "plus-minus-one":
        values = st.sampled_from([-1.0, 1.0])
    elif kind == "zero-one":
        values = st.sampled_from([0.0, 1.0])
    elif kind == "quarter":
        values = st.integers(-8, 8).map(lambda k: k / 4.0)
    elif kind == "wide-dyadic":
        values = st.sampled_from(WIDE_DYADIC)
    elif kind == "cancelling":
        # +/-10^e within a few ulps, beside small integers: pair sums of
        # large entries cancel, and incremental sums round far above 1e-9
        big = 10.0 ** draw(st.integers(12, 17))
        values = st.one_of(
            st.integers(-4, 4).map(float),
            st.builds(
                lambda sign, ulps: sign * (big + ulps * np.spacing(big)),
                st.sampled_from([-1.0, 1.0]),
                st.integers(-2, 2),
            ),
        )
    if kind == "gaussian":
        entries = generator(draw(st.integers(0, 2**32 - 1))).standard_normal(n_pairs(d))
    else:
        entries = np.array(draw(st.lists(values, min_size=n_pairs(d), max_size=n_pairs(d))))
    if kind == "wide-dyadic":
        entries[:2] = 3 * 2.0**30, 2.0**-30  # both scales, so the search is ordered
    return NoisyMatrix(d=d, entries=entries), s


def children_of_nodes(X, s):
    """Branch-and-bound on X, and the children of all its nodes, counted
    from the arguments of each node's call: a node with `depth` chosen
    vertices whose children start at `start` has one child per v in
    start..d - (s - depth), which leaves room for the rest after v."""
    rec = next(c for c in estimators._branch_and_bound.__code__.co_consts
               if getattr(c, "co_name", None) == "rec")
    children = 0

    def count(frame, event, arg):
        nonlocal children
        if event == "call" and frame.f_code is rec:
            depth = len(frame.f_locals["chosen"])
            children += X.d - (s - depth) + 1 - frame.f_locals["start"]

    sys.setprofile(count)
    try:
        result = scan_estimate(X, s, strategy=BRANCH_AND_BOUND)
    finally:
        sys.setprofile(None)
    return result, children


@given(scan_instances())
def test_branch_and_bound_matches_exhaustive_fuzz(instance):
    X, s = instance
    a = scan_estimate(X, s, strategy=EXHAUSTIVE)
    b, children = children_of_nodes(X, s)
    assert a.value == b.value  # zero tolerance
    assert a.support == b.support
    # every child is a node, a leaf or pruned, on both search orders
    assert children == b.nodes - 1 + b.subsets_examined + b.pruned


@pytest.mark.parametrize("entries, s, exact", [
    (np.array([1.0, -1.0, 1.0]), 2, True),
    (np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0]), 4, True),
    (np.array([0.25, -1.75, 3.0]), 3, True),
    (np.zeros(6), 4, True),
    (np.array([2.0**-1073, 0.0, 2.0**-1072]), 2, True),
    # a unit of 2**-1074 has no half
    (np.array([2.0**-1074, 0.0, 1.0]), 2, False),
    # s**2 * max|X| against 2**53 units of u/2, u = 2**-2: 4 * (2**50 - 1)/4 passes, 4 * 2**50/4 not
    (np.array([(2.0**50 - 1) / 4, 0.25, 0.0]), 2, True),
    (np.array([2.0**50 / 4, 0.25, 0.0]), 2, False),
    (np.array([1.0, 0.1, 0.0]), 2, False),
    (np.array(WIDE_DYADIC[:6]), 2, False),
    (generator(5).standard_normal(6), 2, False),
])
def test_sums_are_exact(entries, s, exact):
    assert _sums_are_exact(entries, s, float(np.abs(entries).max())) is exact


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


# Inputs where large entries cancel. The first once hung the greedy seed's
# 1-swap loop, since removed; it stays because its greedy floor (pair sum 2,
# grown from row sums that lose the small entries) is below the maximum (4),
# so the search must still climb to the exhaustive argmax from a floor built
# on cancelling sums. On the others a slack of 1e-9 * (1 + |best|) did not
# cover the rounding of the bound sums, so the search cut the argmax and
# failed an assertion (the second) or returned another support of the same
# value (the third).
CANCELLING = [
    (6, 5, [1e17, -4, -1e17, 4, -1e17, 1e17, 1e17, -1e17, 1e17, -1e17, -2, -1e17, 4, -1, 4]),
    (4, 3, [-9999999999999998, -9999999999999998, 1e16, -1.0000000000000004e16,
            -9999999999999998, 1]),
    (5, 3, [-1.0000000000000004e16, -9999999999999996, 3, 1e16, -1.0000000000000002e16, 0,
            -1.0000000000000002e16, 9999999999999998, 2, -1e16]),
]


@pytest.mark.parametrize("d, s, entries", CANCELLING)
def test_branch_and_bound_equals_exhaustive_when_entries_cancel(tmp_path, d, s, entries):
    # In a subprocess with a timeout, so that a search that never ends fails
    # the test instead of hanging the suite; through the CLI, whose scan is
    # branch-and-bound and prints the value, and the API, which gives the
    # support too, against the exhaustive reference.
    X = NoisyMatrix(d=d, entries=np.array(entries, dtype=np.float64))
    a = scan_estimate(X, s, strategy=EXHAUSTIVE)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"d": d, "format": "upper-tri-row-major", "entries": entries}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); from soslab.cli import main; "
        "sys.exit(main(sys.argv[2:]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, src, "estimate", "--in", str(path),
         "--estimator", "scan", "--s", str(s)],
        capture_output=True, text=True, timeout=60,
    )
    assert (out.returncode, out.stderr) == (0, "")
    assert float(out.stdout) == a.value
    b = scan_estimate(X, s, strategy=BRANCH_AND_BOUND)
    assert (b.value, b.support) == (a.value, a.support)


def test_scan_when_every_pair_sum_overflows():
    # Every subset sums to -inf: the lexicographically first one is the
    # argmax, and the greedy seed must not pick a vertex twice.
    X = NoisyMatrix(d=4, entries=np.full(6, -1e308))
    with np.errstate(over="ignore"):
        for strategy in (EXHAUSTIVE, BRANCH_AND_BOUND):
            r = scan_estimate(X, 3, strategy=strategy)
            assert (r.value, r.support) == (-math.inf, frozenset({1, 2, 3}))


# Inputs whose bound sums overflow (entries from {+-1.7e308, -1e308, +-1, 0}).
# Branch-and-bound used to prune a subtree whose bound was inf - inf = NaN
# and returned, in order: another support of value inf, -inf against inf,
# and -inf against inf at d=7.
OVERFLOWING = [
    (6, 5, [1.0, 1.0, 1.7e308, 1.7e308, -1e308, -1e308, -1e308, 1.7e308, -1.0, 1.7e308,
            -1.7e308, 1.7e308, 0.0, -1.0, -1e308]),
    (6, 5, [-1e308, 1.7e308, 1.0, 1.7e308, -1.7e308, 0.0, -1e308, 1.0, 0.0, -1.7e308, 0.0,
            -1.0, -1e308, -1.7e308, -1.7e308]),
    (7, 6, [-1.7e308, -1.7e308, 1.0, -1e308, 1.7e308, -1.7e308, 1.7e308, -1.0, 1.7e308, 1.0,
            1.7e308, -1.0, -1e308, 1.7e308, 1.0, 0.0, -1.7e308, 0.0, -1.7e308, 1.7e308, 1.0]),
]


@pytest.mark.parametrize("d, s, entries", OVERFLOWING)
def test_branch_and_bound_equals_exhaustive_when_sums_overflow(d, s, entries):
    X = NoisyMatrix(d=d, entries=np.array(entries))
    with np.errstate(over="ignore", invalid="ignore"):
        a = scan_estimate(X, s, strategy=EXHAUSTIVE)
        b = scan_estimate(X, s, strategy=BRANCH_AND_BOUND)
        assert (b.value, b.support) == (a.value, a.support)
        # the exhaustive path keeps its guard
        with pytest.raises(TooLarge):
            scan_estimate(X, s, strategy=BRANCH_AND_BOUND, max_subsets=math.comb(d, s) - 1)


def _sorted_row_top_sums(dense, d, s_star):
    """The bound table by one sort per column offset: the reference of
    test_row_top_sums_matches_sorting."""
    take = s_star - 2
    masked = dense.copy()
    np.fill_diagonal(masked, -np.inf)
    work = np.full((d, take + 1), -np.inf)
    tops = np.empty((d, d, take))
    for c in range(d - 1, -1, -1):
        work[:, 0] = masked[:, c]
        work.sort(axis=1)
        tops[c] = work[:, 1:]
    H = np.empty((take + 1, d, d))
    H[0] = 0.0
    H[1:] = 0.5 * np.cumsum(tops[:, :, ::-1], axis=2).transpose(2, 0, 1)
    H[:, np.tri(d, d, -1, dtype=bool)] = -np.inf
    return H


@pytest.mark.parametrize("values", ["gaussian", "ties", "cancelling"])
def test_row_top_sums_matches_sorting(values):
    rng = generator(77)
    for d, s in [(2, 2), (3, 3), (6, 2), (6, 6), (10, 4), (16, 3), (40, 4), (40, 5), (80, 6)]:
        dense = np.triu(rng.standard_normal((d, d)), 1)
        if values == "ties":
            dense = np.round(dense)
        elif values == "cancelling":
            dense = np.round(dense) * 1e16 + np.round(2 * dense)
        dense = dense + dense.T
        np.fill_diagonal(dense, -np.inf)
        got, want = _row_top_sums(dense, d, s), _sorted_row_top_sums(dense, d, s)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_scan_search_counters():
    # A triangle on {1, 2, 3} in d=5: the greedy floor is the triangle's
    # pair sum 3. Root children v=1, 2, 3 (1-based) bound to 3, 1, 0; under
    # v=1 the children 2, 3, 4 bound to 3, 1, 0; under {1, 2} the leaves
    # 3, 4, 5 sum to 3, 1, 1. So 3 nodes, 1 leaf and 2 cuts at each level.
    entries = np.zeros(n_pairs(5))
    for i, j in ((1, 2), (1, 3), (2, 3)):
        entries[pair_position(5, i, j)] = 1.0
    X = NoisyMatrix(d=5, entries=entries)
    b = scan_estimate(X, 3, strategy=BRANCH_AND_BOUND)
    assert (b.value, b.support) == (1.0, frozenset({1, 2, 3}))
    assert (b.nodes, b.subsets_examined, b.pruned) == (3, 1, 6)
    # every child (3 per node here) is a node, a leaf or pruned
    assert 3 * b.nodes == b.nodes - 1 + b.subsets_examined + b.pruned
    a = scan_estimate(X, 3, strategy=EXHAUSTIVE)
    assert (a.nodes, a.subsets_examined, a.pruned) == (0, 10, 0)


def test_exact_ties_keep_the_lexicographic_tie_rule():
    # 1-based: X_12 = X_13 = X_23 = X_35 = 1, X_34 = 2, X_14 = X_24 = -1.
    # The greedy incumbent {3, 4, 5} (from the largest entry, X_34) ties
    # {1, 2, 3} at pair sum 3, and exhaustive enumeration returns the
    # earlier {1, 2, 3}. The ties on the way to {1, 2, 3}, whose prefixes
    # precede the incumbent's, are expanded; once the search has found it,
    # the root's child {3}, whose bound ties and whose subtree holds the
    # greedy subset, is later than the incumbent and pruned: 3 nodes and
    # 1 leaf, against 5 nodes and 2 leaves if ties were kept.
    X = NoisyMatrix(d=5, entries=np.array([1, 1, -1, 0, 1, -1, 0, 2, 1, 0], dtype=float))
    assert _greedy_seed(masked_dense(X), 5, 3) == (3.0, (2, 3, 4))
    a = scan_estimate(X, 3, strategy=EXHAUSTIVE)
    b = scan_estimate(X, 3, strategy=BRANCH_AND_BOUND)
    assert (a.value, a.support) == (b.value, b.support) == (1.0, frozenset({1, 2, 3}))
    assert (b.nodes, b.subsets_examined, b.pruned) == (3, 1, 6)


def _null(kind, d, seed):
    if kind == "sbm":
        return ModelParams(kind="sbm", d=d, s_star=6, beta_star=0.5, beta_tilde=0.5, seed=seed)
    return ModelParams(kind="submatrix", d=d, s_star=6, beta_star=0.0, noise=Noise(kind, 1.0),
                       seed=seed)


@pytest.mark.parametrize("kind, support", [
    ("rademacher", {1, 2, 3, 23, 28, 77}),
    ("sbm", {1, 3, 4, 6, 16, 88}),
])
def test_branch_and_bound_prunes_exact_ties_at_d120(kind, support):
    # +-1 and 0/1 nulls at d=120, s*=6 hold cliques of value 1 everywhere;
    # keeping every tie visited 126k (+-1) and 125k (sbm) nodes.
    r = scan_estimate(generate(_null(kind, 120, 1)).matrix, 6)
    assert (r.value, r.support) == (1.0, support)
    assert r.nodes <= 20


@pytest.mark.parametrize("seed, lexicographic_nodes, support", [
    (1, 1623, {7, 30, 38, 47, 66, 70}),
    (2, 1155, {27, 32, 45, 47, 51, 66}),
])
def test_branch_and_bound_searches_in_potential_order(seed, lexicographic_nodes, support):
    # gaussian nulls at d=80, s*=6: the search in original lexicographic
    # order visited lexicographic_nodes nodes for the same support
    r = scan_estimate(generate(_null("gaussian", 80, seed)).matrix, 6)
    assert r.support == support
    assert r.nodes < lexicographic_nodes


def _submatrix(noise, d, s, multiplier, seed):
    """A submatrix instance with the threshold sweep's separation at ``multiplier``."""
    beta = multiplier * math.sqrt(math.log(d / s) / s)
    return generate(ModelParams(kind="submatrix", d=d, s_star=s, beta_star=beta,
                                noise=Noise(noise, 1.0), seed=seed)).matrix


@pytest.mark.parametrize("noise, d, s, multiplier, pinned", [
    ("gaussian", 40, 4, 0, (1.746662023722501, {16, 17, 19, 36}, 2, 14, 470)),
    ("gaussian", 40, 4, 2, (1.8207512131914694, {19, 21, 31, 39}, 2, 10, 340)),
    ("rademacher", 40, 4, 0, (1.0, {1, 4, 11, 14}, 1, 4, 134)),
    ("gaussian", 80, 6, 0, (1.3757172366634074, {7, 30, 38, 47, 66, 70}, 7, 870, 45754)),
])
def test_branch_and_bound_search_is_pinned(noise, d, s, multiplier, pinned):
    # The benchmark's scan size (d=40, s*=4: a null, a plant at multiplier
    # 2, a +-1 null) and a deeper gaussian one, pinned field by field, so
    # that a change to the search fails here, not as drift in the timings.
    r = scan_estimate(_submatrix(noise, d, s, multiplier, 1), s)
    value, support, leaves, nodes, pruned = pinned
    assert (r.value, r.support) == (value, frozenset(support))
    assert (r.subsets_examined, r.nodes, r.pruned) == (leaves, nodes, pruned)


def test_front_constants_are_read_only_and_cached():
    layer0, ceiling = _front(7)
    assert _front(7)[0] is layer0
    for arr in (layer0, ceiling):
        with pytest.raises(ValueError):
            arr[3, 1] = 0.0


def test_row_top_sums_are_fresh_tables_across_dimensions():
    # d, another d, then d again, against the sorting reference: the
    # cached constants of one d do not leak into another, and each table
    # is the caller's own, which the search then adds to in place.
    rng = generator(33)
    for d in (9, 14, 9):
        for s in (2, 3, 4, 5):
            dense = np.triu(rng.standard_normal((d, d)), 1)
            dense = dense + dense.T
            np.fill_diagonal(dense, -np.inf)
            dense.flags.writeable = False  # a write into it raises
            got = _row_top_sums(dense, d, s)
            assert got.tobytes() == _sorted_row_top_sums(dense, d, s).tobytes()
            assert got.flags.writeable
            assert not any(np.shares_memory(got, arr) for arr in _front(d))
            got += 1.0
            assert _row_top_sums(dense, d, s).tobytes() == _sorted_row_top_sums(dense, d, s).tobytes()


def _greedy_reference(dense, d, s_star):
    """The greedy seed with its own masked copy and its free vertices
    counted by bincount, as `_greedy_seed` was first written."""
    masked = dense.copy()
    np.fill_diagonal(masked, -np.inf)
    i, j = np.unravel_index(int(np.argmax(masked)), masked.shape)
    chosen = [int(i), int(j)]
    rowsum = dense[chosen[0]] + dense[chosen[1]]
    while len(chosen) < s_star:
        free = np.flatnonzero(np.bincount(chosen, minlength=d) == 0)
        v = int(free[np.argmax(rowsum[free])])
        chosen.append(v)
        rowsum = rowsum + dense[v]
    subset = tuple(sorted(chosen))
    return estimators._pair_sum(dense, subset), subset


@pytest.mark.parametrize("d, s, entries", OVERFLOWING + [
    (d, s, generator(100 * d + s).standard_normal(n_pairs(d)))
    for d, s in [(5, 2), (9, 4), (16, 6), (40, 4)]
])
def test_greedy_seed_and_potential_order_share_one_masked_copy(d, s, entries):
    X = NoisyMatrix(d=d, entries=np.array(entries))
    shared = masked_dense(X)
    before = shared.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        _potential_order(shared, d, s)  # only reads the shared matrix
        seed = _greedy_seed(shared, d, s)
        # the greedy as first written, on the zero-diagonal matrix
        assert repr(seed) == repr(_greedy_reference(X.to_dense(), d, s))
    assert np.array_equal(shared, before, equal_nan=True)


@pytest.mark.parametrize("noise", ["gaussian", "rademacher", "overflowing"])
def test_scan_does_not_write_into_the_matrix(monkeypatch, noise):
    # exact inputs (+-1) search the dense matrix itself, gaussian ones a
    # relabelled copy, and overflowing ones are enumerated: each path gets
    # the scan's own array, -inf on the diagonal and X elsewhere
    if noise == "overflowing":
        d, s, entries = OVERFLOWING[0]
        X, name = NoisyMatrix(d=d, entries=np.array(entries)), "_exhaustive"
    else:
        X, s, name = _submatrix(noise, 30, 4, 0, 5), 4, "_branch_and_bound"
    received, seen = [], []
    search = getattr(estimators, name)

    def spy(dense, *args):
        before = dense.copy()
        result = search(dense, *args)
        received.append(before)
        seen.append(np.array_equal(dense, before))
        return result

    monkeypatch.setattr(estimators, name, spy)
    entries = X.entries.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        scan_estimate(X, s)
    assert seen == [True]
    assert np.array_equal(received[0], masked_dense(X))
    assert np.array_equal(X.entries, entries)


def test_scan_tie_breaks_lexicographically():
    # two disjoint pairs with the same value; {1,2} wins over {3,4}
    entries = np.zeros(n_pairs(4))
    entries[pair_position(4, 1, 2)] = 1.0
    entries[pair_position(4, 3, 4)] = 1.0
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
    for bad in (0, -5):
        for strategy in (EXHAUSTIVE, BRANCH_AND_BOUND):
            with pytest.raises(InvalidParams, match=f"max_subsets must be >= 1, got {bad}"):
                scan_estimate(X, 3, strategy=strategy, max_subsets=bad)


def test_scan_examines_all_subsets_exhaustively():
    X = NoisyMatrix(d=7, entries=np.zeros(21))
    assert scan_estimate(X, 3, strategy=EXHAUSTIVE).subsets_examined == math.comb(7, 3)


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


@pytest.mark.parametrize("estimator", [avg_estimate, lp_estimate])
@pytest.mark.parametrize("s_star", [-1, 0, 1, 5, 9])
def test_closed_forms_reject_s_star_outside_2_to_d(estimator, s_star):
    X = NoisyMatrix(d=4, entries=np.ones(6))
    with pytest.raises(InvalidParams, match=f"need 2 <= s_star <= d, got s_star={s_star}, d=4"):
        estimator(X, s_star)


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
        Y = matrix_from_dense(permuted)
        assert scan_estimate(Y, s).value == pytest.approx(scan_estimate(X, s).value, abs=1e-12)
        mapped = frozenset(int(perm[v - 1]) + 1 for v in scan_estimate(X, s).support)
        assert scan_estimate(Y, s).support == mapped or scan_estimate(Y, s).value == pytest.approx(
            scan_estimate(X, s).value
        )
        assert avg_estimate(Y, s) == pytest.approx(avg_estimate(X, s), rel=1e-12)
        assert max_estimate(Y) == max_estimate(X)
