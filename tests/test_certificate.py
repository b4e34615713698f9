import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from soslab.certificate import (
    BINARY_ONE,
    PSD_REL_TOL,
    SIGN_POSITIVE,
    PseudoExpectation,
    build_certificate,
    certificate_objective,
    certify,
    expansivity_table,
    frac_str,
    nonzero_block,
    positivity_graph,
    report_to_json_dict,
    verify_certificate,
)
from soslab.errors import CertificateUndefined, InvalidParams, MissingValue, NotBinary, TooLarge
from soslab.matrix import NoisyMatrix, n_pairs
from soslab.models import ModelParams, Noise, generate
import soslab
from soslab.seeds import generator
from soslab.subsets import entry_map
from constructors import (
    counts,
    edges,
    entry,
    eta,
    indicator,
    moment,
    moment_matrix,
    moments,
    pairs,
    pe_from_values,
)
from subset_order import subsets_up_to

PATH_3 = NoisyMatrix(d=3, entries=np.array([1.0, -1.0, 1.0]))  # edges 1-2, 2-3


def complete_graph(d):
    return positivity_graph(NoisyMatrix(d=d, entries=np.ones(n_pairs(d))), BINARY_ONE)


def random_graph(rng, d, p):
    entries = (rng.random(n_pairs(d)) < p).astype(float)
    return positivity_graph(NoisyMatrix(d=d, entries=entries), BINARY_ONE)


def expansion_identity_violations(table, d):
    """Exact check of: sum_{i not in S} eta(S+{i}) = (2l - |S|) eta(S)."""
    worst = 0
    for S in subsets_up_to(d, 2 * table.ell - 1):
        lhs = sum(eta(table, S + (i,)) for i in range(1, d + 1) if i not in S)
        rhs = (2 * table.ell - len(S)) * eta(table, S)
        worst = max(worst, abs(lhs - rhs))
    return worst


def test_positivity_graph_sign_mode():
    g = positivity_graph(PATH_3, SIGN_POSITIVE)
    assert edges(g) == frozenset({(1, 2), (2, 3)})


def test_positivity_graph_is_a_read_only_symmetric_adjacency():
    g = positivity_graph(PATH_3, SIGN_POSITIVE)
    assert g.dtype == bool and g.shape == (3, 3)
    assert np.array_equal(g, g.T) and not g.diagonal().any()
    assert not g.flags.writeable


def test_positivity_graph_complete():
    g = complete_graph(5)
    assert len(edges(g)) == 10


def test_positivity_graph_zero_matrix_has_no_edges():
    g = positivity_graph(NoisyMatrix(d=4, entries=np.zeros(6)), SIGN_POSITIVE)
    assert edges(g) == frozenset()


def test_positivity_graph_binary_rejects_nonbinary():
    with pytest.raises(NotBinary):
        positivity_graph(PATH_3, BINARY_ONE)
    with pytest.raises(InvalidParams):
        positivity_graph(PATH_3, "positive-ish")


def test_expansivity_k4():
    table = expansivity_table(complete_graph(4), 1)
    assert table.clique_count == 6
    for i in range(1, 5):
        assert eta(table, (i,)) == 3
    for pair in combinations(range(1, 5), 2):
        assert eta(table, pair) == 1


def test_expansivity_path():
    table = expansivity_table(positivity_graph(PATH_3, SIGN_POSITIVE), 1)
    assert table.clique_count == 2
    assert [eta(table, (i,)) for i in (1, 2, 3)] == [1, 2, 1]
    assert eta(table, (1, 2)) == 1
    assert eta(table, (2, 3)) == 1
    assert eta(table, (1, 3)) == 0


def test_expansivity_empty_graph():
    g = positivity_graph(NoisyMatrix(d=4, entries=np.zeros(6)), SIGN_POSITIVE)
    assert expansivity_table(g, 1).clique_count == 0


def test_expansivity_budget():
    with pytest.raises(TooLarge, match="moment matrix side"):
        expansivity_table(complete_graph(130), 2)


def test_expansivity_checks_the_side_budget_before_counting():
    # C(16, 16) = 1 clique, but var_count(16, 16) = 65536 subsets would be
    # counted for a shape whose moment matrix has side 39203
    g = complete_graph(16)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="moment matrix side 39203 exceeds the budget"):
            expansivity_table(g, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_certify_checks_the_side_budget_before_counting():
    # var_count(16, 8) = 39203 rows: the expansivity table alone would
    # take 8 MB and 0.3 s of clique counting before verify refused it
    X = NoisyMatrix(d=16, entries=np.ones(n_pairs(16)))
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="moment matrix side 39203 exceeds the budget"):
            certify(X, 8, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_certify_checks_s_star_before_counting(monkeypatch):
    # at d=60 the clique count is the costly stage; an s_star no stage takes
    # is refused before it
    def count(*args):
        raise AssertionError("expansivity_table ran before the s_star check")

    monkeypatch.setattr(soslab.certificate, "expansivity_table", count)
    params = ModelParams(kind="sbm", d=60, s_star=2, beta_star=0.5, beta_tilde=0.5, seed=3)
    with pytest.raises(InvalidParams, match="need 2 <= s_star <= d, got s_star=61, d=60"):
        certify(generate(params).matrix, 61, 2)


def test_expansivity_identity_random_graphs():
    rng = generator(500)
    for trial in range(12):
        d = int(rng.integers(5, 13))
        ell = 1 + trial % 2
        table = expansivity_table(random_graph(rng, d, 0.5), ell)
        assert expansion_identity_violations(table, d) == 0


def test_expansivity_monotone_and_clique_supported():
    rng = generator(501)
    g = random_graph(rng, 8, 0.6)
    table = expansivity_table(g, 2)
    g_edges = edges(g)
    for S, count in counts(table).items():
        for v in S:
            smaller = tuple(x for x in S if x != v)
            assert eta(table, smaller) >= count
        if len(S) >= 2 and count > 0:
            assert all(
                tuple(sorted(p)) in g_edges for p in combinations(S, 2)
            )


def test_certificate_k4_values():
    pe = build_certificate(expansivity_table(complete_graph(4), 1), 2, 1)
    assert moment(pe, ()) == 1
    for i in range(1, 5):
        assert moment(pe, (i,)) == Fraction(1, 2)
    for pair in combinations(range(1, 5), 2):
        assert moment(pe, pair) == Fraction(1, 6)


def test_certificate_complete_graph_closed_form():
    # on K_d the value at |S| = k is the ratio of falling factorials
    # perm(s*, k) / perm(d, k); oracle computed directly from the formula
    for d, s_star, ell in ((5, 3, 1), (6, 2, 2), (7, 4, 2)):
        pe = build_certificate(expansivity_table(complete_graph(d), ell), s_star, ell)
        for S in subsets_up_to(d, 2 * ell):
            expected = Fraction(math.perm(s_star, len(S)), math.perm(d, len(S)))
            assert moment(pe, S) == expected


def test_certificate_path_values():
    pe = build_certificate(
        expansivity_table(positivity_graph(PATH_3, SIGN_POSITIVE), 1), 2, 1
    )
    assert moment(pe, (1,)) == Fraction(1, 2)
    assert moment(pe, (2,)) == 1
    assert moment(pe, (3,)) == Fraction(1, 2)
    assert moment(pe, (1, 2)) == Fraction(1, 2)
    assert moment(pe, (2, 3)) == Fraction(1, 2)
    assert moment(pe, (1, 3)) == 0


def test_certificate_undefined_on_empty_graph():
    g = positivity_graph(NoisyMatrix(d=4, entries=np.zeros(6)), SIGN_POSITIVE)
    with pytest.raises(CertificateUndefined):
        build_certificate(expansivity_table(g, 1), 2, 1)


def test_verify_k4():
    pe = build_certificate(expansivity_table(complete_graph(4), 1), 2, 1)
    report = verify_certificate(pe, 4, 2, 1)
    assert report.normalization_ok
    assert report.rowsum_max_violation == 0
    assert abs(report.min_eigenvalue) <= 1e-12  # flat direction, eigenvalue 0
    assert report.psd
    # the clique count reaches the report through certify
    assert report.eta_empty is None
    assert certify(NoisyMatrix(d=4, entries=np.ones(6)), 2, 1).eta_empty == 6


def test_verify_path_is_genuine_moment():
    pe = build_certificate(
        expansivity_table(positivity_graph(PATH_3, SIGN_POSITIVE), 1), 2, 1
    )
    report = verify_certificate(pe, 3, 2, 1)
    assert report.rowsum_max_violation == 0
    assert report.psd
    assert report.min_eigenvalue >= -1e-12


def test_verify_detects_exact_perturbation():
    pe = build_certificate(expansivity_table(complete_graph(4), 1), 2, 1)
    values = moments(pe)
    values[(1, 2)] = values[(1, 2)] + Fraction(1, 100)
    bent = pe_from_values(d=4, ell=1, values=values)
    report = verify_certificate(bent, 4, 2, 1)
    assert report.rowsum_max_violation == Fraction(1, 100)


def test_certificate_row_sums():
    rng = generator(321)
    g = random_graph(rng, 9, 0.8)
    for s_star, ell in ((3, 1), (4, 2)):
        table = expansivity_table(g, ell)
        assert table.clique_count > 0
        pe = build_certificate(table, s_star, ell)
        assert sum(moment(pe, (i,)) for i in range(1, 10)) == s_star
        ordered = sum(
            moment(pe, (i, j)) if i != j else moment(pe, (i,))
            for i in range(1, 10)
            for j in range(1, 10)
        )
        assert ordered == s_star * s_star


def test_genuine_moment_regime_psd():
    # s* <= 2l: the construction is a true two-stage sampling law
    rng = generator(777)
    checked = 0
    for _ in range(12):
        d = int(rng.integers(6, 11))
        ell = int(rng.integers(1, 3))
        g = random_graph(rng, d, 0.7)
        table = expansivity_table(g, ell)
        if table.clique_count == 0:
            continue
        for s_star in range(2, 2 * ell + 1):
            pe = build_certificate(table, s_star, ell)
            report = verify_certificate(pe, d, s_star, ell)
            assert report.rowsum_max_violation == 0
            assert report.min_eigenvalue >= -1e-10
            checked += 1
    assert checked > 5


def test_objective_rademacher_equals_nu():
    for nu in (1.0, 2.5):
        params = ModelParams(
            kind="submatrix", d=14, s_star=3, beta_star=0.0,
            noise=Noise("rademacher", nu), seed=61,
        )
        inst = generate(params)
        g = positivity_graph(inst.matrix, SIGN_POSITIVE)
        pe = build_certificate(expansivity_table(g, 1), 3, 1)
        assert certificate_objective(inst.matrix, pe, 3) == Fraction(nu)


def test_objective_sbm_equals_one():
    params = ModelParams(
        kind="sbm", d=16, s_star=4, beta_star=0.5, beta_tilde=0.5, seed=62
    )
    inst = generate(params)
    g = positivity_graph(inst.matrix, BINARY_ONE)
    for ell in (1, 2):
        pe = build_certificate(expansivity_table(g, ell), 4, ell)
        assert certificate_objective(inst.matrix, pe, 4) == 1


def test_objective_integral_indicator_is_scan_average():
    rng = generator(63)
    X = NoisyMatrix(d=6, entries=rng.standard_normal(15))
    ind = indicator((2, 4, 5), d=6, ell=2)
    expected = sum(entry(X, i, j) for i in (2, 4, 5) for j in (2, 4, 5) if i != j) / 6
    got = certificate_objective(X, ind, 3)
    assert float(got) == pytest.approx(expected, abs=1e-12)


def test_report_json_schema():
    X = NoisyMatrix(d=4, entries=np.ones(n_pairs(4)))
    doc = report_to_json_dict(certify(X, 2, 1))
    assert doc["eta_empty"] == 6
    assert doc["normalization_ok"] is True
    assert doc["rowsum_max_violation"] == "0/1"
    assert doc["objective"] == "1/1"
    assert doc["objective_float"] == 1.0
    assert isinstance(doc["min_eigenvalue"], float)
    assert doc["psd"] is True
    assert frac_str(Fraction(-3, 7)) == "-3/7"


def test_certify_matches_stage_chain():
    # certify builds the graph of the positive entries: on a 0/1 matrix that
    # is the binary-one graph too, and binary-one mode refuses other matrices
    rademacher = ModelParams(
        kind="submatrix", d=14, s_star=3, beta_star=0.0, noise=Noise("rademacher", 1.0), seed=71
    )
    gaussian = ModelParams(
        kind="submatrix", d=12, s_star=3, beta_star=0.0, noise=Noise("gaussian", 1.0), seed=73
    )
    sbm = ModelParams(kind="sbm", d=12, s_star=4, beta_star=0.5, beta_tilde=0.5, seed=72)
    for params, ell in ((rademacher, 1), (gaussian, 1), (sbm, 1), (sbm, 2)):
        X = generate(params).matrix
        report = certify(X, params.s_star, ell)
        modes = (SIGN_POSITIVE, BINARY_ONE) if X.is_binary() else (SIGN_POSITIVE,)
        for mode in modes:
            table = expansivity_table(positivity_graph(X, mode), ell)
            pe = build_certificate(table, params.s_star, ell)
            chain = verify_certificate(pe, X.d, params.s_star, ell)
            assert report.objective == certificate_objective(X, pe, params.s_star)
            assert chain.eta_empty is None
            assert report == replace(
                chain, objective=report.objective, eta_empty=table.clique_count
            )
        if len(modes) == 1:
            with pytest.raises(NotBinary):
                positivity_graph(X, BINARY_ONE)
    with pytest.raises(CertificateUndefined):
        certify(NoisyMatrix(d=4, entries=np.zeros(6)), 2, 1)


def test_certificate_rejects_s_star_outside_2_to_d():
    table = expansivity_table(complete_graph(4), 1)
    for s_star in (1, 5):
        with pytest.raises(InvalidParams, match="need 2 <= s_star <= d"):
            build_certificate(table, s_star, 1)


def test_certificate_rejects_a_table_of_another_level():
    table = expansivity_table(complete_graph(4), 1)
    with pytest.raises(InvalidParams, match="^table was built for ell=1, not 2$"):
        build_certificate(table, 2, 2)


def test_objective_rejects_s_star_below_2():
    # the weight 2 / (s_star * (s_star - 1)) divides by zero at 0 and 1
    pe = build_certificate(expansivity_table(complete_graph(4), 1), 2, 1)
    X = NoisyMatrix(d=4, entries=np.ones(6))
    for s_star in (-1, 0, 1):
        with pytest.raises(InvalidParams, match=f"need 2 <= s_star <= d, got s_star={s_star}, d=4"):
            certificate_objective(X, pe, s_star)


@pytest.mark.parametrize("s_star", [-1, 0, 1, 5, 9])
def test_verify_and_objective_reject_s_star_outside_2_to_d(s_star):
    # the same range and message as build_certificate; d is the
    # certificate's dimension, 4 here
    pe = build_certificate(expansivity_table(complete_graph(4), 1), 2, 1)
    X = NoisyMatrix(d=4, entries=np.ones(6))
    message = f"need 2 <= s_star <= d, got s_star={s_star}, d=4"
    with pytest.raises(InvalidParams, match=message):
        verify_certificate(pe, 4, s_star, 1)
    with pytest.raises(InvalidParams, match=message):
        certificate_objective(X, pe, s_star)


def test_verify_rejects_a_pseudo_expectation_of_another_shape():
    pe = pe_from_values(d=4, ell=1, values={(): Fraction(1)})
    with pytest.raises(MissingValue, match=r"^pseudo-expectation covers \(d=4, ell=1\), not \(d=4, ell=2\)$"):
        verify_certificate(pe, 4, 2, 2)
    with pytest.raises(MissingValue, match=r"covers \(d=4, ell=1\), not \(d=5, ell=1\)$"):
        verify_certificate(pe, 5, 2, 1)


def test_pseudo_expectation_checks_its_shape():
    # (4, 1) has 11 moments: the subsets of at most 2 of 4 vertices
    for num, den in ((np.zeros(10, dtype=np.int64), 1), (np.zeros(11, dtype=np.int64), 0)):
        with pytest.raises(InvalidParams, match="^need 11 numerators and a positive denominator$"):
            PseudoExpectation(d=4, ell=1, num=num, den=den)


def test_pseudo_expectation_rejects_numerators_that_are_not_integers():
    # y[empty] = 1, y[i] = 1/2, y[ij] = 1/4 at d=4, l=1: the row at {i}
    # is off by 3/4 - 1/2 = 1/4. Over den=2 the pairs' numerators are 0.5,
    # which the exact checks would truncate (to a violation of 1/2).
    exact = PseudoExpectation(d=4, ell=1, num=np.array([4] + [2] * 4 + [1] * 6), den=4)
    assert verify_certificate(exact, 4, 2, 1).rowsum_max_violation == Fraction(1, 4)
    halves = np.array([2] + [1] * 4 + [0.5] * 6)
    for num in (halves, halves.astype(object), np.array([4] * 11, dtype=np.uint8) > 0):
        with pytest.raises(InvalidParams, match="^numerators must be integers, got dtype "):
            PseudoExpectation(d=4, ell=1, num=num, den=2)
    # Python ints, as a certificate holds them when int64 would overflow
    PseudoExpectation(d=4, ell=1, num=np.array([2**70] * 11, dtype=object), den=1)


def test_objective_rejects_data_on_fewer_vertices():
    # the pair moments are read at the certificate's own pair indices, so
    # the data must have the certificate's d (more vertices: test_sos)
    pe = build_certificate(expansivity_table(complete_graph(4), 1), 2, 1)
    X = NoisyMatrix(d=3, entries=np.ones(3))
    with pytest.raises(MissingValue, match="^pseudo-expectation covers d=4, data has d=3$"):
        certificate_objective(X, pe, 2)


def dense_rowsum_violation(pe, d, s_star, ell):
    """Reference: every identity at every subset of size < 2l, dense."""
    y = moments(pe)
    worst = Fraction(0)
    for S in subsets_up_to(d, 2 * ell - 1):
        lhs = Fraction(0)
        for i in range(1, d + 1):
            if i not in S:
                v = y.get(tuple(sorted(S + (i,))))
                if v:
                    lhs += v
        worst = max(worst, abs(lhs - (s_star - len(S)) * y.get(S, 0)))
    return worst


def dense_moment_matrix(pe):
    """Reference: read every variable through its key."""
    return np.array([float(moment(pe, S)) for S in subsets_up_to(pe.d, 2 * pe.ell)])[
        entry_map(pe.d, pe.ell)
    ]


def dense_objective(X, pe, s_star):
    """Reference: read every pair through its key."""
    total = Fraction(0)
    for pos, pair in enumerate(pairs(X.d)):
        total += Fraction(float(X.entries[pos])) * moment(pe, pair)
    return total * Fraction(2, s_star * (s_star - 1))


def _subset(draw, d, max_size):
    size = draw(st.integers(0, min(d, max_size)))
    return tuple(sorted(draw(st.sets(st.integers(1, d), min_size=size, max_size=size))))


@st.composite
def perturbed_certificates(draw):
    """An expansivity certificate (or an indicator when it is undefined),
    then exact bumps, deletions, new keys, zeros and keys that are not
    moments: unsorted, repeated, out of range or too large."""
    d = draw(st.integers(3, 9))
    ell = draw(st.sampled_from([1, 2]))
    s_star = draw(st.integers(2, min(2 * ell + 1, d)))
    entries = st.floats(min_value=-4, max_value=4)
    X = NoisyMatrix(d=d, entries=draw(st.lists(entries, min_size=n_pairs(d), max_size=n_pairs(d))))
    table = expansivity_table(positivity_graph(X, SIGN_POSITIVE), ell)
    if table.clique_count:
        values = moments(build_certificate(table, s_star, ell))
    else:
        values = moments(indicator(_subset(draw, d, d), d, ell))
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=60)
    for op in draw(st.lists(st.sampled_from(["bump", "delete", "add", "zero", "junk"]), max_size=6)):
        keys = sorted(values, key=lambda k: (len(k), k))
        if op in ("bump", "delete", "zero") and not keys:
            continue
        if op == "bump":
            key = draw(st.sampled_from(keys))
            values[key] = values[key] + draw(fractions)
        elif op == "delete":
            del values[draw(st.sampled_from(keys))]
        elif op == "zero":
            values[draw(st.sampled_from(keys))] = Fraction(0)
        elif op == "add":
            values[_subset(draw, d, 2 * ell)] = draw(fractions)
        else:
            key = draw(
                st.sampled_from(
                    [(2, 1), (1, 1), (0,), (d + 1,), (1, d + 1), tuple(range(1, min(d, 2 * ell + 1) + 1))]
                )
            )
            values[key] = draw(fractions.filter(bool))
    return pe_from_values(d=d, ell=ell, values=values), X, s_star


@given(perturbed_certificates())
def test_verify_matches_dense_reference(case):
    pe, X, s_star = case
    d, ell = pe.d, pe.ell
    report = verify_certificate(pe, d, s_star, ell)
    assert report.rowsum_max_violation == dense_rowsum_violation(pe, d, s_star, ell)
    assert isinstance(report.rowsum_max_violation, Fraction)
    assert report.normalization_ok == (moment(pe, ()) == 1)
    M, ref = moment_matrix(pe), dense_moment_matrix(pe)
    assert M.dtype == ref.dtype and M.shape == ref.shape
    assert M.tobytes() == ref.tobytes()
    keep = ref.any(axis=1)
    block = nonzero_block(pe)
    assert block.shape == (keep.sum(),) * 2
    assert block.tobytes() == ref[np.ix_(keep, keep)].tobytes()
    evals = np.linalg.eigvalsh(ref)
    ref_min, ref_max = float(evals[0]), float(evals[-1])
    assert abs(report.min_eigenvalue - ref_min) <= 1e-10 * max(1.0, abs(ref_max))
    threshold = -PSD_REL_TOL * max(1.0, ref_max)
    if abs(ref_min - threshold) > 1e-12:
        assert report.psd == (ref_min >= threshold)
    assert certificate_objective(X, pe, s_star) == dense_objective(X, pe, s_star)


def test_verify_zero_rows_add_exact_zero_eigenvalue():
    # Rows {2}, {3}, {4} are zero; the block on {empty, {1}} is
    # [[1, 1/2], [1/2, 1/2]] (determinant 1/4), so lambda_min is the
    # zero rows' eigenvalue, exactly 0.
    pe = pe_from_values(d=4, ell=1, values={(): Fraction(1), (1,): Fraction(1, 2)})
    report = verify_certificate(pe, 4, 2, 1)
    assert report.min_eigenvalue == 0.0
    assert report.psd
    assert report.normalization_ok


def test_verify_all_zero_moments():
    report = verify_certificate(pe_from_values(d=4, ell=1, values={}), 4, 2, 1)
    assert report.min_eigenvalue == 0.0
    assert report.psd
    assert not report.normalization_ok
    assert report.rowsum_max_violation == 0


def test_verify_rowsum_at_deleted_key():
    # K4, l=1, s*=2 with y[{1}] deleted and y[empty] lowered to 3/4 so that
    # the row at the empty set still holds; the row at {1} then has a left
    # side 3 * 1/6 = 1/2 and a right side (2 - 1) * 0 = 0, and {1} is no
    # longer a key of the map.
    pe = build_certificate(expansivity_table(complete_graph(4), 1), 2, 1)
    values = moments(pe)
    del values[(1,)]
    values[()] = Fraction(3, 4)
    bent = pe_from_values(d=4, ell=1, values=values)
    assert dense_rowsum_violation(bent, 4, 2, 1) == Fraction(1, 2)
    report = verify_certificate(bent, 4, 2, 1)
    assert report.rowsum_max_violation == Fraction(1, 2)
    assert not report.normalization_ok


def test_verify_rowsum_at_key_without_supersets():
    # K4, l=1, s*=2 with every pair through vertex 1 deleted: the row at {1}
    # has a left side 0 and a right side (2 - 1) * 1/2 = 1/2, while the rows
    # at {2}, {3}, {4} are off by only 1/2 - 2/6 = 1/6.
    pe = build_certificate(expansivity_table(complete_graph(4), 1), 2, 1)
    values = {k: v for k, v in moments(pe).items() if not (len(k) == 2 and 1 in k)}
    bent = pe_from_values(d=4, ell=1, values=values)
    assert dense_rowsum_violation(bent, 4, 2, 1) == Fraction(1, 2)
    report = verify_certificate(bent, 4, 2, 1)
    assert report.rowsum_max_violation == Fraction(1, 2)
    assert report.normalization_ok


def test_python_int_path_matches_dense_reference():
    # Denominators 2**61 - 1 and 2**31 - 1 (both prime) push the common
    # denominator past 2**63, so the numerators are Python ints.
    base = build_certificate(expansivity_table(complete_graph(6), 2), 5, 2)
    X = NoisyMatrix(d=6, entries=np.linspace(-1.5, 2.0, n_pairs(6)))
    values = moments(base)
    values[(1, 2)] += Fraction(1, 2**61 - 1)
    values[(3, 4, 5)] -= Fraction(1, 2**31 - 1)
    values[(2,)] = Fraction(2**61 - 1, 2**31 - 1)
    pe = pe_from_values(d=6, ell=2, values=values)
    assert pe.num.dtype == object and pe.den > 2**63
    # Numerators that fit int64, but whose row sums would not; and one
    # above 2**53, whose float must be rounded once, not twice:
    # (2**54 + 1) / 3 is nearer 6004799503160662 than 2**54 / 3 is.
    big = pe_from_values(
        d=6, ell=2,
        values={(): Fraction(1), (1,): Fraction(2**54 + 1, 3), (1, 2): Fraction(-(2**61)), (2, 3, 4): Fraction(3)},
    )
    assert big.num.dtype == np.int64
    for case in (pe, big):
        report = verify_certificate(case, 6, 5, 2)
        assert report.rowsum_max_violation > 0
        assert report.rowsum_max_violation == dense_rowsum_violation(case, 6, 5, 2)
        M, ref = moment_matrix(case), dense_moment_matrix(case)
        assert M.dtype == ref.dtype and M.tobytes() == ref.tobytes()
        assert certificate_objective(X, case, 5) == dense_objective(X, case, 5)


def test_certify_does_not_import_scipy(tmp_path):
    # scipy adds about 30 MiB of resident memory; the certificate path, the
    # threshold sweep (scans alone) and the closed-form estimators are numpy alone.
    certificates = (
        "from soslab import certify, generate, ModelParams, Noise\n"
        "null = ModelParams(kind='submatrix', d=20, s_star=3, beta_star=0.0,\n"
        "                   noise=Noise('rademacher', 1.0), seed=5)\n"
        "sbm = ModelParams(kind='sbm', d=16, s_star=4, beta_star=0.5, beta_tilde=0.5, seed=6)\n"
        "certify(generate(null).matrix, 3, 1)\n"
        "certify(generate(sbm).matrix, 4, 2)\n"
    )
    threshold = (
        "from soslab import avg_estimate, generate, lp_estimate, max_estimate, ModelParams, Noise\n"
        "from soslab.lab import ExperimentConfig, run_experiment\n"
        "run_experiment(ExperimentConfig.from_dict({\n"
        "    'experiment': 'threshold', 'replicates': 2, 'base_seed': 1, 'multipliers': [0, 2],\n"
        "    'grid': [{'model': 'submatrix', 'd': 12, 's_star': 3}],\n"
        f"    'output': {str(tmp_path / 'thr.csv')!r}}}))\n"
        "X = generate(ModelParams(kind='submatrix', d=12, s_star=3, beta_star=1.0,\n"
        "                         noise=Noise('gaussian', 1.0), seed=7)).matrix\n"
        "avg_estimate(X, 3), max_estimate(X), lp_estimate(X, 3)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(soslab.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for code in (certificates, threshold):
        code = "import sys\n" + code + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "[]"
