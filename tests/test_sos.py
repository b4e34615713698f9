from fractions import Fraction

import numpy as np
import pytest

from soslab.certificate import (
    BINARY_ONE,
    build_certificate,
    certificate_objective,
    expansivity_table,
    positivity_graph,
)
from soslab.errors import InvalidParams, MissingValue
from soslab.estimators import scan_estimate
from soslab.matrix import NoisyMatrix, n_pairs
from soslab.seeds import generator
from soslab.sos import (
    PseudoExpectation,
    assemble_basic,
    assemble_level,
    moment_matrix,
)
from soslab.subsets import subset_indexer


def ones_matrix(d):
    return NoisyMatrix(d=d, entries=np.ones(n_pairs(d)))


def k4_certificate():
    g = positivity_graph(ones_matrix(4), BINARY_ONE)
    return build_certificate(expansivity_table(g, 1), 2, 1)


def feasible_residuals(program, y):
    A, b = program.constraint_arrays()
    return np.abs(A @ y - b).max()


def indicator_vector(program, support):
    supp = set(support)
    y = np.zeros(program.var_count)
    for s, i in program.indexer.var_index.items():
        y[i] = 1.0 if set(s) <= supp else 0.0
    return y


def test_level_counting_d4():
    prog = assemble_level(ones_matrix(4), 2, 1)
    assert prog.dim == 5
    assert prog.var_count == 11
    assert len(prog.constraints) == 6


def test_level_counting_d10_ell2():
    prog = assemble_level(ones_matrix(10), 3, 2)
    assert prog.dim == 56
    assert prog.var_count == 386
    assert len(prog.constraints) == 177


def test_basic_counting():
    prog = assemble_basic(ones_matrix(6), 3)
    assert prog.dim == 7
    assert prog.var_count == 1 + 6 + 15
    assert len(prog.constraints) == 2


def test_normalization_constraint_present_once():
    prog = assemble_level(ones_matrix(5), 2, 1)
    hits = [c for c in prog.constraints if c.rhs == 1.0 and len(c.terms) == 1]
    assert len(hits) == 1
    var, coeff = hits[0].terms[0]
    assert var == prog.indexer.var_index[()]
    assert coeff == 1.0


def test_entry_map_reaches_every_variable():
    for prog in (assemble_level(ones_matrix(5), 2, 1), assemble_level(ones_matrix(4), 2, 2)):
        assert set(prog.entry_map.ravel()) == set(range(prog.var_count))
        assert (prog.entry_map == prog.entry_map.T).all()


def test_integral_point_feasible_and_matches_scan():
    rng = generator(31)
    for _ in range(10):
        d = int(rng.integers(3, 7))
        s = int(rng.integers(2, d + 1))
        ell = int(rng.integers(1, 3))
        X = NoisyMatrix(d=d, entries=rng.standard_normal(n_pairs(d)))
        prog = assemble_level(X, s, ell)
        support = tuple(sorted(rng.permutation(np.arange(1, d + 1))[:s].tolist()))
        y = indicator_vector(prog, support)
        assert feasible_residuals(prog, y) == 0.0  # exactly feasible
        M = y[prog.entry_map]
        assert np.linalg.eigvalsh(M)[0] >= -1e-12  # rank-one lift
        avg = sum(X.value(i, j) for i in support for j in support if i != j) / (s * (s - 1))
        assert prog.value_of(y) == pytest.approx(avg, abs=1e-12)


def test_all_ones_objective_constant_on_feasible_set():
    # constraints force the pair-variable total, so the objective is pinned
    prog = assemble_level(ones_matrix(4), 2, 1)
    rng = generator(8)
    A, b = prog.constraint_arrays()
    # project random vectors onto the affine set and read the objective
    AtA = (A @ A.T).toarray()
    for _ in range(5):
        y0 = rng.standard_normal(prog.var_count)
        lam = np.linalg.solve(AtA, A @ y0 - b)
        y = y0 - A.T @ lam
        assert feasible_residuals(prog, y) < 1e-10
        assert prog.value_of(y) == pytest.approx(1.0, abs=1e-9)


def test_moment_matrix_point_mass():
    pe = PseudoExpectation(d=2, ell=1, s_star=2, values={(): Fraction(1)})
    M = moment_matrix(pe, subset_indexer(2, 1))
    assert np.array_equal(M, np.diag([1.0, 0.0, 0.0]))


def test_moment_matrix_k4_certificate():
    M = moment_matrix(k4_certificate(), subset_indexer(4, 1))
    assert np.allclose(M[0], [1, 0.5, 0.5, 0.5, 0.5])
    assert np.allclose(np.diag(M), [1, 0.5, 0.5, 0.5, 0.5])
    off = M[1:, 1:]
    assert np.allclose(off[~np.eye(4, dtype=bool)], 1 / 6)
    assert np.array_equal(M, M.T)


def test_moment_matrix_requires_matching_indexer():
    pe = PseudoExpectation(d=4, ell=1, s_star=2, values={(): Fraction(1)})
    with pytest.raises(MissingValue):
        moment_matrix(pe, subset_indexer(4, 2))
    with pytest.raises(MissingValue):
        moment_matrix(pe, subset_indexer(5, 1))


def test_pseudo_expectation_get():
    pe = k4_certificate()
    assert pe.get((2, 1)) == Fraction(1, 6)  # canonicalization
    assert pe.get(()) == 1
    with pytest.raises(MissingValue):
        pe.get((1, 2, 3))  # size 3 > 2*ell
    with pytest.raises(MissingValue):
        pe.get((9,))


def test_objective_value_examples():
    X = ones_matrix(4)
    zero_pe = PseudoExpectation(d=4, ell=1, s_star=2, values={(): Fraction(1)})
    assert float(certificate_objective(X, zero_pe, 2)) == 0.0
    assert float(certificate_objective(X, k4_certificate(), 2)) == pytest.approx(1.0)
    ind = PseudoExpectation.indicator((1, 3), d=4, ell=1)
    rng = generator(12)
    Y = NoisyMatrix(d=4, entries=rng.standard_normal(6))
    assert float(certificate_objective(Y, ind, 2)) == pytest.approx(Y.value(1, 3))
    with pytest.raises(MissingValue):
        certificate_objective(ones_matrix(5), k4_certificate(), 2)


def test_indicator_matches_scan_objective():
    rng = generator(13)
    X = NoisyMatrix(d=6, entries=rng.standard_normal(15))
    r = scan_estimate(X, 3)
    ind = PseudoExpectation.indicator(sorted(r.support), d=6, ell=2)
    assert float(certificate_objective(X, ind, 3)) == pytest.approx(r.value, abs=1e-12)


def test_assemble_validation():
    with pytest.raises(InvalidParams):
        assemble_level(ones_matrix(4), 1, 1)
    with pytest.raises(InvalidParams):
        assemble_level(ones_matrix(4), 5, 1)
    with pytest.raises(InvalidParams):
        assemble_level(ones_matrix(4), 2, 0)
    with pytest.raises(InvalidParams):
        assemble_basic(ones_matrix(4), 1)
