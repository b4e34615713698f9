from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse

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
from soslab.sos import _equalities, assemble_basic, assemble_level
from soslab.subsets import entry_map, variables
from constructors import entry, indicator, moment_matrix, pairs, pe_from_values
from subset_order import TupleOrder


def ones_matrix(d):
    return NoisyMatrix(d=d, entries=np.ones(n_pairs(d)))


def k4_certificate():
    g = positivity_graph(ones_matrix(4), BINARY_ONE)
    return build_certificate(expansivity_table(g, 1), 2, 1)


def feasible_residuals(program, y):
    return np.abs(program.constraints.A @ y - program.constraints.b).max()


def dim(program):
    return len(program.constraints.entry_map)


def value_of(program, y):
    return float(program.c @ y) / program.scale


def indicator_vector(program, support, d, ell):
    supp = set(support)
    y = np.zeros(program.var_count)
    for s, i in TupleOrder(d, ell).var_index.items():
        y[i] = 1.0 if set(s) <= supp else 0.0
    return y


def test_level_counting_d4():
    prog = assemble_level(ones_matrix(4), 2, 1)
    assert dim(prog) == 5
    assert prog.var_count == 11
    assert len(prog.constraints) == 6


def test_level_counting_d10_ell2():
    prog = assemble_level(ones_matrix(10), 3, 2)
    assert dim(prog) == 56
    assert prog.var_count == 386
    assert len(prog.constraints) == 177


def test_basic_counting():
    prog = assemble_basic(ones_matrix(6), 3)
    assert dim(prog) == 7
    assert prog.var_count == 1 + 6 + 15
    assert len(prog.constraints) == 2


def test_basic_program_is_level1_cut_at_the_empty_set():
    X = NoisyMatrix(d=6, entries=generator(14).standard_normal(15))
    basic = assemble_basic(X, 3).constraints
    level = assemble_level(X, 3, 1).constraints
    assert basic.b.tolist() == [1.0, 0.0]
    assert np.array_equal(basic.A.toarray(), level.A[:2].toarray())
    assert np.array_equal(basic.row_sets, level.row_sets[:2])
    assert np.array_equal(basic.row_families, level.row_families[:2])


def test_equalities_hold_the_shapes_entry_map():
    # the equality system keeps the shape's cached array, not a copy
    _equalities.cache_clear()
    for d, s_star, ell, top in ((5, 2, 1, 0), (5, 2, 1, 1), (7, 3, 2, 3)):
        assert _equalities(d, s_star, ell, top).entry_map is entry_map(d, ell)


def test_a_shape_built_again_shares_its_constraints():
    X = ones_matrix(7)
    first = assemble_level(X, 3, 2).constraints
    variables.cache_clear()
    entry_map.cache_clear()
    assert assemble_level(X, 3, 2).constraints is first


def test_normalization_constraint_present_once():
    prog = assemble_level(ones_matrix(5), 2, 1)
    A, b = prog.constraints.A, prog.constraints.b
    hits = [r for r in range(len(prog.constraints)) if b[r] == 1.0 and A[r].nnz == 1]
    assert len(hits) == 1
    assert A[hits[0]].indices.tolist() == [TupleOrder(5, 1).var_index[()]]
    assert A[hits[0]].data.tolist() == [1.0]


def test_entry_map_reaches_every_variable():
    for prog in (assemble_level(ones_matrix(5), 2, 1), assemble_level(ones_matrix(4), 2, 2)):
        em = prog.constraints.entry_map
        assert set(em.ravel()) == set(range(prog.var_count))
        assert (em == em.T).all()


def test_integral_point_feasible_and_matches_scan():
    rng = generator(31)
    for _ in range(10):
        d = int(rng.integers(3, 7))
        s = int(rng.integers(2, d + 1))
        ell = int(rng.integers(1, 3))
        X = NoisyMatrix(d=d, entries=rng.standard_normal(n_pairs(d)))
        prog = assemble_level(X, s, ell)
        support = tuple(sorted(rng.permutation(np.arange(1, d + 1))[:s].tolist()))
        y = indicator_vector(prog, support, d, ell)
        assert feasible_residuals(prog, y) == 0.0  # exactly feasible
        M = y[prog.constraints.entry_map]
        assert np.linalg.eigvalsh(M)[0] >= -1e-12  # rank-one lift
        avg = sum(entry(X, i, j) for i in support for j in support if i != j) / (s * (s - 1))
        assert value_of(prog, y) == pytest.approx(avg, abs=1e-12)


def test_all_ones_objective_constant_on_feasible_set():
    # constraints force the pair-variable total, so the objective is pinned
    prog = assemble_level(ones_matrix(4), 2, 1)
    rng = generator(8)
    A, b = prog.constraints.A, prog.constraints.b
    # project random vectors onto the affine set and read the objective
    AtA = (A @ A.T).toarray()
    for _ in range(5):
        y0 = rng.standard_normal(prog.var_count)
        lam = np.linalg.solve(AtA, A @ y0 - b)
        y = y0 - A.T @ lam
        assert feasible_residuals(prog, y) < 1e-10
        assert value_of(prog, y) == pytest.approx(1.0, abs=1e-9)


@dataclass(frozen=True)
class _LinearConstraint:
    terms: tuple[tuple[int, float], ...]
    rhs: float


def _tuple_equalities(order, s_star, top):
    """The equalities as the tuple-based builder made them, with family (b)
    cut at |S| <= top: the oracle of test_builder_output_unchanged."""
    constraints = [_LinearConstraint(terms=((order.var_index[()], 1.0),), rhs=1.0)]
    for S in order.var_subsets:
        if len(S) > top:
            continue
        inside = set(S)
        terms = [(order.var_index[tuple(sorted(inside | {i}))], 1.0)
                 for i in range(1, order.d + 1) if i not in inside]
        terms.append((order.var_index[S], -float(s_star - len(S))))
        constraints.append(_LinearConstraint(terms=tuple(terms), rhs=0.0))
    return constraints


def _tuple_arrays(constraints, var_count):
    rows, cols, vals = [], [], []
    for r, con in enumerate(constraints):
        for var, coeff in con.terms:
            rows.append(r)
            cols.append(var)
            vals.append(coeff)
    shape = (len(constraints), var_count)
    A = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    A.eliminate_zeros()
    return A, np.array([con.rhs for con in constraints], dtype=np.float64)


def _tuple_objective_vector(X, order):
    c = np.zeros(len(order.var_subsets))
    for pos, (i, j) in enumerate(pairs(X.d)):
        v = float(X.entries[pos])
        if v != 0.0:
            c[order.var_index[(i, j)]] += 2.0 * v
    return c


BUILDER_SHAPES = [(4, 2), (4, 3), (5, 2), (6, 3), (8, 4), (12, 3), (16, 3), (16, 5)]


@pytest.mark.parametrize("ell", [None, 1, 2], ids=["basic", "level1", "level2"])
@pytest.mark.parametrize("d, s_star", BUILDER_SHAPES)
def test_builder_output_unchanged(d, s_star, ell):
    # (4, 2) at level 2 is the rank-deficient system; (6, 3) and (4, 2) at
    # level 2 carry zero coefficients, which both builders drop
    _check_builder_output(d, s_star, ell)


@pytest.mark.parametrize("d, s_star", [(6, 3), (7, 4), (10, 5)])
def test_level3_builder_output_unchanged(d, s_star):
    # s_star <= 2*ell - 1 everywhere here: rows with a zero coefficient
    _check_builder_output(d, s_star, 3)


def _check_builder_output(d, s_star, ell):
    entries = generator(d * 100 + s_star).standard_normal(n_pairs(d))
    entries[::5] = 0.0
    entries[1::7] = -0.0
    X = NoisyMatrix(d=d, entries=entries)
    prog = assemble_basic(X, s_star) if ell is None else assemble_level(X, s_star, ell)
    order = TupleOrder(d, 1 if ell is None else ell)
    top = 0 if ell is None else 2 * ell - 1  # the basic program is level 1 cut at |S| <= 0
    A, b = _tuple_arrays(_tuple_equalities(order, s_star, top), prog.var_count)
    got = prog.constraints
    assert got.A.shape == A.shape
    for mine, want in ((got.A.indptr, A.indptr), (got.A.indices, A.indices),
                       (got.A.data, A.data), (got.b, b),
                       (prog.c, _tuple_objective_vector(X, order))):
        assert mine.dtype == want.dtype
        assert mine.tobytes() == want.tobytes()


def test_moment_matrix_point_mass():
    pe = pe_from_values(d=2, ell=1, values={(): Fraction(1)})
    M = moment_matrix(pe)
    assert np.array_equal(M, np.diag([1.0, 0.0, 0.0]))


def test_moment_matrix_k4_certificate():
    M = moment_matrix(k4_certificate())
    assert np.allclose(M[0], [1, 0.5, 0.5, 0.5, 0.5])
    assert np.allclose(np.diag(M), [1, 0.5, 0.5, 0.5, 0.5])
    off = M[1:, 1:]
    assert np.allclose(off[~np.eye(4, dtype=bool)], 1 / 6)
    assert np.array_equal(M, M.T)


def test_objective_value_examples():
    X = ones_matrix(4)
    zero_pe = pe_from_values(d=4, ell=1, values={(): Fraction(1)})
    assert float(certificate_objective(X, zero_pe, 2)) == 0.0
    assert float(certificate_objective(X, k4_certificate(), 2)) == pytest.approx(1.0)
    ind = indicator((1, 3), d=4, ell=1)
    rng = generator(12)
    Y = NoisyMatrix(d=4, entries=rng.standard_normal(6))
    assert float(certificate_objective(Y, ind, 2)) == pytest.approx(entry(Y, 1, 3))
    with pytest.raises(MissingValue):
        certificate_objective(ones_matrix(5), k4_certificate(), 2)


def test_indicator_matches_scan_objective():
    rng = generator(13)
    X = NoisyMatrix(d=6, entries=rng.standard_normal(15))
    r = scan_estimate(X, 3)
    ind = indicator(sorted(r.support), d=6, ell=2)
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
