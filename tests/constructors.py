"""Constructors and readers that only the tests use: a ``NoisyMatrix`` from
a full array, and its entries and pairs by 1-based label; a
``PseudoExpectation`` from a map of subsets to rationals, and its moments,
expansivity counts and graph edges by subset; the float moment matrix; and
the PSD projection of a matrix that is not exactly symmetric."""
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from soslab.errors import InvalidParams
from soslab.matrix import NoisyMatrix, pair_indices
from soslab.sdp import project_psd
from soslab.sos import PseudoExpectation, exact_dtype
from soslab.subsets import NonzeroView, is_subset_key, key_index, var_count


def matrix_from_dense(full):
    """Build from a full symmetric array; diagonal is ignored."""
    full = np.asarray(full, dtype=np.float64)
    if full.ndim != 2 or full.shape[0] != full.shape[1]:
        raise InvalidParams("expected a square array")
    if not np.allclose(full, full.T, atol=0.0, rtol=0.0):
        raise InvalidParams("expected an exactly symmetric array")
    d = full.shape[0]
    return NoisyMatrix(d=d, entries=full[pair_indices(d)])


def pairs(d):
    """Pairs ``(i, j)``, 1 <= i < j <= d, in storage order."""
    return list(combinations(range(1, d + 1), 2))


def pair_position(d, i, j):
    """Position of pair ``(i, j)``, 1 <= i < j <= d, in storage order."""
    return (i - 1) * d - i * (i + 1) // 2 + j - 1


def entry(X, i, j):
    """``X_ij`` for 1-based labels, with symmetry and the zero diagonal."""
    return float(X.to_dense()[i - 1, j - 1])


def pe_from_values(d, ell, s_star, values, eta_empty=None):
    """From a map of subsets to rationals. Zero values, and keys that are
    not moments (sorted tuples inside 1..d of size <= 2*ell), are ignored;
    the denominator is the least common one."""
    moments = {k: v for k, v in values.items() if v and is_subset_key(k, d, 2 * ell)}
    den = math.lcm(*{v.denominator for v in moments.values()})
    nums = [v.numerator * (den // v.denominator) for v in moments.values()]
    num = np.zeros(var_count(d, 2 * ell), dtype=exact_dtype(max(map(abs, nums), default=0)))
    num[[key_index(d, key) for key in moments]] = nums
    return PseudoExpectation(d=d, ell=ell, s_star=s_star, num=num, den=den, eta_empty=eta_empty)


def moment(pe, subset):
    """The moment of a collection of 1-based vertices (repeats merged)."""
    return pe.values.get(tuple(sorted(set(subset))), Fraction(0))


def moment_matrix(pe, idx):
    """The dense float moment matrix: cell (r, c) holds the moment of the
    union of row subsets r and c."""
    return pe.floats()[idx.entry_map()]


def counts(table):
    """The nonzero expansivity counts, keyed by sorted 1-based tuples."""
    return NonzeroView(table.d, table.ell, table.eta, int)


def eta(table, subset):
    """The expansivity count of a collection of 1-based vertices."""
    return counts(table).get(tuple(sorted(subset)), 0)


def edges(graph):
    """The edges of a positivity graph as 1-based pairs."""
    return frozenset(pair for pair, k in zip(pairs(graph.d), graph.positive) if k)


def project_symmetrized(S, *, out=None, positive=0):
    """``sdp.project_psd`` of ``(S + S^T) / 2``, formed in a copy, so S is
    kept; (a + b) * 0.5 rounds as (a + b) / 2."""
    X = np.add(S, S.T)
    X *= 0.5
    return project_psd(X, out=out, positive=positive)
