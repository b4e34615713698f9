"""Constructors and readers that only the tests use: a ``NoisyMatrix`` from
a full array, and its entries and pairs by 1-based label; a
``PseudoExpectation`` from a map of subsets to rationals or from a vertex
support, and its moments, expansivity counts and graph edges keyed by
sorted 1-based tuples; the float moment matrix; and the PSD projection of a
matrix that is not exactly symmetric."""
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from soslab.errors import InvalidParams
from soslab.matrix import NoisyMatrix, pair_indices
from soslab.certificate import PseudoExpectation, exact_dtype
from soslab.sdp import project_psd
from soslab.subsets import entry_map, subset_counts, var_count, variables
from subset_order import key_index


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


def pe_from_values(d, ell, values):
    """From a map of subsets to rationals. Zero values, and keys that are
    not moments (sorted tuples inside 1..d of size <= 2*ell), are ignored;
    the denominator is the least common one."""
    kept = {k: v for k, v in values.items() if v and _is_moment_key(k, d, 2 * ell)}
    den = math.lcm(*{v.denominator for v in kept.values()})
    nums = [v.numerator * (den // v.denominator) for v in kept.values()]
    num = np.zeros(var_count(d, 2 * ell), dtype=exact_dtype(max(map(abs, nums), default=0)))
    num[[key_index(d, key) for key in kept]] = nums
    return PseudoExpectation(d=d, ell=ell, num=num, den=den)


def _is_moment_key(key, d, max_size):
    """True for a strictly increasing tuple of at most max_size vertices
    inside 1..d."""
    return (
        isinstance(key, tuple)
        and len(key) <= max_size
        and all(a < b for a, b in zip(key, key[1:]))
        and (not key or (1 <= key[0] and key[-1] <= d))
    )


def indicator(support, d, ell):
    """The integral lift of a vertex subset: y[T] = 1 iff T is inside it."""
    key = tuple(sorted(set(support)))
    supp = np.array([key], dtype=np.int64).reshape(1, -1) - 1
    if supp.size and not (0 <= supp[0, 0] and supp[0, -1] < d):
        raise InvalidParams(f"support {key} not within 1..{d}")
    return PseudoExpectation(d=d, ell=ell, num=subset_counts(d, 2 * ell, supp), den=1)


def nonzero_entries(d, ell, arr, convert):
    """The nonzero entries of an array over the variables of (d, ell),
    passed through ``convert`` and keyed by sorted 1-based tuples decoded
    from the member rows of ``variables(d, ell)``, in variable order."""
    nz = np.flatnonzero(arr)
    members = variables(d, ell)[nz].tolist()
    return {
        tuple(v + 1 for v in row if v < d): convert(value)
        for row, value in zip(members, arr[nz].tolist())
    }


def moments(pe):
    """The nonzero moments of a pseudo-expectation as Fractions."""
    return nonzero_entries(pe.d, pe.ell, pe.num, lambda n: Fraction(n, pe.den))


def _entry(d, ell, arr, key):
    """The entry of a sorted 1-based key read through ``key_index``, one
    lookup; 0 for a key that is not a variable of (d, ell)."""
    return int(arr[key_index(d, key)]) if _is_moment_key(key, d, 2 * ell) else 0


def moment(pe, subset):
    """The moment of a collection of 1-based vertices (repeats merged)."""
    return Fraction(_entry(pe.d, pe.ell, pe.num, tuple(sorted(set(subset)))), pe.den)


def moment_matrix(pe):
    """The dense float moment matrix: cell (r, c) holds the moment of the
    union of row subsets r and c."""
    return pe.floats()[entry_map(pe.d, pe.ell)]


def counts(table):
    """The nonzero expansivity counts."""
    return nonzero_entries(table.d, table.ell, table.eta, int)


def eta(table, subset):
    """The expansivity count of a collection of 1-based vertices."""
    return _entry(table.d, table.ell, table.eta, tuple(sorted(subset)))


def edges(adj):
    """The edges of a positivity graph's adjacency as 1-based pairs."""
    return frozenset((i, j) for i, j in pairs(len(adj)) if adj[i - 1, j - 1])


def project_symmetrized(S, *, out=None, positive=0):
    """``sdp.project_psd`` of ``(S + S^T) / 2``, formed in a copy, so S is
    kept; (a + b) * 0.5 rounds as (a + b) / 2."""
    X = np.add(S, S.T)
    X *= 0.5
    return project_psd(X, out=out, positive=positive)
