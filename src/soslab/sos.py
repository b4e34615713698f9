"""Assembly of the level-l relaxations in reduced, set-indexed form.

The matrix variable is indexed by subsets of size <= ell and its (r, c) cell
carries the variable ``y[S_r union S_c]``; keying variables by sets absorbs
the idempotency and collection-symmetry constraint families structurally, so
the explicit equalities are only

  (a) y[empty] = 1, and
  (b) for every subset S with |S| <= 2*ell - 1:
        sum_{i not in S} y[S + {i}] = (s_star - |S|) * y[S],

stored in that folded, sparse form. One builder makes every program's
equalities: (a), and (b) at every S with |S| <= ``top`` on the level-ell
matrix. A level-ell program cuts at ``top = 2*ell - 1``. The basic
(d+1) x (d+1) program is level 1 cut at ``top = 0``: (a) and (b) at the
empty set, ``sum_i y[{i}] = s_star * y[empty]``, with the row sums at
singletons left out, so level 1 is the tighter program.

The equalities depend only on the program's shape, never on the data.
Each shape's equalities live in one ``sdp.Constraints`` object: the entry
map, a CSR ``A`` and ``b``, all read-only, and the solver's set-up for
them once a program of the shape is solved. It is built once and shared
by every program of that shape: an LRU cache of ``subsets.SHAPES_CACHED``
shapes, keyed on the integers (d, s_star, ell, top), whose entry map is
``subsets.entry_map(d, ell)``. An ``assemble_*`` call computes only the
objective vector ``c``, with weight 2*X_ij on each pair variable; the
reported value divides by ``scale = s_star*(s_star-1)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import check_s_star
from .matrix import NoisyMatrix
from .sdp import Constraints
from .subsets import SHAPES_CACHED, entry_map, pair_variables, parents, sizes, var_count, variables


@dataclass(frozen=True)
class SosProgram:
    """maximize ``c.y / scale`` subject to ``A y = b`` and ``M(y)`` PSD, where
    ``M(y)`` reads ``y`` through ``constraints.entry_map``."""

    c: np.ndarray
    constraints: Constraints
    scale: float

    @property
    def var_count(self) -> int:
        return len(self.c)


@lru_cache(maxsize=SHAPES_CACHED)
def _equalities(d: int, s_star: int, ell: int, top: int) -> Constraints:
    """Constraints (a), and (b) at every S with |S| <= ``top``, on the
    level-``ell`` moment matrix.

    Row 0 is (a); row ``rank(S) + 1`` is (b) at S, for the subsets S with
    |S| <= top, which come first in the variable order. Each variable T
    with |T| >= 1 is a term of the rows of its parents T minus one member,
    found by ``parents``. CSR ``A`` from the (row, variable, coefficient)
    triplets; zero coefficients are dropped.
    """
    import scipy.sparse

    members = variables(d, ell)
    n_rows = var_count(d, top)
    # (a), then the -(s_star - |S|) * y[S] term of each row of (b)
    rows = [np.array([0]), np.arange(1, n_rows + 1)]
    cols = [np.array([0]), np.arange(n_rows)]
    vals = [np.array([1.0]), (sizes(d, top) - s_star).astype(np.float64)]
    for col in parents(d, members).T:
        T = np.flatnonzero(col < n_rows)  # a pad or a larger parent is no row
        rows.append(col[T] + 1)
        cols.append(T)
        vals.append(np.ones(len(T)))
    b = np.zeros(n_rows + 1)
    b[0] = 1.0
    A = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_rows + 1, len(members)),
    ).tocsr()
    A.eliminate_zeros()
    # (a) belongs to the empty set, (b) at S to S
    empty = np.full((1, 2 * ell), d, dtype=members.dtype)
    return Constraints(
        entry_map=entry_map(d, ell), A=A, b=b, d=d,
        row_sets=np.concatenate([empty, members[:n_rows]]),
        row_families=np.minimum(np.arange(n_rows + 1), 1),
    )


def assemble_level(X: NoisyMatrix, s_star: int, ell: int) -> SosProgram:
    """The level-``ell`` relaxation of the scan problem, in reduced form."""
    check_s_star(s_star, X.d)
    return _program(X, s_star, _equalities(X.d, s_star, ell, 2 * ell - 1))


def assemble_basic(X: NoisyMatrix, s_star: int) -> SosProgram:
    """The basic (d+1) x (d+1) relaxation; see the module docstring."""
    check_s_star(s_star, X.d)
    return _program(X, s_star, _equalities(X.d, s_star, 1, 0))


def _program(X: NoisyMatrix, s_star: int, constraints: Constraints) -> SosProgram:
    # Weight 2*X_ij on each pair variable covers both orders of the trace;
    # the value divides by scale. Adding 0.0 turns a -0.0 weight into 0.0.
    c = np.zeros(constraints.A.shape[1])
    c[pair_variables(X.d)] = 2.0 * X.entries + 0.0
    return SosProgram(c=c, constraints=constraints, scale=float(s_star * (s_star - 1)))
