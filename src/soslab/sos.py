"""Assembly of the level-l relaxations in reduced, set-indexed form.

The matrix variable is indexed by subsets of size <= ell and its (r, c) cell
carries the variable ``y[S_r union S_c]``; keying variables by sets absorbs
the idempotency and collection-symmetry constraint families structurally, so
the explicit equalities are only

  (a) y[empty] = 1, and
  (b) for every subset S with |S| <= 2*ell - 1:
        sum_{i not in S} y[S + {i}] = (s_star - |S|) * y[S],

stored in that folded, sparse form. They depend only on the program's
shape, (d, s_star, ell) or (d, s_star) for the basic program, never on the
data. Each shape's equalities live in one ``sdp.Constraints`` object: the
entry map, a CSR ``A`` and ``b``, all read-only, and the solver's set-up
for them once a program of the shape is solved. It is built once and
shared by every program of that shape (a bounded LRU cache). An
``assemble_*`` call computes only the objective vector ``c``, with weight
2*X_ij on each pair variable; the reported value divides by
``scale = s_star*(s_star-1)``.

``assemble_basic`` is the weaker (d+1) x (d+1) program whose only explicit
equalities are (a) and the row-sum ``sum_i y[{i}] = s_star``; it shares the
entry map with level 1 (diagonal cells alias the first column there too),
but omits family (b) at singletons, so level 1 is the tighter program.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidParams, MissingValue, check_s_star
from .matrix import NoisyMatrix
from .sdp import Constraints
from .subsets import (
    NonzeroView,
    SubsetIndexer,
    canonical_key,
    parents,
    sizes,
    subset_counts,
    subset_indexer,
    var_count,
)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class SosProgram:
    """maximize ``c.y / scale`` subject to ``A y = b`` and ``M(y)`` PSD, where
    ``M(y)`` reads ``y`` through the entry map."""

    c: np.ndarray
    constraints: Constraints
    scale: float

    @property
    def dim(self) -> int:
        return len(self.constraints.entry_map)

    @property
    def var_count(self) -> int:
        return len(self.c)

    @property
    def entry_map(self) -> np.ndarray:
        return self.constraints.entry_map

    def value_of(self, y: np.ndarray) -> float:
        return float(self.c @ y) / self.scale


@dataclass(frozen=True, eq=False)
class PseudoExpectation:
    """Exact pseudo-moments ``y[S] = num[j] / den`` of the subsets S of
    {1..d} with |S| <= 2*ell, where j is S's index in the indexer's
    variable order (``subsets.rank``).

    ``num`` is a read-only integer array, int64 or Python ints
    (``dtype=object``) when a value does not fit, and ``den`` a positive
    Python int, not necessarily in lowest terms. ``values`` is a read-only
    view of the nonzero moments as Fractions; ``len(values)`` counts them.
    ``eta_empty`` records the clique count when the moments came from the
    expansivity construction.
    """

    d: int
    ell: int
    s_star: int
    num: np.ndarray
    den: int
    eta_empty: int | None = None

    def __post_init__(self) -> None:
        if self.num.shape != (var_count(self.d, 2 * self.ell),) or self.den < 1:
            raise InvalidParams(
                f"need {var_count(self.d, 2 * self.ell)} numerators and a positive denominator"
            )
        self.num.flags.writeable = False

    @cached_property
    def values(self) -> Mapping[tuple[int, ...], Fraction]:
        return NonzeroView(self.d, self.ell, self.num, lambda n: Fraction(int(n), self.den))

    def get(self, subset: Iterable[int]) -> Fraction:
        key = canonical_key(subset)
        if len(key) > 2 * self.ell:
            raise MissingValue(
                f"subset of size {len(key)} exceeds the covered size {2 * self.ell}"
            )
        if key and (key[0] < 1 or key[-1] > self.d):
            raise MissingValue(f"subset {key} not within 1..{self.d}")
        return self.values.get(key, _ZERO)

    def floats(self) -> np.ndarray:
        """``num / den`` correctly rounded: a float division when both sides
        are exact as floats (below 2**53), else Python ``int / int``."""
        if self.den < 2**53 and max_abs(self.num) < 2**53:
            return self.num.astype(np.float64) / float(self.den)
        return (self.num.astype(object) / self.den).astype(np.float64)

    @classmethod
    def indicator(cls, support: Iterable[int], d: int, ell: int) -> "PseudoExpectation":
        """The integral lift of a vertex subset: y[T] = 1 iff T is inside it."""
        supp = np.array([canonical_key(support)], dtype=np.int64).reshape(1, -1) - 1
        if supp.size and not (0 <= supp[0, 0] and supp[0, -1] < d):
            raise InvalidParams(f"support {canonical_key(support)} not within 1..{d}")
        return cls(d=d, ell=ell, s_star=supp.shape[1], num=subset_counts(d, 2 * ell, supp), den=1)


def exact_dtype(bound: int):
    """int64 when every integer of a computation is at most ``bound`` in
    absolute value and ``bound`` fits, else Python ints (``object``)."""
    return np.int64 if bound < 2**63 else object


def max_abs(arr: np.ndarray) -> int:
    """Largest absolute value of an integer array, as a Python int (0 when empty)."""
    return int(np.abs(arr).max()) if arr.size else 0


# Equality systems per shape, each with the solver's set-up once solved:
# the one bound on per-shape solver state. The level-2 system at d=16 (698
# rows) keeps a 3.9 MB inverse (14.6 MB at d=20) beside 0.12 MB of CSR
# arrays and its 0.15 MB entry map (the indexer's).
_SHAPES_CACHED = 8


@lru_cache(maxsize=_SHAPES_CACHED)
def _level_equalities(idx: SubsetIndexer, s_star: int) -> Constraints:
    """Constraints (a) and (b) of the level-``idx.ell`` program.

    Row 0 is (a); row ``rank(S) + 1`` is (b) at S, for the subsets S with
    |S| <= 2*ell - 1, which come first in the variable order. Each
    variable T with |T| >= 1 is a term of the rows of its parents T minus
    one member, found by ``parents``.
    """
    d, width = idx.d, 2 * idx.ell
    n_rows = var_count(d, width - 1)
    size = sizes(d, width)
    # (a), then the -(s_star - |S|) * y[S] term of each row of (b)
    rows = [np.array([0]), np.arange(1, n_rows + 1)]
    cols = [np.array([0]), np.arange(n_rows)]
    vals = [np.array([1.0]), (size[:n_rows] - s_star).astype(np.float64)]
    for col in parents(d, idx.members).T:
        T = np.flatnonzero(col < n_rows)  # n_rows pads a missing member
        rows.append(col[T] + 1)
        cols.append(T)
        vals.append(np.ones(len(T)))
    b = np.zeros(n_rows + 1)
    b[0] = 1.0
    return _constraints(idx, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), b)


@lru_cache(maxsize=_SHAPES_CACHED)
def _basic_equalities(idx: SubsetIndexer, s_star: int) -> Constraints:
    """y[empty] = 1 and the one row-sum; singleton {i} is variable i."""
    cols = np.arange(idx.d + 1)
    rows = np.minimum(cols, 1)
    return _constraints(idx, rows, cols, np.ones(idx.d + 1), np.array([1.0, float(s_star)]))


def _constraints(
    idx: SubsetIndexer, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, b: np.ndarray
) -> Constraints:
    """CSR A from (row, variable, coefficient) triplets; repeated triplets
    add up and zero coefficients are dropped."""
    import scipy.sparse

    A = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(len(b), idx.var_count)).tocsr()
    A.eliminate_zeros()
    return Constraints(entry_map=idx.entry_map(), A=A, b=b)


def assemble_level(X: NoisyMatrix, s_star: int, ell: int) -> SosProgram:
    """The level-``ell`` relaxation of the scan problem, in reduced form."""
    check_s_star(s_star, X.d)
    if ell < 1:
        raise InvalidParams("ell must be >= 1")
    idx = subset_indexer(X.d, ell)
    return _program(X, s_star, idx, _level_equalities(idx, s_star))


def assemble_basic(X: NoisyMatrix, s_star: int) -> SosProgram:
    """The basic (d+1) x (d+1) relaxation; see the module docstring."""
    check_s_star(s_star, X.d)
    idx = subset_indexer(X.d, 1)
    return _program(X, s_star, idx, _basic_equalities(idx, s_star))


def _program(
    X: NoisyMatrix, s_star: int, idx: SubsetIndexer, constraints: Constraints
) -> SosProgram:
    # The pair variables follow the empty set and the d singletons, in
    # pair_iter order. Weight 2*X_ij covers both orders of the trace;
    # value_of divides by scale. Adding 0.0 turns a -0.0 weight into 0.0.
    c = np.zeros(idx.var_count)
    c[1 + X.d : 1 + X.d + len(X.entries)] = 2.0 * X.entries + 0.0
    return SosProgram(c=c, constraints=constraints, scale=float(s_star * (s_star - 1)))


def moment_matrix(pe: PseudoExpectation, idx: SubsetIndexer) -> np.ndarray:
    """Dense symmetric matrix M[r, c] = float(pe value at S_r union S_c)."""
    if pe.d != idx.d or pe.ell != idx.ell:
        raise MissingValue(
            f"pseudo-expectation covers (d={pe.d}, ell={pe.ell}), "
            f"indexer wants (d={idx.d}, ell={idx.ell})"
        )
    return pe.floats()[idx.entry_map()]
