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
data. Each shape's equalities live in one ``Constraints`` object: the entry
map, a CSR ``A`` and ``b``, all read-only. It is built once and shared by
every program of that shape (a bounded LRU cache), and it compares by
identity, so the solver keys its set-up cache on the object itself. An
``assemble_*`` call computes only the objective vector ``c``, with weight
2*X_ij on each pair variable; the reported value divides by
``scale = s_star*(s_star-1)``.

``assemble_basic`` is the weaker (d+1) x (d+1) program whose only explicit
equalities are (a) and the row-sum ``sum_i y[{i}] = s_star``; it shares the
entry map with level 1 (diagonal cells alias the first column there too),
but omits family (b) at singletons, so level 1 is the tighter program.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .errors import InvalidParams, MissingValue
from .matrix import NoisyMatrix
from .subsets import SubsetIndexer, canonical_key, subset_indexer, union_key

if TYPE_CHECKING:
    import scipy.sparse

_ZERO = Fraction(0)


@dataclass(frozen=True, eq=False)
class Constraints:
    """The equalities ``A y = b`` of one program shape, with the entry map
    of its moment matrix; every array read-only from construction.

    Compared and hashed by identity (``eq=False``): the solver caches its
    set-up per object. ``len()`` is the number of equality rows.
    """

    entry_map: np.ndarray
    A: scipy.sparse.csr_matrix
    b: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.entry_map, self.A.data, self.A.indices, self.A.indptr, self.b):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class SosProgram:
    """maximize ``c.y / scale`` subject to ``A y = b`` and ``M(y)`` PSD, where
    ``M(y)`` reads ``y`` through the entry map."""

    c: np.ndarray
    constraints: Constraints
    scale: float
    indexer: SubsetIndexer = field(repr=False)

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


@dataclass(frozen=True)
class PseudoExpectation:
    """Exact-rational map from subsets (size <= 2*ell) to moment values.

    ``values`` stores the nonzero entries; absent keys of tracked size read
    as 0. ``eta_empty`` records the clique count when the map came from the
    expansivity construction.
    """

    d: int
    ell: int
    s_star: int
    values: Mapping[tuple[int, ...], Fraction]
    eta_empty: int | None = None

    def get(self, subset: Iterable[int]) -> Fraction:
        key = canonical_key(subset)
        if len(key) > 2 * self.ell:
            raise MissingValue(
                f"subset of size {len(key)} exceeds the covered size {2 * self.ell}"
            )
        if key and (key[0] < 1 or key[-1] > self.d):
            raise MissingValue(f"subset {key} not within 1..{self.d}")
        return self.values.get(key, _ZERO)

    @classmethod
    def indicator(cls, support: Iterable[int], d: int, ell: int) -> "PseudoExpectation":
        """The integral lift of a vertex subset: y[T] = 1 iff T is inside it."""
        supp = canonical_key(support)
        vals: dict[tuple[int, ...], Fraction] = {}
        for k in range(min(len(supp), 2 * ell) + 1):
            for sub in combinations(supp, k):
                vals[sub] = Fraction(1)
        return cls(d=d, ell=ell, s_star=len(supp), values=vals)


# Equality systems per shape. The level-2 system at d=16 (698 rows) holds
# 0.12 MB of CSR arrays beside its 0.15 MB entry map (the indexer's); the
# bound keeps a long run over many shapes from growing.
_SHAPES_CACHED = 16


@lru_cache(maxsize=_SHAPES_CACHED)
def _level_equalities(idx: SubsetIndexer, s_star: int) -> Constraints:
    """Constraints (a) and (b) of the level-``idx.ell`` program."""
    var = idx.var_index
    terms = [(0, var[()], 1.0)]  # (row, variable, coefficient)
    b = [1.0]
    for S in idx.var_subsets:
        if len(S) > 2 * idx.ell - 1:
            break  # var_subsets are ordered by size
        row = len(b)
        terms += [(row, var[union_key(S, (i,))], 1.0) for i in range(1, idx.d + 1) if i not in S]
        terms.append((row, var[S], -float(s_star - len(S))))
        b.append(0.0)
    return _constraints(idx, terms, b)


@lru_cache(maxsize=_SHAPES_CACHED)
def _basic_equalities(idx: SubsetIndexer, s_star: int) -> Constraints:
    """y[empty] = 1 and the one row-sum."""
    terms = [(0, idx.var_index[()], 1.0)]
    terms += [(1, idx.var_index[(i,)], 1.0) for i in range(1, idx.d + 1)]
    return _constraints(idx, terms, [1.0, float(s_star)])


def _constraints(idx: SubsetIndexer, terms: list, b: list) -> Constraints:
    """CSR A from (row, variable, coefficient) terms; repeated terms add up
    and zero coefficients are dropped."""
    import scipy.sparse

    rows, cols, vals = zip(*terms)
    A = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(len(b), idx.var_count)).tocsr()
    A.eliminate_zeros()
    return Constraints(entry_map=idx.entry_map(), A=A, b=np.array(b, dtype=np.float64))


def assemble_level(X: NoisyMatrix, s_star: int, ell: int) -> SosProgram:
    """The level-``ell`` relaxation of the scan problem, in reduced form."""
    if not 2 <= s_star <= X.d:
        raise InvalidParams(f"need 2 <= s_star <= d, got s_star={s_star}, d={X.d}")
    if ell < 1:
        raise InvalidParams("ell must be >= 1")
    idx = subset_indexer(X.d, ell)
    return _program(X, s_star, idx, _level_equalities(idx, s_star))


def assemble_basic(X: NoisyMatrix, s_star: int) -> SosProgram:
    """The basic (d+1) x (d+1) relaxation; see the module docstring."""
    if not 2 <= s_star <= X.d:
        raise InvalidParams(f"need 2 <= s_star <= d, got s_star={s_star}, d={X.d}")
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
    return SosProgram(c=c, constraints=constraints, scale=float(s_star * (s_star - 1)), indexer=idx)


def moment_matrix(pe: PseudoExpectation, idx: SubsetIndexer) -> np.ndarray:
    """Dense symmetric matrix M[r, c] = float(pe value at S_r union S_c)."""
    if pe.d != idx.d or pe.ell != idx.ell:
        raise MissingValue(
            f"pseudo-expectation covers (d={pe.d}, ell={pe.ell}), "
            f"indexer wants (d={idx.d}, ell={idx.ell})"
        )
    vals = np.zeros(idx.var_count)
    for key, v in pe.values.items():
        j = idx.var_index.get(key)
        if j is not None:
            vals[j] = float(v)
    return vals[idx.entry_map()]
