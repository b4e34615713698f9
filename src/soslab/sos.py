"""Assembly of the level-l relaxations in reduced, set-indexed form.

The matrix variable is indexed by subsets of size <= ell and its (r, c) cell
carries the variable ``y[S_r union S_c]``; keying variables by sets absorbs
the idempotency and collection-symmetry constraint families structurally, so
the explicit equalities are only

  (a) y[empty] = 1, and
  (b) for every subset S with |S| <= 2*ell - 1:
        sum_{i not in S} y[S + {i}] = (s_star - |S|) * y[S],

stored in that folded, sparse form. The objective puts weight 2*X_ij on each
pair variable and the reported value divides by ``scale = s_star*(s_star-1)``.

``assemble_basic`` is the weaker (d+1) x (d+1) program whose only explicit
equalities are (a) and the row-sum ``sum_i y[{i}] = s_star``; it shares the
entry map with level 1 (diagonal cells alias the first column there too),
but omits family (b) at singletons, so level 1 is the tighter program.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .errors import InvalidParams, MissingValue
from .matrix import NoisyMatrix, pair_iter
from .subsets import DEFAULT_MAX_DIM, SubsetIndexer, canonical_key, subset_indexer

if TYPE_CHECKING:
    import scipy.sparse

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LinearConstraint:
    """Sparse equality: sum of coeff * y[var] == rhs."""

    terms: tuple[tuple[int, float], ...]
    rhs: float


@dataclass(frozen=True)
class SosProgram:
    """A semidefinite program over set-indexed moment variables."""

    dim: int
    var_count: int
    objective: tuple[tuple[int, float], ...]
    constraints: tuple[LinearConstraint, ...]
    entry_map: np.ndarray
    scale: float
    indexer: SubsetIndexer = field(repr=False)

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(self.var_count)
        for var, coeff in self.objective:
            c[var] += coeff
        return c

    def constraint_arrays(self) -> tuple[scipy.sparse.csr_matrix, np.ndarray]:
        """Sparse (A, b) with one row per equality; repeated terms add up."""
        import scipy.sparse

        rows, cols, vals = [], [], []
        for r, con in enumerate(self.constraints):
            for var, coeff in con.terms:
                rows.append(r)
                cols.append(var)
                vals.append(coeff)
        shape = (len(self.constraints), self.var_count)
        A = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
        A.eliminate_zeros()
        b = np.array([con.rhs for con in self.constraints], dtype=np.float64)
        return A, b

    def value_of(self, y: np.ndarray) -> float:
        return float(self.objective_vector() @ y) / self.scale


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


def assemble_level(
    X: NoisyMatrix, s_star: int, ell: int, max_dim: int = DEFAULT_MAX_DIM
) -> SosProgram:
    """The level-``ell`` relaxation of the scan problem, in reduced form."""
    if not 2 <= s_star <= X.d:
        raise InvalidParams(f"need 2 <= s_star <= d, got s_star={s_star}, d={X.d}")
    if ell < 1:
        raise InvalidParams("ell must be >= 1")
    idx = subset_indexer(X.d, ell, max_dim)
    constraints = [LinearConstraint(terms=((idx.var_index[()], 1.0),), rhs=1.0)]
    vertices = range(1, X.d + 1)
    for S in idx.var_subsets:
        if len(S) > 2 * ell - 1:
            continue
        inside = set(S)
        terms = [(idx.var_index[tuple(sorted(inside | {i}))], 1.0) for i in vertices if i not in inside]
        terms.append((idx.var_index[S], -float(s_star - len(S))))
        constraints.append(LinearConstraint(terms=tuple(terms), rhs=0.0))
    objective = _pair_objective(X, idx)
    return SosProgram(
        dim=idx.dim,
        var_count=idx.var_count,
        objective=objective,
        constraints=tuple(constraints),
        entry_map=idx.entry_map(),
        scale=float(s_star * (s_star - 1)),
        indexer=idx,
    )


def assemble_basic(X: NoisyMatrix, s_star: int) -> SosProgram:
    """The basic (d+1) x (d+1) relaxation; see the module docstring."""
    if not 2 <= s_star <= X.d:
        raise InvalidParams(f"need 2 <= s_star <= d, got s_star={s_star}, d={X.d}")
    idx = subset_indexer(X.d, 1)
    constraints = (
        LinearConstraint(terms=((idx.var_index[()], 1.0),), rhs=1.0),
        LinearConstraint(
            terms=tuple((idx.var_index[(i,)], 1.0) for i in range(1, X.d + 1)),
            rhs=float(s_star),
        ),
    )
    return SosProgram(
        dim=idx.dim,
        var_count=idx.var_count,
        objective=_pair_objective(X, idx),
        constraints=constraints,
        entry_map=idx.entry_map(),
        scale=float(s_star * (s_star - 1)),
        indexer=idx,
    )


def _pair_objective(X: NoisyMatrix, idx: SubsetIndexer) -> tuple[tuple[int, float], ...]:
    # Weight 2*X_ij covers both orders of the trace; value_of divides by scale.
    out = []
    for pos, (i, j) in enumerate(pair_iter(X.d)):
        v = float(X.entries[pos])
        if v != 0.0:
            out.append((idx.var_index[(i, j)], 2.0 * v))
    return tuple(out)


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
