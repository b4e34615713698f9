"""Symmetric zero-diagonal matrix storage and its JSON file format.

Vertices are labeled ``1..d`` throughout the public API. Only the strict
upper triangle is stored, in row-major pair order ``(1,2), (1,3), ...,
(d-1,d)``, so symmetry and the zero diagonal hold by construction.

File format: a JSON object with fields ``d`` (int), ``format``
(``"upper-tri-row-major"``), ``entries`` (array of ``d(d-1)/2`` numbers) and
an optional ``ground_truth`` object ``{"support": [...], "params": {...}}``.
JSON floats are written with Python's shortest round-trip representation, so
{0,1} matrices survive bit-faithfully and reals round-trip exactly (in
particular to 17 significant digits).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .errors import InvalidParams
from .fields import parse, parse_field

JSON_FORMAT = "upper-tri-row-major"


def n_pairs(d: int) -> int:
    """Number of unordered off-diagonal pairs of ``{1..d}``."""
    return d * (d - 1) // 2


def pair_index(d: int, i: int, j: int) -> int:
    """Position of pair ``(i, j)``, 1 <= i < j <= d, in storage order."""
    if not (1 <= i < j <= d):
        raise InvalidParams(f"pair ({i},{j}) out of range for d={d}")
    return (i - 1) * d - i * (i + 1) // 2 + j - 1


@lru_cache(maxsize=64)
def pair_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(d, 1)``: the 0-based row and column of each pair
    in storage order, built once per d and read-only."""
    rows, cols = np.triu_indices(d, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def pair_iter(d: int) -> Iterable[tuple[int, int]]:
    """Pairs ``(i, j)``, i < j, in storage order."""
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            yield i, j


@dataclass(frozen=True, eq=False)
class NoisyMatrix:
    """Symmetric ``d x d`` real matrix with zero diagonal.

    ``entries`` holds the strict upper triangle in row-major pair order.
    """

    d: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.d < 2:
            raise InvalidParams(f"d must be >= 2, got {self.d}")
        arr = np.array(self.entries, dtype=np.float64)
        if arr.shape != (n_pairs(self.d),):
            raise InvalidParams(
                f"expected {n_pairs(self.d)} upper-triangle entries, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise InvalidParams("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NoisyMatrix):
            return NotImplemented
        return self.d == other.d and np.array_equal(self.entries, other.entries)

    def value(self, i: int, j: int) -> float:
        """Entry ``X_ij`` with symmetry and the zero diagonal applied."""
        if i == j:
            if not 1 <= i <= self.d:
                raise InvalidParams(f"index {i} out of range for d={self.d}")
            return 0.0
        if i > j:
            i, j = j, i
        return float(self.entries[pair_index(self.d, i, j)])

    def to_dense(self) -> np.ndarray:
        """Full symmetric ``d x d`` array (0-based indexing)."""
        full = np.zeros((self.d, self.d))
        full[pair_indices(self.d)] = self.entries
        full += full.T
        return full

    def is_binary(self) -> bool:
        """True when every entry is exactly 0 or 1."""
        return bool(np.all((self.entries == 0.0) | (self.entries == 1.0)))

    def max_offdiag(self) -> float:
        """Largest off-diagonal entry."""
        return float(self.entries.max())


def matrix_to_json_dict(matrix: NoisyMatrix, ground_truth: dict | None = None) -> dict:
    doc: dict = {
        "d": matrix.d,
        "format": JSON_FORMAT,
        "entries": [float(v) for v in matrix.entries],
    }
    if ground_truth is not None:
        doc["ground_truth"] = ground_truth
    return doc


def write_matrix_json(path: str, matrix: NoisyMatrix, ground_truth: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_json_dict(matrix, ground_truth), fh)
        fh.write("\n")


def read_matrix_json(path: str) -> tuple[NoisyMatrix, dict | None]:
    """Load a matrix file; returns the matrix and the ground-truth dict, if
    any. A malformed file raises ``InvalidParams`` naming the field."""
    with open(path) as fh:
        doc = parse(dict, json.load(fh), "matrix")
    if doc.get("format") != JSON_FORMAT:
        raise InvalidParams(f"unsupported matrix format: {doc.get('format')!r}")
    entries = parse_field(doc, "entries", list)
    values = [parse(float, v, f"entries[{i}]") for i, v in enumerate(entries)]
    matrix = NoisyMatrix(d=parse_field(doc, "d", int), entries=np.array(values, dtype=np.float64))
    return matrix, doc.get("ground_truth")
