"""Planted-instance generators for the two statistical models.

Submatrix model: the mean matrix has value ``beta_star`` on every
off-diagonal pair inside a hidden ``s_star``-subset (the support) and 0
elsewhere; the observation adds independent noise to each upper-triangle
entry. Gaussian noise has standard deviation ``sigma``, with ``sigma = 0``
admitted as an explicit noiseless mode. Two-point ("rademacher") noise
replaces each entry by +/-``nu`` with equal probability; it is a null
construction and requires ``beta_star = 0``.

Block model (sbm): a binary symmetric adjacency matrix; pairs inside the
support connect with probability ``beta_star``, all other pairs with
probability ``beta_tilde <= beta_star``.

Default scales ``sigma = nu = 1`` ("unit scale"); all downstream rate checks
are scale-relative. Configs and ``soslab generate`` read a model as a grid
point (``lab.GridPoint.from_dict``).

Determinism: ``generate`` draws either model as a pure function of the
params. The support is drawn first, by a Fisher-Yates prefix shuffle of
``[1..d]`` (``s_star`` seeded swaps), then the upper-triangle entries are
drawn in storage order. Same params (including seed) give a bit-identical
instance.
"""
from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, RademacherWithSignal, check_s_star
from .fields import check_keys, named, parse, parse_field
from .matrix import NoisyMatrix, n_pairs, pair_indices
from .seeds import generator

SUBMATRIX = "submatrix"
SBM = "sbm"

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"


@dataclass(frozen=True)
class Noise:
    """Noise law for the submatrix model: gaussian(sigma) or rademacher(nu)."""

    kind: str
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind == GAUSSIAN:
            if not 0 <= self.scale < np.inf:
                raise InvalidParams(
                    f"gaussian sigma must be finite and >= 0 (0 = noiseless mode), got {self.scale}"
                )
        elif self.kind == RADEMACHER:
            if not 0 < self.scale < np.inf:
                raise InvalidParams(f"rademacher nu must be finite and > 0, got {self.scale}")
        else:
            raise InvalidParams(f"unknown noise kind {self.kind!r}")

    def to_dict(self) -> dict:
        key = "sigma" if self.kind == GAUSSIAN else "nu"
        return {"kind": self.kind, key: self.scale}

    @classmethod
    def from_dict(cls, doc: dict, prefix: str, name: str) -> "Noise":
        """Noise read from ``doc``, its fields named with ``prefix``, its checks with ``name``."""
        doc = parse(dict, doc, prefix.rstrip("."))
        kind = parse_field(doc, "kind", str, name=prefix + "kind")
        key = "sigma" if kind == GAUSSIAN else "nu"
        if kind in (GAUSSIAN, RADEMACHER):  # else the constructor names the unknown kind
            check_keys(doc, ("kind", key), prefix)
        scale = parse_field(doc, key, float, cls.scale, prefix + key)
        with named(name):
            return cls(kind=kind, scale=scale)


def check_model_keys(kind: str, keys: Collection[str], prefix: str = "") -> None:
    """Raise if ``keys`` holds the other model's parameter (``noise`` for
    an sbm, ``beta_tilde`` for a submatrix model): a draw of ``kind``
    ignores it, so the instance would not be the one written."""
    other = {SUBMATRIX: "beta_tilde", SBM: "noise"}.get(kind)
    if other in keys:
        raise InvalidParams(f"{prefix}{other}: not a parameter of the {kind} model")


@dataclass(frozen=True)
class ModelParams:
    """Full description of one planted model, including the seed."""

    kind: str
    d: int
    s_star: int
    beta_star: float
    noise: Noise | None = None
    beta_tilde: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (SUBMATRIX, SBM):
            raise InvalidParams(f"unknown model kind {self.kind!r}")
        check_model_keys(self.kind, self.to_dict())
        if self.d < 2:
            raise InvalidParams("d must be >= 2")
        check_s_star(self.s_star, self.d)
        if not 0 <= self.beta_star < np.inf:
            raise InvalidParams(f"beta_star must be finite and >= 0, got {self.beta_star}")
        if self.kind == SUBMATRIX:
            if self.noise is None:
                raise InvalidParams("submatrix model requires a noise spec")
            if self.noise.kind == RADEMACHER and self.beta_star != 0:
                raise RademacherWithSignal(
                    "rademacher noise models a null instance; beta_star must be 0"
                )
        else:
            if self.beta_tilde is None:
                raise InvalidParams("sbm requires beta_tilde")
            if not 0 <= self.beta_tilde <= self.beta_star <= 1:
                raise InvalidParams(
                    f"sbm requires 0 <= beta_tilde <= beta_star <= 1, "
                    f"got beta_tilde={self.beta_tilde}, beta_star={self.beta_star}"
                )

    def to_dict(self) -> dict:
        doc: dict = {
            "kind": self.kind,
            "d": self.d,
            "s_star": self.s_star,
            "beta_star": self.beta_star,
            "seed": self.seed,
        }
        if self.noise is not None:
            doc["noise"] = self.noise.to_dict()
        if self.beta_tilde is not None:
            doc["beta_tilde"] = self.beta_tilde
        return doc


@dataclass(frozen=True)
class PlantedInstance:
    """A generated matrix together with its ground truth."""

    matrix: NoisyMatrix
    support: frozenset[int]
    params: ModelParams

    def ground_truth_dict(self) -> dict:
        return {"support": sorted(self.support), "params": self.params.to_dict()}


def sample_support(d: int, s_star: int, rng: np.random.Generator) -> frozenset[int]:
    """Uniform s_star-subset of {1..d} via a Fisher-Yates prefix shuffle."""
    labels = np.arange(1, d + 1)
    for k in range(s_star):
        j = int(rng.integers(k, d))
        labels[k], labels[j] = labels[j], labels[k]
    return frozenset(int(v) for v in labels[:s_star])


def _pair_values(d: int, support: frozenset[int], inside: float, outside: float) -> np.ndarray:
    """Per-pair values in storage order: ``inside`` on the pairs within the
    support, ``outside`` elsewhere."""
    member = np.zeros(d, dtype=bool)
    member[[v - 1 for v in support]] = True
    i, j = pair_indices(d)
    return np.where(member[i] & member[j], inside, outside)


def generate(params: ModelParams) -> PlantedInstance:
    """Draw an instance of either model, deterministically from the seed."""
    rng = generator(params.seed)
    support = sample_support(params.d, params.s_star, rng)
    m = n_pairs(params.d)
    if params.kind == SBM:
        prob = _pair_values(params.d, support, params.beta_star, params.beta_tilde)
        entries = (rng.random(m) < prob).astype(np.float64)
    elif params.noise.kind == GAUSSIAN:
        theta = _pair_values(params.d, support, params.beta_star, 0.0)
        entries = theta + params.noise.scale * rng.standard_normal(m)
    else:
        signs = 2.0 * rng.integers(0, 2, size=m).astype(np.float64) - 1.0
        entries = params.noise.scale * signs
    return PlantedInstance(
        matrix=NoisyMatrix(d=params.d, entries=entries), support=support, params=params
    )
