"""Deterministic seeding.

All randomness in the package flows through one named generator: numpy's
PCG64, seeded with an explicit 64-bit unsigned integer. Draw k of an
experiment draws from ``generator(mix_seed(base_seed, k))``; the SplitMix64
mix makes the per-draw streams independent while keeping every draw
reproducible from ``(base_seed, k)`` alone.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # golden-ratio increment of SplitMix64


def mix_seed(base_seed: int, index: int) -> int:
    """Derive the 64-bit sub-seed for stream ``index`` of ``base_seed``.

    Advances the SplitMix64 state ``base_seed`` by ``index + 1`` increments
    of the golden-ratio gamma and applies the SplitMix64 output finalizer.
    """
    z = (base_seed + (index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def generator(seed: int) -> np.random.Generator:
    """The package-wide RNG: PCG64 behind numpy's Generator front end."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))
