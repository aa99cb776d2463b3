"""Deterministic seed derivation.

All randomness in the toolkit flows from a single root seed through
:func:`derive_seed`, so per-node / per-round RNG streams are independent of
execution order.  The mixer is splitmix64, which is a
bijection on 64-bit integers with good avalanche behavior.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 mixing step on a 64-bit integer."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def derive_seed(root: int, *indices: int | str) -> int:
    """Derive a child seed from a root seed and a path of indices.

    String components (stream labels like ``"train"``) are folded in by
    hashing their bytes; integer components are mixed directly.  The same
    path always yields the same child seed.
    """
    state = splitmix64(root & _MASK)
    for part in indices:
        if isinstance(part, str):
            for b in part.encode("utf-8"):
                state = splitmix64(state ^ b)
        else:
            state = splitmix64(state ^ (int(part) & _MASK))
    return state


def rng_for(root: int, *indices: int | str) -> np.random.Generator:
    """A fresh PCG64 generator seeded from the derived child seed."""
    return np.random.default_rng(derive_seed(root, *indices))
