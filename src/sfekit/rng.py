"""Seed handling shared by the search algorithms and the harness."""

from __future__ import annotations

import hashlib

import numpy as np


def as_generator(seed) -> np.random.Generator:
    """Return a numpy Generator for ``seed``.

    Accepts an int (or None), an existing Generator (passed through
    unchanged so callers can continue a single stream across several
    search phases), or any object exposing the Generator draw methods,
    which lets tests inject fixed draws.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    if hasattr(seed, "integers") and hasattr(seed, "random"):
        return seed
    raise TypeError(f"cannot build a random generator from {type(seed).__name__}")


def derive_seed(*parts) -> int:
    """Derive a 64-bit seed from a tuple of labels.

    Stable across processes and platforms (unlike built-in ``hash``), so a
    run matrix keyed by (master seed, algorithm, dataset, run index) gets
    the same per-run seeds on every rerun.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")
