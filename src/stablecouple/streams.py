"""Reproducible random streams.

Every stochastic routine in the package takes an explicit
``numpy.random.Generator``.  Streams are derived from a master seed by
counter-based derivation: each ensemble draws from one stream (index 0),
and other consumers, such as the W_p bootstrap, take their own index, so a
run is reproducible from (configuration, seed) alone.
"""

from __future__ import annotations

import numpy as np


def derive_stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the ``index``-th stream derived from ``seed``.

    Uses the counter-based Philox generator keyed by
    ``SeedSequence(seed, spawn_key=(index,))``; distinct indices give
    statistically independent streams and the mapping (seed, index) -> stream
    is stable across runs and platforms.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))
