"""Seeded random number generation.

All randomness in the package flows through :func:`make_rng`, which wraps
numpy's Philox bit generator. Philox is counter-based, so a generator's
draws are reproducible bit-for-bit across platforms and runs for a given
64-bit seed.
"""

import numpy as np


def make_rng(seed):
    """Return a ``numpy.random.Generator`` backed by Philox with the 128-bit
    key (seed, 0)."""
    key = np.array([seed, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
