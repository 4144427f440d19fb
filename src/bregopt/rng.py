"""Seeded random number generation.

All randomness in the package flows through :func:`make_rng`, which wraps
numpy's Philox bit generator. Philox is counter-based, so streams are
reproducible bit-for-bit across platforms and runs for a given 64-bit seed,
and independent streams of one seed are derived through the ``stream``
argument of :func:`make_rng`.
"""

import numpy as np


def make_rng(seed, stream=0):
    """Return a ``numpy.random.Generator`` backed by Philox.

    ``stream`` selects an independent sub-stream of the same seed; the pair
    (seed, stream) forms the 128-bit Philox key.
    """
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
