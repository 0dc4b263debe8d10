"""Deterministic random number generation.

Every stochastic component (key sampling, noise sampling, Monte-Carlo noise
experiments) accepts either a seed or a ``numpy.random.Generator``.  Using a
single helper keeps the whole library reproducible: the unit tests, the
examples and the benchmark harness all pin seeds through this function.
"""

from __future__ import annotations

from typing import Union

import numpy as np

#: A seed, or a generator to draw from.  The generator is a forward reference
#: so that importing this module does not load ``numpy.random``: only a
#: process that draws randomness pays for it (a server never does).
SeedLike = Union[None, int, "np.random.Generator"]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged so callers can thread a single stream
    through sub-components).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
