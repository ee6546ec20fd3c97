"""Size distribution of binary block fragmentations (beta-splitting family).

A block of ``n`` labels fragments into an unordered pair of nonempty
complementary sub-blocks.  The weight of a pair with sizes ``(k, n-k)`` is

    w(k) = Gamma(k + beta + 1) * Gamma(n - k + beta + 1) / Gamma(n + 2*beta + 2)

up to the normalization over all ``2**(n-1) - 1`` unordered pairs.  Shared by
the topology prior density and the random-topology samplers, which also
share :func:`first_reaching`, the cumulative draw of both topology priors.
"""

from __future__ import annotations

import math
from functools import lru_cache


def log_pair_weight(k: int, n: int, beta: float) -> float:
    """Unnormalized log weight of a sub-block pair with sizes ``(k, n-k)``."""
    return (
        math.lgamma(k + beta + 1.0)
        + math.lgamma(n - k + beta + 1.0)
        - math.lgamma(n + 2.0 * beta + 2.0)
    )


def _log_size_terms(n: int, beta: float) -> list[float]:
    """Log total weight of the pairs whose min-containing block has size k, k = 1..n-1.

    There are C(n-1, k-1) such pairs, each of weight ``w(k)``.  As k runs
    over 1..n-1 this covers each unordered pair exactly once.
    """
    return [
        math.lgamma(n) - math.lgamma(k) - math.lgamma(n - k + 1)
        + log_pair_weight(k, n, beta)
        for k in range(1, n)
    ]


@lru_cache(maxsize=4096)
def log_norm(n: int, beta: float) -> float:
    """Log of the total weight over all unordered binary pairs of a block."""
    terms = _log_size_terms(n, beta)
    m = max(terms)
    return m + math.log(math.fsum(math.exp(t - m) for t in terms))


def log_split_prob(k: int, n: int, beta: float) -> float:
    """Normalized log probability of one specific unordered pair with sizes (k, n-k)."""
    return log_pair_weight(k, n, beta) - log_norm(n, beta)


@lru_cache(maxsize=4096)
def _size_probabilities(n: int, beta: float) -> tuple:
    """P(size of the block containing the smallest label = k), k = 1..n-1."""
    ln = log_norm(n, beta)
    probs = [math.exp(t - ln) for t in _log_size_terms(n, beta)]
    total = math.fsum(probs)
    return tuple(p / total for p in probs)


def first_reaching(weights, u: float) -> int:
    """Index of the first weight at which the running sum reaches ``u``, else the last."""
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u <= acc:
            return i
    return len(weights) - 1


def sample_first_block_size(n: int, beta: float, rng) -> int:
    """Draw the size of the sub-block containing the smallest label."""
    return 1 + first_reaching(_size_probabilities(n, beta), rng.uniform())
