"""Topology and edge-length priors built from recursive fragmentations.

A topology prior assigns each tree shape the product, over its internal
nodes, of the probability that the node's leaf block fragments into its
children blocks.  Two exchangeable families are provided:

* binary beta-splitting, where a block of size ``n`` splits into an
  unordered pair with sizes ``(k, n-k)`` with weight
  ``Gamma(k+b+1) Gamma(n-k+b+1) / Gamma(n+2b+2)``; ``b = -1.5`` makes all
  resolved shapes equally likely and ``b = 0`` is the Yule model;
* a Poisson-Dirichlet partition law for multifurcating shapes, using the
  exchangeable partition probability of PD(alpha, theta) conditioned on
  producing at least two blocks at every fragmentation event.

Both families draw through one recursion, ``treespace._fragment``, and
price through one containment tree, ``treespace.LaminarTree``; each
supplies only how one block splits and :meth:`PriorSpec.event_log_prob` of
a split.  A :class:`PriorSpec` is validated once, when it is built.

Edge lengths are i.i.d. exponential with a common mean across all stored
coordinates (root, leaves, internal), summed in ascending mask order by
both :func:`tree_log_prior` and :meth:`PriorSpec.log_prior`, the samplers'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

from . import _betasplit
from .errors import InvalidArgumentError
from .rng import RngStream
from .treespace import LaminarTree, Topology, Tree, _beta_split_blocks, _fragment

BETA_UNIFORM = -1.5


@dataclass(frozen=True)
class PriorSpec:
    """Hyperparameters of the tree prior.

    ``kind`` selects the topology family; ``beta`` is the beta-splitting
    parameter in ``(-2, inf)``, ``theta``/``alpha_pd`` the Poisson-Dirichlet
    pair with ``0 <= alpha_pd < 1``, ``theta > -2 * alpha_pd`` and
    ``theta + alpha_pd > 0``, and ``edge_mean`` the common exponential mean
    of all edge lengths (``inf`` gives the flat length prior).
    """

    kind: str = "beta-splitting"
    beta: float = BETA_UNIFORM
    theta: float = 1.0
    alpha_pd: float = 0.0
    edge_mean: float = 1.0

    def __post_init__(self):
        if self.kind not in ("beta-splitting", "poisson-dirichlet"):
            raise InvalidArgumentError(f"unknown prior kind {self.kind!r}")
        if not math.isfinite(self.beta) or self.beta <= -2.0:
            raise InvalidArgumentError(
                f"beta must be finite and > -2, got {self.beta}"
            )
        if not 0.0 <= self.alpha_pd < 1.0:
            raise InvalidArgumentError(f"alpha_pd must be in [0, 1), got {self.alpha_pd}")
        if not math.isfinite(self.theta) or self.theta <= -2.0 * self.alpha_pd:
            raise InvalidArgumentError(f"theta must exceed -2*alpha_pd, got {self.theta}")
        if self.theta + self.alpha_pd <= 0.0:
            raise InvalidArgumentError(
                "theta + alpha_pd must be positive for partitions into >= 2 blocks"
            )
        if not self.edge_mean > 0:  # inf is the flat length prior
            raise InvalidArgumentError(f"edge_mean must be positive, got {self.edge_mean}")

    def topology_log_prior(self, topology: Topology) -> float:
        """:meth:`LaminarTree.log_prior` of the topology's containment tree."""
        if self.kind == "beta-splitting" and not topology.is_resolved:
            raise InvalidArgumentError(
                "beta-splitting is defined on resolved (binary) topologies only"
            )
        return LaminarTree(topology.p, topology.sorted_masks(), self.event_log_prob).log_prior()

    def log_prior(self, laminar: LaminarTree, lengths: dict[int, float]) -> float:
        """A sampler state's log prior, its kept tree's topology term plus its
        ``{mask: length}`` lengths' term, to the bit :func:`tree_log_prior` of
        its tree.  Beta-splitting gives unresolved shapes no mass, so one
        (``run_chain`` refuses it) gets a flat topology term."""
        resolved = len(laminar.events) == laminar.p - 1  # the full block and p - 2 splits
        topo_lp = laminar.log_prior() if resolved or self.kind != "beta-splitting" else 0.0
        return topo_lp + lengths_log_prior(map(lengths.get, sorted(lengths)), self.edge_mean)

    def event_log_prob(self, children) -> float:
        """Log probability of one fragmentation event: a block into ``children``.

        ``children`` are the ascending masks of the sub-blocks, two of them
        under beta-splitting.  Every term of :meth:`topology_log_prior` comes
        from here.
        """
        sizes = [c.bit_count() for c in children]
        if self.kind == "beta-splitting":
            return _betasplit.log_split_prob(sizes[0], sum(sizes), self.beta)
        return _pd_event_log_prob(tuple(sorted(sizes)), self.theta, self.alpha_pd)


def beta_split_log_prior(topology: Topology, beta: float) -> float:
    """Log probability of a resolved topology under beta-splitting.

    The weight of each binary fragmentation is normalized by summing over
    all ``2**(n-1) - 1`` unordered pairs of the block.  With ``beta = -1.5``
    every resolved topology on p leaves has probability ``1/(2p-3)!!``.
    """
    return PriorSpec(beta=beta).topology_log_prior(topology)


def _log_rising(x: float, m: int) -> float:
    """log of x (x+1) ... (x+m-1), the rising factorial, for x > 0."""
    if m == 0:
        return 0.0
    return math.lgamma(x + m) - math.lgamma(x)


@lru_cache(maxsize=65536)
def _pd_event_log_prob(sizes: tuple[int, ...], theta: float, alpha_pd: float) -> float:
    """Log conditional probability of one fragmentation into given block sizes.

    Exchangeable partition probability of PD(alpha, theta) for a specific
    set partition with these block sizes, divided by the probability of
    producing at least two blocks.
    """
    k = len(sizes)
    n = sum(sizes)
    log_p = -_log_rising(theta + 1.0, n - 1)
    for i in range(1, k):
        log_p += math.log(theta + i * alpha_pd)
    for nj in sizes:
        log_p += _log_rising(1.0 - alpha_pd, nj - 1)
    log_single = _log_rising(1.0 - alpha_pd, n - 1) - _log_rising(theta + 1.0, n - 1)
    return log_p - math.log1p(-math.exp(log_single))


def pd_log_prior(topology: Topology, theta: float = 1.0,
                 alpha_pd: float = 0.0) -> float:
    """Log probability of a (possibly multifurcating) topology under PD."""
    return PriorSpec(kind="poisson-dirichlet", theta=theta,
                     alpha_pd=alpha_pd).topology_log_prior(topology)


def lengths_log_prior(lengths, a: float = 1.0) -> float:
    """Sum of exponential(mean ``a``) log densities; ``a = inf`` is flat (0)."""
    if not a > 0:
        raise InvalidArgumentError(f"edge mean must be positive, got {a}")
    if a == math.inf:
        return 0.0
    log_a = math.log(a)
    total = 0.0
    for x in lengths:
        total -= x / a + log_a
    return total


def edge_length_log_prior(t: Tree, a: float = 1.0) -> float:
    """Sum of exponential(mean ``a``) log densities over all stored lengths,
    in ascending mask order."""
    return lengths_log_prior((v for _, v in t.coordinates()), a)


def tree_log_prior(t: Tree, spec: PriorSpec) -> float:
    """Joint log prior: topology term plus edge-length term."""
    return spec.topology_log_prior(t.topology) + edge_length_log_prior(t, spec.edge_mean)


def _sample_pd_partition(n: int, theta: float, alpha_pd: float,
                         rng: RngStream) -> list[list[int]]:
    """A set partition of range(n) from PD(alpha, theta), conditioned on >= 2 blocks.

    Sequential seating: item m joins an existing block of size ``nj`` with
    weight ``nj - alpha`` and opens a new block with weight
    ``theta + (#blocks) * alpha``.  Single-block outcomes are rejected.
    """
    while True:
        blocks: list[list[int]] = [[0]]
        for m in range(1, n):
            weights = [len(b) - alpha_pd for b in blocks]
            weights.append(theta + len(blocks) * alpha_pd)
            chosen = _betasplit.first_reaching(weights, rng.uniform(0.0, math.fsum(weights)))
            if chosen == len(blocks):
                blocks.append([m])
            else:
                blocks[chosen].append(m)
        if len(blocks) >= 2:
            return blocks


def sample_topology_prior(p: int, spec: PriorSpec, rng: RngStream) -> Topology:
    """Draw a topology by recursive fragmentation from the root block."""
    if p < 2:
        raise InvalidArgumentError(f"need p >= 2, got {p}")
    if spec.kind == "beta-splitting":
        return _fragment(p, partial(_beta_split_blocks, spec.beta), rng)

    def pd_blocks(labels, rng):
        parts = _sample_pd_partition(len(labels), spec.theta, spec.alpha_pd, rng)
        return [tuple(labels[i] for i in part) for part in parts]

    return _fragment(p, pd_blocks, rng)
