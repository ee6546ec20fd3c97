"""Posterior samplers over tree-structured covariance matrices.

Two kernels target the same posterior, the Gaussian likelihood times the
fragmentation and edge-length prior of one :class:`PriorSpec`, both moving
along geodesics of the stratified geometry:

* a Metropolis-Hastings sweep that first proposes a topology change by
  shrinking one internal edge to zero and regrowing one of the compatible
  alternatives (copying the length, a symmetric move), then updates every
  stored length with a truncated-normal random walk;
* a Hamiltonian kernel whose leapfrog drift crosses orthant boundaries:
  when an internal coordinate reaches zero its momentum flips sign and is
  reassigned to a uniformly chosen compatible split (the current one
  excluded), while leaf and root coordinates simply reflect.  Gradients are
  taken through a smooth surrogate of the lengths near zero; acceptance
  always uses the true Hamiltonian, so the stationary law is exact.

The multifurcating MH variant adds dimension moves: the shrink branch's
"stay at the boundary" option drops the shrunk edge, and a complementary
grow branch regrows a compatible split with a prior-distributed length, so
unresolved topologies carry exactly their posterior mass.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from .archive import ArchiveRecord, PosteriorArchive, config_digest
from .errors import InvalidArgumentError, InvalidTreeError, NotPositiveDefiniteError
from .model import (
    DataSet,
    LikelihoodKernel,
    SufficientStats,
    gaussian_loglik,
    split_gradient,
    suff_stats,
)
from .priors import PriorSpec, edge_length_log_prior, lengths_log_prior, tree_log_prior
from .rng import RngStream
from .treespace import Split, Topology, Tree, _growth_candidates
from .ultrametric import add_split, tree_to_matrix


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


class _Schedule:
    """Iteration schedule checks and serialization shared by both configs."""

    def __post_init__(self):
        if not 0 <= self.burn_in < self.iterations:
            raise InvalidArgumentError("need 0 <= burn_in < iterations")
        if self.thin < 1:
            raise InvalidArgumentError("thin must be >= 1")

    def to_dict(self) -> dict:
        return {"algo": self.algo, **asdict(self)}


@dataclass(frozen=True)
class MhConfig(_Schedule):
    """Metropolis-Hastings run settings."""

    algo: ClassVar[str] = "mh"
    iterations: int = 10000
    burn_in: int = 9000
    sigma_L: float = 0.1
    mode: str = "binary"
    prior: PriorSpec = field(default_factory=PriorSpec)
    seed: int = 0
    thin: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.sigma_L <= 0:
            raise InvalidArgumentError("sigma_L must be positive")
        if self.mode not in ("binary", "multifurcating"):
            raise InvalidArgumentError(f"unknown mode {self.mode!r}")
        if not math.isfinite(self.prior.edge_mean):  # grow draws from the prior
            raise InvalidArgumentError("MH needs a finite prior edge_mean")


@dataclass(frozen=True)
class HmcConfig(_Schedule):
    """Hamiltonian run settings.

    ``prior`` is the same posterior target as :class:`MhConfig`'s; its
    length rate ``1 / edge_mean`` is zero for the flat prior ``edge_mean=inf``.
    """

    algo: ClassVar[str] = "hmc"
    iterations: int = 300
    burn_in: int = 225
    step_size: float = 0.0015
    leapfrog_steps: int = 200
    delta: float = 0.003
    mass: float = 1.0
    prior: PriorSpec = field(default_factory=PriorSpec)
    seed: int = 0
    thin: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.step_size <= 0:
            raise InvalidArgumentError("step_size must be positive")
        if self.leapfrog_steps < 1:
            raise InvalidArgumentError("leapfrog_steps must be >= 1")
        if self.delta < 0:
            raise InvalidArgumentError("delta must be non-negative")
        if self.mass <= 0:
            raise InvalidArgumentError("mass entries must be positive")


# ---------------------------------------------------------------------------
# Metropolis-Hastings state and updates
# ---------------------------------------------------------------------------

def _topology(p: int, masks) -> Topology:
    return Topology(p, frozenset(Split(p, m) for m in masks))


class ChainState:
    """Mutable working state of one MH chain.

    ``kernel`` caches the covariance matrix, its inverse and the log
    likelihood (:class:`LikelihoodKernel`); the two log-prior pieces are
    cached alongside.  Length moves update the kernel by rank one, and
    :func:`mh_length_update` refactorizes it once per sweep.  Every update
    keeps the caches consistent, and :meth:`check_consistency` recomputes
    them from scratch for tests.
    """

    def __init__(self, tree: Tree, stats: SufficientStats, prior: PriorSpec):
        self.p = tree.p
        self.internal: dict[int, float] = {
            s.mask: v for s, v in tree.internal_lengths.items()
        }
        self.leaf = np.asarray(tree.leaf_lengths, dtype=float).copy()
        self.root = float(tree.root_length)
        self.kernel = LikelihoodKernel(stats, tree_to_matrix(tree).values)
        self.log_prior_topo = prior.topology_log_prior(tree.topology)
        self.log_prior_len = edge_length_log_prior(tree, prior.edge_mean)
        self.accepted_topology = 0
        self.proposed_topology = 0
        self.accepted_lengths = 0
        self.proposed_lengths = 0

    @property
    def log_lik(self) -> float:
        return self.kernel.log_lik

    @property
    def log_prior(self) -> float:
        return self.log_prior_topo + self.log_prior_len

    def tree(self) -> Tree:
        splits = {Split(self.p, m): v for m, v in self.internal.items()}
        return Tree(Topology(self.p, frozenset(splits)), splits,
                    tuple(self.leaf), self.root)

    def check_consistency(self, stats: SufficientStats, prior: PriorSpec,
                          tol: float = 1e-9):
        """Raise ``AssertionError`` unless every cache matches a fresh recomputation.

        The covariance and its inverse are compared entrywise, relative to
        their largest entry.
        """
        t = self.tree()
        sigma = tree_to_matrix(t).values
        if stats.n:
            for name, cached, fresh in (("sigma", self.kernel.sigma, sigma),
                                        ("W", self.kernel.W, np.linalg.inv(sigma))):
                err = float(np.max(np.abs(cached - fresh)))
                if err > tol * float(np.max(np.abs(fresh))):
                    raise AssertionError(f"stale {name}: off by {err}")
        ll = gaussian_loglik(stats, sigma)
        if abs(ll - self.log_lik) > tol:
            raise AssertionError(f"stale log_lik: {self.log_lik} vs {ll}")
        lp = tree_log_prior(t, prior)
        if abs(lp - self.log_prior) > tol:
            raise AssertionError(f"stale log_prior: {self.log_prior} vs {lp}")


def _log_shrink_prob(m: int, p: int) -> float:
    """Log probability of entering the shrink branch at a state with m splits."""
    if m == 0:
        return -math.inf
    if m == p - 2:
        return 0.0
    return -math.log(2.0)


def _log_grow_prob(m: int, p: int) -> float:
    """Log probability of entering the grow branch at a state with m splits."""
    if m == p - 2:
        return -math.inf
    if m == 0:
        return 0.0
    return -math.log(2.0)


def mh_topology_update(state: ChainState, stats: SufficientStats,
                       cfg: MhConfig, rng: RngStream) -> ChainState:
    """One topology proposal.

    Binary mode shrinks a uniformly chosen internal edge to zero and regrows
    one of the compatible alternatives with the same length; the kernel is
    symmetric, so acceptance compares topology prior times likelihood only.

    Multifurcating mode wraps dimension moves around that replacement.  Its
    shrink branch offers every compatible replacement split plus "stay at
    the boundary" (dropping the edge and its length) with equal probability;
    the complementary grow branch regrows a uniformly chosen compatible
    split with a fresh prior-distributed length, so unresolved shapes are
    both reachable and leavable.  Replacements remain symmetric; the
    drop/grow acceptances carry the exact proposal-count correction, while
    the proposal density of the created or destroyed length cancels against
    the edge-length prior.
    """
    masks = sorted(state.internal)
    m = len(masks)
    p = state.p
    a = cfg.prior.edge_mean
    binary = cfg.mode == "binary"
    if not masks and (binary or p < 3):
        return state  # no split to shrink and none to grow

    grow = not binary and (m == 0 or (m < p - 2 and rng.uniform() < 0.5))
    state.proposed_topology += 1

    if grow:
        grow_cands = [s.mask for s in _growth_candidates(p, masks)]
        mask_b = grow_cands[rng.integers(len(grow_cands))]
        d_new = rng.exponential(a)
        new_topo_lp = cfg.prior.topology_log_prior(_topology(p, masks + [mask_b]))
        dll = state.kernel.propose([(mask_b, d_new)])
        # reverse move: the shrink branch picks this split and stays
        log_alpha = (new_topo_lp - state.log_prior_topo) + dll \
            + _log_shrink_prob(m + 1, p) - math.log(m + 1) \
            - _log_grow_prob(m, p)
        if math.log(rng.uniform()) < log_alpha:
            state.accepted_topology += 1
            state.internal[mask_b] = d_new
            state.kernel.accept()
            state.log_prior_topo = new_topo_lp
            state.log_prior_len -= d_new / a + math.log(a)
        return state

    mask_a = masks[rng.integers(m)]
    d = state.internal[mask_a]
    remainder = [x for x in masks if x != mask_a]
    cands = [s.mask for s in _growth_candidates(p, remainder)
             if s.mask != mask_a]
    # binary mode never stays at the boundary
    j = rng.integers(len(cands) if binary else len(cands) + 1)
    stay = j == len(cands)
    mask_b = None if stay else cands[j]
    new_masks = remainder if stay else remainder + [mask_b]
    new_topo_lp = cfg.prior.topology_log_prior(_topology(p, new_masks))
    changes = [(mask_a, -d)] if stay else [(mask_a, -d), (mask_b, d)]
    dll = state.kernel.propose(changes)

    log_alpha = (new_topo_lp - state.log_prior_topo) + dll
    if stay:
        # reverse move: the grow branch at the boundary regrows this split;
        # the Exp density of the dropped length cancels against the prior
        log_alpha += _log_grow_prob(m - 1, p) + math.log(m) \
            - _log_shrink_prob(m, p)
    if math.log(rng.uniform()) < log_alpha:
        state.accepted_topology += 1
        del state.internal[mask_a]
        if stay:
            state.log_prior_len += d / a + math.log(a)
        else:
            state.internal[mask_b] = d
        state.kernel.accept()
        state.log_prior_topo = new_topo_lp
    return state


def _sample_truncnorm(mean: float, sd: float, rng: RngStream) -> float:
    while True:
        x = rng.normal(mean, sd)
        if x > 0.0:
            return x


def mh_length_log_ratio(cur: float, prop: float, delta_loglik: float,
                        edge_mean: float, sd: float) -> float:
    """Log acceptance ratio of one truncated-normal length move.

    Combines the likelihood change, the exponential prior change, and the
    normalization asymmetry of the positive-truncated normal proposal
    (the Gaussian kernels themselves cancel).  Antisymmetric under swapping
    ``cur`` and ``prop`` with the likelihood change negated.
    """
    return (delta_loglik - (prop - cur) / edge_mean
            + math.log(_norm_cdf(cur / sd)) - math.log(_norm_cdf(prop / sd)))


def mh_length_update(state: ChainState, stats: SufficientStats,
                     cfg: MhConfig, rng: RngStream) -> ChainState:
    """Truncated-normal random-walk sweep over every stored coordinate.

    Coordinates are visited in ascending bitmask order (leaves, internal
    splits and the root edge interleaved canonically).  The acceptance
    ratio carries the exponential prior, the likelihood, and the
    truncated-normal normalization asymmetry.  Each move is a rank-one
    change priced and applied by ``state.kernel`` in ``O(p^2)``; the sweep
    ends with one full refactorization (skipped when no move was applied), so
    rounding drift never outlives a sweep and an MH iteration makes at most
    two factorizations, one for the topology proposal and this one.
    ``stats`` are the statistics ``state`` was built with.
    """
    full = (1 << state.p) - 1
    coords = sorted([1 << i for i in range(state.p)] + list(state.internal) + [full])
    a = cfg.prior.edge_mean
    sd = cfg.sigma_L
    for mask in coords:
        if mask == full:
            cur = state.root
        elif mask.bit_count() == 1:
            cur = float(state.leaf[mask.bit_length() - 1])
        else:
            cur = state.internal[mask]
        prop = _sample_truncnorm(cur, sd, rng)
        state.proposed_lengths += 1
        dll = state.kernel.propose([(mask, prop - cur)])
        log_alpha = mh_length_log_ratio(cur, prop, dll, a, sd)
        if math.log(rng.uniform()) < log_alpha:
            state.accepted_lengths += 1
            if mask == full:
                state.root = prop
            elif mask.bit_count() == 1:
                state.leaf[mask.bit_length() - 1] = prop
            else:
                state.internal[mask] = prop
            state.kernel.accept()
            state.log_prior_len -= (prop - cur) / a
    state.kernel.refresh()
    return state


# ---------------------------------------------------------------------------
# Hamiltonian kernel
# ---------------------------------------------------------------------------

class HmcState:
    """Mutable working state of one Hamiltonian chain.

    Coordinate slots hold ``(mask, length, momentum)`` triples; slots keep
    their mass when a boundary crossing reassigns an internal coordinate to
    a different split.  ``log_lik`` and ``log_prior`` belong to the current
    slots once :func:`hmc_step` has scored them; a leapfrog step moves the
    slots and sets ``log_lik`` to nan, or to -inf when its gradient fails.
    """

    def __init__(self, tree: Tree, cfg: HmcConfig):
        self.p = tree.p
        items = list(tree.coordinates())
        self.masks = [s.mask for s, _ in items]
        self.d = np.array([v for _, v in items], dtype=float)
        self.a = np.zeros(len(items))
        self.mass = np.full(len(items), float(cfg.mass))
        self.log_lik = self.log_prior = math.nan
        self.accepted = 0
        self.proposed = 0

    def covariance(self, lengths: np.ndarray) -> np.ndarray:
        """The matrix with the given length on each slot's split, in slot order."""
        sigma = np.zeros((self.p, self.p))
        for m, v in zip(self.masks, lengths):
            add_split(sigma, m, v)
        return sigma

    def tree(self) -> Tree:
        p = self.p
        full = (1 << p) - 1
        leaf = [0.0] * p
        internal: dict[Split, float] = {}
        root = 0.0
        for m, v in zip(self.masks, self.d):
            if m == full:
                root = float(v)
            elif m.bit_count() == 1:
                leaf[m.bit_length() - 1] = float(v)
            elif v > 0.0:
                internal[Split(p, m)] = float(v)
        return Tree(Topology(p, frozenset(internal)), internal, tuple(leaf), root)


def _surrogate(d: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Smooth positive stand-in for lengths near zero, with its derivative."""
    if delta == 0.0:
        return d.copy(), np.ones_like(d)
    g = d.copy()
    dg = np.ones_like(d)
    low = d < delta
    g[low] = (d[low] ** 2 + delta ** 2) / (2.0 * delta)
    dg[low] = d[low] / delta
    return g, dg


def _grad_potential(state: HmcState, stats: SufficientStats,
                    cfg: HmcConfig) -> np.ndarray | None:
    """Gradient of the surrogate potential; ``None`` if factorization fails."""
    g, dg = _surrogate(state.d, cfg.delta)
    grad = np.full(len(state.masks), 1.0 / cfg.prior.edge_mean)
    if stats.n:
        try:
            grad -= split_gradient(stats, state.covariance(g), state.masks)
        except NotPositiveDefiniteError:
            return None
    return grad * dg


def _true_potential(state: HmcState, stats: SufficientStats,
                    cfg: HmcConfig) -> float:
    """Negative log posterior at the actual (unsmoothed) slot coordinates.

    Leaves both terms in ``state.log_lik`` and ``state.log_prior``.  Reads the
    slots, not :meth:`HmcState.tree`, which drops zero lengths; beta-splitting
    gives unresolved shapes no mass, so one (``run_chain`` refuses it) gets a
    flat topology term.
    """
    prior = cfg.prior
    topology = _topology(state.p, [m for m in state.masks if 2 <= m.bit_count() < state.p])
    topo_lp = prior.topology_log_prior(topology) \
        if topology.is_resolved or prior.kind != "beta-splitting" else 0.0
    state.log_prior = topo_lp + lengths_log_prior(state.d, prior.edge_mean)
    try:
        state.log_lik = gaussian_loglik(stats, state.covariance(state.d)) \
            if stats.n else 0.0
    except NotPositiveDefiniteError:
        state.log_lik = -math.inf
    return -state.log_lik - state.log_prior


def _kinetic(state: HmcState) -> float:
    return 0.5 * float(np.sum(state.a ** 2 / state.mass))


def _drift(state: HmcState, eps: float, rng: RngStream, chooser=None):
    """Advance positions by ``eps`` along momenta, crossing boundaries.

    Each coordinate headed below zero is processed at its own fractured
    step, earliest first (ties broken by ascending mask): the momentum
    flips sign, and an internal coordinate is reassigned to a compatible
    split chosen uniformly with the current split excluded.  ``chooser``
    overrides the uniform choice (used by deterministic replays).
    """
    remaining = eps
    while remaining > 0.0:
        vel = state.a / state.mass
        t_hit = None
        j_hit = None
        for j, v in enumerate(vel):
            if v < 0.0:
                t = state.d[j] / -v
                if t <= remaining:
                    key = (t, state.masks[j])
                    if t_hit is None or key < (t_hit, state.masks[j_hit]):
                        t_hit, j_hit = t, j
        if j_hit is None:
            state.d += remaining * vel
            return
        state.d += t_hit * vel
        state.d[j_hit] = 0.0
        remaining -= t_hit
        state.a[j_hit] = -state.a[j_hit]
        mask = state.masks[j_hit]
        if 2 <= mask.bit_count() <= state.p - 1:
            others = [m for m in state.masks
                      if m != mask and 2 <= m.bit_count() <= state.p - 1]
            cands = [s.mask for s in _growth_candidates(state.p, others)
                     if s.mask != mask]
            if cands:
                if chooser is not None:
                    new_mask = chooser([Split(state.p, c) for c in cands]).mask
                else:
                    new_mask = cands[rng.integers(len(cands))]
                state.masks[j_hit] = new_mask


def hmc_leapfrog(state: HmcState, stats: SufficientStats, cfg: HmcConfig,
                 rng: RngStream, chooser=None) -> HmcState:
    """One leapfrog step: half kick, boundary-crossing drift, half kick.

    Returns the state unchanged (apart from a momentum flip bookkeeping)
    when a gradient evaluation fails, with ``log_lik`` set to -inf; the
    enclosing step then rejects.
    """
    state.log_lik = math.nan
    grad = _grad_potential(state, stats, cfg)
    if grad is None:
        state.log_lik = -math.inf
        return state
    state.a -= 0.5 * cfg.step_size * grad
    _drift(state, cfg.step_size, rng, chooser)
    grad = _grad_potential(state, stats, cfg)
    if grad is None:
        state.log_lik = -math.inf
        return state
    state.a -= 0.5 * cfg.step_size * grad
    return state


def hmc_step(state: HmcState, stats: SufficientStats, cfg: HmcConfig,
             rng: RngStream, chooser=None) -> HmcState:
    """One full Hamiltonian proposal with fresh momenta.

    Runs ``leapfrog_steps`` surrogate-driven leapfrog steps and accepts with
    the true-Hamiltonian ratio; a non-finite Hamiltonian rejects outright.
    Either way the state's cached log likelihood and log prior are those of
    the slots it keeps, and the next step starts from them.
    """
    state.a = rng.generator.normal(size=len(state.masks)) * np.sqrt(state.mass)
    if math.isnan(state.log_lik):
        _true_potential(state, stats, cfg)
    h_cur = -state.log_lik - state.log_prior + _kinetic(state)
    saved = (list(state.masks), state.d.copy(), state.a.copy(),
             state.log_lik, state.log_prior)

    state.proposed += 1
    for _ in range(cfg.leapfrog_steps):
        hmc_leapfrog(state, stats, cfg, rng, chooser)
        if state.log_lik == -math.inf:
            h_prop = math.inf
            break
    else:
        h_prop = _true_potential(state, stats, cfg) + _kinetic(state)

    if math.isfinite(h_prop) and math.log(rng.uniform()) < h_cur - h_prop:
        state.accepted += 1
    else:
        state.masks, state.d, state.a, state.log_lik, state.log_prior = saved
    return state


# ---------------------------------------------------------------------------
# chain driver
# ---------------------------------------------------------------------------

def _drive(archive: PosteriorArchive, cfg: MhConfig | HmcConfig,
           state: ChainState | HmcState, step):
    """Run every iteration, tracing the log likelihood and keeping retained states.

    ``step()`` advances ``state``, whose cached ``log_lik`` and ``log_prior``
    are those of its current ``tree()``.
    """
    for it in range(1, cfg.iterations + 1):
        step()
        archive.trace.append((it, state.log_lik))
        if it > cfg.burn_in and (it - cfg.burn_in - 1) % cfg.thin == 0:
            t = state.tree()
            archive.records.append(ArchiveRecord(
                iteration=it,
                log_prior=state.log_prior,
                log_lik=state.log_lik,
                splits=tuple(t.internal_lengths),
                lengths=dict(t.internal_lengths),
                leaf_lengths=t.leaf_lengths,
                root_length=t.root_length,
            ))


def run_chain(data: DataSet | SufficientStats | None, init: Tree, algo: str,
              cfg: MhConfig | HmcConfig) -> PosteriorArchive:
    """Run one chain and collect every retained state plus the full trace.

    ``data=None`` (or an empty-statistics dataset) samples the prior.  The
    output is byte-identical across reruns with the same inputs and seed.
    """
    if data is None:
        stats = SufficientStats.empty(init.p)
    else:
        if data.p != init.p:
            raise InvalidArgumentError(
                f"data have p={data.p} but init tree has p={init.p}"
            )
        stats = data if isinstance(data, SufficientStats) else suff_stats(data)

    rng = RngStream(cfg.seed, stream_id=0)
    archive = PosteriorArchive(
        p=init.p,
        provenance={"algo": algo, "config": config_digest(cfg.to_dict()),
                    "seed": cfg.seed},
    )

    if algo == "mh":
        if not isinstance(cfg, MhConfig):
            raise InvalidArgumentError("algo 'mh' requires an MhConfig")
        if cfg.mode == "binary" and not init.topology.is_resolved:
            raise InvalidTreeError("binary mode requires a resolved initial tree")
        state = ChainState(init, stats, cfg.prior)

        def mh_step():
            mh_topology_update(state, stats, cfg, rng)
            mh_length_update(state, stats, cfg, rng)

        _drive(archive, cfg, state, mh_step)
        archive.provenance["accept_topology"] = state.accepted_topology
        archive.provenance["accept_lengths"] = state.accepted_lengths
        archive.provenance["proposed_topology"] = state.proposed_topology
        archive.provenance["proposed_lengths"] = state.proposed_lengths
        return archive

    if algo == "hmc":
        if not isinstance(cfg, HmcConfig):
            raise InvalidArgumentError("algo 'hmc' requires an HmcConfig")
        if not init.topology.is_resolved:
            raise InvalidTreeError("the Hamiltonian kernel requires a resolved tree")
        state = HmcState(init, cfg)
        _drive(archive, cfg, state, lambda: hmc_step(state, stats, cfg, rng))
        archive.provenance["accept_hmc"] = state.accepted
        archive.provenance["proposed_hmc"] = state.proposed
        return archive

    raise InvalidArgumentError(f"unknown algo {algo!r}")
