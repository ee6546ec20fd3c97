"""Posterior samplers over tree-structured covariance matrices.

Two kernels target the same posterior, the Gaussian likelihood times the
fragmentation and edge-length prior of one :class:`PriorSpec`, both moving
along geodesics of the stratified geometry:

* a Metropolis-Hastings sweep that first proposes a topology change by
  shrinking one internal edge to zero and regrowing one of the compatible
  alternatives (copying the length, a symmetric move), then updates every
  stored length with a truncated-normal random walk, whose proposals and
  acceptance uniforms a sweep draws as one batch each before it prices
  all its moves in one kernel call;
* a Hamiltonian kernel with unit-mass momenta whose leapfrog drift crosses
  orthant boundaries: at each coordinate's fractured step, earliest first,
  its momentum flips sign and an internal one is reassigned to a uniformly
  chosen compatible split (the current one excluded).  Gradients are taken
  through a smooth surrogate of the lengths near zero, once per position:
  the state caches the gradient of its slots, so each leapfrog step
  computes only its closing kick's; acceptance always uses the true
  Hamiltonian, so the stationary law is exact.

The multifurcating MH variant adds dimension moves: the shrink branch's
"stay at the boundary" option drops the shrunk edge, and a complementary
grow branch regrows a compatible split with a prior-distributed length, so
unresolved topologies carry exactly their posterior mass.

Both states keep the containment tree of their splits with its per-node
prior terms (:class:`LaminarTree`): an MH topology move and an HMC
reassignment read their candidates from it and rewrite two nodes, a
rejected move restores a snapshot of it, and both kernels read the
topology prior from it.  Only a kept record builds a
tree, which its archive record keeps; each state validates a
:class:`Topology` once per distinct split set it keeps, so kept records
share one ``Topology`` per split set and one :class:`Split` per split,
while each record's tree still checks its lengths.  Both score through
one :class:`LikelihoodKernel` per state: each MH move is priced by
rank-one steps on its cached inverse, a leaf's from one column of it, and
kept in the same call when ``log u`` less its other log-ratio terms is
below its likelihood change: a topology move in :meth:`LikelihoodKernel.move`,
a length sweep in one :meth:`LikelihoodKernel.sweep` call, with one
factorization per iteration at the end of the length sweep, and the
likelihood read as ``tr(W S)`` from that inverse; an HMC trajectory's end with
no length below ``delta`` reuses its last gradient's factorization.  An MH
chain's kernel owns its lengths, which only those calls write.  Every move
reads the prior its state was built with; a config supplies only tunables.
Both states price it fresh through one rule, :meth:`PriorSpec.log_prior`,
so a kept record's ``log_prior`` is :func:`tree_log_prior` of its tree.  A
failed HMC gradient raises, and :func:`hmc_step` rejects on it.

:func:`run_chain` is the one driver: it builds the state for the algo's
config (:data:`ALGOS`), runs one ``state.step`` per iteration and records
``state.counts()``, the accepted and proposed moves, in the provenance.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from . import model
from .archive import ArchiveRecord, PosteriorArchive, config_digest
from .errors import InvalidArgumentError, InvalidTreeError, NotPositiveDefiniteError
from .model import DataSet, LikelihoodKernel, SufficientStats, suff_stats
from .priors import PriorSpec, tree_log_prior
from .rng import RngStream
from .treespace import LaminarTree, Split, Tree, _TopologyTable, _tree_from_masks
from .ultrametric import split_indicator, tree_to_matrix


def _norm_cdf(x):
    """Standard normal cdf, elementwise (numpy has no erfc)."""
    z = np.asarray(x) / -math.sqrt(2.0)
    return 0.5 * np.array([math.erfc(v) for v in z.ravel().tolist()]).reshape(z.shape)


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
        if not 0 < self.sigma_L < math.inf:
            raise InvalidArgumentError("sigma_L must be positive and finite")
        if self.mode not in ("binary", "multifurcating"):
            raise InvalidArgumentError(f"unknown mode {self.mode!r}")
        if self.mode == "multifurcating" and self.prior.kind == "beta-splitting":
            raise InvalidArgumentError("multifurcating mode needs the poisson-dirichlet "
                                       "prior: beta-splitting has no unresolved shapes")
        if not math.isfinite(self.prior.edge_mean):  # grow draws from the prior
            raise InvalidArgumentError("MH needs a finite prior edge_mean")


@dataclass(frozen=True)
class HmcConfig(_Schedule):
    """Hamiltonian run settings.

    ``prior`` is the same posterior target as :class:`MhConfig`'s; its
    length rate ``1 / edge_mean`` is zero for the flat prior ``edge_mean=inf``.
    """

    algo: ClassVar[str] = "hmc"
    mode: ClassVar[str] = "binary"  # the kernel moves among resolved trees only
    iterations: int = 300
    burn_in: int = 225
    step_size: float = 0.0015
    leapfrog_steps: int = 200
    delta: float = 0.003
    prior: PriorSpec = field(default_factory=PriorSpec)
    seed: int = 0
    thin: int = 1

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.step_size < math.inf:
            raise InvalidArgumentError("step_size must be positive and finite")
        if self.leapfrog_steps < 1:
            raise InvalidArgumentError("leapfrog_steps must be >= 1")
        if not 0 <= self.delta < math.inf:
            raise InvalidArgumentError("delta must be non-negative and finite")


# ---------------------------------------------------------------------------
# Metropolis-Hastings state and updates
# ---------------------------------------------------------------------------

def _is_internal(p: int, mask: int) -> bool:
    return 2 <= mask.bit_count() < p


class ChainState:
    """Mutable working state of one MH chain.

    ``lengths`` maps the mask of every stored coordinate (leaves, internal
    splits and the root) to its length; ``internal`` is a fresh dict of its
    internal-split entries, so writing to it does not change the state.
    ``laminar`` is the kept containment tree of its internal splits, priced
    by ``prior``, which every move reads; a topology move toggles its splits
    there.

    ``kernel`` (:class:`LikelihoodKernel`) owns ``lengths``, the same dict:
    a topology move sets lengths through one ``move`` call and a length
    sweep through one ``sweep`` call, which update the inverse covariance
    and the log likelihood by rank-one steps, and :func:`mh_length_update`
    refactorizes it once per sweep.  ``log_prior`` is priced fresh by
    :meth:`PriorSpec.log_prior`, so it is a function of the tree alone.
    :meth:`tree` builds a kept record's tree through
    ``topologies``, the chain's table of validated topologies, so each
    distinct split set is validated once.  :meth:`check_consistency`
    recomputes the caches from scratch for tests.
    """

    def __init__(self, tree: Tree, stats: SufficientStats, prior: PriorSpec):
        self.p = tree.p
        self.prior = prior
        self.lengths: dict[int, float] = {s.mask: v for s, v in tree.coordinates()}
        self.laminar = LaminarTree(self.p, tree.topology.sorted_masks(),
                                   prior.event_log_prob)
        self.kernel = LikelihoodKernel(stats, self.lengths)
        self.topologies = _TopologyTable(self.p)
        self.accepted_topology = 0
        self.proposed_topology = 0
        self.accepted_lengths = 0
        self.proposed_lengths = 0

    @property
    def internal(self) -> dict[int, float]:
        return {m: v for m, v in self.lengths.items() if _is_internal(self.p, m)}

    @property
    def log_lik(self) -> float:
        return self.kernel.log_lik

    @property
    def log_prior(self) -> float:
        return self.prior.log_prior(self.laminar, self.lengths)

    def tree(self) -> Tree:
        return _tree_from_masks(self.p, self.lengths, table=self.topologies)

    def step(self, stats: SufficientStats, cfg: MhConfig, rng: RngStream):
        """One MH iteration: a topology proposal, then a length sweep."""
        mh_topology_update(self, stats, cfg, rng)
        mh_length_update(self, stats, cfg, rng)

    def counts(self) -> dict[str, int]:
        """Accepted and proposed moves of each kind, as provenance entries."""
        return {"accept_topology": self.accepted_topology,
                "accept_lengths": self.accepted_lengths,
                "proposed_topology": self.proposed_topology,
                "proposed_lengths": self.proposed_lengths}

    def check_consistency(self, stats: SufficientStats, prior: PriorSpec,
                          tol: float = 1e-9):
        """Raise ``AssertionError`` unless every cache matches a fresh recomputation.

        The inverse covariance is compared entrywise, relative to its largest
        entry; the kept tree, its event terms and the cached indicator
        columns must be exact.
        """
        t = self.tree()
        sigma = tree_to_matrix(t).values
        if stats.n:
            fresh = np.linalg.inv(sigma)
            err = float(np.max(np.abs(self.kernel.W - fresh)))
            if err > tol * float(np.max(np.abs(fresh))):
                raise AssertionError(f"stale W: off by {err}")
        for mask, v in self.kernel.columns.items():
            if not np.array_equal(v, split_indicator(self.p, mask)):
                raise AssertionError(f"stale indicator column of {mask:#x}")
        masks = t.topology.sorted_masks()
        self.laminar.check_consistency(masks)
        ll = model.gaussian_loglik(stats, sigma)
        if abs(ll - self.log_lik) > tol:
            raise AssertionError(f"stale log_lik: {self.log_lik} vs {ll}")
        lp = tree_log_prior(t, prior)
        if lp != self.log_prior:
            raise AssertionError(f"stale log_prior: {self.log_prior} vs {lp}")


def _log_shrink_prob(m: int, p: int) -> float:
    """Log probability of entering the shrink branch at a state with m splits;
    that of the grow branch is ``_log_shrink_prob(p - 2 - m, p)``."""
    if m == 0:
        return -math.inf
    if m == p - 2:
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
    the edge-length prior.  The splits are toggled in ``state.laminar``
    first, which prices the prior change; ``log u`` less the log ratio's
    other terms is the bar of one :meth:`LikelihoodKernel.move` call, which
    keeps the move when the bar is below its likelihood change.  Otherwise,
    also when pricing raises, the snapshot taken before the toggles is restored.
    """
    internal = sorted(state.laminar.events)[:-1]  # the full block sorts last
    m = len(internal)
    p = state.p
    a = state.prior.edge_mean
    binary = cfg.mode == "binary"
    if not internal and (binary or p < 3):
        return state  # no split to shrink and none to grow

    grow = not binary and (m == 0 or (m < p - 2 and rng.uniform() < 0.5))
    state.proposed_topology += 1

    if grow:
        cands = state.laminar.candidates()
        changes = [(cands[rng.integers(len(cands))], rng.exponential(a))]
    else:
        mask_a = internal[rng.integers(m)]
        cands = state.laminar.candidates(mask_a)
        # binary mode never stays at the boundary
        j = rng.integers(len(cands) if binary else len(cands) + 1)
        stay = j == len(cands)
        changes = [(mask_a, 0.0)] if stay else [(mask_a, 0.0), (cands[j], state.lengths[mask_a])]
    saved = state.laminar.copy()  # restored unless the move is kept
    kept = False
    try:
        for mask, _ in changes:
            state.laminar.toggle(mask)
        log_ratio = state.laminar.log_prior() - saved.log_prior()
        if grow:  # reverse move: the shrink branch picks this split and stays
            log_ratio += _log_shrink_prob(m + 1, p) - math.log(m + 1) \
                - _log_shrink_prob(p - 2 - m, p)
        elif stay:
            # reverse move: the grow branch at the boundary regrows this split;
            # the Exp density of the dropped length cancels against the prior
            log_ratio += _log_shrink_prob(p - 1 - m, p) + math.log(m) \
                - _log_shrink_prob(m, p)
        bar = math.log(rng.uniform()) - log_ratio
        kept = bar < state.kernel.move(changes, bar)
    finally:
        if not kept:
            state.laminar = saved
    if kept:
        state.accepted_topology += 1
    return state


def mh_length_log_ratio(cur, prop, delta_loglik, edge_mean: float, sd: float):
    """Log acceptance ratio of one truncated-normal length move.

    Combines the likelihood change, the exponential prior change, and the
    normalization asymmetry of the positive-truncated normal proposal
    (the Gaussian kernels themselves cancel).  Antisymmetric under swapping
    ``cur`` and ``prop`` with the likelihood change negated.  Elementwise
    when ``cur`` and ``prop`` are arrays.
    """
    return (delta_loglik - (prop - cur) / edge_mean
            + np.log(_norm_cdf(cur / sd)) - np.log(_norm_cdf(prop / sd)))


def mh_length_update(state: ChainState, stats: SufficientStats,
                     cfg: MhConfig, rng: RngStream) -> ChainState:
    """Truncated-normal random-walk sweep over every stored coordinate.

    Coordinates are visited in ascending bitmask order (leaves, internal
    splits and the root edge interleaved canonically).  Each coordinate's
    proposal depends only on its own length at the start of the sweep, so
    the sweep draws its randomness up front: one ``standard_normal`` call
    for every coordinate's ``cur + sigma_L z``, redraws of the non-positive
    proposals only, in ascending index order, until all are positive, then
    one ``random`` call for the acceptance uniforms.  The acceptance ratio
    carries the exponential prior, the likelihood, and the truncated-normal
    normalization asymmetry; every term but the likelihood is taken with
    ``log u`` before the sweep (:func:`mh_length_log_ratio` at
    ``delta_loglik = 0``), and a move is accepted when ``log u`` minus that
    ratio is below its likelihood change.  Each move is a rank-one change
    priced and applied in ``O(p^2)`` by one :meth:`LikelihoodKernel.sweep`
    call on ``state.kernel`` for the whole sweep.  With data the
    sweep ends by refactorizing the covariance built from the lengths, so
    rounding drift never outlives a sweep; that is an MH iteration's one
    factorization.  ``stats`` are the statistics ``state`` was built with.
    """
    kernel = state.kernel
    gen = rng.generator
    sd = cfg.sigma_L
    masks = sorted(state.lengths)
    cur = np.array([state.lengths[m] for m in masks])
    prop = cur + sd * gen.standard_normal(len(masks))
    redraw = np.flatnonzero(prop <= 0.0)
    while len(redraw):
        prop[redraw] = cur[redraw] + sd * gen.standard_normal(len(redraw))
        redraw = redraw[prop[redraw] <= 0.0]
    bars = np.log(gen.random(len(masks))) \
        - mh_length_log_ratio(cur, prop, 0.0, state.prior.edge_mean, sd)
    state.proposed_lengths += len(masks)
    state.accepted_lengths += kernel.sweep(masks, prop.tolist(), bars.tolist())
    kernel.refresh()
    return state


# ---------------------------------------------------------------------------
# Hamiltonian kernel
# ---------------------------------------------------------------------------

class HmcState:
    """Mutable working state of one Hamiltonian chain.

    Coordinate slots hold ``(mask, length, momentum)`` triples; a boundary
    crossing reassigns an internal slot to a different split, toggling both
    in ``laminar``, the kept tree of the internal slot masks priced by
    ``prior``, ``cfg.prior`` (``HmcConfig()``'s when ``cfg`` is None), which
    every evaluation reads.  Momenta have unit mass, so each is also its
    slot's velocity.  ``grad`` is the gradient of the surrogate potential
    at the current slots, ``None`` until it is first computed or after its
    factorization failed; a leapfrog step leaves the gradient of the slots
    it moves to, so each position is differentiated once.  ``log_lik`` and
    ``log_prior`` belong to the current slots once :func:`hmc_step` has
    scored them; a leapfrog step moves the slots and sets ``log_lik`` to
    nan.  ``kernel``, built at the first evaluation with data, scores the
    slots.  :meth:`tree` builds a kept record's tree through ``topologies``,
    the chain's table of validated topologies, as :class:`ChainState` does.
    """

    def __init__(self, tree: Tree, cfg: HmcConfig | None = None):
        self.p = tree.p
        items = list(tree.coordinates())
        self.masks = [s.mask for s, _ in items]
        self.d = np.array([v for _, v in items], dtype=float)
        self.a = np.zeros(len(items))
        self.prior = (cfg or HmcConfig()).prior
        self.laminar = LaminarTree(self.p, tree.topology.sorted_masks(),
                                   self.prior.event_log_prob)
        self.grad: np.ndarray | None = None
        self.kernel: LikelihoodKernel | None = None
        self.topologies = _TopologyTable(self.p)
        self.log_lik = self.log_prior = math.nan
        self.accepted = 0
        self.proposed = 0

    def tree(self) -> Tree:
        return _tree_from_masks(self.p, dict(zip(self.masks, self.d)),
                                table=self.topologies)

    def step(self, stats: SufficientStats, cfg: HmcConfig, rng: RngStream):
        """One Hamiltonian proposal (:func:`hmc_step`)."""
        hmc_step(self, stats, cfg, rng)

    def counts(self) -> dict[str, int]:
        """Accepted and proposed trajectories, as provenance entries."""
        return {"accept_hmc": self.accepted, "proposed_hmc": self.proposed}


def _surrogate(d: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Smooth positive stand-in for lengths near zero, with its derivative."""
    g = d.copy()
    dg = np.ones_like(d)
    low = d < delta
    g[low] = (d[low] ** 2 + delta ** 2) / (2.0 * delta)
    dg[low] = d[low] / delta
    return g, dg


def _kernel(state: HmcState, stats: SufficientStats) -> LikelihoodKernel:
    """The state's likelihood kernel for ``stats``, built on first use."""
    if state.kernel is None or state.kernel.stats is not stats:
        state.kernel = LikelihoodKernel(stats)
    return state.kernel


def _grad_potential(state: HmcState, stats: SufficientStats,
                    cfg: HmcConfig) -> np.ndarray:
    """Gradient of the surrogate potential; raises ``NotPositiveDefiniteError``
    when its factorization fails."""
    g, dg = _surrogate(state.d, cfg.delta)
    grad = np.full(len(state.masks), 1.0 / state.prior.edge_mean)
    if stats.n:
        kernel = _kernel(state, stats)
        kernel.factor(state.masks, g)
        grad -= kernel.gradient()
    return grad * dg


def _true_potential(state: HmcState, stats: SufficientStats) -> float:
    """Negative log posterior at the actual (unsmoothed) slot coordinates.

    Leaves both terms in ``state.log_lik`` and ``state.log_prior``, the
    likelihood -inf when its factorization fails.  Reads the slots, not
    :meth:`HmcState.tree`, which drops zero lengths; the prior is
    :meth:`PriorSpec.log_prior`'s, as an MH chain's is.
    """
    state.log_prior = state.prior.log_prior(state.laminar, dict(zip(state.masks, state.d)))
    state.log_lik = 0.0
    if stats.n:
        kernel = _kernel(state, stats)
        try:
            kernel.factor(state.masks, state.d)
            state.log_lik = kernel.log_lik
        except NotPositiveDefiniteError:
            state.log_lik = -math.inf
    return -state.log_lik - state.log_prior


def _kinetic(state: HmcState) -> float:
    return 0.5 * float(np.sum(state.a ** 2))


def _drift(state: HmcState, eps: float, rng: RngStream, chooser=None):
    """Advance positions by ``eps`` along momenta, crossing boundaries.

    Coordinate ``j`` reaches zero at its fractured step ``d_j / -a_j``
    (``inf`` if ``a_j >= 0``).  The drift advances to the earliest one left
    in ``eps`` (ties broken by ascending mask), flips its momentum, and
    reassigns an internal one to a compatible split chosen uniformly with
    the current split excluded, until none is left.  ``chooser`` overrides
    the uniform choice (used by deterministic replays).
    """
    remaining = eps
    while remaining > 0.0:
        fractured = np.divide(state.d, -state.a, out=np.full(len(state.d), math.inf),
                              where=state.a < 0.0)
        t_hit = fractured.min()
        if not t_hit <= remaining:
            state.d += remaining * state.a
            return
        j = min(np.flatnonzero(fractured == t_hit), key=state.masks.__getitem__)
        state.d += t_hit * state.a
        state.d[j] = 0.0
        remaining -= t_hit
        state.a[j] = -state.a[j]
        mask = state.masks[j]
        if _is_internal(state.p, mask):
            cands = state.laminar.candidates(mask)  # never empty for an internal split
            new = cands[rng.integers(len(cands))] if chooser is None \
                else chooser([Split(state.p, c) for c in cands]).mask
            state.laminar.toggle(mask)
            state.laminar.toggle(new)
            state.masks[j] = new


def hmc_leapfrog(state: HmcState, stats: SufficientStats, cfg: HmcConfig,
                 rng: RngStream, chooser=None) -> HmcState:
    """One leapfrog step: half kick, boundary-crossing drift, half kick.

    The opening kick reads ``state.grad``, the gradient at the current
    slots, and the one gradient a step computes is the closing kick's, at
    the slots the drift reached; a state's first step also computes its
    opening gradient.  A failed gradient raises ``NotPositiveDefiniteError``
    and leaves ``state.grad`` ``None``; the enclosing step then rejects.
    """
    state.log_lik = math.nan
    if state.grad is None:
        state.grad = _grad_potential(state, stats, cfg)
    state.a -= 0.5 * cfg.step_size * state.grad
    _drift(state, cfg.step_size, rng, chooser)
    state.grad = None  # a failed closing gradient leaves no stale opening one
    state.grad = _grad_potential(state, stats, cfg)
    state.a -= 0.5 * cfg.step_size * state.grad
    return state


def hmc_step(state: HmcState, stats: SufficientStats, cfg: HmcConfig,
             rng: RngStream) -> HmcState:
    """One full Hamiltonian proposal with fresh standard normal momenta.

    Runs ``leapfrog_steps`` surrogate-driven leapfrog steps and accepts with
    the true-Hamiltonian ratio; a failed gradient or a non-finite
    Hamiltonian rejects outright.  Either way the state's slots, kept tree,
    cached gradient and scores are those it keeps, and the next step starts
    from them.
    """
    state.a = rng.generator.normal(size=len(state.masks))
    if math.isnan(state.log_lik):
        _true_potential(state, stats)
    if state.grad is None:  # computed before saving, so a reject keeps it
        with suppress(NotPositiveDefiniteError):  # the trajectory retries, and rejects
            state.grad = _grad_potential(state, stats, cfg)
    h_cur = -state.log_lik - state.log_prior + _kinetic(state)
    saved = (list(state.masks), state.d.copy(), state.laminar.copy(),
             state.grad, state.log_lik, state.log_prior)

    state.proposed += 1
    try:
        for _ in range(cfg.leapfrog_steps):
            hmc_leapfrog(state, stats, cfg, rng)
    except NotPositiveDefiniteError:
        h_prop = math.inf
    else:
        h_prop = _true_potential(state, stats) + _kinetic(state)

    if math.isfinite(h_prop) and math.log(rng.uniform()) < h_cur - h_prop:
        state.accepted += 1
    else:
        state.masks, state.d, state.laminar, state.grad, state.log_lik, state.log_prior = saved
    return state


# ---------------------------------------------------------------------------
# chain driver
# ---------------------------------------------------------------------------

# the config class of each algo; a config's ``algo`` names its entry
ALGOS = {cls.algo: cls for cls in (MhConfig, HmcConfig)}


def run_chain(data: DataSet | SufficientStats | None, init: Tree, algo: str,
              cfg: MhConfig | HmcConfig) -> PosteriorArchive:
    """Run one chain and collect every retained state plus the full trace.

    ``data=None`` (or an empty-statistics dataset) samples the prior.  The
    output is byte-identical across reruns with the same inputs and seed.
    """
    if init.p < 2:  # one leaf's edge and the root edge share mask 1
        raise InvalidArgumentError(f"run_chain needs p >= 2, got p={init.p}")
    if data is not None and data.p != init.p:
        raise InvalidArgumentError(f"data have p={data.p} but init tree has p={init.p}")
    if algo not in ALGOS:
        raise InvalidArgumentError(f"unknown algo {algo!r}")
    if not isinstance(cfg, ALGOS[algo]):
        raise InvalidArgumentError(f"algo {algo!r} requires an {ALGOS[algo].__name__}")
    if cfg.mode == "binary" and not init.topology.is_resolved:
        raise InvalidTreeError(f"algo {algo!r} in binary mode requires a resolved initial tree")
    if data is None:
        stats = SufficientStats.empty(init.p)
    else:
        stats = data if isinstance(data, SufficientStats) else suff_stats(data)

    state = ChainState(init, stats, cfg.prior) if algo == "mh" else HmcState(init, cfg)
    rng = RngStream(cfg.seed, stream_id=0)
    archive = PosteriorArchive(
        p=init.p,
        provenance={"algo": algo, "config": config_digest(cfg.to_dict()),
                    "seed": cfg.seed},
    )
    for it in range(1, cfg.iterations + 1):
        state.step(stats, cfg, rng)
        archive.trace.append((it, state.log_lik))
        if it > cfg.burn_in and (it - cfg.burn_in - 1) % cfg.thin == 0:
            archive.records.append(ArchiveRecord.from_tree(
                it, state.log_prior, state.log_lik, state.tree()))
    archive.provenance.update(state.counts())
    return archive
