import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    block_sum_matrix,
    ks_statistic_exponential,
    loop_drift,
    loop_split_gradient,
)
from treecov.errors import (
    InvalidArgumentError,
    InvalidTreeError,
    NotPositiveDefiniteError,
)
from treecov.model import SufficientStats, gaussian_loglik, sample_gaussian, suff_stats
from treecov.priors import PriorSpec, lengths_log_prior
from treecov.rng import RngStream
from treecov.samplers import (
    ChainState,
    HmcConfig,
    HmcState,
    MhConfig,
    hmc_leapfrog,
    hmc_step,
    mh_length_log_ratio,
    mh_length_update,
    mh_topology_update,
    run_chain,
)
from treecov.treespace import (
    LaminarTree,
    Split,
    Topology,
    Tree,
    _growth_candidates,
    _tree_from_masks,
    laminar_children,
    random_tree,
    star_tree,
)
from treecov.ultrametric import tree_to_matrix, validate_ultrametric


class ScriptedRng:
    """Seeded draws, except that ``uniform()`` reads a script of booleans.

    ``True`` gives 5e-324, which accepts any move whose log ratio exceeds
    -744 (and takes the grow branch); ``False`` gives 1e300, which rejects
    any whose log ratio is below 690 (and takes the shrink branch).
    """

    def __init__(self, seed, script):
        self.rng = RngStream(seed)
        self.script = iter(script)

    def integers(self, n):
        return self.rng.integers(n)

    def exponential(self, mean):
        return self.rng.exponential(mean)

    def uniform(self):
        return 5e-324 if next(self.script) else 1e300


def topology_prior(prior, p, masks):
    """The topology log prior of internal split masks, priced afresh."""
    return prior.topology_log_prior(Topology(p, frozenset(Split(p, m) for m in masks)))


def two_split_tree():
    s12 = Split.from_leaves(4, (1, 2))
    s34 = Split.from_leaves(4, (3, 4))
    return Tree(Topology(4, frozenset([s12, s34])), {s12: 0.5, s34: 0.3},
                (1.0, 1.0, 1.0, 1.0), 0.5)


class TestConfigs:
    def test_mh_validation(self):
        with pytest.raises(InvalidArgumentError):
            MhConfig(iterations=10, burn_in=10)
        with pytest.raises(InvalidArgumentError):
            MhConfig(sigma_L=0.0)
        with pytest.raises(InvalidArgumentError):
            MhConfig(mode="both")
        with pytest.raises(InvalidArgumentError):  # grow draws from the prior
            MhConfig(prior=PriorSpec(edge_mean=math.inf))
        with pytest.raises(InvalidArgumentError):  # drops need an unresolved prior
            MhConfig(mode="multifurcating")

    def test_hmc_validation(self):
        with pytest.raises(InvalidArgumentError):
            HmcConfig(leapfrog_steps=0)
        with pytest.raises(InvalidArgumentError):
            HmcConfig(step_size=0.0)
        with pytest.raises(InvalidArgumentError):
            HmcConfig(delta=-0.1)

    @pytest.mark.parametrize("make", [
        lambda x: MhConfig(sigma_L=x),
        lambda x: HmcConfig(step_size=x),
        lambda x: HmcConfig(delta=x),
    ], ids=["sigma_L", "step_size", "delta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_step_refused(self, make, value):
        # a nan sigma_L made the truncated-normal proposal redraw forever
        with pytest.raises(InvalidArgumentError, match="finite"):
            make(value)


class TestTopologyUpdate:
    def test_uniform_prior_no_data_always_accepts(self):
        cfg = MhConfig(iterations=10, burn_in=0, prior=PriorSpec(beta=-1.5))
        stats = SufficientStats.empty(4)
        rng = RngStream(5)
        state = ChainState(two_split_tree(), stats, cfg.prior)
        for _ in range(200):
            mh_topology_update(state, stats, cfg, rng)
        assert state.accepted_topology == state.proposed_topology == 200

    def test_candidate_set_and_length_copy(self):
        # removing one cherry proposes exactly the two strict alternatives
        cfg = MhConfig(prior=PriorSpec(beta=-1.5))
        stats = SufficientStats.empty(4)
        seen = Counter()
        for seed in range(400):
            state = ChainState(two_split_tree(), stats, cfg.prior)
            mh_topology_update(state, stats, cfg, RngStream(seed))
            new = set(state.internal) - {
                Split.from_leaves(4, (1, 2)).mask, Split.from_leaves(4, (3, 4)).mask
            }
            for m in new:
                seen[m] += 1
                # the copied length equals the removed one
                assert state.internal[m] in (0.5, 0.3)
        m123 = Split.from_leaves(4, (1, 2, 3)).mask
        m124 = Split.from_leaves(4, (1, 2, 4)).mask
        m134 = Split.from_leaves(4, (1, 3, 4)).mask
        m234 = Split.from_leaves(4, (2, 3, 4)).mask
        assert set(seen) == {m123, m124, m134, m234}
        # alternatives for each removed split appear roughly equally
        for m in (m123, m124):
            assert abs(seen[m] / (seen[m123] + seen[m124]) - 0.5) < 0.15

    def test_likelihood_ratio_balance(self, rng):
        # with data, the acceptance uses prior x likelihood; state caches stay
        # consistent after many updates
        truth = random_tree(5, "uniform-binary", 1.0, rng)
        data = sample_gaussian(tree_to_matrix(truth), 60, rng)
        stats = suff_stats(data)
        cfg = MhConfig(prior=PriorSpec())
        state = ChainState(random_tree(5, "uniform-binary", 1.0, rng),
                           stats, cfg.prior)
        for _ in range(300):
            mh_topology_update(state, stats, cfg, rng)
        state.check_consistency(stats, cfg.prior)

    def test_multifurcating_can_drop_and_stays_valid(self):
        cfg = MhConfig(mode="multifurcating",
                       prior=PriorSpec(kind="poisson-dirichlet"))
        stats = SufficientStats.empty(4)
        rng = RngStream(17)
        saw_unresolved = False
        state = ChainState(two_split_tree(), stats, cfg.prior)
        for _ in range(300):
            mh_topology_update(state, stats, cfg, rng)
            if len(state.internal) < 2:
                saw_unresolved = True
            state.tree()  # structure stays valid
        assert saw_unresolved
        state.check_consistency(stats, cfg.prior)

    def test_multifurcating_consistency_with_data(self, rng):
        # drop, grow and replacement moves interleaved with length sweeps keep
        # the cached covariance, likelihood and prior equal to a fresh
        # computation
        truth = random_tree(6, "uniform-binary", 1.0, rng)
        stats = suff_stats(sample_gaussian(tree_to_matrix(truth), 60, rng))
        cfg = MhConfig(mode="multifurcating", prior=PriorSpec(kind="poisson-dirichlet"))
        state = ChainState(random_tree(6, "uniform-binary", 1.0, rng), stats, cfg.prior)
        sizes = set()
        for i in range(300):
            mh_topology_update(state, stats, cfg, rng)
            mh_length_update(state, stats, cfg, rng)
            sizes.add(len(state.internal))
            if i % 30 == 29:
                state.check_consistency(stats, cfg.prior)
        assert len(sizes) > 1
        assert state.accepted_topology > 0

    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(3, 9), seed=st.integers(0, 2 ** 32 - 1), data=st.booleans(),
           multifurcating=st.booleans(), script=st.lists(st.booleans(), min_size=60,
                                                        max_size=120))
    def test_kept_tree_tracks_fresh_rebuild(self, p, seed, data, multifurcating, script):
        # scripted accepts and rejects of binary moves, or of drop, grow and
        # replacement moves under the PD prior: after every move the kept
        # children, candidates and topology prior equal a fresh rebuild
        rng = RngStream(seed, 1)
        truth = random_tree(p, "uniform-binary", 1.0, rng)
        stats = suff_stats(sample_gaussian(tree_to_matrix(truth), 3 * p, rng)) \
            if data else SufficientStats.empty(p)
        cfg = MhConfig(mode="multifurcating",
                       prior=PriorSpec(kind="poisson-dirichlet", theta=1.5, alpha_pd=0.25)) \
            if multifurcating else MhConfig(prior=PriorSpec(beta=0.0))
        state = ChainState(random_tree(p, "uniform-binary", 1.0, rng), stats, cfg.prior)
        moves = ScriptedRng(seed, script)
        for _ in range(20):
            mh_topology_update(state, stats, cfg, moves)
            masks = sorted(state.internal)
            assert state.laminar.children == laminar_children(p, masks)
            assert state.laminar.log_prior() == topology_prior(cfg.prior, p, masks)
            assert state.laminar.candidates() == _growth_candidates(p, masks)
            for a in masks:
                remainder = [m for m in masks if m != a]
                assert state.laminar.candidates(a) == \
                    [m for m in _growth_candidates(p, remainder) if m != a]
            state.check_consistency(stats, cfg.prior)
        assert state.proposed_topology == 20

    def test_multifurcating_two_leaves_has_no_topology_move(self):
        cfg = MhConfig(iterations=50, burn_in=10, mode="multifurcating",
                       prior=PriorSpec(kind="poisson-dirichlet"))
        init = random_tree(2, "uniform-binary", 1.0, RngStream(1))
        archive = run_chain(None, init, "mh", cfg)
        assert archive.provenance["proposed_topology"] == 0
        assert len(archive) == 40

    def test_non_positive_definite_start_is_typed(self):
        # lengths far below the root's rounding make the covariance singular
        tree = star_tree((1e-17, 1e-17), 1.0)
        with pytest.raises(NotPositiveDefiniteError):
            ChainState(tree, SufficientStats(5, np.eye(2)), PriorSpec())


class TestLengthUpdate:
    def test_ratio_antisymmetry(self, rng):
        for _ in range(200):
            x = rng.exponential(1.0)
            y = rng.exponential(1.0)
            dll = rng.normal(0.0, 2.0)
            f = mh_length_log_ratio(x, y, dll, 0.9, 0.3)
            b = mh_length_log_ratio(y, x, -dll, 0.9, 0.3)
            assert f + b == pytest.approx(0.0, abs=1e-12)

    def test_identity_proposal_is_neutral(self):
        assert mh_length_log_ratio(0.7, 0.7, 0.0, 1.0, 0.1) == 0.0

    def test_prior_recovery_marginal(self):
        # no data: stationary length marginals are exponential
        cfg = MhConfig(iterations=30000, burn_in=2000, sigma_L=0.8,
                       thin=5, seed=2)
        init = random_tree(2, "uniform-binary", 1.0, RngStream(1))
        archive = run_chain(None, init, "mh", cfg)
        draws = [r.leaf_lengths[0] for r in archive.records]
        assert ks_statistic_exponential(draws, 1.0) < 0.04

    def test_cache_consistency_with_data(self, rng):
        truth = random_tree(4, "uniform-binary", 1.0, rng)
        stats = suff_stats(sample_gaussian(tree_to_matrix(truth), 50, rng))
        cfg = MhConfig()
        state = ChainState(two_split_tree(), stats, cfg.prior)
        for _ in range(50):
            mh_length_update(state, stats, cfg, rng)
        state.check_consistency(stats, cfg.prior)


    def test_consistency_check_sees_stale_inverse(self, rng):
        truth = random_tree(4, "uniform-binary", 1.0, rng)
        stats = suff_stats(sample_gaussian(tree_to_matrix(truth), 50, rng))
        cfg = MhConfig()
        state = ChainState(two_split_tree(), stats, cfg.prior)
        mh_length_update(state, stats, cfg, rng)
        state.check_consistency(stats, cfg.prior)
        state.kernel.W[0, 1] += 1e-3
        with pytest.raises(AssertionError, match="stale W"):
            state.check_consistency(stats, cfg.prior)

    def test_batched_proposals_are_truncated_normals(self):
        # lengths near zero with sigma_L = 5 send about half of each sweep's
        # first draws below zero; after the redraws every proposal is
        # positive and follows N(1e-6, 25) truncated to (0, inf)
        cfg = MhConfig(sigma_L=5.0)
        stats = SufficientStats.empty(40)
        state = ChainState(random_tree(40, "uniform-binary", 1.0, RngStream(4)),
                           stats, cfg.prior)
        for mask in state.lengths:
            state.lengths[mask] = 1e-6
        proposals = []
        # every move is rejected, so each sweep starts from the same lengths
        state.kernel.propose = lambda changes: proposals.extend(changes) or -math.inf
        rng = RngStream(9)
        for _ in range(25):
            mh_length_update(state, stats, cfg, rng)
        masks = sorted(state.lengths)
        assert [m for m, _ in proposals] == 25 * masks
        x = np.sort([v for _, v in proposals])
        assert x[0] > 0.0

        def cdf(v):
            return 0.5 * math.erfc(-(v - 1e-6) / (5.0 * math.sqrt(2.0)))

        low = cdf(0.0)
        fitted = np.array([(cdf(v) - low) / (1.0 - low) for v in x])
        steps = np.arange(1, len(x) + 1) / len(x)
        ks = max(np.max(steps - fitted), np.max(fitted - steps + 1.0 / len(x)))
        assert ks < 1.63 / math.sqrt(len(x))  # the 1 % critical value

    def test_batched_sweep_without_data(self, rng):
        # the kernel prices nothing and every move is the prior's
        cfg = MhConfig(sigma_L=0.5)
        stats = SufficientStats.empty(7)
        state = ChainState(random_tree(7, "uniform-binary", 1.0, rng), stats, cfg.prior)
        for _ in range(30):
            mh_length_update(state, stats, cfg, rng)
        assert state.kernel.W is None and state.log_lik == 0.0
        assert 0 < state.accepted_lengths < state.proposed_lengths == 30 * 13
        state.check_consistency(stats, cfg.prior)

    def test_batched_sweep_prices_afresh_when_a_step_is_singular(self, rng, monkeypatch):
        # a negated, scaled inverse makes 1 + delta c negative for every
        # lengthening move, so those moves are priced by a fresh
        # factorization; the first such move accepted restores W, and the
        # sweep still ends on the exact factorization
        import treecov.model as model

        truth = random_tree(6, "uniform-binary", 1.0, rng)
        stats = suff_stats(sample_gaussian(tree_to_matrix(truth), 60, rng))
        cfg = MhConfig(sigma_L=0.5)
        state = ChainState(truth, stats, cfg.prior)
        state.log_lik  # read from the factor before W is spoiled
        state.kernel.W = -1e3 * state.kernel.W
        calls = []
        real = model._factor
        monkeypatch.setattr(model, "_factor", lambda *a: calls.append(a) or real(*a))
        mh_length_update(state, stats, cfg, rng)
        assert len(calls) > 2  # fresh pricings, then the sweep's refresh
        assert state.accepted_lengths > 0
        state.check_consistency(stats, cfg.prior)

    @pytest.mark.parametrize("mode", ["binary", "multifurcating"])
    def test_one_factorization_per_iteration(self, rng, monkeypatch, mode):
        # one with data, at the end of the length sweep; none without
        import treecov.model as model

        calls = []
        real = model._factor
        monkeypatch.setattr(model, "_factor", lambda *a: calls.append(a) or real(*a))
        truth = random_tree(8, "uniform-binary", 1.0, rng)
        cfg = MhConfig(mode=mode, prior=PriorSpec(kind="poisson-dirichlet"))
        for stats in (suff_stats(sample_gaussian(tree_to_matrix(truth), 80, rng)),
                      SufficientStats.empty(8)):
            state = ChainState(random_tree(8, "uniform-binary", 1.0, rng), stats, cfg.prior)
            for _ in range(40):
                calls.clear()
                mh_topology_update(state, stats, cfg, rng)
                mh_length_update(state, stats, cfg, rng)
                assert len(calls) == (stats.n > 0)
                # each sweep ends on the exact full-factorization value
                assert state.log_lik == gaussian_loglik(stats, tree_to_matrix(state.tree()))
            assert state.accepted_lengths > 0 and state.accepted_topology > 0
            state.check_consistency(stats, cfg.prior)


class TestHmcLeapfrog:
    def test_boundary_crossing_worked_example(self):
        t = two_split_tree()
        cfg = HmcConfig(step_size=1.0, leapfrog_steps=1, delta=0.0,
                        prior=PriorSpec(edge_mean=math.inf))
        state = HmcState(t, cfg)
        s12 = Split.from_leaves(4, (1, 2)).mask
        s34 = Split.from_leaves(4, (3, 4)).mask
        for j, m in enumerate(state.masks):
            state.a[j] = {s12: -1.0, s34: -1.2}.get(m, 0.0)
        forced = [Split.from_leaves(4, (1, 2, 4)), Split.from_leaves(4, (2, 4))]

        def chooser(cands):
            want = forced.pop(0)
            assert want in cands
            return want

        hmc_leapfrog(state, SufficientStats.empty(4), cfg, RngStream(0), chooser)
        lengths = {Split(4, m): v for m, v in zip(state.masks, state.d)
                   if 2 <= bin(m).count("1") <= 3}
        momenta = {Split(4, m): a for m, a in zip(state.masks, state.a)
                   if 2 <= bin(m).count("1") <= 3}
        s24 = Split.from_leaves(4, (2, 4))
        s124 = Split.from_leaves(4, (1, 2, 4))
        assert set(lengths) == {s24, s124}
        assert lengths[s24] == pytest.approx(0.5, abs=1e-12)
        assert lengths[s124] == pytest.approx(0.9, abs=1e-12)
        assert momenta[s24] == 1.0 and momenta[s124] == 1.2

    @staticmethod
    def record_crossings(monkeypatch):
        """The mask of each internal slot that reaches zero, in crossing order."""
        crossed = []
        real = LaminarTree.candidates
        monkeypatch.setattr(LaminarTree, "candidates",
                            lambda tree, removed=None: crossed.append(removed) or
                            real(tree, removed))
        return crossed

    def test_drift_ties_go_to_the_ascending_mask(self, monkeypatch):
        from treecov.samplers import _drift

        crossed = self.record_crossings(monkeypatch)
        state = HmcState(two_split_tree())
        order = np.argsort(state.masks)[::-1]  # larger masks in earlier slots
        state.masks = [state.masks[i] for i in order]
        state.d = state.d[order]
        internal = [j for j, m in enumerate(state.masks) if 2 <= m.bit_count() < 4]
        state.d[internal] = 0.4
        state.a[internal] = -1.0
        _drift(state, 1.0, RngStream(0))
        assert crossed == sorted(Split.from_leaves(4, leaves).mask
                                 for leaves in ((1, 2), (3, 4)))
        assert state.d[internal] == pytest.approx(0.6, abs=1e-12)
        assert list(state.a[internal]) == [1.0, 1.0]

    def test_drift_crosses_in_fractured_step_order(self, monkeypatch):
        # three internal slots reach zero within one step, the smallest mask
        # last: each flips at its own fractured step d_j / -a_j
        from treecov.samplers import _drift

        crossed = self.record_crossings(monkeypatch)
        state = HmcState(random_tree(5, "uniform-binary", 1.0, RngStream(4)))
        internal = sorted((j for j, m in enumerate(state.masks)
                           if 2 <= m.bit_count() < 5), key=state.masks.__getitem__)
        before = [state.masks[j] for j in internal]
        d0 = state.d.copy()
        state.d[internal] = [0.3, 0.2, 0.1]
        state.a[internal] = -1.0
        _drift(state, 0.5, RngStream(0))
        assert crossed == before[::-1]
        assert state.d[internal] == pytest.approx([0.2, 0.3, 0.4], abs=1e-12)
        assert list(state.a[internal]) == [1.0, 1.0, 1.0]
        others = [j for j in range(len(d0)) if j not in internal]
        assert np.array_equal(state.d[others], d0[others])  # zero momentum

    @pytest.mark.parametrize("seed", range(4))
    def test_drift_equals_loop_reference(self, seed):
        # fresh large momenta before every drift cross and reassign often;
        # the array drift does the loop's arithmetic, so the states agree
        # exactly
        from treecov.samplers import _drift

        start = random_tree(8, "uniform-binary", 1.0, RngStream(50, seed))
        fast, slow = HmcState(start), HmcState(start)
        momenta = RngStream(51, seed)
        rng_fast, rng_slow = RngStream(52, seed), RngStream(52, seed)
        crossings = reassigned = 0
        for _ in range(30):
            drawn = momenta.generator.normal(size=len(fast.masks)) * 3.0
            fast.a, slow.a = drawn.copy(), drawn.copy()
            masks = list(fast.masks)
            _drift(fast, 0.2, rng_fast)
            loop_drift(slow, 0.2, rng_slow)
            assert fast.masks == slow.masks
            assert np.array_equal(fast.d, slow.d) and np.array_equal(fast.a, slow.a)
            crossings += int(np.sum(np.sign(fast.a) != np.sign(drawn)))
            reassigned += sum(a != b for a, b in zip(masks, fast.masks))
        assert crossings >= 20 and reassigned >= 5

    def test_reversibility_away_from_boundaries(self, rng):
        t = random_tree(5, "uniform-binary", 2.0, rng)
        stats = suff_stats(sample_gaussian(tree_to_matrix(t), 20, rng))
        cfg = HmcConfig(step_size=1e-3, leapfrog_steps=1, delta=0.0)
        state = HmcState(t, cfg)
        state.a = rng.generator.normal(size=len(state.masks)) * 0.2
        d0, a0 = state.d.copy(), state.a.copy()
        for _ in range(10):
            hmc_leapfrog(state, stats, cfg, rng)
        state.a = -state.a
        for _ in range(10):
            hmc_leapfrog(state, stats, cfg, rng)
        assert np.max(np.abs(state.d - d0)) < 1e-9
        assert np.max(np.abs(-state.a - a0)) < 1e-9

    def test_surrogate_matches_plain_gradient_when_delta_zero(self, rng):
        from treecov.model import loglik_gradient
        from treecov.samplers import _grad_potential

        t = random_tree(5, "uniform-binary", 1.0, rng)
        stats = suff_stats(sample_gaussian(tree_to_matrix(t), 30, rng))
        cfg = HmcConfig(delta=0.0, prior=PriorSpec(edge_mean=1 / 1.3))
        state = HmcState(t, cfg)
        grad = _grad_potential(state, stats, cfg)
        reference = loglik_gradient(stats, t)
        for j, m in enumerate(state.masks):
            assert grad[j] == pytest.approx(
                -reference[Split(5, m)] + 1.3, rel=1e-10, abs=1e-10
            )

    def test_slots_in_any_order_with_zero_lengths(self, rng):
        # shuffled slots, two internal ones at zero: the potential and its
        # gradient read the covariance of the slots in their current order
        from treecov.samplers import _grad_potential, _true_potential

        p = 7
        t = random_tree(p, "uniform-binary", 1.0, rng)
        stats = suff_stats(sample_gaussian(tree_to_matrix(t), 40, rng))
        cfg = HmcConfig(delta=0.05)
        state = HmcState(t, cfg)
        order = rng.generator.permutation(len(state.masks))
        state.masks = [state.masks[i] for i in order]
        state.d = state.d[order]
        internal = [j for j, m in enumerate(state.masks) if 2 <= m.bit_count() < p]
        state.d[internal[:2]] = 0.0
        _true_potential(state, stats)
        fresh = block_sum_matrix(p, state.masks, state.d)
        assert state.log_lik == pytest.approx(gaussian_loglik(stats, fresh), rel=1e-12)
        assert state.log_lik == pytest.approx(
            gaussian_loglik(stats, tree_to_matrix(state.tree())), rel=1e-12)
        g = np.where(state.d < cfg.delta, (state.d ** 2 + cfg.delta ** 2) / (2 * cfg.delta),
                     state.d)
        dg = np.where(state.d < cfg.delta, state.d / cfg.delta, 1.0)
        loop = loop_split_gradient(stats.n, stats.S, block_sum_matrix(p, state.masks, g),
                                   state.masks)
        want = (1.0 / cfg.prior.edge_mean - loop) * dg
        assert _grad_potential(state, stats, cfg) == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_energy_drift_second_order(self, rng):
        t = random_tree(4, "uniform-binary", 2.0, RngStream(12))
        stats = suff_stats(sample_gaussian(tree_to_matrix(t), 40, RngStream(13)))
        from treecov.samplers import _kinetic, _true_potential

        drifts = []
        for eps, steps in ((0.004, 50), (0.002, 100)):  # same trajectory length
            cfg = HmcConfig(step_size=eps, leapfrog_steps=steps, delta=0.0)
            state = HmcState(t, cfg)
            state.a = RngStream(14).generator.normal(size=len(state.masks)) * 0.5
            h0 = _true_potential(state, stats) + _kinetic(state)
            for _ in range(steps):
                hmc_leapfrog(state, stats, cfg, RngStream(15))
            h1 = _true_potential(state, stats) + _kinetic(state)
            drifts.append(abs(h1 - h0))
        ratio = drifts[0] / drifts[1]
        assert 3.0 < ratio < 5.0


class TestHmcStep:
    def test_prior_recovery(self):
        cfg = HmcConfig(iterations=4000, burn_in=200, step_size=0.25,
                        leapfrog_steps=12, delta=0.003, seed=9)
        init = random_tree(3, "uniform-binary", 1.0, RngStream(8))
        archive = run_chain(None, init, "hmc", cfg)
        draws = [r.leaf_lengths[1] for r in archive.records]
        assert ks_statistic_exponential(draws, 1.0) < 0.05

    def test_unresolved_state_has_flat_topology_term(self):
        # beta-splitting gives unresolved shapes no mass; a state built
        # directly from one still steps, scoring only its lengths
        from treecov.priors import edge_length_log_prior

        s12 = Split.from_leaves(4, (1, 2))
        t = Tree(Topology(4, frozenset([s12])), {s12: 0.5}, (1.0, 1.0, 1.0, 1.0), 0.5)
        cfg = HmcConfig(step_size=0.05, leapfrog_steps=5, prior=PriorSpec(edge_mean=2.0))
        state = HmcState(t, cfg)
        for _ in range(5):
            hmc_step(state, SufficientStats.empty(4), cfg, RngStream(3))
        assert state.log_lik == 0.0
        assert state.log_prior == pytest.approx(
            edge_length_log_prior(state.tree(), 2.0), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(3, 9), seed=st.integers(0, 2 ** 32 - 1), data=st.booleans(),
           pd=st.booleans(), step_size=st.sampled_from([0.05, 0.3]))
    def test_kept_tree_tracks_fresh_rebuild(self, p, seed, data, pd, step_size):
        # steps long enough to cross boundaries and to reject: after every
        # accepted or restored proposal the kept tree, and the scored prior,
        # equal a fresh rebuild from the internal slot masks
        rng = RngStream(seed, 1)
        truth = random_tree(p, "uniform-binary", 1.0, rng)
        stats = suff_stats(sample_gaussian(tree_to_matrix(truth), 3 * p, rng)) \
            if data else SufficientStats.empty(p)
        prior = PriorSpec(kind="poisson-dirichlet", theta=1.5, alpha_pd=0.25) if pd \
            else PriorSpec(beta=0.0)
        cfg = HmcConfig(step_size=step_size, leapfrog_steps=10, prior=prior)
        state = HmcState(random_tree(p, "uniform-binary", 1.0, rng), cfg)
        for _ in range(6):
            hmc_step(state, stats, cfg, rng)
            masks = sorted(m for m in state.masks if 2 <= m.bit_count() < p)
            state.laminar.check_consistency(masks)
            assert state.laminar.log_prior() == topology_prior(prior, p, masks)
            # the lengths summed in ascending mask order, not in slot order
            assert state.log_prior == topology_prior(prior, p, masks) + lengths_log_prior(
                [d for _, d in sorted(zip(state.masks, state.d))], prior.edge_mean)
            # the score, often read from the last gradient's factorization,
            # equals a fresh likelihood of the slots
            assert state.log_lik == pytest.approx(
                gaussian_loglik(stats, block_sum_matrix(p, state.masks, state.d)), rel=1e-12)

    def test_one_gradient_per_leapfrog_step(self, monkeypatch):
        # the opening kick reuses the gradient the closing kick left, after
        # accepts and rejects alike: L gradients per step, L + 1 on the first
        from treecov.samplers import _grad_potential

        calls = self.spy(monkeypatch, "gradient")
        truth = random_tree(6, "uniform-binary", 1.0, RngStream(7, 1))
        stats = suff_stats(sample_gaussian(tree_to_matrix(truth), 60, RngStream(7, 3)))
        cfg = HmcConfig(step_size=0.035, leapfrog_steps=20)
        state = HmcState(random_tree(6, "uniform-binary", 1.0, RngStream(7, 2)), cfg)
        rng = RngStream(15)
        for step in range(12):
            calls.clear()
            hmc_step(state, stats, cfg, rng)
            assert len(calls) == (21 if step == 0 else 20)
            assert np.array_equal(state.grad, _grad_potential(state, stats, cfg))
        assert 0 < state.accepted < state.proposed

    @staticmethod
    def spy(monkeypatch, name, failing_calls=()):
        """Record the arguments of every ``LikelihoodKernel.<name>`` call, and
        make the listed calls raise ``NotPositiveDefiniteError``."""
        from treecov.model import LikelihoodKernel

        real = getattr(LikelihoodKernel, name)
        calls = []

        def flaky(kernel, *args):
            calls.append(args)
            if len(calls) in failing_calls:
                raise NotPositiveDefiniteError("injected failure")
            return real(kernel, *args)

        monkeypatch.setattr(LikelihoodKernel, name, flaky)
        return calls

    @staticmethod
    def scored_state():
        """A state after one step, so its scores and gradient are cached; its
        next trajectory crosses a boundary within four leapfrog steps."""
        truth = random_tree(6, "uniform-binary", 1.0, RngStream(7, 1))
        stats = suff_stats(sample_gaussian(tree_to_matrix(truth), 60, RngStream(7, 3)))
        cfg = HmcConfig(step_size=0.2, leapfrog_steps=10)
        state = HmcState(random_tree(6, "uniform-binary", 1.0, RngStream(7, 2)), cfg)
        rng = RngStream(15)
        hmc_step(state, stats, cfg, rng)
        return state, stats, cfg, rng

    @staticmethod
    def snapshot(state):
        return (list(state.masks), state.d.copy(), state.grad, state.log_lik,
                state.log_prior, state.accepted, state.proposed)

    def assert_restored(self, state, before):
        masks, d, grad, log_lik, log_prior, accepted, proposed = before
        assert state.masks == masks
        assert np.array_equal(state.d, d)
        state.laminar.check_consistency(sorted(m for m in masks if 2 <= m.bit_count() < state.p))
        assert np.array_equal(state.grad, grad)
        assert (state.log_lik, state.log_prior) == (log_lik, log_prior)
        assert (state.accepted, state.proposed) == (accepted, proposed + 1)

    def test_failed_gradient_mid_trajectory_rejects_and_restores(self, monkeypatch):
        from treecov.samplers import _grad_potential, _surrogate

        state, stats, cfg, rng = self.scored_state()
        before = self.snapshot(state)
        # the step starts from cached scores and gradient, so its first
        # factorizations are its closing kicks'
        calls = self.spy(monkeypatch, "factor", {5})
        grads = self.spy(monkeypatch, "gradient")
        hmc_step(state, stats, cfg, rng)
        # the fifth closing kick's factorization failed and ended the trajectory
        assert len(calls) == 5 and len(grads) == 4
        # the trajectory had moved and crossed a boundary before it failed,
        # and the reject undid both
        assert calls[4][0] != before[0]
        assert not np.array_equal(calls[4][1], _surrogate(state.d, cfg.delta)[0])
        self.assert_restored(state, before)
        hmc_step(state, stats, cfg, rng)  # the next step runs in full, and is scored
        assert len(grads) == 14 and len(calls) == 16
        assert state.proposed == before[-1] + 2
        assert np.array_equal(state.grad, _grad_potential(state, stats, cfg))

    def test_failed_leapfrog_gradient_raises(self, monkeypatch):
        # a direct leapfrog step has no step to reject it: the failed
        # closing gradient propagates and leaves no stale gradient behind
        state, stats, cfg, rng = self.scored_state()
        assert state.grad is not None
        calls = self.spy(monkeypatch, "factor", {1})
        with pytest.raises(NotPositiveDefiniteError):
            hmc_leapfrog(state, stats, cfg, rng)
        assert len(calls) == 1 and state.grad is None

    def test_failed_opening_gradient_rejects(self, monkeypatch):
        # a fresh state's gradient fails before the save and again in the
        # first leapfrog step; the reject keeps the empty cache and the next
        # step fills it
        truth = random_tree(5, "uniform-binary", 1.0, RngStream(3, 1))
        stats = suff_stats(sample_gaussian(tree_to_matrix(truth), 50, RngStream(3, 2)))
        cfg = HmcConfig(step_size=0.035, leapfrog_steps=10)
        init = random_tree(5, "uniform-binary", 1.0, RngStream(3, 3))
        state = HmcState(init, cfg)
        # the first factorization scores the state; the next two are its
        # gradients'
        calls = self.spy(monkeypatch, "factor", {2, 3})
        grads = self.spy(monkeypatch, "gradient")
        hmc_step(state, stats, cfg, RngStream(4))
        assert len(calls) == 3 and not grads and state.grad is None
        assert state.masks == [s.mask for s, _ in init.coordinates()]
        assert state.log_lik == gaussian_loglik(stats, tree_to_matrix(init))
        assert (state.accepted, state.proposed) == (0, 1)
        hmc_step(state, stats, cfg, RngStream(5))
        assert len(grads) == 11 and state.grad is not None

    def test_failed_likelihood_rejects_and_restores(self, monkeypatch):
        state, stats, cfg, rng = self.scored_state()
        before = self.snapshot(state)
        # ten closing kicks' factorizations, then the trajectory's end score
        calls = self.spy(monkeypatch, "factor", {11})
        grads = self.spy(monkeypatch, "gradient")
        hmc_step(state, stats, cfg, rng)
        assert len(grads) == 10 and len(calls) == 11  # the end was scored, and failed
        self.assert_restored(state, before)
        hmc_step(state, stats, cfg, rng)
        assert len(calls) == 22 and math.isfinite(state.log_lik)
        assert state.proposed == before[-1] + 2

    def test_posterior_moves_toward_truth(self, rng):
        truth = random_tree(4, "uniform-binary", 1.0, RngStream(41))
        data = sample_gaussian(tree_to_matrix(truth), 200, RngStream(42))
        init = random_tree(4, "uniform-binary", 1.0, RngStream(43))
        cfg = HmcConfig(iterations=60, burn_in=30, step_size=0.01,
                        leapfrog_steps=25, seed=44)
        archive = run_chain(data, init, "hmc", cfg)
        lls = [v for _, v in archive.trace]
        assert np.mean(lls[-10:]) > lls[0]
        assert archive.provenance["accept_hmc"] > 10


KEPT_CHAINS = [
    ("mh", MhConfig(iterations=60, burn_in=20, seed=3)),
    ("mh", MhConfig(iterations=60, burn_in=20, seed=3, mode="multifurcating",
                    prior=PriorSpec(kind="poisson-dirichlet"))),
    ("hmc", HmcConfig(iterations=20, burn_in=4, step_size=0.02,
                      leapfrog_steps=10, seed=3)),
]


def kept_chain(algo, cfg):
    """A short chain at p = 6 with data, one archive per kernel and mode."""
    truth = random_tree(6, "uniform-binary", 1.0, RngStream(61))
    data = sample_gaussian(tree_to_matrix(truth), 60, RngStream(62))
    return run_chain(data, random_tree(6, "uniform-binary", 1.0, RngStream(63)), algo, cfg)


class TestRunChain:
    def test_deterministic_archives(self, rng):
        truth = random_tree(4, "uniform-binary", 1.0, rng)
        data = sample_gaussian(tree_to_matrix(truth), 50, rng)
        init = random_tree(4, "uniform-binary", 1.0, RngStream(2))
        cfg = MhConfig(iterations=400, burn_in=200, seed=7)
        a1 = run_chain(data, init, "mh", cfg)
        a2 = run_chain(data, init, "mh", cfg)
        assert [r.to_json_dict() for r in a1.records] == \
            [r.to_json_dict() for r in a2.records]
        assert a1.trace == a2.trace

    @pytest.mark.parametrize("algo,cfg", [
        ("hmc", HmcConfig(iterations=20, burn_in=10, step_size=0.02,
                          leapfrog_steps=8, seed=7)),
        ("mh", MhConfig(iterations=300, burn_in=150, seed=7, mode="multifurcating",
                        prior=PriorSpec(kind="poisson-dirichlet"))),
    ])
    def test_deterministic_archives_hmc_and_multifurcating(self, rng, algo, cfg):
        truth = random_tree(5, "uniform-binary", 1.0, rng)
        data = sample_gaussian(tree_to_matrix(truth), 60, rng)
        init = random_tree(5, "uniform-binary", 1.0, RngStream(2))
        a1 = run_chain(data, init, algo, cfg)
        a2 = run_chain(data, init, algo, cfg)
        assert len(a1) > 0
        assert [r.to_json_dict() for r in a1.records] == \
            [r.to_json_dict() for r in a2.records]
        assert a1.trace == a2.trace
        assert a1.provenance == a2.provenance

    @pytest.mark.parametrize("algo,cfg", [
        ("mh", MhConfig(iterations=60, burn_in=20, seed=5)),
        ("mh", MhConfig(iterations=60, burn_in=20, seed=5, mode="multifurcating",
                        prior=PriorSpec(kind="poisson-dirichlet"))),
        ("hmc", HmcConfig(iterations=12, burn_in=4, step_size=0.02,
                          leapfrog_steps=10, seed=5)),
    ])
    def test_one_topology_per_kept_record(self, algo, cfg, monkeypatch):
        # proposals and scorings price the prior from split masks; only kept
        # records build topologies, each distinct split set is validated
        # once per chain, and every record keeps the validated object
        truth = random_tree(6, "uniform-binary", 1.0, RngStream(31))
        data = sample_gaussian(tree_to_matrix(truth), 60, RngStream(32))
        init = random_tree(6, "uniform-binary", 1.0, RngStream(33))
        validated = []
        real = Topology.__post_init__
        monkeypatch.setattr(Topology, "__post_init__",
                            lambda self: validated.append(self) or real(self))
        archive = run_chain(data, init, algo, cfg)
        archive.validate()
        assert len(archive) == cfg.iterations - cfg.burn_in
        by_splits = {t.splits: t for t in validated}
        assert len(by_splits) == len(validated)
        assert set(by_splits) == {t.topology.splits for t in archive.trees()}
        assert len(validated) < len(archive)  # the chains revisit topologies
        assert all(t.topology is by_splits[t.topology.splits] for t in archive.trees())

    @pytest.mark.parametrize("cfg", [
        MhConfig(iterations=2000, burn_in=0, seed=8, prior=PriorSpec(beta=0.0)),
        MhConfig(iterations=2000, burn_in=0, seed=9, mode="multifurcating",
                 prior=PriorSpec(kind="poisson-dirichlet", theta=1.5, alpha_pd=0.25)),
        HmcConfig(iterations=300, burn_in=0, step_size=0.05, leapfrog_steps=10, seed=8,
                  prior=PriorSpec(beta=0.0)),
        HmcConfig(iterations=300, burn_in=0, step_size=0.05, leapfrog_steps=10, seed=9,
                  prior=PriorSpec(kind="poisson-dirichlet", theta=1.5, alpha_pd=0.25)),
    ])
    def test_record_log_prior_is_a_function_of_its_tree(self, cfg):
        # a kept record's prior is priced from its tree alone, to the bit,
        # whatever moves the chain made to reach it: both kernels sum it in
        # tree_log_prior's order, ascending mask, also after HMC boundary
        # reassignments reorder the slots
        from treecov.priors import tree_log_prior

        truth = random_tree(8, "uniform-binary", 1.0, RngStream(51))
        stats = suff_stats(sample_gaussian(tree_to_matrix(truth), 80, RngStream(52)))
        init = random_tree(8, "uniform-binary", 1.0, RngStream(53))
        archive = run_chain(stats, init, cfg.algo, cfg)
        assert archive.provenance["accept_topology" if cfg.algo == "mh" else "accept_hmc"] > 0
        for record in archive.records:
            assert record.log_prior == tree_log_prior(record.tree(), cfg.prior)
            assert record.log_prior == ChainState(record.tree(), stats, cfg.prior).log_prior

    def test_one_leaf_is_rejected(self):
        # one leaf's edge and the root edge share mask 1: a chain would store
        # them as one coordinate and record scores of another tree
        tree = star_tree((1.0,), 0.5)
        data = sample_gaussian(tree_to_matrix(tree), 5, RngStream(2))
        cfg = MhConfig(iterations=20, burn_in=10, mode="multifurcating",
                       prior=PriorSpec(kind="poisson-dirichlet"))
        with pytest.raises(InvalidArgumentError, match="p >= 2"):
            run_chain(data, tree, "mh", cfg)

    def test_all_states_valid(self, rng):
        truth = random_tree(4, "uniform-binary", 1.0, rng)
        data = sample_gaussian(tree_to_matrix(truth), 50, rng)
        init = random_tree(4, "uniform-binary", 1.0, RngStream(3))
        archive = run_chain(data, init, "mh",
                            MhConfig(iterations=300, burn_in=100, seed=1))
        for t in archive.trees():
            assert validate_ultrametric(tree_to_matrix(t)).valid
            assert t.topology.is_resolved  # binary mode stays resolved

    def test_multifurcating_mode_reaches_boundaries(self, rng):
        init = random_tree(5, "uniform-binary", 1.0, RngStream(4))
        cfg = MhConfig(iterations=2000, burn_in=100, seed=2,
                       mode="multifurcating",
                       prior=PriorSpec(kind="poisson-dirichlet"))
        archive = run_chain(None, init, "mh", cfg)
        sizes = {len(r.splits) for r in archive.records}
        assert any(k < 3 for k in sizes)
        assert 3 in sizes  # dimension moves also regrow splits

    def test_multifurcating_prior_recovery_exact(self):
        # with no data the chain must reproduce the enumerated topology
        # prior; this pins the drop/grow acceptance factors
        import math

        from _oracles import enumerate_all_topologies
        from treecov.priors import pd_log_prior

        cfg = MhConfig(iterations=60000, burn_in=4000, thin=8, seed=46,
                       mode="multifurcating",
                       prior=PriorSpec(kind="poisson-dirichlet"))
        init = random_tree(4, "uniform-binary", 1.0, RngStream(45))
        archive = run_chain(None, init, "mh", cfg)
        counts = Counter(len(r.splits) for r in archive.records)
        n = len(archive.records)
        exact = {0: 0.0, 1: 0.0, 2: 0.0}
        for topo in enumerate_all_topologies(4):
            exact[len(topo.splits)] += math.exp(pd_log_prior(topo, 1.0, 0.0))
        for k, prob in exact.items():
            assert abs(counts.get(k, 0) / n - prob) < 0.025

    def test_trace_covers_burn_in(self, rng):
        init = random_tree(3, "uniform-binary", 1.0, RngStream(5))
        cfg = MhConfig(iterations=100, burn_in=90, seed=0)
        archive = run_chain(None, init, "mh", cfg)
        assert len(archive.trace) == 100
        assert len(archive.records) == 10

    def test_binary_requires_resolved_init(self):
        from treecov.treespace import star_tree

        with pytest.raises(InvalidTreeError):
            run_chain(None, star_tree((1, 1, 1, 1), 0.5), "mh",
                      MhConfig(iterations=10, burn_in=0))

    def test_hmc_requires_resolved_init(self):
        with pytest.raises(InvalidTreeError, match="resolved"):
            run_chain(None, star_tree((1, 1, 1, 1), 0.5), "hmc",
                      HmcConfig(iterations=2, burn_in=0, leapfrog_steps=2))

    @pytest.mark.parametrize("algo,cfg,message", [
        ("gibbs", MhConfig(iterations=10, burn_in=0), "unknown algo 'gibbs'"),
        ("mh", HmcConfig(iterations=2, burn_in=0), "requires an MhConfig"),
        ("hmc", MhConfig(iterations=10, burn_in=0), "requires an HmcConfig"),
    ])
    def test_algo_and_config_must_match(self, algo, cfg, message):
        init = random_tree(4, "uniform-binary", 1.0, RngStream(3))
        with pytest.raises(InvalidArgumentError, match=message):
            run_chain(None, init, algo, cfg)

    def test_p_mismatch_rejected(self, rng):
        truth = random_tree(4, "uniform-binary", 1.0, rng)
        data = sample_gaussian(tree_to_matrix(truth), 10, rng)
        init = random_tree(5, "uniform-binary", 1.0, rng)
        with pytest.raises(InvalidArgumentError):
            run_chain(data, init, "mh", MhConfig(iterations=10, burn_in=0))

    @pytest.mark.parametrize("algo,cfg", [
        ("mh", MhConfig(iterations=10, burn_in=0)),
        ("hmc", HmcConfig(iterations=2, burn_in=0, leapfrog_steps=2)),
    ])
    def test_stats_p_mismatch_rejected(self, algo, cfg):
        init = random_tree(5, "uniform-binary", 1.0, RngStream(3))
        for stats in (SufficientStats(10, np.eye(4)), SufficientStats.empty(4)):
            with pytest.raises(InvalidArgumentError):
                run_chain(stats, init, algo, cfg)

    def test_small_instance_posterior_recovery(self):
        # p=3 with plenty of data: the true topology dominates the retained
        # samples across seeds
        truth = random_tree(3, "uniform-binary", 1.0, RngStream(71))
        data = sample_gaussian(tree_to_matrix(truth), 1000, RngStream(72))
        true_masks = tuple(truth.topology.sorted_masks())
        hits = total = 0
        for seed in range(20):
            init = random_tree(3, "uniform-binary", 1.0, RngStream(100 + seed))
            archive = run_chain(data, init, "mh",
                                MhConfig(iterations=1200, burn_in=600,
                                         seed=seed))
            for r in archive.records:
                total += 1
                if tuple(s.mask for s in r.splits) == true_masks:
                    hits += 1
        assert hits / total > 0.95

    def test_recorded_log_values_replayable(self, rng):
        # every archived log value must be reproducible from the stored tree
        from treecov.model import gaussian_loglik
        from treecov.priors import tree_log_prior

        truth = random_tree(4, "uniform-binary", 1.0, rng)
        data = sample_gaussian(tree_to_matrix(truth), 60, rng)
        stats = suff_stats(data)
        cfg = MhConfig(iterations=300, burn_in=200, seed=9)
        archive = run_chain(data, random_tree(4, "uniform-binary", 1.0,
                                              RngStream(8)), "mh", cfg)
        for r in archive.records[::17]:
            t = r.tree()
            assert gaussian_loglik(stats, tree_to_matrix(t)) == \
                pytest.approx(r.log_lik, abs=1e-9)
            assert tree_log_prior(t, cfg.prior) == \
                pytest.approx(r.log_prior, abs=1e-9)

    @pytest.mark.parametrize("algo,cfg", [
        ("mh", MhConfig(iterations=300, burn_in=100, seed=4,
                        prior=PriorSpec(beta=0.0, edge_mean=2.0))),
        ("hmc", HmcConfig(iterations=40, burn_in=10, step_size=0.02,
                          leapfrog_steps=10, seed=4,
                          prior=PriorSpec(beta=0.0, edge_mean=2.0))),
    ])
    def test_recorded_log_prior_is_configured_prior(self, algo, cfg):
        # the cached values of every kept state match a fresh evaluation
        from treecov.model import gaussian_loglik
        from treecov.priors import tree_log_prior

        truth = random_tree(5, "uniform-binary", 1.0, RngStream(21))
        data = sample_gaussian(tree_to_matrix(truth), 60, RngStream(22))
        archive = run_chain(data, truth, algo, cfg)
        assert len(archive) > 0
        for r in archive.records:
            assert r.log_prior == pytest.approx(
                tree_log_prior(r.tree(), cfg.prior), rel=1e-12, abs=0.0)
            assert r.log_lik == pytest.approx(
                gaussian_loglik(suff_stats(data), tree_to_matrix(r.tree())),
                rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("algo,cfg", KEPT_CHAINS)
    def test_kept_records_share_splits_and_topologies(self, algo, cfg):
        # a chain builds one Split per distinct split and one Topology per
        # distinct split set across its kept records; each tree is still
        # the one a fresh table builds
        archive = kept_chain(algo, cfg)
        splits, topologies = {}, {}
        for r in archive.records:
            t = r.tree()
            assert t.topology is topologies.setdefault(t.topology.splits, t.topology)
            for s in (*t.topology.splits, *t.internal_lengths, *r.splits):
                assert s is splits.setdefault(s, s)
            assert r.splits is t.topology.sorted_splits()
            lengths = {s.mask: v for s, v in t.coordinates()}
            assert t == _tree_from_masks(t.p, lengths)
        assert len(topologies) < len(archive)

    def test_archive_roundtrip_disk(self, tmp_path):
        # save, load and save again give the same bytes for every kernel
        from treecov.archive import PosteriorArchive

        path, again = tmp_path / "arch.jsonl", tmp_path / "again.jsonl"
        tpath = tmp_path / "trace.csv"
        for algo, cfg in KEPT_CHAINS:
            archive = kept_chain(algo, cfg)
            archive.save_jsonl(path)
            back = PosteriorArchive.load_jsonl(path)
            assert [r.to_json_dict() for r in back.records] == \
                [r.to_json_dict() for r in archive.records]
            back.save_jsonl(again)
            assert again.read_bytes() == path.read_bytes()
            archive.save_trace_csv(tpath)
            assert PosteriorArchive.load_trace_csv(tpath) == archive.trace
