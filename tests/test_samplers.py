import math
from collections import Counter

import numpy as np
import pytest

from _oracles import ks_statistic_exponential
from treecov.errors import (
    InvalidArgumentError,
    InvalidTreeError,
    NotPositiveDefiniteError,
)
from treecov.model import SufficientStats, gaussian_loglik, sample_gaussian, suff_stats
from treecov.priors import PriorSpec
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
from treecov.treespace import Split, Topology, Tree, random_tree, star_tree
from treecov.ultrametric import tree_to_matrix, validate_ultrametric


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

    def test_hmc_validation(self):
        with pytest.raises(InvalidArgumentError):
            HmcConfig(leapfrog_steps=0)
        with pytest.raises(InvalidArgumentError):
            HmcConfig(step_size=0.0)
        with pytest.raises(InvalidArgumentError):
            HmcConfig(delta=-0.1)


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

    @pytest.mark.parametrize("mode", ["binary", "multifurcating"])
    def test_at_most_two_factorizations_per_iteration(self, rng, monkeypatch, mode):
        import treecov.model as model

        calls = []
        real = model._factor
        monkeypatch.setattr(model, "_factor", lambda *a: calls.append(a) or real(*a))
        truth = random_tree(8, "uniform-binary", 1.0, rng)
        stats = suff_stats(sample_gaussian(tree_to_matrix(truth), 80, rng))
        cfg = MhConfig(mode=mode, prior=PriorSpec(kind="poisson-dirichlet"))
        state = ChainState(random_tree(8, "uniform-binary", 1.0, rng), stats, cfg.prior)
        for _ in range(40):
            calls.clear()
            mh_topology_update(state, stats, cfg, rng)
            mh_length_update(state, stats, cfg, rng)
            assert len(calls) <= 2
            # each sweep ends on the exact full-factorization value
            assert state.log_lik == gaussian_loglik(stats, state.kernel.sigma)
        assert state.accepted_lengths > 0
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

    def test_energy_drift_second_order(self, rng):
        t = random_tree(4, "uniform-binary", 2.0, RngStream(12))
        stats = suff_stats(sample_gaussian(tree_to_matrix(t), 40, RngStream(13)))
        from treecov.samplers import _kinetic, _true_potential

        drifts = []
        for eps, steps in ((0.004, 50), (0.002, 100)):  # same trajectory length
            cfg = HmcConfig(step_size=eps, leapfrog_steps=steps, delta=0.0)
            state = HmcState(t, cfg)
            state.a = RngStream(14).generator.normal(size=len(state.masks)) * 0.5
            h0 = _true_potential(state, stats, cfg) + _kinetic(state)
            for _ in range(steps):
                hmc_leapfrog(state, stats, cfg, RngStream(15))
            h1 = _true_potential(state, stats, cfg) + _kinetic(state)
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

    def test_archive_roundtrip_disk(self, rng, tmp_path):
        from treecov.archive import PosteriorArchive

        init = random_tree(4, "uniform-binary", 1.0, RngStream(6))
        archive = run_chain(None, init, "mh",
                            MhConfig(iterations=60, burn_in=40, seed=3))
        path = tmp_path / "arch.jsonl"
        archive.save_jsonl(path)
        back = PosteriorArchive.load_jsonl(path)
        assert [r.to_json_dict() for r in back.records] == \
            [r.to_json_dict() for r in archive.records]
        tpath = tmp_path / "trace.csv"
        archive.save_trace_csv(tpath)
        assert PosteriorArchive.load_trace_csv(tpath) == archive.trace
