import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import enumerate_all_topologies, set_partitions
from treecov.errors import InvalidArgumentError
from treecov.priors import (
    PriorSpec,
    beta_split_log_prior,
    edge_length_log_prior,
    pd_log_prior,
    sample_topology_prior,
    tree_log_prior,
)
from treecov.rng import RngStream
from treecov.treespace import (
    LaminarTree,
    Split,
    Topology,
    Tree,
    double_factorial,
    enumerate_topologies,
    random_tree,
    star_tree,
)


class TestBetaSplitting:
    def test_p3_uniform(self):
        for topo in enumerate_topologies(3):
            assert beta_split_log_prior(topo, -1.5) == pytest.approx(math.log(1 / 3))

    @pytest.mark.parametrize("p", [3, 4, 5])
    @pytest.mark.parametrize("beta", [-1.5, 0.0, 10.0])
    def test_normalization(self, p, beta):
        total = math.fsum(
            math.exp(beta_split_log_prior(t, beta)) for t in enumerate_topologies(p)
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_uniform_value(self, p):
        t = random_tree(p, "uniform-binary", 1.0, RngStream(p)).topology
        expected = -math.log(double_factorial(2 * p - 3))
        assert beta_split_log_prior(t, -1.5) == pytest.approx(expected, abs=1e-10)

    def test_unresolved_rejected(self):
        star = Topology(4)
        with pytest.raises(InvalidArgumentError):
            beta_split_log_prior(star, -1.5)

    def test_beta_domain(self):
        topo = enumerate_topologies(3)[0]
        with pytest.raises(InvalidArgumentError):
            beta_split_log_prior(topo, -2.0)
        with pytest.raises(InvalidArgumentError):
            beta_split_log_prior(topo, math.inf)


class TestPoissonDirichlet:
    def test_size_two_block_certain(self):
        topo = Topology.from_leaf_sets(3, [[1, 2]])
        # the (1,2)->{1},{2} event contributes log 1
        resolved_part = pd_log_prior(topo, 1.0, 0.0)
        star = Topology(3)
        # the only difference between the two shapes is the top event
        assert math.isfinite(resolved_part)
        assert math.exp(pd_log_prior(star, 1.0, 0.0)) == pytest.approx(0.25)
        assert math.exp(resolved_part) == pytest.approx(0.25)

    def test_size3_event_probabilities(self):
        # all four shapes on three leaves are equally likely at (1, 0)
        total = sum(
            math.exp(pd_log_prior(t, 1.0, 0.0)) for t in enumerate_all_topologies(3)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("params", [(1.0, 0.0), (2.0, 0.3)])
    @pytest.mark.parametrize("p", [3, 4])
    def test_normalization_all_shapes(self, p, params):
        theta, alpha = params
        total = math.fsum(
            math.exp(pd_log_prior(t, theta, alpha))
            for t in enumerate_all_topologies(p)
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_parameter_domain(self):
        topo = Topology(3)
        with pytest.raises(InvalidArgumentError):
            pd_log_prior(topo, 1.0, 1.0)
        with pytest.raises(InvalidArgumentError):
            pd_log_prior(topo, -0.5, 0.2)
        with pytest.raises(InvalidArgumentError):
            pd_log_prior(topo, math.nan, 0.0)


class TestMaskLevelPrior:
    """The containment tree of split masks given in any order prices them
    exactly as ``topology_log_prior`` prices their topology."""

    @settings(max_examples=80, deadline=None)
    @given(p=st.integers(2, 14), seed=st.integers(0, 2 ** 32 - 1),
           beta=st.floats(-1.9, 5.0), theta=st.floats(0.05, 5.0),
           alpha_pd=st.floats(0.0, 0.9), keep=st.floats(0.0, 1.0))
    def test_equals_topology_prior(self, p, seed, beta, theta, alpha_pd, keep):
        rng = RngStream(seed)
        resolved = random_tree(p, "uniform-binary", 1.0, rng).topology
        # any subset of a compatible split set is a multifurcating topology
        fewer = Topology(p, frozenset(s for s in resolved.splits if rng.uniform() < keep))
        pd = PriorSpec(kind="poisson-dirichlet", theta=theta, alpha_pd=alpha_pd)
        drawn = sample_topology_prior(p, pd, rng)
        beta_spec = PriorSpec(beta=beta)
        for spec, topologies in ((beta_spec, [resolved]),
                                 (pd, [resolved, fewer, drawn])):
            for topo in topologies:
                masks = rng.shuffled(topo.sorted_masks())
                assert LaminarTree(p, masks, spec.event_log_prob).log_prior() == \
                    spec.topology_log_prior(topo)
        assert beta_spec.topology_log_prior(resolved) == \
            beta_split_log_prior(resolved, beta)
        assert pd.topology_log_prior(fewer) == pd_log_prior(fewer, theta, alpha_pd)
        for topo in (fewer, drawn):
            if not topo.is_resolved:
                with pytest.raises(InvalidArgumentError):
                    beta_spec.topology_log_prior(topo)

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(3, 12), seed=st.integers(0, 2 ** 32 - 1), pd=st.booleans(),
           toggles=st.integers(0, 40))
    def test_sums_do_not_depend_on_order(self, p, seed, pd, toggles):
        # a tree reached by random toggles keeps its event terms, and a map
        # filled in shuffled order its lengths, in no particular order; both
        # prior sums still equal a fresh tree's and tree_log_prior, exactly
        rng = RngStream(seed)
        spec = PriorSpec(kind="poisson-dirichlet", theta=1.5, alpha_pd=0.25) if pd \
            else PriorSpec(beta=0.0)
        laminar = LaminarTree(p, [], spec.event_log_prob)
        masks = set()

        def toggle(mask):
            laminar.toggle(mask)
            masks.symmetric_difference_update({mask})

        for _ in range(toggles):
            cands = laminar.candidates()
            if masks and (not cands or rng.uniform() < 0.5):
                toggle(sorted(masks)[rng.integers(len(masks))])
            else:
                toggle(cands[rng.integers(len(cands))])
        while not pd and len(masks) < p - 2:  # beta-splitting prices resolved trees
            cands = laminar.candidates()
            toggle(cands[rng.integers(len(cands))])
        internal = {Split(p, m): 0.01 + rng.exponential(1.0) for m in masks}
        tree = Tree(Topology(p, frozenset(internal)), internal,
                    tuple(0.01 + rng.exponential(1.0) for _ in range(p)), rng.exponential(1.0))
        lengths = dict(rng.shuffled([(s.mask, v) for s, v in tree.coordinates()]))
        fresh = LaminarTree(p, sorted(masks), spec.event_log_prob)
        assert laminar.events == fresh.events
        assert laminar.log_prior() == fresh.log_prior() == spec.topology_log_prior(tree.topology)
        assert spec.log_prior(laminar, lengths) == tree_log_prior(tree, spec)


class TestEdgeLengthPrior:
    def test_zero_length_zero_density_contribution(self):
        t = star_tree((1.0, 1.0), root_length=0.0)
        # root at 0 contributes log(1) = 0 with unit mean
        expected = -(1.0 + 1.0) - 2 * math.log(1.0)
        assert edge_length_log_prior(t, 1.0) == pytest.approx(expected)

    def test_closed_form_all_equal(self, tree_factory):
        a = 0.7
        t = tree_factory(4, {(1, 2): a, (1, 2, 3): a},
                         leaf_lengths=(a, a, a, a), root_length=a)
        q = 7
        assert edge_length_log_prior(t, a) == pytest.approx(
            q * (-math.log(a) - 1.0), abs=1e-12
        )

    def test_matches_naive_sum(self, rng):
        for _ in range(50):
            p = 2 + rng.integers(8)
            t = random_tree(p, "uniform-binary", 1.0, rng)
            a = 0.5 + rng.uniform()
            naive = math.fsum(
                -x / a - math.log(a)
                for x in [t.root_length, *t.leaf_lengths,
                          *t.internal_lengths.values()]
            )
            assert edge_length_log_prior(t, a) == pytest.approx(naive, abs=1e-12)

    def test_flat_prior_is_zero(self, rng):
        t = random_tree(5, "uniform-binary", 1.0, rng)
        assert edge_length_log_prior(t, math.inf) == 0.0
        with pytest.raises(InvalidArgumentError):
            edge_length_log_prior(t, math.nan)

    def test_tree_log_prior_combines(self, rng):
        t = random_tree(5, "uniform-binary", 1.0, rng)
        spec = PriorSpec()
        assert tree_log_prior(t, spec) == pytest.approx(
            beta_split_log_prior(t.topology, spec.beta)
            + edge_length_log_prior(t, spec.edge_mean)
        )


class TestTopologySampler:
    def test_p2_always_empty(self, rng):
        for _ in range(20):
            t = sample_topology_prior(2, PriorSpec(), rng)
            assert not t.splits

    def test_beta_uniform_frequencies(self):
        rng = RngStream(88)
        draws = 30000
        counts = Counter()
        for _ in range(draws):
            t = sample_topology_prior(4, PriorSpec(), rng)
            counts[tuple(t.sorted_masks())] += 1
        assert len(counts) == 15
        for c in counts.values():
            assert abs(c / draws - 1 / 15) < 0.01

    def test_pd_star_frequency_p3(self):
        rng = RngStream(99)
        spec = PriorSpec(kind="poisson-dirichlet", theta=1.0, alpha_pd=0.0)
        draws = 30000
        stars = sum(
            1 for _ in range(draws)
            if not sample_topology_prior(3, spec, rng).splits
        )
        assert abs(stars / draws - 0.25) < 0.01

    def test_frequencies_match_density(self):
        # every shape frequency within 3 Monte-Carlo errors of its density
        rng = RngStream(123)
        spec = PriorSpec(kind="poisson-dirichlet", theta=2.0, alpha_pd=0.3)
        draws = 40000
        counts = Counter()
        for _ in range(draws):
            t = sample_topology_prior(4, spec, rng)
            counts[tuple(t.sorted_masks())] += 1
        for topo in enumerate_all_topologies(4):
            prob = math.exp(pd_log_prior(topo, 2.0, 0.3))
            freq = counts.get(tuple(topo.sorted_masks()), 0) / draws
            se = math.sqrt(prob * (1 - prob) / draws)
            assert abs(freq - prob) < 3.5 * se + 1e-4

    def test_markov_consistency(self):
        # conditionally on the first fragmentation being {1,2}|{3,4,5}, the
        # subtree on {3,4,5} follows the same family law
        rng = RngStream(321)
        spec = PriorSpec()
        draws = 30000
        sub = Counter()
        total = 0
        from treecov.treespace import Split

        top_block = Split.from_leaves(5, (3, 4, 5))
        for _ in range(draws):
            t = sample_topology_prior(5, spec, rng)
            if top_block in t.splits and Split.from_leaves(5, (1, 2)) in t.splits:
                total += 1
                inner = [s for s in t.splits
                         if s.size == 2 and s.mask & top_block.mask == s.mask]
                sub[inner[0].leaves()] += 1
        # the conditioning event has probability 3/105 under the uniform law
        assert total > 600
        for pair, c in sub.items():
            assert abs(c / total - 1 / 3) < 3 / math.sqrt(total)


class TestPriorSpec:
    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(InvalidArgumentError):
            PriorSpec(beta=-2.5)
        with pytest.raises(InvalidArgumentError):
            PriorSpec(beta=math.inf)
        with pytest.raises(InvalidArgumentError):
            PriorSpec(kind="poisson-dirichlet", alpha_pd=1.0)
        with pytest.raises(InvalidArgumentError):
            PriorSpec(edge_mean=0.0)
        with pytest.raises(InvalidArgumentError):
            PriorSpec(kind="bogus")
        with pytest.raises(InvalidArgumentError):
            PriorSpec(kind="poisson-dirichlet", theta=-0.5, alpha_pd=0.4)
        with pytest.raises(InvalidArgumentError):
            PriorSpec(edge_mean=math.nan)
        with pytest.raises(InvalidArgumentError):
            PriorSpec(theta=math.nan)
        # an infinite mean is the flat length prior
        assert PriorSpec(edge_mean=math.inf).edge_mean == math.inf


def test_set_partitions_oracle_counts():
    # Bell numbers 1, 2, 5, 15, 52
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        assert len(set_partitions(tuple(range(n)))) == bell
