import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import brute_force_internal_distance, fraction_refine_pairs
from treecov import geometry
from treecov.errors import DimensionError, InvalidArgumentError
from treecov.geometry import (
    MEAN_PASSES,
    MeanConfig,
    bhv_distance,
    frechet_mean,
    geodesic_point,
    matrix_distance,
    tree_distance,
)
from treecov.model import sample_gaussian
from treecov.rng import RngStream
from treecov.samplers import MhConfig, run_chain
from treecov.treespace import (
    Split, Topology, Tree, random_tree, resolution_candidates, star_tree)
from treecov.ultrametric import tree_to_matrix


def single_split_tree(p, leaves, length, leaf_lengths=None, root=0.5):
    s = Split.from_leaves(p, leaves)
    ll = tuple(leaf_lengths if leaf_lengths else [1.0] * p)
    return Tree(Topology(p, frozenset([s])), {s: length}, ll, root)


def drop_random_splits(tree, count, rng):
    splits = sorted(tree.internal_lengths, key=lambda s: s.mask)
    count = min(count, len(splits))
    for _ in range(count):
        splits.pop(rng.integers(len(splits)))
    keep = {s: tree.internal_lengths[s] for s in splits}
    return Tree(Topology(tree.p, frozenset(keep)), keep,
                tree.leaf_lengths, tree.root_length)


def random_pair(rng, p):
    t1 = random_tree(p, "uniform-binary", 1.0, rng)
    t2 = random_tree(p, "uniform-binary", 1.0, rng)
    if p > 3 and rng.uniform() < 0.4:
        t1 = drop_random_splits(t1, 1, rng)
    if p > 3 and rng.uniform() < 0.4:
        t2 = drop_random_splits(t2, 1, rng)
    return t1, t2


def shaped_tree(p, lengths, rng):
    """A random tree, sometimes unresolved, with internal lengths that are
    random, all equal (ties in every ratio), or partly near 1e-9."""
    t = random_tree(p, "uniform-binary", 1.0, rng)
    if p > 3 and rng.uniform() < 0.5:
        t = drop_random_splits(t, rng.integers(p - 2), rng)
    internal = dict(t.internal_lengths)
    for s in internal:
        if lengths == "equal":
            internal[s] = 1.0
        elif lengths == "tiny" and rng.uniform() < 0.5:
            internal[s] = 1e-9 * (1.0 + rng.uniform())
    return Tree(t.topology, internal, t.leaf_lengths, t.root_length)


def shaped_length(lengths, rng):
    """One internal length drawn like :func:`shaped_tree`'s."""
    if lengths == "equal":
        return 1.0
    if lengths == "tiny" and rng.uniform() < 0.5:
        return 1e-9 * (1.0 + rng.uniform())
    return rng.exponential()


def regrafted(tree, moves, lengths, rng):
    """``tree``, resolved, after ``moves`` swaps of one split for another of
    its two alternatives from ``resolution_candidates``.  Both trees keep
    every other split, so their support falls into several regions of
    common splits."""
    internal = dict(tree.internal_lengths)
    for _ in range(moves):
        removed = sorted(internal, key=lambda s: s.mask)[rng.integers(len(internal))]
        swaps = [s for s in resolution_candidates(Topology(tree.p, frozenset(internal)),
                                                  removed) if s != removed]
        del internal[removed]
        internal[swaps[rng.integers(len(swaps))]] = shaped_length(lengths, rng)
    return Tree(Topology(tree.p, frozenset(internal)), internal,
                tree.leaf_lengths, tree.root_length)


def rearranged_pair(p, lengths, moves, rng):
    """A resolved tree with shaped lengths and the tree ``moves`` regrafts
    away; each then loses one split with probability 0.4."""
    t = random_tree(p, "uniform-binary", 1.0, rng)
    t1 = Tree(t.topology, {s: shaped_length(lengths, rng) for s in t.internal_lengths},
              t.leaf_lengths, t.root_length)
    t2 = regrafted(t1, moves, lengths, rng)
    if rng.uniform() < 0.4:
        t1 = drop_random_splits(t1, 1, rng)
    if rng.uniform() < 0.4:
        t2 = drop_random_splits(t2, 1, rng)
    return t1, t2


def clade_tree(p, lengths):
    """A tree with internal lengths ``{leaf tuple: length}``."""
    internal = {Split.from_leaves(p, c): v for c, v in lengths.items()}
    return Tree(Topology(p, frozenset(internal)), internal, (1.0,) * p, 0.5)


# Two regions, {1..7} and {8..12}, each one final pair: 2 splits against 4
# and 1 against 2, so both squared ratios are exactly 1/2 while the norm
# ratios sqrt(2)/2 and 1/sqrt(2) differ in the last bit.
REGION_CLADES = (
    [(1, 2), (1, 2, 3), (8, 9)],
    [(2, 4), (2, 4, 5), (2, 4, 5, 6), (2, 4, 5, 6, 7), (9, 10), (9, 10, 11)],
)
COMMON_CLADES = [tuple(range(1, 8)), tuple(range(8, 13))]
TIED_REGIONS = tuple(clade_tree(12, dict.fromkeys(COMMON_CLADES + cs, 1.0))
                     for cs in REGION_CLADES)
# The same regions at p = 14 plus a root region of ratio 1/3, with region
# {8..12} so short that every square underflows to 0: its pair has no
# ratio, so the whole support is refined at once.
UNDERFLOW_REGIONS = (
    clade_tree(14, {**dict.fromkeys(COMMON_CLADES + [(1, 2), (1, 2, 3)], 1.0),
                    (8, 9): 1e-170, (1, 2, 3, 4, 5, 6, 7, 13): 1.0}),
    clade_tree(14, {**dict.fromkeys(COMMON_CLADES + REGION_CLADES[1][:4], 1.0),
                    (9, 10): 1e-170, (9, 10, 11): 1e-170, (8, 9, 10, 11, 12, 13): 3.0}),
)


@st.composite
def rearranged_pairs(draw, p_max=20):
    p = draw(st.integers(3, p_max))
    lengths = draw(st.sampled_from(("random", "equal", "tiny")))
    rng = RngStream(draw(st.integers(0, 2 ** 32 - 1)))
    return rearranged_pair(p, lengths, draw(st.integers(1, 4)), rng)


@st.composite
def tree_tuples(draw, count, p_max=20):
    p = draw(st.integers(3, p_max))
    lengths = draw(st.sampled_from(("random", "equal", "tiny")))
    rng = RngStream(draw(st.integers(0, 2 ** 32 - 1)))
    return tuple(shaped_tree(p, lengths, rng) for _ in range(count))


def uncommon_items(t1, t2):
    """The (mask, length) lists that geodesic refinement starts from."""
    s1, s2 = t1.internal_lengths, t2.internal_lengths
    return ([(s.mask, l) for s, l in s1.items() if s not in s2],
            [(s.mask, l) for s, l in s2.items() if s not in s1])


def distance_or_error(t1, t2):
    try:
        return tree_distance(t1, t2)
    except InvalidArgumentError as exc:
        return str(exc)


def oracle_distance(t1, t2):
    with mock.patch.object(geometry, "_refine_pairs", fraction_refine_pairs):
        return distance_or_error(t1, t2)


class TestIntegerRefinement:
    """The integer max-flow refinement against the ``Fraction`` oracle."""

    @settings(max_examples=150, deadline=None)
    @given(pair=tree_tuples(2))
    def test_same_support_as_fraction_oracle(self, pair):
        t1, t2 = pair
        for a, b in ((t1, t2), (t2, t1)):
            assert geometry._refine_pairs(*uncommon_items(a, b)) == \
                fraction_refine_pairs(*uncommon_items(a, b))
            assert distance_or_error(a, b) == oracle_distance(a, b)

    @settings(max_examples=150, deadline=None)
    @given(pair=rearranged_pairs())
    @example(pair=TIED_REGIONS)
    @example(pair=UNDERFLOW_REGIONS)
    def test_decomposed_support_is_whole_refinement(self, pair):
        # trees that share most splits: refining each common-split region
        # on its own and merging by ratio gives the pairs, item for item,
        # of one refinement over all uncommon splits
        t1, t2 = pair
        for a, b in ((t1, t2), (t2, t1)):
            (x, _), (y, _) = geometry._coords(a), geometry._coords(b)
            _, pairs = geometry._support(x, y)
            assert [(A, B) for A, B, _, _ in pairs] == \
                fraction_refine_pairs(*uncommon_items(a, b))

    @pytest.mark.parametrize("p", [10, 20, 40])
    def test_seeded_distances_bit_identical(self, p):
        rng = RngStream(606, p)
        for _ in range(30):
            t1 = random_tree(p, "uniform-binary", 1.0, rng)
            t2 = random_tree(p, "uniform-binary", 1.0, rng)
            assert tree_distance(t1, t2) == oracle_distance(t1, t2)

    def test_final_pairs_not_solved_again(self, monkeypatch):
        # a pair that does not split is final: each pair is solved once
        calls = []
        real = geometry._split_pair
        monkeypatch.setattr(geometry, "_split_pair",
                            lambda A, B: calls.append((A, B)) or real(A, B))
        rng = RngStream(7)
        for _ in range(20):
            t1, t2 = random_pair(rng, 12)
            calls.clear()
            _, support = bhv_distance(t1, t2)
            solved = [(tuple(A), tuple(B)) for A, B in calls]
            assert len(solved) == len(set(solved))
            # a binary refinement tree whose leaves are the final pairs
            assert len(calls) == max(2 * len(support.pairs) - 1, 1)

    def test_each_region_solved_once(self, monkeypatch):
        # pairs a few regrafts apart span several regions, each refined as
        # a binary tree of its own: 2 * k_r - 1 solves for k_r final pairs
        calls = []
        real = geometry._split_pair
        monkeypatch.setattr(geometry, "_split_pair",
                            lambda A, B: calls.append((A, B)) or real(A, B))
        rng = RngStream(8)
        several = 0
        for i in range(30):
            t1, t2 = rearranged_pair(12, "random", 1 + i % 4, rng)
            (x, _), (y, _) = geometry._coords(t1), geometry._coords(t2)
            common = [(m, l, y[m]) for m, l in x.items() if m in y]
            regions = geometry._regions(common, *uncommon_items(t1, t2))
            calls.clear()
            solves = sum(max(2 * len(geometry._refine_pairs(A, B)) - 1, 1)
                         for A, B in regions)
            assert len(calls) == solves
            calls.clear()
            geometry._support(x, y)
            solved = [(tuple(A), tuple(B)) for A, B in calls]
            assert len(solved) == len(set(solved)) == solves
            several += len(regions) > 1
        assert several >= 10

    def test_near_zero_length_keeps_ratios_sorted(self, tree_factory):
        leaves = (1.0,) * 8
        t1 = tree_factory(8, {(3, 5, 6, 7, 8): 1.2278518400410308e-09,
                              (6, 7, 8): 0.24127945573267312,
                              (3, 5): 0.2770152326553761}, leaves)
        t2 = tree_factory(8, {(1, 2): 0.796092254369959,
                              (3, 4): 0.34962631782536846,
                              (1, 2, 7): 1.4122125108845533e-09,
                              (1, 2, 5, 7): 1.4534356735835886e-09,
                              (1, 2, 5, 6, 7): 1.034479673375221e-09,
                              (1, 2, 3, 4, 5, 6, 7): 0.8276863099259908}, leaves)
        assert tree_distance(t1, t2) == oracle_distance(t1, t2)

    @settings(max_examples=80, deadline=None)
    @given(trio=tree_tuples(3, p_max=12))
    def test_metric_axioms(self, trio):
        a, b, c = trio
        dab, dba = tree_distance(a, b), tree_distance(b, a)
        assert tree_distance(a, a) == 0.0
        assert dab == pytest.approx(dba, rel=1e-12, abs=1e-15)
        assert (dab > 0.0) == (a != b)
        scale = dab + tree_distance(a, c) + tree_distance(c, b)
        assert dab <= tree_distance(a, c) + tree_distance(c, b) + 1e-12 * scale


class TestBhvDistance:
    def test_same_orthant(self):
        t1 = single_split_tree(4, (1, 2), 0.5)
        t2 = single_split_tree(4, (1, 2), 0.3)
        d, support = bhv_distance(t1, t2)
        assert d == pytest.approx(0.2, abs=1e-15)
        assert not support.pairs

    def test_cone_path(self):
        t1 = single_split_tree(4, (1, 2), 0.5)
        t2 = single_split_tree(4, (1, 3), 0.3)
        d, support = bhv_distance(t1, t2)
        assert d == pytest.approx(0.8, abs=1e-15)
        assert len(support.pairs) == 1

    def test_identical(self, rng):
        t = random_tree(6, "uniform-binary", 1.0, rng)
        d, support = bhv_distance(t, t)
        assert d == 0.0
        assert not support.pairs

    def test_compatible_splits_euclidean(self):
        t1 = single_split_tree(4, (1, 2), 0.5)
        t2 = single_split_tree(4, (1, 2, 3), 0.4)
        d, _ = bhv_distance(t1, t2)
        assert d == pytest.approx(math.hypot(0.5, 0.4), abs=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            bhv_distance(random_tree(4, "uniform-binary", 1.0, rng),
                         random_tree(5, "uniform-binary", 1.0, rng))

    @pytest.mark.parametrize("p", [4, 5])
    def test_matches_brute_force(self, p):
        rng = RngStream(1234, p)
        for _ in range(60):
            t1, t2 = random_pair(rng, p)
            d, _ = bhv_distance(t1, t2)
            oracle = brute_force_internal_distance(t1, t2)
            assert d == pytest.approx(oracle, abs=1e-9)

    def test_support_invariants(self, rng):
        for _ in range(100):
            t1, t2 = random_pair(rng, 5)
            _, support = bhv_distance(t1, t2)
            only1 = {s for s in t1.internal_lengths if s not in t2.internal_lengths}
            only2 = {s for s in t2.internal_lengths if s not in t1.internal_lengths}
            src = [s for pr in support.pairs for s, _ in pr.source]
            tgt = [s for pr in support.pairs for s, _ in pr.target]
            assert set(src) == only1 and len(src) == len(only1)
            assert set(tgt) == only2 and len(tgt) == len(only2)
            bps = [pr.breakpoint for pr in support.pairs]
            assert all(x <= y + 1e-12 for x, y in zip(bps, bps[1:]))
            # each leg of the path is a compatible split set
            from treecov.treespace import set_compatible

            common = [s for s, _, _ in support.common]
            k = len(support.pairs)
            for leg in range(k + 1):
                active = list(common)
                for i, pr in enumerate(support.pairs):
                    if i < leg:
                        active.extend(s for s, _ in pr.target)
                    else:
                        active.extend(s for s, _ in pr.source)
                assert set_compatible(set(active))

    def test_unsorted_support_is_typed(self, monkeypatch):
        # a refinement that returns its pairs out of ratio order: the first
        # pair breaks at 0.9, the second at 0.1
        def unsorted(a_items, b_items):
            (m1, _), (m2, _) = a_items[0], b_items[0]
            return [([(m1, 0.9)], [(m2, 0.1)]), ([(m1, 0.1)], [(m2, 0.9)])]

        monkeypatch.setattr(geometry, "_refine_pairs", unsorted)
        t1 = single_split_tree(4, (1, 2), 0.5)
        t2 = single_split_tree(4, (1, 3), 0.3)
        with pytest.raises(InvalidArgumentError, match="unsorted ratios"):
            bhv_distance(t1, t2)

    def test_metric_axioms(self):
        rng = RngStream(77)
        for _ in range(300):
            a, b = random_pair(rng, 5)
            c, _ = random_pair(rng, 5)
            dab, _ = bhv_distance(a, b)
            dba, _ = bhv_distance(b, a)
            dac, _ = bhv_distance(a, c)
            dcb, _ = bhv_distance(c, b)
            assert dab == pytest.approx(dba, abs=1e-12)
            assert dab <= dac + dcb + 1e-9


class TestTreeDistance:
    def test_identical_zero(self, rng):
        t = random_tree(5, "uniform-binary", 1.0, rng)
        assert tree_distance(t, t) == 0.0

    def test_leaf_difference_adds(self):
        t1 = single_split_tree(4, (1, 2), 0.5, leaf_lengths=(1.0, 1, 1, 1))
        t2 = single_split_tree(4, (1, 2), 0.5, leaf_lengths=(1.4, 1, 1, 1))
        assert tree_distance(t1, t2) == pytest.approx(0.4, abs=1e-12)
        t3 = single_split_tree(4, (1, 2), 0.3, leaf_lengths=(1.4, 1, 1, 1))
        assert tree_distance(t1, t3) == pytest.approx(0.2 + 0.4, abs=1e-12)

    def test_l2_variant(self):
        t1 = single_split_tree(4, (1, 2), 0.5, leaf_lengths=(1.0, 1, 1, 1))
        t3 = single_split_tree(4, (1, 2), 0.3, leaf_lengths=(1.4, 1, 1, 1))
        assert tree_distance(t1, t3, combine="l2") == pytest.approx(
            math.hypot(0.2, 0.4), abs=1e-12
        )

    def test_triangle_inequality(self):
        rng = RngStream(99)
        for _ in range(300):
            a, b = random_pair(rng, 5)
            c = random_tree(5, "uniform-binary", 1.0, rng)
            assert tree_distance(a, b) <= \
                tree_distance(a, c) + tree_distance(c, b) + 1e-9


class TestMatrixDistance:
    def test_zero_on_equal(self, rng):
        m = tree_to_matrix(random_tree(5, "uniform-binary", 1.0, rng))
        assert matrix_distance(m, m) == 0.0

    def test_single_axis_shift(self, rng, tree_factory):
        t = tree_factory(4, {(1, 2): 0.5, (1, 2, 3): 0.3})
        m = tree_to_matrix(t).values
        s = Split.from_leaves(4, (1, 2))
        delta = 0.07
        bumped = m.copy()
        idx = np.array(s.leaves()) - 1
        bumped[np.ix_(idx, idx)] += delta
        assert matrix_distance(m, bumped) == pytest.approx(delta, abs=1e-10)

    def test_permutation_isometry(self):
        rng = RngStream(31)
        for _ in range(40):
            p = 4 + rng.integers(4)
            m1 = tree_to_matrix(random_tree(p, "uniform-binary", 1.0, rng)).values
            m2 = tree_to_matrix(random_tree(p, "uniform-binary", 1.0, rng)).values
            perm = np.array(rng.shuffled(list(range(p))))
            pm1 = m1[np.ix_(perm, perm)]
            pm2 = m2[np.ix_(perm, perm)]
            assert matrix_distance(pm1, pm2) == pytest.approx(
                matrix_distance(m1, m2), abs=1e-10
            )


def assert_fully_validated(tree):
    """The tree's topology survives the validating constructor unchanged."""
    rebuilt = Topology(tree.p, tree.topology.splits)
    assert rebuilt == tree.topology and hash(rebuilt) == hash(tree.topology)
    assert Tree(rebuilt, tree.internal_lengths, tree.leaf_lengths,
                tree.root_length) == tree


class TestGeodesicPoint:
    @pytest.mark.parametrize("p", [4, 8, 20])
    def test_points_pass_full_validation(self, p):
        rng = RngStream(31, p)
        for _ in range(10):
            t1, t2 = random_pair(rng, p)
            for k in range(1, 10):
                assert_fully_validated(geodesic_point(t1, t2, k / 10))

    def test_endpoints(self, rng):
        t1, t2 = random_pair(rng, 5)
        assert geodesic_point(t1, t2, 0.0) == t1
        assert geodesic_point(t1, t2, 1.0) == t2

    def test_same_orthant_linear(self, tree_factory):
        t1 = tree_factory(4, {(1, 2): 0.5}, leaf_lengths=(1, 1, 1, 1))
        t2 = tree_factory(4, {(1, 2): 0.9}, leaf_lengths=(2, 1, 1, 1))
        mid = geodesic_point(t1, t2, 0.5)
        assert mid.internal_lengths[Split.from_leaves(4, (1, 2))] == pytest.approx(0.7)
        assert mid.leaf_lengths[0] == pytest.approx(1.5)

    def test_cone_crossing(self):
        t1 = single_split_tree(4, (1, 2), 0.5)
        t2 = single_split_tree(4, (1, 3), 0.3)
        at_origin = geodesic_point(t1, t2, 0.625)
        assert len(at_origin.internal_lengths) == 0
        before = geodesic_point(t1, t2, 0.5)
        assert set(before.internal_lengths) == {Split.from_leaves(4, (1, 2))}

    def test_proportional_distance(self, rng):
        for _ in range(40):
            t1, t2 = random_pair(rng, 5)
            d = tree_distance(t1, t2)
            for s in (0.25, 0.5, 0.8):
                g = geodesic_point(t1, t2, s)
                assert tree_distance(t1, g) == pytest.approx(s * d, abs=1e-9)

    def test_segment_scaling(self, rng):
        for _ in range(20):
            t1, t2 = random_pair(rng, 5)
            d = tree_distance(t1, t2)
            g1 = geodesic_point(t1, t2, 0.3)
            g2 = geodesic_point(t1, t2, 0.7)
            assert tree_distance(g1, g2) == pytest.approx(0.4 * d, abs=1e-9)

    def test_out_of_range(self, rng):
        t1, t2 = random_pair(rng, 4)
        with pytest.raises(InvalidArgumentError):
            geodesic_point(t1, t2, 1.5)


def geodesic_steps(trees, order):
    """The inductive mean from ``trees[0]``, stepping a fraction ``1/(k+1)``
    along the geodesic toward tree ``order[k-1]`` at step ``k``."""
    coords = [geometry._coords(t) for t in trees]
    x, u = coords[0]
    for k, i in enumerate(order, 1):
        y, v = coords[i]
        if y != x or v != u:
            x, u = geometry._point(*geometry._support(x, y), u, v, 1.0 / (k + 1))
    return geometry._tree_from_masks(trees[0].p, x, u)


class TestFrechetMean:
    def test_identical_inputs(self, rng):
        t = random_tree(5, "uniform-binary", 1.0, rng)
        assert frechet_mean([t, t, t]) == t

    def test_two_trees_same_orthant_average(self, tree_factory):
        t1 = tree_factory(4, {(1, 2): 0.5}, leaf_lengths=(1, 1, 1, 1), root_length=0.2)
        t2 = tree_factory(4, {(1, 2): 0.9}, leaf_lengths=(2, 1, 1, 1), root_length=0.6)
        mean = frechet_mean([t1, t2], MeanConfig(max_iterations=4001))
        s = Split.from_leaves(4, (1, 2))
        assert mean.internal_lengths[s] == pytest.approx(0.7, abs=5e-4)
        assert mean.leaf_lengths[0] == pytest.approx(1.5, abs=5e-4)
        assert mean.root_length == pytest.approx(0.4, abs=5e-4)

    def test_balanced_copies_converge_to_average(self, tree_factory):
        t1 = tree_factory(4, {(1, 2): 0.4})
        t2 = tree_factory(4, {(1, 2): 0.8})
        trees = [t1] * 4 + [t2] * 4
        mean = frechet_mean(trees, MeanConfig(max_iterations=6000))
        assert mean.internal_lengths[Split.from_leaves(4, (1, 2))] == \
            pytest.approx(0.6, abs=2e-3)

    def test_order_invariance(self, rng):
        trees = [random_tree(4, "uniform-binary", 1.0, rng) for _ in range(6)]
        cfg = MeanConfig(max_iterations=9000)
        m1 = frechet_mean(trees, cfg)
        m2 = frechet_mean(trees[::-1], cfg)
        assert tree_distance(m1, m2) < 5e-3

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            frechet_mean([])

    def test_config_is_one_step_cap(self):
        assert [f.name for f in dataclasses.fields(MeanConfig)] == ["max_iterations"]
        with pytest.raises(InvalidArgumentError):
            MeanConfig(max_iterations=0)

    @pytest.mark.parametrize("cap", [1.5, 3.0, float("nan"), True, False, "3"])
    def test_cap_that_is_not_an_integer_refused(self, cap):
        with pytest.raises(InvalidArgumentError, match="max_iterations must be an integer"):
            MeanConfig(max_iterations=cap)

    def test_numpy_integer_cap_accepted(self, rng):
        trees = [random_tree(4, "uniform-binary", 1.0, rng) for _ in range(3)]
        assert frechet_mean(trees, MeanConfig(max_iterations=np.int64(7))) == \
            frechet_mean(trees, MeanConfig(max_iterations=7))

    def test_stride_visits_every_tree_once_per_pass(self):
        assert [geometry._stride(n) for n in (1, 2, 3, 10)] == [1, 1, 2, 7]
        for n in range(1, 201):
            g = geometry._stride(n)
            assert math.gcd(g, n) == 1
            assert sorted(k * g % n for k in range(1, n + 1)) == list(range(n))
            # no integer coprime to n lies nearer 0.618 n
            assert all(abs(h - 0.618 * n) >= abs(g - 0.618 * n)
                       for h in range(1, n + 1) if math.gcd(h, n) == 1)

    def test_chain_ordered_archive_near_reference(self):
        # 400 kept MH records at p = 8 come in runs of one topology; the
        # default mean must sit within 5e-3 of the sample's RMS spread from a
        # 30-pass mean in fresh random orders (visiting the records in chain
        # order, 3 passes, was 4.4e-2 away)
        p = 8
        truth = random_tree(p, "uniform-binary", 1.0, RngStream(1, 0))
        data = sample_gaussian(tree_to_matrix(truth), p, RngStream(1, 1))
        init = random_tree(p, "uniform-binary", 1.0, RngStream(1, 2))
        trees = run_chain(data, init, "mh",
                          MhConfig(iterations=800, burn_in=400, seed=1)).trees()
        shuffle = np.random.default_rng(1)
        reference = geodesic_steps(trees, (i for _ in range(30)
                                           for i in shuffle.permutation(len(trees))))
        spread = math.sqrt(math.fsum(tree_distance(reference, t, "l2") ** 2
                                     for t in trees) / len(trees))
        assert tree_distance(frechet_mean(trees), reference, "l2") < 5e-3 * spread

    def test_grouped_spider_spurious_split_bounded(self):
        # three pairwise incompatible splits, ten trees each, in groups: the
        # mean is the star (Hotz et al. 2013), but the iterate keeps one
        # split; visiting the groups in input order kept it at 0.099
        groups = [single_split_tree(4, leaves, 1.0)
                  for leaves in ((1, 2), (1, 3), (2, 3)) for _ in range(10)]
        for trees in (groups, groups[::-1]):
            lengths = list(frechet_mean(trees).internal_lengths.values())
            assert len(lengths) <= 1
            assert sum(lengths) < 0.03

    def test_default_budget_is_whole_passes(self, rng):
        trees = [random_tree(4, "uniform-binary", 1.0, rng) for _ in range(5)]
        mean = frechet_mean(trees)
        assert mean == frechet_mean(trees, MeanConfig(max_iterations=MEAN_PASSES * 5))
        assert mean != frechet_mean(trees, MeanConfig(max_iterations=MEAN_PASSES * 5 - 1))

    def test_one_leaf(self):
        mean = frechet_mean([star_tree((1.0,), 0.5), star_tree((2.0,), 1.5)])
        assert mean.leaf_root_vector() == pytest.approx((1.0, 1.5), abs=0.1)

    def test_mean_passes_full_validation(self, rng):
        trees = [shaped_tree(8, "random", rng) for _ in range(6)]
        mean = frechet_mean(trees, MeanConfig(max_iterations=300))
        assert mean.topology.splits
        assert_fully_validated(mean)
