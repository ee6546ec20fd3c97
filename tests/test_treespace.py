import itertools
import math

import numpy as np
import pytest

from treecov.errors import DimensionError, InvalidArgumentError, InvalidTreeError
from treecov.rng import RngStream
from treecov.treespace import (
    Split,
    Topology,
    Tree,
    _TopologyTable,
    _tree_from_masks,
    double_factorial,
    enumerate_topologies,
    random_tree,
    resolution_candidates,
    set_compatible,
    split_compatible,
    star_tree,
)


def S(p, *leaves):
    return Split.from_leaves(p, leaves)


class TestSplit:
    def test_leaves_roundtrip(self):
        s = S(6, 2, 5)
        assert s.leaves() == (2, 5)
        assert s.size == 2
        assert s.key() == "2,5"

    @pytest.mark.parametrize("p,mask", [
        (1, 1), (2, 1), (2, 3), (3, 5), (40, 0x8000000001), (40, (1 << 40) - 2),
        (64, 1 << 63), (64, (1 << 63) | 0b1011), (64, (1 << 64) - 1),
    ])
    def test_cached_spellings_match_bit_enumeration(self, p, mask):
        # leaves() and key() are taken once and kept; every call must read
        # the split's own bits, the high ones included
        leaves = tuple(i + 1 for i in range(64) if mask >> i & 1)
        s = Split(p, mask)
        for _ in range(2):
            assert s.leaves() == leaves
            assert s.key() == ",".join(str(i) for i in leaves)
        assert Split.from_leaves(p, leaves) == s

    def test_root_and_leaf_flags(self):
        assert Split.root(4).is_root_edge
        assert Split.leaf(4, 3).is_leaf_edge
        assert S(4, 1, 2).is_internal

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            Split(4, 0)
        with pytest.raises(InvalidArgumentError):
            Split.from_leaves(4, [5])

    def test_rejects_repeated_leaf(self):
        # OR-ing the same bit twice would read [1, 1, 2] as {1, 2}
        with pytest.raises(InvalidArgumentError, match="leaf 1 appears twice"):
            Split.from_leaves(4, [1, 1, 2])

    def test_rejects_boolean_leaves_but_not_numpy_integers(self):
        # True equals leaf 1, but an archive spelling it is malformed
        with pytest.raises(InvalidArgumentError, match="boolean"):
            Split.from_leaves(4, [True, 2])
        assert Split.from_leaves(4, np.array([1, 2])) == S(4, 1, 2)

    def test_equality_needs_same_p(self):
        assert S(4, 1, 2) != S(5, 1, 2)
        assert S(4, 1, 2) == S(4, 2, 1)


class TestCompatibility:
    def test_nested_compatible(self):
        assert split_compatible(S(4, 1, 2, 3), S(4, 2, 3))

    def test_overlapping_incompatible(self):
        assert not split_compatible(S(4, 1, 2, 3), S(4, 1, 4))

    def test_identical_compatible(self):
        s = S(4, 1, 2, 3)
        assert split_compatible(s, s)

    def test_disjoint_compatible(self):
        assert split_compatible(S(5, 1, 2), S(5, 4, 5))

    def test_symmetry_and_reflexivity_exhaustive_p4(self):
        internals = [
            Split(4, m) for m in range(1, 16) if 2 <= bin(m).count("1") <= 3
        ]
        for a, b in itertools.product(internals, repeat=2):
            assert split_compatible(a, b) == split_compatible(b, a)
        for a in internals:
            assert split_compatible(a, a)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            split_compatible(S(4, 1, 2), S(5, 1, 2))

    def test_set_compatible(self):
        assert set_compatible({S(4, 1, 2), S(4, 1, 2, 3)})
        assert not set_compatible({S(4, 1, 2, 3), S(4, 1, 4)})
        assert set_compatible(set())


class TestResolutionCandidates:
    def test_resolved_p4_cherry_pair(self):
        topo = Topology.from_leaf_sets(4, [[1, 2], [3, 4]])
        cands = resolution_candidates(topo, S(4, 3, 4))
        assert set(cands) == {S(4, 3, 4), S(4, 1, 2, 3), S(4, 1, 2, 4)}
        assert cands == sorted(cands, key=lambda s: s.mask)

    def test_resolved_p4_caterpillar(self):
        topo = Topology.from_leaf_sets(4, [[1, 2], [1, 2, 3]])
        cands = resolution_candidates(topo, S(4, 1, 2))
        assert cands == [S(4, 1, 2), S(4, 1, 3), S(4, 2, 3)]

    def test_p3(self):
        topo = Topology.from_leaf_sets(3, [[1, 2]])
        cands = resolution_candidates(topo, S(3, 1, 2))
        assert cands == [S(3, 1, 2), S(3, 1, 3), S(3, 2, 3)]

    def test_always_three_for_resolved(self, rng):
        for _ in range(25):
            t = random_tree(6, "uniform-binary", 1.0, rng)
            for s in t.topology.sorted_splits():
                cands = resolution_candidates(t.topology, s)
                assert len(cands) == 3
                assert s in cands
                rest = t.topology.splits - {s}
                for c in cands:
                    assert set_compatible(rest | {c})

    def test_removed_must_be_present(self):
        topo = Topology.from_leaf_sets(4, [[1, 2]])
        with pytest.raises(InvalidArgumentError):
            resolution_candidates(topo, S(4, 3, 4))

    def test_multifurcating_candidates_cover_other_nodes(self):
        # star-with-one-split: removing it exposes every internal split
        topo = Topology.from_leaf_sets(4, [[1, 2]])
        cands = resolution_candidates(topo, S(4, 1, 2))
        assert len(cands) == 10  # all subsets of size 2 or 3


class TestEnumeration:
    @pytest.mark.parametrize("p,count", [(2, 1), (3, 3), (4, 15), (5, 105)])
    def test_counts(self, p, count):
        topos = enumerate_topologies(p)
        assert len(topos) == count
        assert count == double_factorial(2 * p - 3)

    def test_all_resolved_and_compatible(self):
        for topo in enumerate_topologies(5):
            assert topo.is_resolved
            assert set_compatible(topo.splits)

    def test_guard(self):
        with pytest.raises(InvalidArgumentError):
            enumerate_topologies(8)
        with pytest.raises(InvalidArgumentError):
            enumerate_topologies(1)


class TestRandomTree:
    def test_p2_star(self, rng):
        t = random_tree(2, "uniform-binary", 1.0, rng)
        assert len(t.internal_lengths) == 0
        assert all(v > 0 for v in t.leaf_lengths)
        assert t.root_length >= 0

    def test_equidistant_depths(self, rng):
        for p in (2, 4, 9):
            t = random_tree(p, "equidistant", 1.0, rng)
            depths = [t.root_to_leaf_depth(i) for i in range(1, p + 1)]
            assert max(depths) - min(depths) < 1e-12

    def test_invariants_many_draws(self, rng):
        for _ in range(300):
            p = 2 + rng.integers(9)
            t = random_tree(p, "uniform-binary", 0.7, rng)
            assert t.topology.is_resolved
            assert set(t.internal_lengths) == set(t.topology.splits)
            assert t.p <= t.num_lengths <= 2 * p - 1 or t.num_lengths == p + 1

    def test_uniform_over_topologies_p4(self):
        rng = RngStream(5150)
        counts = {}
        draws = 30000
        for _ in range(draws):
            t = random_tree(4, "uniform-binary", 1.0, rng)
            key = tuple(t.topology.sorted_masks())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 15
        for c in counts.values():
            assert abs(c / draws - 1 / 15) < 0.01

    def test_rejects_small_p(self, rng):
        with pytest.raises(InvalidArgumentError):
            random_tree(1, "uniform-binary", 1.0, rng)

    def test_determinism(self):
        t1 = random_tree(7, "uniform-binary", 1.0, RngStream(3, 9))
        t2 = random_tree(7, "uniform-binary", 1.0, RngStream(3, 9))
        assert t1 == t2


# internal lengths of {1,2} and {1,2,3}, leaf lengths, root, the error
_FINITE = "edge lengths must be finite"
_BAD_LENGTHS = [
    *[((x, 0.2), (1.0,) * 4, 0.5, _FINITE) for x in (math.nan, math.inf, -math.inf)],
    *[((0.5, 0.2), (1.0, 1.0, x, 1.0), 0.5, _FINITE)
      for x in (math.nan, math.inf, -math.inf)],
    *[((0.5, 0.2), (1.0,) * 4, x, _FINITE) for x in (math.nan, math.inf, -math.inf)],
    ((0.5, 0.2), (1.0, -1.0, math.nan, 1.0), 0.5, _FINITE),
    ((0.5, 0.0), (1.0,) * 4, 0.5, "internal edge lengths must be positive"),
    ((-0.5, 0.2), (1.0,) * 4, 0.5, "internal edge lengths must be positive"),
    ((0.5, 0.2), (1.0,) * 4, -0.5, "root edge length must be non-negative"),
    ((0.5, 0.2), (1.0,) * 3, 0.5, "expected 4 leaf lengths, got 3"),
    ((0.5, 0.2), (1.0,) * 5, 0.5, "expected 4 leaf lengths, got 5"),
    ((0.0, 0.2), (1.0,) * 3, -0.5, "internal edge lengths must be positive"),
    ((0.5, 0.2), (-1.0,) * 3, 0.5, "expected 4 leaf lengths, got 3"),
    ((0.5, 0.2), (1.0, 0.0, 1.0, 1.0), -0.5, "leaf edge lengths must be positive"),
]


class TestTreeInvariants:
    def test_lengths_must_match_topology(self):
        s = S(4, 1, 2)
        with pytest.raises(Exception):
            Tree(Topology(4, frozenset([s])), {}, (1, 1, 1, 1), 0.0)

    def test_topology_rejects_incompatible_splits(self):
        with pytest.raises(InvalidTreeError, match="incompatible"):
            Topology(5, frozenset([S(5, 1, 2), S(5, 2, 3)]))

    def test_incompatible_message_names_the_first_pair(self):
        # {2,3} clashes with {1,2} and {3,4}, and {1,2,3} with {3,4}: the
        # first pair in ascending mask order is reported
        with pytest.raises(InvalidTreeError) as err:
            Topology(6, frozenset([S(6, 3, 4), S(6, 1, 2, 3), S(6, 2, 3), S(6, 1, 2)]))
        assert str(err.value) == "incompatible splits Split({1,2}/6) and Split({2,3}/6)"

    @pytest.mark.parametrize("order", [(2, 4), (4, 2)])
    def test_error_does_not_depend_on_insertion_order(self, order):
        with pytest.raises(InvalidTreeError) as err:
            Topology(4, frozenset(S(4, leaf) for leaf in order))
        assert str(err.value) == "Split({2}/4) is not internal (size 2..3)"

    def test_more_than_64_leaves_refused(self):
        with pytest.raises(InvalidArgumentError, match=r"^leaf count 65 outside 1\.\.64$"):
            star_tree([1.0] * 65)

    def test_incompatible_pair_matches_a_pairwise_scan(self):
        # a resolved tree at p = 40 with one split swapped for a random one
        rng = RngStream(5)
        for _ in range(20):
            splits = sorted(random_tree(40, rng=rng).topology.splits, key=lambda s: s.mask)
            del splits[rng.integers(len(splits))]
            splits = sorted(splits + [Split(40, 3 + rng.integers((1 << 40) - 4))],
                            key=lambda s: s.mask)
            a, b = next((a, b) for a, b in itertools.combinations(splits, 2)
                        if not split_compatible(a, b))
            with pytest.raises(InvalidTreeError) as err:
                Topology(40, frozenset(splits))
            assert str(err.value) == f"incompatible splits {a} and {b}"

    def test_positive_lengths_enforced(self):
        s = S(4, 1, 2)
        with pytest.raises(Exception):
            Tree(Topology(4, frozenset([s])), {s: 0.0}, (1, 1, 1, 1), 0.0)
        with pytest.raises(Exception):
            star_tree((1.0, -1.0))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", ["internal", "leaf", "root"])
    def test_non_finite_lengths_rejected(self, where, value):
        s = S(4, 1, 2)
        internal = {s: value if where == "internal" else 0.5}
        leaves = (value if where == "leaf" else 1.0, 1.0, 1.0, 1.0)
        root = value if where == "root" else 0.5
        with pytest.raises(InvalidTreeError, match="finite"):
            Tree(Topology(4, frozenset([s])), internal, leaves, root)

    @pytest.mark.parametrize("internal, leaves, root, message", _BAD_LENGTHS)
    @pytest.mark.parametrize("build", ["Tree", "_from_floats"])
    def test_length_errors_in_order(self, internal, leaves, root, message, build):
        splits = (S(4, 1, 2), S(4, 1, 2, 3))
        make = Tree if build == "Tree" else Tree._from_floats
        with pytest.raises(InvalidTreeError) as err:
            make(Topology(4, frozenset(splits)), dict(zip(splits, internal)), leaves, root)
        assert str(err.value) == message

    @staticmethod
    def first_length_error(internal, leaves, root, p):
        """The error of the checks in the order a tree makes them, one by one."""
        if not all(map(math.isfinite, (*internal, *leaves, root))):
            return "edge lengths must be finite"
        if any(v <= 0 for v in internal):
            return "internal edge lengths must be positive"
        if len(leaves) != p:
            return f"expected {p} leaf lengths, got {len(leaves)}"
        if any(v <= 0 for v in leaves):
            return "leaf edge lengths must be positive"
        if root < 0:
            return "root edge length must be non-negative"
        return None

    def test_length_checks_match_the_one_by_one_checks(self):
        # random mixes of good and bad values, p = 1..6, in each slot
        rng = RngStream(11)
        values = [0.5, 2.0, 1e308, 0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]
        for _ in range(3000):
            p = 1 + rng.integers(6)
            topology = random_tree(p, rng=rng).topology if p > 1 else Topology(1)
            splits = topology.sorted_splits()
            pick = [values[rng.integers(3)] if rng.uniform() < 0.8
                    else values[rng.integers(len(values))] for _ in range(len(splits) + p + 2)]
            internal = dict(zip(splits, pick))
            leaves = tuple(pick[len(splits):len(splits) + p + rng.integers(3) - 1])
            root = pick[-1]
            expected = self.first_length_error(internal.values(), leaves, root, p)
            for make in (Tree, Tree._from_floats):
                if expected is None:
                    t = make(topology, internal, leaves, root)
                    assert (t.internal_lengths, t.leaf_lengths, t.root_length) == \
                        (internal, leaves, root)
                else:
                    with pytest.raises(InvalidTreeError) as err:
                        make(topology, internal, leaves, root)
                    assert str(err.value) == expected

    def test_unsorted_lengths_end_ascending(self):
        a, b, c = S(6, 1, 2), S(6, 1, 2, 3), S(6, 5, 6)
        t = Tree(Topology(6, frozenset([a, b, c])), {c: 0.3, a: 0.1, b: 0.2}, (1,) * 6, 0)
        assert list(t.internal_lengths.items()) == [(a, 0.1), (b, 0.2), (c, 0.3)]
        assert all(type(v) is float for v in (*t.internal_lengths.values(),
                                              *t.leaf_lengths, t.root_length))
        # keys that ascend but miss a split are still refused
        with pytest.raises(InvalidTreeError, match="keys must equal topology splits"):
            Tree(Topology(6, frozenset([a, b, c])), {a: 0.1, b: 0.2}, (1.0,) * 6, 0.0)

    def test_lengths_whose_sum_overflows_build(self):
        s = S(4, 1, 2)
        t = Tree(Topology(4, frozenset([s])), {s: 1e308}, (1e308, 1.7e308, 1e308, 1e308),
                 1e308)
        assert math.isinf(sum(t.internal_lengths.values()) + sum(t.leaf_lengths))
        assert t.leaf_lengths[1] == 1.7e308 and t.root_length == 1e308

    def test_tree_from_masks(self, tree_factory):
        t = tree_factory(4, {(1, 2): 0.5, (1, 2, 3): 0.2})
        lengths = {s.mask: v for s, v in t.coordinates()}
        assert _tree_from_masks(4, lengths, t.leaf_root_vector()) == t
        # a zero internal length leaves its split out
        lengths[S(4, 1, 2, 3).mask] = 0.0
        pruned = _tree_from_masks(4, lengths)
        assert pruned.topology == Topology(4, frozenset([S(4, 1, 2)]))
        assert pruned.leaf_root_vector() == t.leaf_root_vector()

    def test_tree_from_masks_table_validates_each_split_set_once(self, tree_factory,
                                                                 monkeypatch):
        t = tree_factory(5, {(1, 2): 0.5, (1, 2, 3): 0.2, (4, 5): 0.3})
        lengths = {s.mask: v for s, v in t.coordinates()}
        validated = []
        real = Topology.__post_init__
        monkeypatch.setattr(Topology, "__post_init__",
                            lambda self: validated.append(self) or real(self))
        table = _TopologyTable(5)
        a = _tree_from_masks(5, lengths, table=table)
        b = _tree_from_masks(5, {**lengths, S(5, 1, 2).mask: 0.9}, table=table)
        lengths[S(5, 4, 5).mask] = 0.0
        c = _tree_from_masks(5, lengths, table=table)
        assert validated == [a.topology, c.topology]
        assert b.topology is a.topology and c.topology is not a.topology
        assert b.internal_lengths[S(5, 1, 2)] == 0.9
        # one Split object per mask across the table's topologies
        assert {id(s) for s in c.topology.splits} <= {id(s) for s in a.topology.splits}
        assert a == t and c == _tree_from_masks(5, lengths)
        # a bad split set is never stored, so it raises again
        bad = {**lengths, S(5, 2, 3).mask: 0.1}
        for _ in range(2):
            with pytest.raises(InvalidTreeError, match="incompatible"):
                _tree_from_masks(5, bad, table=table)

    def test_coordinates_canonical_order(self, tree_factory):
        t = tree_factory(4, {(1, 2): 0.5, (1, 2, 3): 0.2})
        masks = [s.mask for s, _ in t.coordinates()]
        assert masks == sorted(masks)
        assert len(masks) == 7
