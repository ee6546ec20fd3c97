import pytest

from treecov.errors import InvalidArgumentError, InvalidTreeError
from treecov.newick import newick_to_tree, tree_to_newick
from treecov.treespace import random_tree, star_tree


class TestSerialize:
    def test_star_form(self):
        assert tree_to_newick(star_tree((1, 1, 1), 1.0)) == "(0:1,1:1,2:1,3:1);"

    def test_children_ordered_by_smallest_leaf(self, tree_factory):
        t = tree_factory(4, {(3, 4): 0.5, (2, 3, 4): 0.2},
                         leaf_lengths=(1, 1, 1, 1), root_length=0.1)
        text = tree_to_newick(t)
        assert text.startswith("(0:0.1")
        assert text.index(":0.2") > text.index("1:1")  # leaf 1 before the block

    def test_no_zero_internal_edges_emitted(self, tree_factory):
        t = tree_factory(5, {(1, 2): 0.4}, root_length=0.0)
        text = tree_to_newick(t)
        assert text.count("(") == 2  # top level plus the single block


def test_overflowing_length_rejected():
    # 1e400 parses to inf, which no tree may carry
    with pytest.raises(InvalidTreeError, match="finite"):
        newick_to_tree("((1:1,2:1):1e400,3:1,0:1);")


class TestRoundTrip:
    def test_exact_for_random_trees(self, rng):
        for _ in range(200):
            p = 2 + rng.integers(11)
            t = random_tree(p, "uniform-binary", 1.0, rng)
            assert newick_to_tree(tree_to_newick(t)) == t

    def test_multifurcating_roundtrip(self, tree_factory):
        t = tree_factory(6, {(1, 2): 0.3, (4, 5, 6): 0.7})
        assert newick_to_tree(tree_to_newick(t)) == t


class TestParseErrors:
    def test_missing_root_leaf(self):
        with pytest.raises(InvalidTreeError):
            newick_to_tree("(1:1,2:1,3:1);")

    def test_duplicate_label(self):
        with pytest.raises(InvalidTreeError):
            newick_to_tree("(0:1,1:1,1:1);")

    def test_gap_in_labels(self):
        with pytest.raises(InvalidTreeError):
            newick_to_tree("(0:1,1:1,3:1);")

    def test_zero_internal_length_rejected(self):
        with pytest.raises(InvalidTreeError):
            newick_to_tree("(0:1,(1:1,2:1):0,3:1);")

    def test_root_leaf_must_be_top_level(self):
        with pytest.raises(InvalidTreeError):
            newick_to_tree("((0:1,1:1):0.5,2:1,3:1);")

    def test_garbage(self):
        with pytest.raises(InvalidArgumentError):
            newick_to_tree("not a tree")
        with pytest.raises(InvalidArgumentError):
            newick_to_tree("(0:1,1:1);extra")
