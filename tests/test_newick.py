import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from treecov.errors import InvalidArgumentError, InvalidTreeError
from treecov.newick import newick_to_tree, tree_to_newick
from treecov.rng import RngStream
from treecov.treespace import Topology, Tree, random_tree, star_tree


class TestSerialize:
    def test_star_form(self):
        assert tree_to_newick(star_tree((1, 1, 1), 1.0)) == "(0:1,1:1,2:1,3:1);"

    def test_children_ordered_by_smallest_leaf(self, tree_factory):
        t = tree_factory(4, {(3, 4): 0.5, (2, 3, 4): 0.2},
                         leaf_lengths=(1, 1, 1, 1), root_length=0.1)
        text = tree_to_newick(t)
        assert text.startswith("(0:0.1")
        assert text.index(":0.2") > text.index("1:1")  # leaf 1 before the block

    def test_siblings_in_ascending_leaf_mask(self, tree_factory):
        # {2,3} has mask 0b0110 and {1,4} mask 0b1001, so {2,3} prints first
        t = tree_factory(4, {(1, 4): 1.0, (2, 3): 1.0},
                         leaf_lengths=(1, 1, 1, 1), root_length=0.5)
        assert tree_to_newick(t) == "(0:0.5,(2:1,3:1):1,(1:1,4:1):1);"

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

    def test_one_leaf(self):
        # the one leaf is the full block; it prints beside leaf 0
        text = "(0:0,1:1);"
        t = newick_to_tree(text)
        assert (t.p, t.leaf_lengths, t.root_length) == (1, (1.0,), 0.0)
        assert tree_to_newick(t) == text
        assert newick_to_tree(tree_to_newick(t)) == t

    def test_multifurcating_roundtrip(self, tree_factory):
        t = tree_factory(6, {(1, 2): 0.3, (4, 5, 6): 0.7})
        assert newick_to_tree(tree_to_newick(t)) == t

    @settings(max_examples=120, deadline=None)
    @given(p=st.integers(2, 64), seed=st.integers(0, 2**32 - 1),
           shape=st.sampled_from(["resolved", "star", "collapsed"]))
    def test_exact_up_to_the_leaf_bound(self, p, seed, shape):
        rng = RngStream(seed)
        t = random_tree(p, "uniform-binary", 1.0, rng)
        if shape != "resolved":
            keep = {s: v for s, v in t.internal_lengths.items()
                    if shape == "collapsed" and rng.uniform() < 0.5}
            t = Tree(Topology(p, frozenset(keep)), keep, t.leaf_lengths, t.root_length)
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

# Each string is refused where the offending token is read; before, the first
# three lost edge lengths silently and the last parsed a 100-leaf star.
MALFORMED = {
    "repeated leaf in a clade": "((1:1,1:2):0.5,2:1,0:0);",
    "clade with one clade child": "(((1:1,2:1):0.5):0.3,3:1,0:0);",
    "clade with one leaf child": "(((1:1):0.5,2:1):0.4,3:1,0:0);",
    "label far past 64": "(0:1,1:1,2:1,3000000:1);",
    "101-label star": "(" + ",".join(f"{i}:1" for i in range(101)) + ");",
    "repeated top-level leaf 0": "(0:1,1:1,0:1,2:1);",
    "leaf 0 inside a clade": "((0:1,1:1):0.5,2:1,3:1);",
    "label 65": "(0:1,1:1,65:1);",
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_structure_raises_invalid_tree(text):
    with pytest.raises(InvalidTreeError):
        newick_to_tree(text)


@pytest.mark.parametrize("label", [64, 65])
def test_leaf_bound(label):
    text = "(" + ",".join(f"{i}:1" for i in range(label + 1)) + ");"
    if label == 64:
        assert newick_to_tree(text).p == 64
    else:
        with pytest.raises(InvalidTreeError, match="65 exceeds 64"):
            newick_to_tree(text)


@pytest.mark.parametrize("digits", [7, 5000])
def test_huge_label_refused_in_constant_memory(digits):
    text = f"(0:1,1:1,2:1,3{'0' * digits}:1);"
    tracemalloc.start()
    start = time.perf_counter()
    with pytest.raises(InvalidTreeError, match="exceeds 64"):
        newick_to_tree(text)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 100_000 + 4 * len(text)


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(InvalidArgumentError, match="nested deeper"):
        newick_to_tree("(" * 5000)
