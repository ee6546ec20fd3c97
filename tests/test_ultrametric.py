import math

import numpy as np
import pytest

from _oracles import add_split, block_sum_matrix, path_sum_matrix
from treecov.errors import DimensionError, InvalidArgumentError, UltrametricViolationError
from treecov.geometry import matrix_distance
from treecov.treespace import Split, Topology, Tree, random_tree, star_tree
from treecov.ultrametric import (
    decompose_step,
    matrix_to_tree,
    split_matrix,
    tree_to_matrix,
    validate_ultrametric,
    vech_leq,
)

STAR3 = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])


def drop_random_splits(tree, count, rng):
    splits = sorted(tree.internal_lengths, key=lambda s: s.mask)
    count = min(count, len(splits))
    for _ in range(count):
        splits.pop(rng.integers(len(splits)))
    keep = {s: tree.internal_lengths[s] for s in splits}
    return Tree(Topology(tree.p, frozenset(keep)), keep,
                tree.leaf_lengths, tree.root_length)


def assert_close_to_largest(got, want, rel=1e-14):
    """Entrywise agreement within ``rel`` of the largest entry of ``want``."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rel * np.abs(want).max())


class TestAddSplit:
    """``split_matrix`` against the in-place block adds it replaced.

    BLAS sums each entry in its own order, so the two agree to rounding,
    not bit for bit.
    """

    def test_root_leaf_and_internal(self):
        masks, lengths = [0b1111, 0b0010, 0b0101], [1.0, 2.0, 3.0]
        sigma = np.zeros((4, 4))
        add_split(sigma, 0b1111, 1.0)  # root edge: every entry
        add_split(sigma, 0b0010, 2.0)  # leaf 2: one diagonal entry
        add_split(sigma, 0b0101, 3.0)  # split {1, 3}: its block
        expected = np.ones((4, 4))
        expected[1, 1] += 2.0
        expected[np.ix_([0, 2], [0, 2])] += 3.0
        assert np.array_equal(sigma, expected)
        assert np.array_equal(split_matrix(4, masks, lengths), expected)

    def test_sum_over_coordinates_is_tree_to_matrix(self, rng):
        for p in (2, 3, 3, 7, 7, 20, 20, 40, 64):
            t = random_tree(p, "uniform-binary", 1.0, rng)
            masks = [s.mask for s, _ in t.coordinates()]
            lengths = [v for _, v in t.coordinates()]
            sigma = split_matrix(p, masks, lengths)
            assert np.array_equal(sigma, sigma.T)
            assert np.array_equal(tree_to_matrix(t).values, sigma)
            assert_close_to_largest(sigma, block_sum_matrix(p, masks, lengths))
            assert_close_to_largest(sigma, path_sum_matrix(t))

    def test_64_leaf_root_and_last_leaf(self):
        sigma = split_matrix(64, [(1 << 64) - 1, 1 << 63, 0b11], [0.5, 2.0, 1.0])
        expected = np.full((64, 64), 0.5)
        expected[63, 63] += 2.0
        expected[:2, :2] += 1.0
        assert np.array_equal(sigma, expected)

    def test_no_splits_is_zero(self):
        assert np.array_equal(split_matrix(3, [], []), np.zeros((3, 3)))

    @pytest.mark.parametrize("p", [3, 7, 20])
    def test_slots_in_any_order_with_zero_lengths(self, rng, p):
        # Hamiltonian slots: every coordinate of a tree in shuffled order,
        # some internal ones at zero, plus zero-length slots on splits the
        # tree does not hold
        gen = rng.generator
        t = random_tree(p, "uniform-binary", 1.0, rng)
        other = random_tree(p, "uniform-binary", 1.0, rng)
        slots = [(s.mask, v) for s, v in t.coordinates()]
        slots = [(m, 0.0 if 2 <= m.bit_count() < p and gen.uniform() < 0.4 else v)
                 for m, v in slots]
        slots += [(s.mask, 0.0) for s in other.internal_lengths
                  if s not in t.internal_lengths]
        order = gen.permutation(len(slots))
        masks = [slots[i][0] for i in order]
        lengths = [slots[i][1] for i in order]
        sigma = split_matrix(p, masks, lengths)
        kept = {Split(p, m): v for m, v in slots if 2 <= m.bit_count() < p and v > 0}
        pruned = Tree(Topology(p, frozenset(kept)), kept, t.leaf_lengths, t.root_length)
        assert_close_to_largest(sigma, block_sum_matrix(p, masks, lengths))
        assert_close_to_largest(sigma, path_sum_matrix(pruned))


class TestValidation:
    def test_star_valid(self):
        assert validate_ultrametric(STAR3).valid

    def test_flat_matrix_fails_dominance(self):
        rep = validate_ultrametric(np.ones((2, 2)))
        assert not rep.valid
        assert any(v.clause == "diagonal-dominance" for v in rep.violations)

    def test_three_point_witness(self):
        rep = validate_ultrametric(np.array([[3.0, 0, 1], [0, 3, 2], [1, 2, 3]]))
        bad = [v for v in rep.violations if v.clause == "three-point"]
        assert bad and bad[0].where == (1, 2, 3)

    def test_negative_entry(self):
        rep = validate_ultrametric(np.array([[2.0, -0.5], [-0.5, 2.0]]))
        assert any(v.clause == "non-negativity" for v in rep.violations)

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            validate_ultrametric(np.ones((2, 3)))

    def test_asymmetric_raises(self):
        with pytest.raises(DimensionError):
            validate_ultrametric(np.array([[2.0, 1.0], [0.0, 2.0]]))

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, -math.inf])
    @pytest.mark.parametrize("check", [
        validate_ultrametric, decompose_step, matrix_to_tree,
        lambda m, tol: matrix_distance(m, m, tol),
    ], ids=["validate", "decompose", "matrix_to_tree", "matrix_distance"])
    def test_tolerance_outside_zero_to_inf_raises(self, check, tol):
        # every comparison with NaN is false, so NaN would pass this matrix
        bad = np.array([[3.0, 1, 0], [1, 3, 1], [0, 1, 3]])
        with pytest.raises(InvalidArgumentError, match="tol"):
            check(bad, tol=tol)

    def test_zero_tolerance_is_exact(self):
        assert validate_ultrametric(STAR3, tol=0.0).valid


class TestTreeToMatrix:
    def test_star_example(self):
        m = tree_to_matrix(star_tree((1, 1, 1), 1.0))
        assert np.allclose(m.values, STAR3)

    def test_zero_root_gives_diagonal(self):
        m = tree_to_matrix(star_tree((2.0, 3.0), 0.0))
        assert np.allclose(m.values, np.diag([2.0, 3.0]))

    def test_nested_hand_sum(self, tree_factory):
        t = tree_factory(4, {(1, 2): 0.5, (1, 2, 3): 0.2}, root_length=0.1)
        m = tree_to_matrix(t).values
        assert m[0, 1] == pytest.approx(0.8, abs=1e-15)
        assert m[0, 2] == pytest.approx(0.3, abs=1e-15)
        assert m[0, 3] == pytest.approx(0.1, abs=1e-15)

    def test_matches_path_sum_oracle(self, rng):
        for _ in range(50):
            p = 2 + rng.integers(9)
            t = random_tree(p, "uniform-binary", 1.0, rng)
            if p > 3 and rng.uniform() < 0.5:
                t = drop_random_splits(t, 1 + rng.integers(2), rng)
            assert np.allclose(tree_to_matrix(t).values, path_sum_matrix(t),
                               atol=1e-12)

    def test_output_validates(self, rng):
        for _ in range(50):
            p = 2 + rng.integers(12)
            t = random_tree(p, "uniform-binary", 1.0, rng)
            assert validate_ultrametric(tree_to_matrix(t)).valid


class TestDecomposeStep:
    def test_diagonal(self):
        lvl = decompose_step(np.diag([1.0, 2.0, 3.0]))
        assert lvl.alpha == 0.0
        assert lvl.k == 3
        assert lvl.blocks == ((1,), (2,), (3,))

    def test_star(self):
        lvl = decompose_step(STAR3)
        assert lvl.alpha == 1.0
        assert lvl.k == 3

    def test_block_sizes_with_zero_length_edge(self, tree_factory):
        # one multifurcating node with child blocks of sizes 2, 2, 3
        t = tree_factory(
            7,
            {(1, 2): 0.6, (3, 4): 0.7, (5, 6, 7): 0.8, (5, 6): 0.3},
            root_length=0.4,
        )
        lvl = decompose_step(tree_to_matrix(t))
        assert lvl.alpha == pytest.approx(0.4)
        assert tuple(len(b) for b in lvl.blocks) == (2, 2, 3)
        assert lvl.blocks == ((1, 2), (3, 4), (5, 6, 7))

    def test_permutation_block_diagonalizes(self, tree_factory):
        t = tree_factory(5, {(2, 4): 0.5, (1, 3, 5): 0.2}, root_length=0.3)
        m = tree_to_matrix(t).values
        lvl = decompose_step(m)
        perm = np.array(lvl.permutation)
        shifted = (m - lvl.alpha)[np.ix_(perm, perm)]
        start = 0
        for block in lvl.blocks:
            size = len(block)
            off = shifted[start:start + size, start + size:]
            assert np.all(off == 0)
            start += size

    def test_invalid_matrix_raises(self):
        with pytest.raises(UltrametricViolationError):
            decompose_step(np.ones((2, 2)))


class TestMatrixToTree:
    def test_star_inverse(self):
        t = matrix_to_tree(STAR3)
        assert t.root_length == 1.0
        assert t.leaf_lengths == (1.0, 1.0, 1.0)
        assert len(t.internal_lengths) == 0

    def test_diagonal_is_origin(self):
        t = matrix_to_tree(np.diag([1.0, 2.0, 3.0]))
        assert t.root_length == 0.0
        assert t.leaf_lengths == (1.0, 2.0, 3.0)
        assert len(t.internal_lengths) == 0

    def test_p1_bare_leaf(self):
        t = matrix_to_tree(np.array([[2.5]]))
        assert t.p == 1
        assert t.leaf_lengths == (2.5,)
        assert t.root_length == 0.0

    def test_roundtrip_random_trees(self, rng):
        for _ in range(400):
            p = 2 + rng.integers(15)
            t = random_tree(p, "uniform-binary", 1.0, rng)
            if p > 3 and rng.uniform() < 0.4:
                t = drop_random_splits(t, 1 + rng.integers(min(3, p - 2)), rng)
            back = matrix_to_tree(tree_to_matrix(t))
            assert back.topology == t.topology
            assert back.root_length == pytest.approx(t.root_length, abs=1e-12)
            for s, v in t.internal_lengths.items():
                assert back.internal_lengths[s] == pytest.approx(v, abs=1e-12)

    def test_roundtrip_matrix_side(self, rng):
        for _ in range(100):
            p = 2 + rng.integers(12)
            m = tree_to_matrix(random_tree(p, "uniform-binary", 1.0, rng)).values
            again = tree_to_matrix(matrix_to_tree(m)).values
            assert np.max(np.abs(again - m)) < 1e-10

    def test_permutation_equivariance(self, rng):
        for _ in range(30):
            p = 3 + rng.integers(8)
            t = random_tree(p, "uniform-binary", 1.0, rng)
            m = tree_to_matrix(t).values
            perm = np.array(rng.shuffled(list(range(p))))
            pm = m[np.ix_(perm, perm)]
            tp = matrix_to_tree(pm)
            # relabel: leaf (i+1) of pm corresponds to leaf perm[i]+1 of m
            relabeled = set()
            for s in tp.topology.splits:
                relabeled.add(
                    frozenset(int(perm[i - 1]) + 1 for i in s.leaves())
                )
            original = {frozenset(s.leaves()) for s in t.topology.splits}
            assert relabeled == original

    def test_violation_error_carries_witness(self):
        with pytest.raises(UltrametricViolationError) as exc:
            matrix_to_tree(np.array([[3.0, 0, 1], [0, 3, 2], [1, 2, 3]]))
        assert any(v.clause == "three-point" for v in exc.value.report.violations)


class TestVechOrder:
    def test_reflexive(self):
        assert vech_leq(STAR3, STAR3)

    def test_shrinking_an_edge_dominates(self, rng, tree_factory):
        for _ in range(50):
            p = 3 + rng.integers(8)
            t = random_tree(p, "uniform-binary", 1.0, rng)
            m = tree_to_matrix(t).values
            splits = sorted(t.internal_lengths, key=lambda s: s.mask)
            s = splits[rng.integers(len(splits))]
            shrunk = dict(t.internal_lengths)
            shrunk[s] = shrunk[s] * rng.uniform(0.05, 0.95)
            t2 = Tree(t.topology, shrunk, t.leaf_lengths, t.root_length)
            assert vech_leq(tree_to_matrix(t2), m)

    def test_boundary_below_all_resolutions(self, tree_factory):
        from treecov.treespace import resolution_candidates

        t = tree_factory(4, {(1, 2): 0.5, (3, 4): 0.4})
        m = tree_to_matrix(t).values
        removed = Split.from_leaves(4, (3, 4))
        kept = {s: v for s, v in t.internal_lengths.items() if s != removed}
        boundary = Tree(Topology(4, frozenset(kept)), kept,
                        t.leaf_lengths, t.root_length)
        bm = tree_to_matrix(boundary).values
        assert vech_leq(bm, m)
        for cand in resolution_candidates(t.topology, removed):
            grown = dict(kept)
            grown[cand] = 0.4
            t3 = Tree(Topology(4, frozenset(grown)), grown,
                      t.leaf_lengths, t.root_length)
            assert vech_leq(bm, tree_to_matrix(t3).values)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            vech_leq(STAR3, np.eye(2))
