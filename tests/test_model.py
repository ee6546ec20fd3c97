import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import downdate_gradient, loop_split_gradient
from treecov.errors import (
    DataError,
    InvalidArgumentError,
    NotPositiveDefiniteError,
)
from treecov.model import (
    DataSet,
    LikelihoodKernel,
    SufficientStats,
    gaussian_loglik,
    loglik_gradient,
    sample_gaussian,
    sample_t,
    split_gradient,
    split_indicators,
    suff_stats,
)
from treecov.rng import RngStream
from treecov.treespace import Split, Tree, random_tree, star_tree
from treecov.ultrametric import add_split, tree_to_matrix


class TestSuffStats:
    def test_single_row(self):
        stats = suff_stats(DataSet(np.array([[1.0, 0.0]])))
        assert np.allclose(stats.S, [[1, 0], [0, 0]])
        assert stats.n == 1

    def test_two_identical_rows(self):
        x = np.array([0.5, -1.0, 2.0])
        stats = suff_stats(DataSet(np.stack([x, x])))
        assert np.allclose(stats.S, 2 * np.outer(x, x))

    def test_matches_naive_double_loop(self, rng):
        X = rng.generator.normal(size=(40, 6))
        stats = suff_stats(DataSet(X))
        naive = np.zeros((6, 6))
        for row in X:
            naive += np.outer(row, row)
        assert np.max(np.abs(stats.S - naive)) < 1e-12 * np.max(np.abs(naive))

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            DataSet(np.array([[1.0, np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            suff_stats(DataSet(np.zeros((0, 3))))

    def test_empty_stats_constructor(self):
        stats = SufficientStats.empty(4)
        assert stats.n == 0
        assert gaussian_loglik(stats, np.eye(4)) == 0.0


class TestGaussianLoglik:
    def test_standard_normal_at_zero(self):
        stats = SufficientStats(1, np.array([[0.0]]))
        assert gaussian_loglik(stats, np.array([[1.0]])) == pytest.approx(
            -0.5 * math.log(2 * math.pi)
        )

    def test_identity_closed_form(self):
        stats = SufficientStats(1, np.outer([1.0, 1.0], [1.0, 1.0]))
        assert gaussian_loglik(stats, np.eye(2)) == pytest.approx(
            -math.log(2 * math.pi) - 1.0
        )

    def test_matches_per_observation_oracle(self, rng):
        for _ in range(20):
            p = 2 + rng.integers(5)
            t = random_tree(p, "uniform-binary", 1.0, rng)
            m = tree_to_matrix(t).values
            X = sample_gaussian(m, 17, rng).values
            stats = suff_stats(DataSet(X))
            inv = np.linalg.inv(m)
            _, logdet = np.linalg.slogdet(m)
            naive = sum(
                -0.5 * (p * math.log(2 * math.pi) + logdet + row @ inv @ row)
                for row in X
            )
            val = gaussian_loglik(stats, m)
            assert val == pytest.approx(naive, rel=1e-10)

    def test_not_positive_definite(self):
        stats = SufficientStats(2, np.eye(2))
        with pytest.raises(NotPositiveDefiniteError):
            gaussian_loglik(stats, np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_gradient_not_positive_definite(self):
        stats = SufficientStats(2, np.eye(2))
        with pytest.raises(NotPositiveDefiniteError):
            split_gradient(stats, np.ones((2, 2)), [0b01, 0b11])

    def test_permutation_invariance(self, rng):
        p = 5
        t = random_tree(p, "uniform-binary", 1.0, rng)
        m = tree_to_matrix(t).values
        X = sample_gaussian(m, 30, rng).values
        perm = np.array(rng.shuffled(list(range(p))))
        a = gaussian_loglik(suff_stats(DataSet(X)), m)
        b = gaussian_loglik(suff_stats(DataSet(X[:, perm])), m[np.ix_(perm, perm)])
        assert a == pytest.approx(b, abs=1e-10)


def perturb(tree, split, h):
    if split.is_root_edge:
        return Tree(tree.topology, tree.internal_lengths, tree.leaf_lengths,
                    tree.root_length + h)
    if split.is_leaf_edge:
        ll = list(tree.leaf_lengths)
        ll[split.leaves()[0] - 1] += h
        return Tree(tree.topology, tree.internal_lengths, tuple(ll),
                    tree.root_length)
    lengths = dict(tree.internal_lengths)
    lengths[split] += h
    return Tree(tree.topology, lengths, tree.leaf_lengths, tree.root_length)


class TestGradient:
    def test_every_coordinate_has_a_key(self, rng):
        t = random_tree(5, "uniform-binary", 1.0, rng)
        stats = suff_stats(sample_gaussian(tree_to_matrix(t), 10, rng))
        grad = loglik_gradient(stats, t)
        assert set(grad) == {s for s, _ in t.coordinates()}

    def test_finite_differences(self, rng):
        h = 1e-6
        for _ in range(20):
            p = 2 + rng.integers(9)
            t = random_tree(p, "uniform-binary", 1.0, rng)
            stats = suff_stats(sample_gaussian(tree_to_matrix(t), 30, rng))
            grad = loglik_gradient(stats, t)
            for s, g in grad.items():
                up = gaussian_loglik(stats, tree_to_matrix(perturb(t, s, h)))
                dn = gaussian_loglik(stats, tree_to_matrix(perturb(t, s, -h)))
                fd = (up - dn) / (2 * h)
                assert fd == pytest.approx(g, rel=1e-5, abs=1e-6)

    def test_downdate_identity(self, rng):
        for _ in range(20):
            p = 3 + rng.integers(6)
            t = random_tree(p, "uniform-binary", 1.0, rng)
            stats = suff_stats(sample_gaussian(tree_to_matrix(t), 25, rng))
            grad = loglik_gradient(stats, t)
            for s, g in grad.items():
                alt = downdate_gradient(stats.n, stats.S, t, s)
                assert g == pytest.approx(alt, rel=1e-9, abs=1e-9)

    def test_p1_scalar_formula(self):
        x = 0.9
        stats = SufficientStats(1, np.array([[x * x]]))
        from treecov.treespace import Topology

        t = Tree(Topology(1), {}, (0.7,), 0.0)
        grad = loglik_gradient(stats, t)
        leaf = Split.leaf(1, 1)
        d = 0.7
        assert grad[leaf] == pytest.approx(-1 / (2 * d) + x * x / (2 * d * d))

    def test_root_gradient_consistency(self, rng):
        # the root coordinate uses the all-ones block like any other split
        t = random_tree(5, "uniform-binary", 1.0, rng)
        stats = suff_stats(sample_gaussian(tree_to_matrix(t), 40, rng))
        grad = loglik_gradient(stats, t)
        m = tree_to_matrix(t).values
        W = np.linalg.inv(m)
        G = W @ stats.S @ W
        assert grad[Split.root(5)] == pytest.approx(
            -0.5 * stats.n * W.sum() + 0.5 * G.sum(), rel=1e-10
        )


class TestSampling:
    def test_gaussian_moments(self):
        rng = RngStream(42)
        t = random_tree(4, "uniform-binary", 1.0, rng)
        m = tree_to_matrix(t).values
        X = sample_gaussian(m, 200000, rng).values
        emp = X.T @ X / X.shape[0]
        assert np.max(np.abs(emp - m)) < 0.05 * max(1.0, np.max(m))

    def test_gaussian_rejects_empty(self, rng):
        with pytest.raises(InvalidArgumentError):
            sample_gaussian(np.eye(2), 0, rng)

    def test_gaussian_determinism(self):
        m = tree_to_matrix(star_tree((1, 1, 1), 1.0)).values
        a = sample_gaussian(m, 10, RngStream(7, 3)).values
        b = sample_gaussian(m, 10, RngStream(7, 3)).values
        assert np.array_equal(a, b)

    def test_t_covariance_scale(self):
        rng = RngStream(11)
        m = tree_to_matrix(star_tree((1.0, 1.5), 0.5)).values
        X = sample_t(m, 4, 400000, rng).values
        emp = X.T @ X / X.shape[0]
        assert np.max(np.abs(emp - 2 * m)) < 0.06

    def test_t3_heavy_tails(self):
        rng = RngStream(13)
        m = np.eye(2) * 1.0
        X = sample_t(m, 3, 100000, rng).values
        z = X[:, 0]
        kurt = np.mean(z ** 4) / np.mean(z ** 2) ** 2
        assert kurt > 4.0  # Gaussian would be 3

    def test_t_rejects_small_df(self, rng):
        with pytest.raises(InvalidArgumentError):
            sample_t(np.eye(2), 2, 10, rng)

    def test_t_determinism(self):
        m = np.eye(3)
        a = sample_t(m, 4, 8, RngStream(1, 5)).values
        b = sample_t(m, 4, 8, RngStream(1, 5)).values
        assert np.array_equal(a, b)


class TestSplitProduct:
    """The one-product gradient against the per-split loop and the downdate identity.

    The product sums in a different order, so the tolerance is 1e-12 of the
    size of the gradient's two terms, which can cancel each other.
    """

    @staticmethod
    def check(stats, sigma, masks, tree=None):
        got = split_gradient(stats, sigma, masks)
        W = np.linalg.inv(sigma)
        V = np.array([[m >> k & 1 for m in masks] for k in range(len(sigma))], float)
        scale = 0.5 * stats.n * np.abs(np.diag(V.T @ W @ V)) \
            + 0.5 * np.abs(np.diag(V.T @ W @ stats.S @ W @ V))
        want = loop_split_gradient(stats.n, stats.S, sigma, masks)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        if tree is not None:
            alt = np.array([downdate_gradient(stats.n, stats.S, tree, Split(tree.p, m))
                            for m in masks])
            assert np.all(np.abs(got - alt) <= 1e-12 * scale)

    @pytest.mark.parametrize("p", [2, 3, 7, 20, 64])
    def test_matches_loop_and_downdate(self, rng, p):
        for _ in range(3):
            t = random_tree(p, "uniform-binary", 1.0, rng)
            sigma = tree_to_matrix(t).values
            stats = suff_stats(sample_gaussian(sigma, 10 * p, rng))
            self.check(stats, sigma, [s.mask for s, _ in t.coordinates()], t)

    def test_leaf_and_root_masks_alone(self, rng):
        t = random_tree(6, "uniform-binary", 1.0, rng)
        sigma = tree_to_matrix(t).values
        stats = suff_stats(sample_gaussian(sigma, 40, rng))
        self.check(stats, sigma, [0b1], t)
        self.check(stats, sigma, [(1 << 6) - 1], t)
        self.check(stats, sigma, [1 << 5, 0b1, (1 << 6) - 1], t)

    def test_indicators_of_64_leaves(self):
        V = split_indicators(64, [(1 << 64) - 1, 1 << 63, 1, 0b110])
        assert V.shape == (64, 4)
        assert np.all(V[:, 0] == 1.0)
        assert np.flatnonzero(V[:, 1]).tolist() == [63]
        assert np.flatnonzero(V[:, 2]).tolist() == [0]
        assert np.flatnonzero(V[:, 3]).tolist() == [1, 2]


def _fresh_sigma(p, lengths):
    sigma = np.zeros((p, p))
    for mask, value in lengths.items():
        add_split(sigma, mask, value)
    return sigma


class TestLikelihoodKernel:
    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1),
           moves=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                    st.floats(-0.6, 1.5), st.booleans()),
                          min_size=1, max_size=25))
    def test_rank_one_moves_match_fresh(self, p, seed, moves):
        # each move scales one stored length by a factor in [0.4, 2.5] and
        # is accepted or rejected; the caches track a fresh recomputation
        rng = RngStream(seed)
        t = random_tree(p, "uniform-binary", 1.0, rng)
        stats = suff_stats(sample_gaussian(tree_to_matrix(t), 3 * p, rng))
        lengths = {s.mask: v for s, v in t.coordinates()}
        masks = sorted(lengths)
        kernel = LikelihoodKernel(stats, tree_to_matrix(t).values)
        for pick, frac, accept in moves:
            mask = masks[pick % len(masks)]
            delta = frac * lengths[mask]
            dll = kernel.propose([(mask, delta)])
            before = kernel.log_lik
            moved = dict(lengths)
            moved[mask] += delta
            assert before + dll == pytest.approx(
                gaussian_loglik(stats, _fresh_sigma(p, moved)), rel=1e-9)
            if accept:
                kernel.accept()
                lengths = moved
            sigma = _fresh_sigma(p, lengths)
            W = np.linalg.inv(sigma)
            assert kernel.log_lik == pytest.approx(gaussian_loglik(stats, sigma), rel=1e-9)
            assert np.allclose(kernel.sigma, sigma, rtol=0.0, atol=1e-12 * np.abs(sigma).max())
            assert np.allclose(kernel.W, W, rtol=0.0, atol=1e-9 * np.abs(W).max())

    def test_refresh_only_after_rank_one_updates(self, rng):
        t = random_tree(5, "uniform-binary", 1.0, rng)
        stats = suff_stats(sample_gaussian(tree_to_matrix(t), 30, rng))
        kernel = LikelihoodKernel(stats, tree_to_matrix(t).values)
        W = kernel.W
        kernel.refresh()
        assert kernel.W is W  # nothing moved: no refactorization
        kernel.propose([(0b1, 0.3)])
        kernel.accept()
        kernel.refresh()
        sigma = tree_to_matrix(t).values.copy()
        sigma[0, 0] += 0.3
        assert kernel.log_lik == gaussian_loglik(stats, sigma)

    def test_no_data_builds_nothing(self):
        kernel = LikelihoodKernel(SufficientStats.empty(3), np.eye(3))
        assert kernel.sigma is None
        assert kernel.propose([(0b1, 5.0)]) == 0.0
        kernel.accept()
        assert kernel.log_lik == 0.0

    def test_singular_move_is_typed(self):
        # p=2 with both leaf lengths driven to 1e-17 under a unit root: the
        # second move's 1 + delta c rounds to zero, and the full
        # factorization it falls back to fails on the singular matrix
        stats = SufficientStats(5, np.eye(2))
        kernel = LikelihoodKernel(stats, tree_to_matrix(star_tree((1.0, 1.0), 1.0)).values)
        kernel.propose([(0b01, 1e-17 - 1.0)])
        kernel.accept()
        with pytest.raises(NotPositiveDefiniteError):
            kernel.propose([(0b10, 1e-17 - 1.0)])

    def test_non_positive_denominator_falls_back_to_fresh(self, rng):
        # a corrupted inverse makes 1 + delta c negative; the move is then
        # priced and applied by a full factorization
        t = random_tree(4, "uniform-binary", 1.0, rng)
        stats = suff_stats(sample_gaussian(tree_to_matrix(t), 20, rng))
        kernel = LikelihoodKernel(stats, tree_to_matrix(t).values)
        kernel.W = -kernel.W
        delta = 2.0 / abs(kernel.W[0, 0])
        sigma = tree_to_matrix(t).values.copy()
        sigma[0, 0] += delta
        assert kernel.propose([(0b1, delta)]) == gaussian_loglik(stats, sigma) - kernel.log_lik
        kernel.accept()
        assert np.allclose(kernel.W, np.linalg.inv(sigma))
