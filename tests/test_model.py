import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    block_sum_matrix,
    downdate_gradient,
    loop_split_gradient,
    path_sum_matrix,
)
from treecov.errors import (
    DataError,
    DimensionError,
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
    suff_stats,
)
from treecov.rng import RngStream
from treecov.treespace import (
    Split,
    Topology,
    Tree,
    random_tree,
    resolution_candidates,
    star_tree,
)
from treecov.ultrametric import split_indicator, split_indicators, split_matrix, tree_to_matrix


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

    @pytest.mark.parametrize("m,error", [
        (np.ones((3, 2)), DimensionError),
        (np.ones(3), DimensionError),
        (np.ones((2, 2)), DimensionError),  # square, but not 3-variate
        (np.array([[1.0, np.nan, 0.0], [np.nan, 1.0, 0.0], [0.0, 0.0, 1.0]]),
         InvalidArgumentError),
        (np.diag([1.0, np.inf, 1.0]), InvalidArgumentError),
    ], ids=["non-square", "vector", "wrong-p", "nan", "infinite-diagonal"])
    def test_malformed_matrix_is_typed(self, m, error):
        for stats in (SufficientStats(2, np.eye(3)), SufficientStats.empty(3)):
            with pytest.raises(error):
                gaussian_loglik(stats, m)

    def test_gradient_not_positive_definite(self):
        stats = SufficientStats(2, np.eye(2))
        with pytest.raises(NotPositiveDefiniteError):
            # leaf 1 at length 0 and the root at 1: sigma is all ones
            LikelihoodKernel(stats).factor([0b01, 0b11], [0.0, 1.0])

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
    def check(stats, tree, masks=None):
        """The gradient at ``tree``'s coordinates, at ``masks`` if given."""
        coords = list(tree.coordinates())
        every = [s.mask for s, _ in coords]
        kernel = LikelihoodKernel(stats)
        kernel.factor(every, [v for _, v in coords])
        full = kernel.gradient()
        masks = every if masks is None else masks
        got = full[[every.index(m) for m in masks]]
        sigma = tree_to_matrix(tree).values
        W = np.linalg.inv(sigma)
        V = np.array([[m >> k & 1 for m in masks] for k in range(len(sigma))], float)
        scale = 0.5 * stats.n * np.abs(np.diag(V.T @ W @ V)) \
            + 0.5 * np.abs(np.diag(V.T @ W @ stats.S @ W @ V))
        want = loop_split_gradient(stats.n, stats.S, sigma, masks)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        alt = np.array([downdate_gradient(stats.n, stats.S, tree, Split(tree.p, m))
                        for m in masks])
        assert np.all(np.abs(got - alt) <= 1e-12 * scale)

    @pytest.mark.parametrize("p", [2, 3, 7, 20, 64])
    def test_matches_loop_and_downdate(self, rng, p):
        for _ in range(3):
            t = random_tree(p, "uniform-binary", 1.0, rng)
            stats = suff_stats(sample_gaussian(tree_to_matrix(t).values, 10 * p, rng))
            self.check(stats, t)

    def test_leaf_and_root_masks_alone(self, rng):
        # sigma comes from the masks given, so these entries are read from
        # the gradient in every coordinate
        t = random_tree(6, "uniform-binary", 1.0, rng)
        stats = suff_stats(sample_gaussian(tree_to_matrix(t).values, 40, rng))
        self.check(stats, t, [0b1])
        self.check(stats, t, [(1 << 6) - 1])
        self.check(stats, t, [1 << 5, 0b1, (1 << 6) - 1])

    def test_indicators_of_64_leaves(self):
        V = split_indicators(64, [(1 << 64) - 1, 1 << 63, 1, 0b110])
        assert V.shape == (64, 4)
        assert np.all(V[:, 0] == 1.0)
        assert np.flatnonzero(V[:, 1]).tolist() == [63]
        assert np.flatnonzero(V[:, 2]).tolist() == [0]
        assert np.flatnonzero(V[:, 3]).tolist() == [1, 2]

    def test_one_mask_indicator_is_the_column(self):
        draw = random.Random(8)
        for p in range(2, 65):
            masks = [(1 << p) - 1, 1, 1 << (p - 1)] + \
                [draw.randrange(1, 1 << p) for _ in range(20)]
            V = split_indicators(p, masks)
            for j, mask in enumerate(masks):
                v = split_indicator(p, mask)
                assert v.dtype == V.dtype and v.shape == (p,)
                assert v.tobytes() == V[:, j].tobytes()


def _fresh_sigma(p, lengths):
    """The covariance of ``{mask: length}`` from ``split_matrix``, checked
    against the block-add reference within 1e-14 of its largest entry."""
    masks, values = list(lengths), list(lengths.values())
    sigma = split_matrix(p, masks, values)
    ref = block_sum_matrix(p, masks, values)
    assert np.all(np.abs(sigma - ref) <= 1e-14 * np.abs(ref).max())
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
        kernel = LikelihoodKernel(stats, lengths)
        for pick, frac, accept in moves:
            mask = masks[pick % len(masks)]
            moved = dict(lengths)
            moved[mask] += frac * lengths[mask]
            before, old = kernel.log_lik, lengths[mask]
            dll = kernel.move([(mask, moved[mask])], -math.inf if accept else math.inf)
            assert before + dll == pytest.approx(
                gaussian_loglik(stats, _fresh_sigma(p, moved)), rel=1e-9)
            assert lengths[mask] == (moved[mask] if accept else old)
            sigma = _fresh_sigma(p, lengths)
            W = np.linalg.inv(sigma)
            assert kernel.log_lik == pytest.approx(gaussian_loglik(stats, sigma), rel=1e-9)
            assert np.allclose(kernel.W, W, rtol=0.0, atol=1e-9 * np.abs(W).max())

    @pytest.mark.parametrize("spoiled", [False, True])
    @pytest.mark.parametrize("p", [6, 40])
    def test_sweep_equals_move_by_move(self, p, spoiled):
        # one sweep call, and one move call per coordinate on a twin, with
        # the same proposals and bars end on the same bits, sweep after
        # sweep; a spoiled last diagonal entry of W sends the last leaf's
        # lengthening moves through the fallback after earlier moves were kept
        rng = RngStream(60, p)
        t = random_tree(p, "uniform-binary", 1.0, rng)
        stats = suff_stats(sample_gaussian(tree_to_matrix(t), 10 * p, rng))
        batched = LikelihoodKernel(stats, {s.mask: v for s, v in t.coordinates()})
        stepwise = LikelihoodKernel(stats, {s.mask: v for s, v in t.coordinates()})
        start = dict(batched.lengths)
        for _ in range(5):
            if spoiled:
                assert batched.log_lik == stepwise.log_lik  # read before W is spoiled
                batched.W[-1, -1] = stepwise.W[-1, -1] = -1e3
            masks = sorted(batched.lengths)
            prop = [batched.lengths[m] * math.exp(0.1 * z)
                    for m, z in zip(masks, rng.generator.standard_normal(len(masks)))]
            bars = np.log(rng.generator.random(len(masks))).tolist()
            kept = batched.sweep(masks, prop, bars)
            by_move = 0
            for mask, new, bar in zip(masks, prop, bars):
                if bar < stepwise.move([(mask, new)], bar):
                    by_move += 1
            assert 0 < kept == by_move < len(masks)
            assert np.array_equal(batched.W, stepwise.W)
            assert list(batched.lengths.items()) == list(stepwise.lengths.items())
            assert batched.log_lik == stepwise.log_lik
        moved = [m for m in start if batched.lengths[m] != start[m]]
        assert any(m & (m - 1) == 0 for m in moved) and any(m & (m - 1) for m in moved)
        if not spoiled:
            sigma = _fresh_sigma(p, batched.lengths)
            assert batched.log_lik == pytest.approx(gaussian_loglik(stats, sigma), rel=1e-9)

    @pytest.mark.parametrize("p", [4, 7, 20])
    def test_two_changes_match_fresh_build(self, rng, p):
        # a topology swap: one internal split shrinks to zero and a
        # compatible alternative regrows with its length, priced as two
        # rank-one steps
        t = random_tree(p, "uniform-binary", 1.0, rng)
        stats = suff_stats(sample_gaussian(tree_to_matrix(t), 3 * p, rng))
        lengths = {s.mask: v for s, v in t.coordinates()}
        kernel = LikelihoodKernel(stats, lengths)
        old, length = max(t.internal_lengths.items(), key=lambda kv: kv[0].mask)
        new = next(s for s in resolution_candidates(t.topology, old) if s != old)
        kept = {s: v for s, v in t.internal_lengths.items() if s != old}
        kept[new] = length
        swapped = Tree(Topology(p, frozenset(kept)), kept, t.leaf_lengths, t.root_length)
        sigma = _fresh_sigma(p, {s.mask: v for s, v in swapped.coordinates()})
        assert np.all(np.abs(sigma - path_sum_matrix(swapped)) <= 1e-14 * np.abs(sigma).max())
        before = kernel.log_lik
        dll = kernel.move([(old.mask, 0.0), (new.mask, length)], -math.inf)
        assert before + dll == pytest.approx(gaussian_loglik(stats, sigma), rel=1e-12)
        assert old.mask not in lengths and lengths[new.mask] == length
        assert kernel.log_lik == pytest.approx(gaussian_loglik(stats, sigma), rel=1e-12)
        assert np.allclose(kernel.W, np.linalg.inv(sigma), rtol=0.0,
                           atol=1e-9 * np.abs(kernel.W).max())

    def test_refresh_is_one_fresh_factorization(self, rng, monkeypatch):
        import treecov.model as model

        t = random_tree(5, "uniform-binary", 1.0, rng)
        stats = suff_stats(sample_gaussian(tree_to_matrix(t), 30, rng))
        lengths = {s.mask: v for s, v in t.coordinates()}
        kernel = LikelihoodKernel(stats, lengths)
        calls = []
        real = model._factor
        monkeypatch.setattr(model, "_factor", lambda *a: calls.append(a) or real(*a))
        kernel.move([(0b1, lengths[0b1] + 0.3)], -math.inf)  # kept
        absent = next(m for m in range(3, 31) if m not in lengths)
        kernel.move([(absent, 0.2)], math.inf)  # priced, not kept
        assert not calls  # rank-one moves factorize nothing
        assert absent in kernel.columns
        kernel.refresh()
        assert len(calls) == 1
        sigma = _fresh_sigma(5, dict(sorted(lengths.items())))
        assert kernel.log_lik == gaussian_loglik(stats, sigma)
        # the column cache keeps the stored masks only
        assert set(kernel.columns) <= set(lengths)
        # with no move kept since, the factorization is reused
        calls.clear()
        kernel.move([(0b1, 9.0)], math.inf)
        kernel.refresh()
        assert not calls

    def test_factor_reuses_only_the_exact_position(self, rng, monkeypatch):
        # a call at the last position reuses its factorization; the masks
        # are compared by value, so one rewritten in place since (as a
        # boundary crossing rewrites an HMC slot) factorizes again, and so
        # does any call after a kept move
        import treecov.model as model

        t = random_tree(6, "uniform-binary", 1.0, rng)
        stats = suff_stats(sample_gaussian(tree_to_matrix(t), 30, rng))
        masks = [s.mask for s, _ in t.coordinates()]
        d = np.array([v for _, v in t.coordinates()])
        j = next(j for j, m in enumerate(masks) if 2 <= m.bit_count() < 6)
        new = next(c for c in resolution_candidates(t.topology, Split(6, masks[j]))
                   if c.mask != masks[j]).mask
        want = gaussian_loglik(stats, split_matrix(6, masks[:j] + [new] + masks[j + 1:], d))
        calls = []
        real = model._factor
        monkeypatch.setattr(model, "_factor", lambda *a: calls.append(a) or real(*a))
        kernel = LikelihoodKernel(stats)
        kernel.factor(masks, d)
        grad = kernel.gradient()
        kernel.factor(masks, d.copy())
        assert len(calls) == 1
        assert np.array_equal(kernel.gradient(), grad)
        masks[j] = new
        kernel.factor(masks, d)
        assert len(calls) == 2
        assert kernel.log_lik == want
        kernel.lengths = dict(zip(masks, d))
        kernel.move([(masks[0], d[0] + 0.1)], -math.inf)
        kernel.factor(masks, d)
        assert len(calls) == 3
        assert kernel.log_lik == want

    def test_failed_factor_leaves_nothing_to_reuse(self):
        # a failed position is factorized again, and the last good one is kept
        stats = SufficientStats(2, np.eye(2))
        kernel = LikelihoodKernel(stats)
        masks, d = [0b01, 0b10, 0b11], np.array([1.0, 1.0, 1.0])
        kernel.factor(masks, d)
        grad = kernel.gradient()
        with pytest.raises(NotPositiveDefiniteError):
            kernel.factor(masks, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(NotPositiveDefiniteError):
            kernel.factor(masks, np.array([0.0, 0.0, 1.0]))
        assert np.array_equal(kernel.gradient(), grad)
        assert kernel.log_lik == gaussian_loglik(stats, np.array([[2.0, 1.0], [1.0, 2.0]]))

    def test_no_data_builds_nothing(self):
        lengths = {0b1: 1.0, 0b10: 1.0, 0b100: 1.0, 0b111: 1.0}
        kernel = LikelihoodKernel(SufficientStats.empty(3), lengths)
        assert kernel.W is None
        assert kernel.move([(0b1, 6.0)], -math.inf) == 0.0
        assert lengths[0b1] == 6.0
        assert kernel.log_lik == 0.0
        assert not kernel.columns

    def test_singular_move_is_typed(self):
        # p=2 with both leaf lengths driven to 1e-17 under a unit root: the
        # second move's 1 + delta c rounds to zero, and the full
        # factorization it falls back to fails on the singular matrix
        stats = SufficientStats(5, np.eye(2))
        lengths = {0b01: 1.0, 0b10: 1.0, 0b11: 1.0}
        kernel = LikelihoodKernel(stats, lengths)
        kernel.move([(0b01, 1e-17)], -math.inf)
        with pytest.raises(NotPositiveDefiniteError):
            kernel.move([(0b10, 1e-17)], -math.inf)
        assert lengths == {0b01: 1e-17, 0b10: 1.0, 0b11: 1.0}

    def test_non_positive_denominator_falls_back_to_fresh(self, rng):
        # a corrupted inverse makes 1 + delta c negative; the move is then
        # priced and applied by a full factorization of the proposed lengths
        self.check_fallback(rng, lambda lengths, new: [(0b1, new)])

    def test_second_step_denominator_falls_back_to_fresh(self, rng):
        # the same, when the negative 1 + delta c is a later step's
        self.check_fallback(rng, lambda lengths, new: [(0b1000, lengths[0b1000]), (0b1, new)])

    @staticmethod
    def check_fallback(rng, changes):
        t = random_tree(4, "uniform-binary", 1.0, rng)
        stats = suff_stats(sample_gaussian(tree_to_matrix(t), 20, rng))
        lengths = {s.mask: v for s, v in t.coordinates()}
        kernel = LikelihoodKernel(stats, lengths)
        kernel.W = -kernel.W
        delta = 2.0 / abs(kernel.W[0, 0])
        moved = dict(lengths)
        moved[0b1] += delta
        sigma = _fresh_sigma(4, dict(sorted(moved.items())))
        before = kernel.log_lik
        dll = kernel.move(changes(lengths, moved[0b1]), -math.inf)
        assert dll == gaussian_loglik(stats, sigma) - before
        assert lengths == moved
        assert np.allclose(kernel.W, np.linalg.inv(sigma))


def test_scipy_loads_with_the_first_factorization():
    # importing the CLI loads no scipy, which would be most of its import
    # time; the first factorization loads it
    code = ("import sys, treecov.cli, treecov.model as m\n"
            "print('scipy' in sys.modules)\n"
            "m.gaussian_loglik(m.SufficientStats(1, [[1.0]]), [[2.0]])\n"
            "print('scipy' in sys.modules, m.dpotrf is not None)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True", "True"]
