import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treecov.archive import ArchiveRecord, PosteriorArchive, _Reader
from treecov.errors import DataError, DimensionError, InvalidArgumentError, InvalidTreeError
from treecov.geometry import MeanConfig
from treecov.posterior import (
    build_summary,
    coverage,
    credible_intervals,
    map_sample,
    posterior_mean,
    split_frequencies,
)
from treecov.rng import RngStream
from treecov.treespace import Split, Topology, Tree, random_tree, star_tree
from treecov.ultrametric import tree_to_matrix, validate_ultrametric


def record_from_tree(tree, iteration, log_prior=-1.0, log_lik=-2.0):
    return ArchiveRecord(
        iteration=iteration,
        log_prior=log_prior,
        log_lik=log_lik,
        splits=tuple(sorted(tree.internal_lengths, key=lambda s: s.mask)),
        lengths=dict(tree.internal_lengths),
        leaf_lengths=tree.leaf_lengths,
        root_length=tree.root_length,
    )


@pytest.fixture
def small_archive(tree_factory):
    t_a = tree_factory(4, {(1, 2): 0.5}, root_length=0.3)
    t_b = tree_factory(4, {(1, 2): 0.7}, root_length=0.5)
    t_c = tree_factory(4, {(3, 4): 0.4}, root_length=0.3)
    records = [
        record_from_tree(t_a, 1, log_lik=-5.0),
        record_from_tree(t_a, 2, log_lik=-5.0),
        record_from_tree(t_b, 3, log_lik=-4.0),
        record_from_tree(t_c, 4, log_lik=-6.0),
    ]
    return PosteriorArchive(p=4, records=records,
                            trace=[(i, -5.0) for i in range(1, 5)])


class TestSplitFrequencies:
    def test_counts(self, small_archive):
        freqs = split_frequencies(small_archive)
        assert freqs[Split.from_leaves(4, (1, 2))] == 0.75
        assert freqs[Split.from_leaves(4, (3, 4))] == 0.25
        assert freqs.get(Split.from_leaves(4, (1, 3)), 0.0) == 0.0

    def test_reorder_invariance(self, small_archive):
        shuffled = PosteriorArchive(
            p=4, records=list(reversed(small_archive.records))
        )
        assert split_frequencies(shuffled) == split_frequencies(small_archive)

    def test_empty_archive(self):
        with pytest.raises(InvalidArgumentError):
            split_frequencies(PosteriorArchive(p=3))


class TestCredibleIntervals:
    def test_degenerate(self, small_archive):
        one = PosteriorArchive(p=4, records=small_archive.records[:1])
        lo, hi = credible_intervals(one, 0.95)
        m = tree_to_matrix(small_archive.records[0].tree()).values
        assert np.allclose(lo, m) and np.allclose(hi, m)

    def test_two_point_interpolation(self, tree_factory):
        t1 = tree_factory(3, {}, leaf_lengths=(1, 1, 1), root_length=1.0)
        t2 = tree_factory(3, {}, leaf_lengths=(1, 1, 1), root_length=2.0)
        records = [record_from_tree(t1, 1), record_from_tree(t2, 2)]
        archive = PosteriorArchive(p=3, records=records)
        lo, hi = credible_intervals(archive, 0.5)
        assert 1.0 <= lo[0, 1] <= 1.5 <= hi[0, 1] <= 2.0

    def test_nested_in_level(self, small_archive):
        lo1, hi1 = credible_intervals(small_archive, 0.5)
        lo2, hi2 = credible_intervals(small_archive, 0.95)
        assert np.all(lo2 <= lo1 + 1e-12) and np.all(hi1 <= hi2 + 1e-12)

    def test_level_domain(self, small_archive):
        with pytest.raises(InvalidArgumentError):
            credible_intervals(small_archive, 1.0)


def mixed_archive(p, seed, shapes, n):
    """``n`` records that jitter the lengths of a star tree, ``shapes``
    resolved trees and one partly collapsed tree, picked at random."""
    rng = RngStream(seed)
    bases = [star_tree([1.0] * p, 0.5)]
    for _ in range(shapes):
        t = random_tree(p, rng=rng)
        bases.append(t)
        kept = {s: v for s, v in t.internal_lengths.items() if rng.uniform() < 0.5}
        bases.append(Tree(Topology(p, frozenset(kept)), kept, t.leaf_lengths,
                          t.root_length))
    trees = []
    for _ in range(n):
        base = bases[rng.integers(len(bases))]
        jitter = lambda x: x * math.exp(0.3 * rng.normal())  # noqa: E731
        internal = {s: jitter(v) for s, v in base.internal_lengths.items()}
        trees.append(Tree(base.topology, internal,
                          tuple(map(jitter, base.leaf_lengths)),
                          jitter(base.root_length)))
    return PosteriorArchive(p=p, records=[
        ArchiveRecord.from_tree(i + 1, 0.0, 0.0, t) for i, t in enumerate(trees)])


def assert_intervals_are_tree_quantiles(archive, level):
    stack = np.stack([tree_to_matrix(t).values for t in archive.trees()])
    tail = 0.5 * (1.0 - level)
    lo, hi = credible_intervals(archive, level)
    assert np.array_equal(lo, np.quantile(stack, tail, axis=0))
    assert np.array_equal(hi, np.quantile(stack, 1.0 - tail, axis=0))


class TestIntervalStack:
    """The per-topology stack equals the quantiles of every tree's matrix."""

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([2, 3, 4, 7, 12, 20]), seed=st.integers(0, 2 ** 32 - 1),
           shapes=st.integers(0, 4), n=st.integers(1, 30),
           level=st.floats(0.05, 0.95))
    def test_bit_identical_to_tree_matrices(self, p, seed, shapes, n, level):
        assert_intervals_are_tree_quantiles(mixed_archive(p, seed, shapes, n), level)

    def test_64_leaves(self):
        assert_intervals_are_tree_quantiles(mixed_archive(64, 7, 3, 40), 0.9)

    def test_loaded_archive(self, tmp_path):
        mixed_archive(10, 3, 3, 60).save_jsonl(tmp_path / "a.jsonl")
        loaded = PosteriorArchive.load_jsonl(tmp_path / "a.jsonl")
        assert_intervals_are_tree_quantiles(loaded, 0.95)


class TestLoadSharing:
    def test_records_share_one_topology_per_split_set(self, tmp_path):
        mixed_archive(8, 11, 3, 80).save_jsonl(tmp_path / "a.jsonl")
        archive = PosteriorArchive.load_jsonl(tmp_path / "a.jsonl")
        by_set: dict = {}
        for r in archive.records:
            first = by_set.setdefault(frozenset(r.splits), r)
            assert r.tree().topology is first.tree().topology
            assert r.splits is first.splits
            assert all(a is b for a, b in zip(r.lengths, first.lengths))
        assert 1 < len(by_set) < len(archive)
        assert len({id(r.tree().topology) for r in archive.records}) == len(by_set)

    def test_failures_are_not_remembered(self):
        reader = _Reader(4)
        good = {"iter": 1, "log_prior": 0.0, "log_lik": 0.0,
                "splits": [[1, 2], [3, 4]], "lengths": {"1,2": 0.5, "3,4": 0.5},
                "leaf_lengths": [1.0] * 4, "root_length": 0.5}
        reader.record(good)
        cases = [  # change, error, message, the spelling that failed
            ({"splits": [[1, 2], [3, 5]]}, InvalidArgumentError, "leaf 5 outside",
             (3, 5)),
            ({"lengths": {"1,2": 0.5, "3,x": 0.5}}, ValueError, "invalid literal",
             "3,x"),
            # equal to the stored (1, 2) but malformed
            ({"splits": [[1.0, 2], [3, 4]]}, TypeError, "unsupported operand", None),
            ({"splits": [[True, 2], [3, 4]]}, InvalidArgumentError, "boolean", None),
            ({"splits": [[1, 2], [2, 3]], "lengths": {"1,2": 0.5, "2,3": 0.5}},
             InvalidTreeError, "incompatible splits", None),
            ({"splits": [[1, 2], [3, 4], [1, 2]]}, InvalidTreeError, "listed twice",
             None),
        ]
        topologies = dict(reader.table.topologies)
        for change, error, message, spelling in cases:
            for _ in range(2):  # a second try raises the same error
                with pytest.raises(error, match=message):
                    reader.record(good | change)
            assert spelling not in reader.spellings
            assert reader.table.topologies == topologies


class TestDuplicateSplits:
    """A split named twice is an error, never a frequency above one."""

    def test_in_memory_record(self, tree_factory):
        t = tree_factory(4, {(1, 2): 0.5})
        s = Split.from_leaves(4, (1, 2))
        record = ArchiveRecord(1, 0.0, 0.0, (s, s), {s: 0.5}, t.leaf_lengths, 0.5)
        with pytest.raises(InvalidTreeError, match="listed twice"):
            PosteriorArchive(p=4, records=[record]).validate()


class TestTraceCsv:
    """A malformed trace row is a ``DataError`` that names its line."""

    @pytest.mark.parametrize("row,message", [
        ("2,high", "could not convert string to float"),
        ("x,-3.0", "invalid literal for int"),
        ("2", "not enough values to unpack"),
        ("2,-3.0,9", "too many values to unpack"),
    ])
    def test_bad_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "t.csv"
        path.write_text(f"iter,log_lik\n1,-3.5\n{row}\n")
        with pytest.raises(DataError, match=re.escape(f"trace {path} line 3: {message}")):
            PosteriorArchive.load_trace_csv(path)


class TestMapSample:
    def test_single_record(self, small_archive):
        one = PosteriorArchive(p=4, records=small_archive.records[:1])
        assert map_sample(one) == small_archive.records[0].tree()

    def test_picks_highest_posterior(self, small_archive):
        best = map_sample(small_archive)
        assert best == small_archive.records[2].tree()

    def test_tie_breaks_to_earliest(self, small_archive):
        dup = PosteriorArchive(p=4, records=[
            small_archive.records[0], small_archive.records[1]
        ])
        assert map_sample(dup) == small_archive.records[0].tree()

    def test_map_dominates_all_records(self, small_archive):
        best_lp = max(r.log_posterior for r in small_archive.records)
        chosen = map_sample(small_archive)
        for r in small_archive.records:
            if r.tree() == chosen:
                assert r.log_posterior == best_lp


class TestPosteriorMean:
    def test_identical_records(self, tree_factory):
        t = tree_factory(4, {(1, 2): 0.5})
        archive = PosteriorArchive(
            p=4, records=[record_from_tree(t, i) for i in range(1, 6)]
        )
        mean = posterior_mean(archive)
        assert np.allclose(mean.values, tree_to_matrix(t).values)

    def test_same_orthant_average(self, tree_factory):
        t1 = tree_factory(4, {(1, 2): 0.4}, root_length=0.2)
        t2 = tree_factory(4, {(1, 2): 0.8}, root_length=0.6)
        archive = PosteriorArchive(p=4, records=[
            record_from_tree(t1, 1), record_from_tree(t2, 2)
        ])
        mean = posterior_mean(archive, MeanConfig(max_iterations=3001))
        target = 0.5 * (tree_to_matrix(t1).values + tree_to_matrix(t2).values)
        assert np.max(np.abs(mean.values - target)) < 1e-3

    def test_output_validates(self, rng):
        trees = [random_tree(5, "uniform-binary", 1.0, rng) for _ in range(8)]
        archive = PosteriorArchive(
            p=5, records=[record_from_tree(t, i + 1) for i, t in enumerate(trees)]
        )
        mean = posterior_mean(archive, MeanConfig(max_iterations=2000))
        assert validate_ultrametric(mean).valid

    def test_permutation_equivariance(self, rng):
        import numpy as np

        from treecov.ultrametric import matrix_to_tree

        trees = [random_tree(4, "uniform-binary", 1.0, rng) for _ in range(5)]
        perm = np.array(rng.shuffled(list(range(4))))
        relabeled = [
            matrix_to_tree(tree_to_matrix(t).values[np.ix_(perm, perm)])
            for t in trees
        ]
        cfg = MeanConfig(max_iterations=4000)
        base = posterior_mean(PosteriorArchive(
            p=4, records=[record_from_tree(t, i + 1) for i, t in enumerate(trees)]
        ), cfg)
        moved = posterior_mean(PosteriorArchive(
            p=4, records=[record_from_tree(t, i + 1)
                          for i, t in enumerate(relabeled)]
        ), cfg)
        assert np.max(np.abs(base.values[np.ix_(perm, perm)] - moved.values)) \
            < 5e-3


class TestCoverage:
    def test_degenerate_equal(self, small_archive):
        m = tree_to_matrix(small_archive.records[0].tree()).values
        hits, rate = coverage(m, m, m)
        assert rate == 1.0 and hits.all()

    def test_exclusion(self):
        truth = np.full((2, 2), 5.0)
        hits, rate = coverage(np.zeros((2, 2)), np.ones((2, 2)), truth)
        assert rate == 0.0 and not hits.any()

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            coverage(np.zeros((2, 2)), np.ones((2, 2)), np.ones((3, 3)))

    def test_rate_uses_lower_triangle(self):
        lo = np.zeros((2, 2))
        hi = np.ones((2, 2))
        truth = np.array([[0.5, 2.0], [0.5, 0.5]])  # only upper entry misses
        _, rate = coverage(lo, hi, truth)
        assert rate == 1.0


def test_record_from_tree_keeps_the_tree(rng):
    t = random_tree(5, rng=rng)
    record = ArchiveRecord.from_tree(3, -1.0, -2.0, t)
    assert record == record_from_tree(t, 3)
    assert record.tree() is t


class TestSummary:
    def test_one_tree_per_record(self, tmp_path, monkeypatch):
        # loading validates each record's topology once; the summary reuses
        # those trees and validates only the truth's and the mean's
        trees = [random_tree(5, rng=RngStream(3, i)) for i in range(12)]
        PosteriorArchive(p=5, records=[record_from_tree(t, i + 1)
                                       for i, t in enumerate(trees)]
                         ).save_jsonl(tmp_path / "a.jsonl")
        validated = []
        real = Topology.__post_init__
        monkeypatch.setattr(Topology, "__post_init__",
                            lambda self: validated.append(self) or real(self))
        archive = PosteriorArchive.load_jsonl(tmp_path / "a.jsonl")
        build_summary(archive, truth=tree_to_matrix(trees[0]),
                      mean_cfg=MeanConfig(max_iterations=50))
        assert len(validated) == len(trees) + 2
        kept = archive.trees()
        assert kept == trees
        assert all(a is b for a, b in zip(kept, archive.trees()))

    def test_build_with_truth(self, rng, tmp_path):
        import json

        truth = random_tree(4, "uniform-binary", 1.0, rng)
        from treecov.model import sample_gaussian
        from treecov.samplers import MhConfig, run_chain

        data = sample_gaussian(tree_to_matrix(truth), 150, rng)
        init = random_tree(4, "uniform-binary", 1.0, RngStream(9))
        archive = run_chain(data, init, "mh",
                            MhConfig(iterations=800, burn_in=400, seed=4))
        report = build_summary(archive, truth=tree_to_matrix(truth),
                               mean_cfg=MeanConfig(max_iterations=1500))
        assert 0.0 <= report.coverage_rate <= 1.0
        assert set(report.recovery) == set(truth.topology.splits)
        blob = json.dumps(report.to_json_dict())
        assert "split_frequencies" in blob
