import concurrent.futures
import multiprocessing
import os
from functools import partial

import numpy as np
import pytest

from treecov import model, samplers, sim
from treecov.errors import InvalidArgumentError, NotPositiveDefiniteError
from treecov.samplers import MhConfig
from treecov.sim import COST_CAP_SECONDS, Scenario, run_scenario, score_point_estimate
from treecov.treespace import Split, random_tree
from treecov.ultrametric import tree_to_matrix


def small_scenario(**kw):
    base = dict(
        p=4,
        multipliers=(10,),
        distributions=("normal",),
        replicates=2,
        mh=MhConfig(iterations=600, burn_in=300),
        mean_passes=2,
        master_seed=12,
    )
    base.update(kw)
    return Scenario(**base)


class TestScorePointEstimate:
    def test_zero_on_truth(self, rng):
        m = tree_to_matrix(random_tree(4, "uniform-binary", 1.0, rng)).values
        assert score_point_estimate(m, m) == (0.0, 0.0)

    def test_single_block_shift(self, tree_factory):
        t = tree_factory(4, {(1, 2): 0.5, (1, 2, 3): 0.3})
        m = tree_to_matrix(t).values
        s = Split.from_leaves(4, (1, 2, 3))
        delta = 0.11
        bumped = m.copy()
        idx = np.array(s.leaves()) - 1
        bumped[np.ix_(idx, idx)] += delta
        d, frob = score_point_estimate(bumped, m)
        assert d == pytest.approx(delta, abs=1e-10)
        assert frob == pytest.approx(delta * 3, abs=1e-10)

    def test_symmetry(self, rng):
        a = tree_to_matrix(random_tree(4, "uniform-binary", 1.0, rng)).values
        b = tree_to_matrix(random_tree(4, "uniform-binary", 1.0, rng)).values
        assert score_point_estimate(a, b) == pytest.approx(
            score_point_estimate(b, a)
        )


class TestScenario:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            Scenario(replicates=0)
        with pytest.raises(InvalidArgumentError):
            Scenario(distributions=("cauchy",))
        with pytest.raises(InvalidArgumentError):
            Scenario(truth_mode="bogus")

    @pytest.mark.parametrize("field,value", [
        ("length_mean", -1.0), ("length_mean", 0.0), ("length_mean", float("inf")),
        ("interval_level", 1.5), ("interval_level", 0.0),
        ("mean_passes", 0), ("mean_passes", 1.5), ("mean_passes", True),
        ("drop_count", -1),
        ("p", 1), ("p", 65),
        ("multipliers", ()), ("multipliers", (5, 5)),
        ("distributions", ()), ("distributions", ("normal", "normal")),
    ])
    def test_unrunnable_value_refused(self, field, value):
        with pytest.raises(InvalidArgumentError, match=field):
            Scenario(**{field: value})

    def test_drop_shortest_removes_the_shortest_splits(self, rng):
        tree = random_tree(9, "uniform-binary", 1.0, rng)
        by_length = sorted(tree.internal_lengths, key=tree.internal_lengths.get)
        for k in range(len(by_length) + 1):
            kept = sim._drop_splits(tree, k, "shortest", rng)
            assert set(kept.internal_lengths) == set(by_length[k:])
            assert all(kept.internal_lengths[s] == tree.internal_lengths[s]
                       for s in by_length[k:])
            assert (kept.leaf_lengths, kept.root_length) == \
                (tree.leaf_lengths, tree.root_length)

    def test_deterministic_report(self):
        s = small_scenario(replicates=1)
        r1 = run_scenario(s)
        r2 = run_scenario(s)
        assert r1.to_json_dict()["cells"] == r2.to_json_dict()["cells"]
        assert r1.truths == r2.truths

    def test_replicates_redraw_truth_by_default(self):
        s = small_scenario(replicates=2)
        report = run_scenario(s)
        (nwk,) = set(map(len, report.truths.values()))
        trees = list(report.truths.values())[0]
        assert nwk == 2
        assert trees[0] != trees[1]

    def test_fixed_truth_shares_tree(self):
        s = small_scenario(replicates=2, fixed_truth=True)
        report = run_scenario(s)
        trees = list(report.truths.values())[0]
        assert trees[0] == trees[1]

    def test_equidistant_truth_mode(self):
        from treecov.newick import newick_to_tree

        s = small_scenario(p=5, truth_mode="equidistant", replicates=1)
        report = run_scenario(s)
        (nwk,) = list(report.truths.values())[0]
        truth = newick_to_tree(nwk)
        depths = [truth.root_to_leaf_depth(i) for i in range(1, 6)]
        assert max(depths) - min(depths) < 1e-9

    def test_unresolved_truth_drops_splits(self):
        s = small_scenario(p=6, truth_mode="unresolved", drop_count=2,
                           replicates=1)
        report = run_scenario(s)
        rows = report.results
        assert len(rows[0].recovery) == 6 - 2 - 2

    def test_recovery_scores_in_range(self):
        report = run_scenario(small_scenario())
        for row in report.results:
            assert 0.0 <= row.coverage_rate <= 1.0
            for f in row.recovery.values():
                assert 0.0 <= f <= 1.0
            assert row.mean_d >= 0.0 and row.map_frob >= 0.0

    def test_cost_guard(self, monkeypatch):
        # priced by the pilot at about 1e5 s on two workers, far past the cap;
        # a replicate that starts fails the test at once instead of running
        s = Scenario(p=30, multipliers=(3, 5, 10, 25, 50), distributions=("normal", "t3"),
                     replicates=50, mh=MhConfig(iterations=10**6, burn_in=9000))
        monkeypatch.setattr(sim, "_run_replicate", must_not_run)
        set_cpus(monkeypatch, 2)
        with pytest.raises(InvalidArgumentError, match="exceeds cap 3600s.*--force"):
            run_scenario(s)

    def test_misspecification_degrades_recovery(self):
        # heavy-tailed data recover the topology strictly worse than exact
        # Gaussian data once the Gaussian runs have enough samples to
        # stabilize (at very small n both are noisy and the ordering can
        # flip replicate to replicate)
        s = Scenario(
            p=8,
            multipliers=(10,),
            distributions=("normal", "t3"),
            replicates=8,
            fixed_truth=True,
            mh=MhConfig(iterations=3000, burn_in=2000),
            mean_passes=1,
            master_seed=61,
        )
        agg = run_scenario(s, force=True).aggregate()

        def overall(dist):
            cell = agg[f"{dist}/n=80"]
            return float(np.mean(list(cell["split_recovery_median"].values())))

        assert overall("t3") < overall("normal")

    def test_report_tables(self, tmp_path):
        from treecov.sim import write_report

        report = run_scenario(small_scenario(replicates=1))
        jpath = tmp_path / "report.json"
        cpath = tmp_path / "recovery.csv"
        write_report(report, jpath, cpath)
        text = cpath.read_text()
        assert text.startswith("n,distribution")
        assert jpath.read_text().startswith("{")


def set_cpus(monkeypatch, count):
    """Make ``count`` CPUs available to the worker-count rule."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def must_not_run(*args):
    """Stands in for a function the code under test must not call."""
    raise AssertionError("a function that must not run was called")


def comparable(report):
    out = report.to_json_dict()
    out.pop("elapsed_seconds")
    return out, report.truths, report.results


_CALLER = os.getpid()
_RUN_REPLICATE = sim._run_replicate


def failing_replicate(failing, s, dist, mult, rep, cell_idx):
    """``_run_replicate``, except that replicate ``failing`` raises.

    Module-level, so that a worker process can unpickle it.
    """
    if rep == failing:
        where = "caller" if os.getpid() == _CALLER else "child"
        raise NotPositiveDefiniteError(f"replicate {rep} in the {where}")
    return _RUN_REPLICATE(s, dist, mult, rep, cell_idx)


class TestWorkers:
    """Replicates on forked workers give the serial report."""

    SCENARIO = dict(multipliers=(5, 10), distributions=("normal", "t3"),
                    truth_mode="unresolved", drop_count=1)

    def test_two_workers_equal_serial(self, monkeypatch):
        s = small_scenario(**self.SCENARIO)
        set_cpus(monkeypatch, 1)
        serial = comparable(run_scenario(s))
        set_cpus(monkeypatch, 2)
        assert comparable(run_scenario(s)) == serial
        assert multiprocessing.active_children() == []

    def test_pool_size_capped_by_jobs(self, monkeypatch):
        sizes = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        s = small_scenario(replicates=3)
        set_cpus(monkeypatch, 1)
        serial = comparable(run_scenario(s))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        set_cpus(monkeypatch, 4)
        assert comparable(run_scenario(s)) == serial
        # three jobs on four CPUs: the caller plus two children
        assert sizes == [2]

    @pytest.mark.parametrize("failing, worker", [(0, "caller"), (1, "child")])
    def test_worker_error_keeps_type(self, monkeypatch, failing, worker):
        # with two workers the caller runs the even jobs, a child the odd ones
        monkeypatch.setattr(sim, "_run_replicate", partial(failing_replicate, failing))
        set_cpus(monkeypatch, 2)
        with pytest.raises(NotPositiveDefiniteError,
                           match=f"replicate {failing} in the {worker}"):
            run_scenario(small_scenario(replicates=4))
        assert multiprocessing.active_children() == []


class TestCostGuard:
    """The pilot's rate, extrapolated over every chain and the workers,
    against ``COST_CAP_SECONDS``."""

    @pytest.mark.parametrize("scale", [1 + 1e-9, 1 - 1e-9])
    @pytest.mark.parametrize("cpus,workers", [(1, 1), (2, 2), (4, 3)])
    def test_refuses_just_above_the_cap(self, monkeypatch, cpus, workers, scale):
        # three jobs of 20 iterations on min(cpus, 3) workers, priced at
        # scale times the cap
        s = small_scenario(replicates=3, mh=MhConfig(iterations=20, burn_in=10))
        rate = scale * COST_CAP_SECONDS * workers / (20 * 3)
        monkeypatch.setattr(sim, "_pilot_seconds_per_iteration", lambda _: rate)
        set_cpus(monkeypatch, cpus)
        if scale < 1:
            assert len(run_scenario(s).results) == 3
            return
        monkeypatch.setattr(sim, "_run_replicate", must_not_run)
        with pytest.raises(InvalidArgumentError, match="estimated cost 3600s"):
            run_scenario(s)

    def test_forced_run_makes_no_pilot(self, monkeypatch):
        monkeypatch.setattr(sim, "_pilot_seconds_per_iteration", must_not_run)
        assert len(run_scenario(small_scenario(), force=True).results) == 2

    def test_pilot_changes_no_draw(self, monkeypatch):
        s = small_scenario()
        set_cpus(monkeypatch, 1)
        assert comparable(run_scenario(s)) == comparable(run_scenario(s, force=True))

    @pytest.mark.parametrize("algo", ["mh", "hmc"])
    def test_pilot_times_a_chain_with_lapack_loaded(self, monkeypatch, algo):
        # a cold pilot would time the scipy import, many times the iterations
        for name in ("dger", "dpotrf", "dpotrs"):
            monkeypatch.setattr(model, name, None)
        calls = []
        run_chain = samplers.run_chain

        def recording(data, init, chain_algo, cfg):
            calls.append((model.dpotrf is not None, chain_algo, cfg.iterations))
            return run_chain(data, init, chain_algo, cfg)

        monkeypatch.setattr(sim, "run_chain", recording)
        rate = sim._pilot_seconds_per_iteration(small_scenario(algo=algo))
        assert calls == [(True, algo, sim.PILOT_ITERATIONS)]
        assert rate > 0
