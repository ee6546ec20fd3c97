import numpy as np
import pytest

from treecov.errors import InvalidArgumentError
from treecov.samplers import MhConfig
from treecov.sim import (
    Scenario,
    estimate_cost_seconds,
    run_scenario,
    score_point_estimate,
)
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

    def test_cost_guard(self):
        s = Scenario(p=30, multipliers=(50,), replicates=50,
                     mh=MhConfig(iterations=10000, burn_in=9000))
        assert estimate_cost_seconds(s) > 3600
        with pytest.raises(InvalidArgumentError):
            run_scenario(s, cost_cap_seconds=3600.0)

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
