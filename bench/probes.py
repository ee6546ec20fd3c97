"""Per-layer probes: timed calls to treecov's public functions.

Two hot paths are reachable only through private helpers (the MH
likelihood inside the samplers, the geodesic inside ``frechet_mean``), so
their layers are measured by calling the public equivalents on the
workload's own trees and data, outside the timed ops.  Every probe looks its
functions up by name when it runs: a renamed or removed name makes that
probe's metrics absent, with the reason, instead of failing the run.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
import traceback

import numpy as np


class Absent(Exception):
    """A probe cannot run; the message is the reason."""


def resolve(path: str):
    """Look up ``module.attr[.attr]`` under treecov, or raise ``Absent``."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                raise Absent(f"{path} no longer exists")
            obj = getattr(obj, attr)
        return obj
    raise Absent(f"no module for {path}")


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def _cycle(items, n):
    return [items[i % len(items)] for i in range(n)]


def _summary_us(times, name, metrics, p90=False):
    metrics[f"{name}.us_p50"] = 1e6 * statistics.median(times)
    if p90:
        metrics[f"{name}.us_p90"] = 1e6 * float(np.percentile(times, 90))


def probe_bijection(ctx, m):
    tree_to_matrix = resolve("treecov.ultrametric.tree_to_matrix")
    matrix_to_tree = resolve("treecov.ultrametric.matrix_to_tree")
    validate = resolve("treecov.ultrametric.validate_ultrametric")
    t1, t2, t3 = [], [], []
    for tree in _cycle(ctx["trees"], ctx["n_calls"]):
        dt, mat = _timed(tree_to_matrix, tree)
        t1.append(dt)
        t2.append(_timed(matrix_to_tree, mat.values)[0])
        t3.append(_timed(validate, mat.values)[0])
    _summary_us(t1, "ultrametric.tree_to_matrix", m)
    _summary_us(t2, "ultrametric.matrix_to_tree", m)
    _summary_us(t3, "ultrametric.validate_ultrametric", m)


def probe_likelihood(ctx, m):
    gaussian_loglik = resolve("treecov.model.gaussian_loglik")
    tree_to_matrix = resolve("treecov.ultrametric.tree_to_matrix")
    stats = ctx["stats"]
    times = []
    for tree in _cycle(ctx["trees"], ctx["n_calls"]):
        mat = tree_to_matrix(tree)
        times.append(_timed(gaussian_loglik, stats, mat)[0])
    _summary_us(times, "model.gaussian_loglik", m)


def probe_gradient(ctx, m):
    loglik_gradient = resolve("treecov.model.loglik_gradient")
    times = [_timed(loglik_gradient, ctx["stats"], t)[0]
             for t in _cycle(ctx["trees"], ctx["n_calls"])]
    _summary_us(times, "model.loglik_gradient", m)


def probe_prior(ctx, m):
    resolve("treecov.priors.PriorSpec.topology_log_prior")
    prior = ctx["prior"]
    trees = [t for t in ctx["trees"]
             if prior.kind != "beta-splitting" or t.topology.is_resolved]
    if not trees:
        raise Absent("no resolved tree for the beta-splitting prior")
    times = [_timed(prior.topology_log_prior, t.topology)[0]
             for t in _cycle(trees, ctx["n_calls"])]
    _summary_us(times, "priors.topology_log_prior", m)


def probe_candidates(ctx, m):
    resolution_candidates = resolve("treecov.treespace.resolution_candidates")
    trees = [t for t in ctx["trees"] if t.topology.splits]
    if not trees:
        raise Absent("no tree with an internal split")
    times = []
    for i, t in enumerate(_cycle(trees, ctx["n_calls"])):
        splits = t.topology.sorted_splits()
        times.append(_timed(resolution_candidates, t.topology, splits[i % len(splits)])[0])
    _summary_us(times, "treespace.resolution_candidates", m)


def probe_geodesic(ctx, m):
    """Geodesics between records half an archive apart.

    Consecutive records of a chain mostly share a topology; records half an
    archive apart are as unrelated as the archive allows, like the
    mean-to-record geodesics of ``frechet_mean``.
    """
    bhv_distance = resolve("treecov.geometry.bhv_distance")
    trees = ctx["trees"]
    n = len(trees)
    pairs = _cycle([(trees[i], trees[(i + n // 2) % n]) for i in range(n)],
                   ctx["n_calls"])
    times, counts = [], []
    for a, b in pairs:
        dt, (_, support) = _timed(bhv_distance, a, b)
        times.append(dt)
        counts.append(len(support.pairs))
    _summary_us(times, "geometry.bhv_distance", m, p90=True)
    m["geometry.support_pairs.mean"] = statistics.fmean(counts)


def probe_mean(ctx, m):
    frechet_mean = resolve("treecov.geometry.frechet_mean")
    MeanConfig = resolve("treecov.geometry.MeanConfig")
    steps = 100
    trees = _cycle(ctx["trees"], steps)
    dt, _ = _timed(frechet_mean, trees, MeanConfig(max_iterations=steps))
    m["geometry.frechet_mean.us_per_step"] = 1e6 * dt / steps


def probe_mh(ctx, m):
    ChainState = resolve("treecov.samplers.ChainState")
    MhConfig = resolve("treecov.samplers.MhConfig")
    topology_update = resolve("treecov.samplers.mh_topology_update")
    length_update = resolve("treecov.samplers.mh_length_update")
    RngStream = resolve("treecov.rng.RngStream")
    stats, prior = ctx["stats"], ctx["prior"]
    start = ctx["trees"][-1]
    mode = ctx["mode"] if start.topology.is_resolved else "multifurcating"
    cfg = MhConfig(iterations=2, burn_in=0, mode=mode, prior=prior, seed=ctx["seed"])
    rng = RngStream(ctx["seed"], 7)
    state = ChainState(start, stats, prior)
    t_topo, t_len = [], []
    for _ in range(ctx["n_sweeps"]):
        t_topo.append(_timed(topology_update, state, stats, cfg, rng)[0])
        coords = state.p + len(state.internal) + 1
        t_len.append(_timed(length_update, state, stats, cfg, rng)[0] / coords)
    _summary_us(t_topo, "samplers.mh_topology_update", m, p90=True)
    m["samplers.mh_length_update.us_per_coord_p50"] = 1e6 * statistics.median(t_len)
    m["samplers.mh_length_update.us_per_coord_p90"] = 1e6 * float(np.percentile(t_len, 90))
    m["samplers.mh.topology_accept"] = state.accepted_topology / state.proposed_topology
    m["samplers.mh.length_accept"] = state.accepted_lengths / state.proposed_lengths


def probe_hmc(ctx, m):
    HmcState = resolve("treecov.samplers.HmcState")
    HmcConfig = resolve("treecov.samplers.HmcConfig")
    leapfrog = resolve("treecov.samplers.hmc_leapfrog")
    hmc_step = resolve("treecov.samplers.hmc_step")
    RngStream = resolve("treecov.rng.RngStream")
    stats = ctx["stats"]
    cfg = HmcConfig(iterations=2, burn_in=0, step_size=0.1, leapfrog_steps=10,
                    seed=ctx["seed"])
    rng = RngStream(ctx["seed"], 8)
    state = HmcState(ctx["trees"][-1], cfg)
    state.a = rng.generator.normal(size=len(state.masks))
    times, reassigned = [], 0
    for _ in range(ctx["n_sweeps"]):
        before = list(state.masks)
        times.append(_timed(leapfrog, state, stats, cfg, rng)[0])
        reassigned += sum(a != b for a, b in zip(before, state.masks))
    _summary_us(times, "samplers.hmc_leapfrog", m, p90=True)
    m["samplers.hmc.reassign_per_leapfrog"] = reassigned / len(times)
    state = HmcState(ctx["trees"][-1], cfg)
    for _ in range(ctx["n_hmc_steps"]):
        hmc_step(state, stats, cfg, rng)
    m["samplers.hmc.accept"] = state.accepted / state.proposed


def probe_posterior(ctx, m):
    archive = ctx["archive"]
    for name in ("split_frequencies", "credible_intervals", "map_sample"):
        fn = resolve(f"treecov.posterior.{name}")
        times = [_timed(fn, archive)[0] for _ in range(3)]
        m[f"posterior.{name}.ms"] = 1e3 * statistics.median(times)


def probe_archive(ctx, m):
    load = resolve("treecov.archive.PosteriorArchive.load_jsonl")
    archive = ctx["archive"]
    path = ctx["dir"] / "probe-archive.jsonl"
    saves, loads = [], []
    for _ in range(3):
        saves.append(_timed(archive.save_jsonl, path)[0])
        loads.append(_timed(load, path)[0])
    path.unlink()
    m["archive.save_jsonl.us_per_record"] = 1e6 * statistics.median(saves) / len(archive)
    m["archive.load_jsonl.us_per_record"] = 1e6 * statistics.median(loads) / len(archive)


def probe_scoring(ctx, m):
    score = resolve("treecov.sim.score_point_estimate")
    tree_to_matrix = resolve("treecov.ultrametric.tree_to_matrix")
    trees = ctx["trees"]
    ref = tree_to_matrix(trees[0])
    mats = [tree_to_matrix(t) for t in _cycle(trees, ctx["n_calls"] // 2)]
    times = [_timed(score, mat, ref)[0] for mat in mats]
    m["sim.score_point_estimate.ms_p50"] = 1e3 * statistics.median(times)


PROBES = {
    probe_bijection: {"ultrametric.tree_to_matrix.us_p50": "us",
                      "ultrametric.matrix_to_tree.us_p50": "us",
                      "ultrametric.validate_ultrametric.us_p50": "us"},
    probe_likelihood: {"model.gaussian_loglik.us_p50": "us"},
    probe_gradient: {"model.loglik_gradient.us_p50": "us"},
    probe_prior: {"priors.topology_log_prior.us_p50": "us"},
    probe_candidates: {"treespace.resolution_candidates.us_p50": "us"},
    probe_geodesic: {"geometry.bhv_distance.us_p50": "us",
                     "geometry.bhv_distance.us_p90": "us",
                     "geometry.support_pairs.mean": "count"},
    probe_mean: {"geometry.frechet_mean.us_per_step": "us"},
    probe_mh: {"samplers.mh_topology_update.us_p50": "us",
               "samplers.mh_topology_update.us_p90": "us",
               "samplers.mh_length_update.us_per_coord_p50": "us",
               "samplers.mh_length_update.us_per_coord_p90": "us",
               "samplers.mh.topology_accept": "ratio",
               "samplers.mh.length_accept": "ratio"},
    probe_hmc: {"samplers.hmc_leapfrog.us_p50": "us",
                "samplers.hmc_leapfrog.us_p90": "us",
                "samplers.hmc.reassign_per_leapfrog": "count",
                "samplers.hmc.accept": "ratio"},
    probe_posterior: {"posterior.split_frequencies.ms": "ms",
                      "posterior.credible_intervals.ms": "ms",
                      "posterior.map_sample.ms": "ms"},
    probe_archive: {"archive.save_jsonl.us_per_record": "us",
                    "archive.load_jsonl.us_per_record": "us"},
    probe_scoring: {"sim.score_point_estimate.ms_p50": "ms"},
}
UNITS = {name: unit for names in PROBES.values() for name, unit in names.items()}


def run_probes(ctx) -> tuple[dict, dict]:
    """Run every probe; return ``(metrics, absent)`` keyed by metric name.

    ``ctx`` holds the workload's own ``trees``, ``archive``, ``stats``,
    ``prior``, ``mode`` and ``seed``, plus call counts and a scratch ``dir``.
    """
    metrics, absent = {}, {}
    for probe, names in PROBES.items():
        got = {}
        try:
            if ctx.get("missing"):
                raise Absent(ctx["missing"])
            probe(ctx, got)
        except Absent as exc:
            reason = str(exc)
        except Exception:  # a changed signature must not end the run
            reason = "probe failed: " + traceback.format_exc(limit=2).strip().splitlines()[-1]
        else:
            reason = None
        for name in names:
            if reason is None and name in got and math.isfinite(got[name]):
                metrics[name] = got[name]
            else:
                absent[name] = reason or "probe produced no value"
    return metrics, absent
