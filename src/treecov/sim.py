"""Replicated simulation scenarios: truth, data, chain, scores.

A scenario fixes the dimension, the sample sizes (as multiples of the
dimension), the generating distribution (exact Gaussian or heavy-tailed t),
the truth mode, and the sampler; each replicate draws a truth (or shares a
fixed one), generates data, runs the chain, and scores split recovery,
interval coverage, and the distances of the point estimates to the truth.
Everything is a pure function of the master seed.

Unless forced (``force=True``, or ``treecov simulate --force``),
``run_scenario`` first times a short pilot of the first replicate's chain
and refuses a scenario whose chains it prices above ``COST_CAP_SECONDS``
(one hour); the summaries that score the chains are not priced.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidArgumentError
from .geometry import MEAN_PASSES, MeanConfig, check_budget, matrix_distance
from .model import DataSet, _load_lapack, sample_gaussian, sample_t
from .newick import tree_to_newick
from .posterior import build_summary
from .rng import RngStream
from .samplers import ALGOS, HmcConfig, MhConfig, run_chain
from .treespace import MAX_LEAVES, Split, Tree, Topology, random_tree
from .ultrametric import as_matrix, tree_to_matrix

_STREAM_TRUTH = 0
_STREAM_DATA = 1
_STREAM_INIT = 2
_CELL_STRIDE = 1 << 20
_REP_STRIDE = 8
COST_CAP_SECONDS = 3600.0
PILOT_ITERATIONS = 10


@dataclass(frozen=True)
class Scenario:
    """One simulation design; see module docstring."""

    p: int = 10
    multipliers: tuple[int, ...] = (3, 5, 10, 25, 50)
    distributions: tuple[str, ...] = ("normal",)
    truth_mode: str = "resolved"
    drop_count: int = 3
    drop_rule: str = "uniform"
    replicates: int = 50
    algo: str = "mh"
    mh: MhConfig = field(default_factory=MhConfig)
    hmc: HmcConfig = field(default_factory=HmcConfig)
    fixed_truth: bool = False
    length_mean: float = 1.0
    interval_level: float = 0.95
    mean_passes: int = MEAN_PASSES
    master_seed: int = 0

    def __post_init__(self):
        if not 2 <= self.p <= MAX_LEAVES:
            raise InvalidArgumentError(f"p = {self.p} is outside 2..{MAX_LEAVES}")
        if self.replicates < 1:
            raise InvalidArgumentError("replicates must be >= 1")
        for name in ("multipliers", "distributions"):
            axis = getattr(self, name)
            if not axis or len(set(axis)) < len(axis):
                raise InvalidArgumentError(f"{name} must be non-empty and distinct, "
                                           f"got {tuple(axis)}")
        if any(m < 1 for m in self.multipliers):
            raise InvalidArgumentError("sample-size multipliers must be positive")
        for d in self.distributions:
            if d not in ("normal", "t3", "t4"):
                raise InvalidArgumentError(f"unknown distribution {d!r}")
        if self.truth_mode not in ("resolved", "unresolved", "equidistant"):
            raise InvalidArgumentError(f"unknown truth mode {self.truth_mode!r}")
        if self.drop_rule not in ("uniform", "shortest"):
            raise InvalidArgumentError(f"unknown drop rule {self.drop_rule!r}")
        if self.drop_count < 0:
            raise InvalidArgumentError("drop_count must be >= 0")
        if not 0 < self.length_mean < math.inf:
            raise InvalidArgumentError("length_mean must be positive and finite")
        if not 0 < self.interval_level < 1:
            raise InvalidArgumentError("interval_level must be in (0, 1)")
        check_budget("mean_passes", self.mean_passes)
        if self.algo not in ALGOS:
            raise InvalidArgumentError(f"unknown algo {self.algo!r}")


def _drop_splits(tree: Tree, count: int, rule: str, rng: RngStream) -> Tree:
    """Remove internal splits from a resolved truth to create multifurcations."""
    splits = sorted(tree.internal_lengths, key=lambda s: s.mask)
    count = min(count, len(splits))
    if rule == "shortest":
        drop = set(sorted(splits, key=lambda s: tree.internal_lengths[s])[:count])
    else:
        pool = list(splits)
        drop = set()
        for _ in range(count):
            drop.add(pool.pop(rng.integers(len(pool))))
    keep = {s: v for s, v in tree.internal_lengths.items() if s not in drop}
    return Tree(Topology(tree.p, frozenset(keep)), keep,
                tree.leaf_lengths, tree.root_length)


def _draw_truth(s: Scenario, rng: RngStream) -> Tree:
    mode = "equidistant" if s.truth_mode == "equidistant" else "uniform-binary"
    tree = random_tree(s.p, mode, s.length_mean, rng)
    if s.truth_mode == "unresolved":
        tree = _drop_splits(tree, s.drop_count, s.drop_rule, rng)
    return tree


def _draw_data(dist: str, truth_matrix, n: int, rng: RngStream) -> DataSet:
    if dist == "normal":
        return sample_gaussian(truth_matrix, n, rng)
    return sample_t(truth_matrix, int(dist[1]), n, rng)


def score_point_estimate(est, truth) -> tuple[float, float]:
    """Geodesic matrix distance and Frobenius norm of the difference."""
    e, t = as_matrix(est), as_matrix(truth)
    if e.shape != t.shape:
        raise InvalidArgumentError(f"shape mismatch: {e.shape} vs {t.shape}")
    return matrix_distance(e, t), float(np.linalg.norm(e - t))


@dataclass
class ReplicateResult:
    distribution: str
    n: int
    replicate: int
    recovery: dict[Split, float]
    coverage_rate: float
    mean_d: float
    mean_frob: float
    map_d: float
    map_frob: float
    mean_num_splits: float
    final_window_mean_loglik: float


@dataclass
class ScenarioReport:
    scenario: Scenario
    truths: dict[tuple[str, int], list[str]]
    results: list[ReplicateResult]
    elapsed_seconds: float

    def cell(self, dist: str, n: int) -> list[ReplicateResult]:
        return [r for r in self.results if r.distribution == dist and r.n == n]

    def aggregate(self) -> dict:
        """Medians and spreads per (distribution, sample size) cell."""
        out = {}
        for dist in self.scenario.distributions:
            for mult in self.scenario.multipliers:
                n = mult * self.scenario.p
                rows = self.cell(dist, n)
                if not rows:
                    continue
                rec_by_split: dict[str, list[float]] = {}
                for r in rows:
                    for s, f in r.recovery.items():
                        rec_by_split.setdefault(s.key(), []).append(f)
                out[f"{dist}/n={n}"] = {
                    "replicates": len(rows),
                    "median_coverage": float(np.median([r.coverage_rate for r in rows])),
                    "median_mean_d": float(np.median([r.mean_d for r in rows])),
                    "median_mean_frob": float(np.median([r.mean_frob for r in rows])),
                    "median_map_d": float(np.median([r.map_d for r in rows])),
                    "median_map_frob": float(np.median([r.map_frob for r in rows])),
                    "median_num_splits": float(np.median([r.mean_num_splits for r in rows])),
                    "split_recovery_median": {
                        k: float(np.median(v)) for k, v in sorted(rec_by_split.items())
                    },
                    "split_recovery_sd": {
                        k: float(np.std(v, ddof=1)) if len(v) > 1 else 0.0
                        for k, v in sorted(rec_by_split.items())
                    },
                }
        return out

    def to_json_dict(self) -> dict:
        return {
            "p": self.scenario.p,
            "algo": self.scenario.algo,
            "replicates": self.scenario.replicates,
            "master_seed": self.scenario.master_seed,
            "elapsed_seconds": self.elapsed_seconds,
            "cells": self.aggregate(),
        }

    def recovery_table(self) -> list[dict]:
        """Rows (sample size x distribution), columns true splits."""
        rows = []
        agg = self.aggregate()
        for key, cell in agg.items():
            dist, n_part = key.split("/")
            row = {"n": int(n_part.split("=")[1]), "distribution": dist}
            for k, v in cell["split_recovery_median"].items():
                row[k] = v
            rows.append(row)
        return rows


def _chain_inputs(s: Scenario, dist: str, mult: int, rep: int, cell_idx: int):
    """The truth, data, initial tree and sampler config of one replicate's
    chain, each drawn afresh from that replicate's own streams."""
    base = cell_idx * _CELL_STRIDE + (rep + 1) * _REP_STRIDE
    # a fixed truth is shared by every cell and replicate; otherwise each
    # replicate draws its own
    truth_offset = 0 if s.fixed_truth else base
    truth = _draw_truth(s, RngStream(s.master_seed, truth_offset + _STREAM_TRUTH))
    truth_matrix = tree_to_matrix(truth)
    data = _draw_data(dist, truth_matrix, mult * s.p,
                      RngStream(s.master_seed, base + _STREAM_DATA))
    init = random_tree(s.p, "uniform-binary", s.length_mean,
                       RngStream(s.master_seed, base + _STREAM_INIT))
    cfg = replace(getattr(s, s.algo), seed=s.master_seed + base)
    return truth, truth_matrix, data, init, cfg


def _pilot_seconds_per_iteration(s: Scenario) -> float:
    """Seconds per iteration of the first replicate's chain over its first
    ``PILOT_ITERATIONS`` iterations, keeping only the last record, as a chain
    past its burn-in keeps few; LAPACK is loaded before the clock starts."""
    *_, data, init, cfg = _chain_inputs(s, s.distributions[0], s.multipliers[0], 0, 0)
    cfg = replace(cfg, iterations=PILOT_ITERATIONS, burn_in=PILOT_ITERATIONS - 1)
    _load_lapack()
    t0 = time.perf_counter()
    run_chain(data, init, s.algo, cfg)
    return (time.perf_counter() - t0) / PILOT_ITERATIONS


def _run_replicate(s: Scenario, dist: str, mult: int, rep: int,
                   cell_idx: int) -> tuple[ReplicateResult, str]:
    truth, truth_matrix, data, init, cfg = _chain_inputs(s, dist, mult, rep, cell_idx)
    archive = run_chain(data, init, s.algo, cfg)

    mean_cfg = MeanConfig(max_iterations=s.mean_passes * len(archive))
    summary = build_summary(archive, s.interval_level, truth_matrix, mean_cfg)
    mean_d, mean_frob = score_point_estimate(summary.mean_matrix, truth_matrix)
    map_d, map_frob = score_point_estimate(tree_to_matrix(summary.map_tree), truth_matrix)
    num_splits = float(np.mean([len(r.splits) for r in archive.records]))
    return (
        ReplicateResult(
            distribution=dist, n=mult * s.p, replicate=rep,
            recovery=summary.recovery, coverage_rate=summary.coverage_rate,
            mean_d=mean_d, mean_frob=mean_frob,
            map_d=map_d, map_frob=map_frob,
            mean_num_splits=num_splits,
            final_window_mean_loglik=summary.trace_stats["final_window_mean"],
        ),
        tree_to_newick(truth),
    )


def _workers(jobs: int) -> int:
    """How many processes ``_map_jobs`` runs ``jobs`` jobs on: one per
    available CPU and at most one per job, or 1 where ``fork`` is unavailable."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(cpus, jobs)
    if workers < 2:
        return workers
    # imported here, so that the serial path loads no process machinery
    import multiprocessing

    return workers if "fork" in multiprocessing.get_all_start_methods() else 1


def _map_jobs(fn, jobs) -> list:
    """``[fn(*job) for job in jobs]``, run on up to one process per available CPU.

    With ``workers = _workers(len(jobs))`` of at least 2, the caller is
    worker 0 and runs every ``workers``-th job itself while ``workers - 1``
    forked children run the rest; otherwise the jobs run serially in the
    caller.  ``fn`` is pickled by import path, so it must be a module-level
    function (or a ``functools.partial`` of one).  Results come back in job
    order, so a pure ``fn`` gives the serial output.  No worker outlives the
    call: when a job raises, the jobs not yet started are cancelled and the
    error propagates once the running ones have finished.
    """
    jobs = list(jobs)
    workers = _workers(len(jobs))
    if workers < 2:
        return [fn(*job) for job in jobs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: a spawned worker re-imports numpy and scipy, which
    # costs about as much as a whole small scenario; scipy is loaded here,
    # so that the workers inherit it
    _load_lapack()
    context = multiprocessing.get_context("fork")
    results = [None] * len(jobs)
    with ProcessPoolExecutor(workers - 1, mp_context=context) as pool:
        try:
            futures = {i: pool.submit(fn, *job)
                       for i, job in enumerate(jobs) if i % workers}
            for i in range(0, len(jobs), workers):
                results[i] = fn(*jobs[i])
            for i, future in futures.items():
                results[i] = future.result()
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return results


def run_scenario(s: Scenario, force: bool = False) -> ScenarioReport:
    """Execute every (distribution, sample size, replicate) cell and score it.

    Unless ``force`` is set, a pilot first times ``PILOT_ITERATIONS``
    iterations of the first replicate's chain, on fresh copies of its
    streams, and the scenario is refused when that rate times every chain's
    iterations over the worker count exceeds ``COST_CAP_SECONDS``; the
    summaries are not priced.  Each replicate runs on its own independent
    streams, so they run on up to one process per available CPU
    (``_map_jobs``) and the report equals a serial run's except for
    ``elapsed_seconds``.
    """
    jobs = []
    cell_idx = 0
    for dist in s.distributions:
        for mult in s.multipliers:
            for rep in range(s.replicates):
                jobs.append((dist, mult, rep, cell_idx))
            cell_idx += 1

    if not force:
        est = (_pilot_seconds_per_iteration(s) * getattr(s, s.algo).iterations
               * len(jobs) / _workers(len(jobs)))
        if est > COST_CAP_SECONDS:
            raise InvalidArgumentError(
                f"estimated cost {est:.0f}s exceeds cap {COST_CAP_SECONDS:.0f}s; "
                "pass force=True (treecov simulate --force) to run anyway")

    t0 = time.time()
    outputs = _map_jobs(_run_replicate, [(s, *j) for j in jobs])
    elapsed = time.time() - t0

    results = [o[0] for o in outputs]
    truths: dict[tuple[str, int], list[str]] = {}
    for (dist, mult, _rep, _ci), (_res, nwk) in zip(jobs, outputs):
        truths.setdefault((dist, mult * s.p), []).append(nwk)
    return ScenarioReport(scenario=s, truths=truths, results=results,
                          elapsed_seconds=elapsed)


def write_report(report: ScenarioReport, json_path, csv_path=None):
    """Emit the aggregate JSON and, optionally, the recovery CSV table."""
    with open(json_path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
    if csv_path is not None:
        rows = report.recovery_table()
        cols: list[str] = ["n", "distribution"]
        for row in rows:
            for k in row:
                if k not in cols:
                    cols.append(k)
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=cols)
            writer.writeheader()
            writer.writerows(rows)
