"""Summaries of a posterior archive: frequencies, intervals, MAP, mean.

All summaries are pure functions of an immutable archive.  The posterior
mean is computed on trees with the iterative geodesic mean and only then
mapped to a matrix; entrywise averaging of the sampled matrices would leave
the ultrametric set and is deliberately not offered.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .archive import PosteriorArchive
from .errors import DimensionError, InvalidArgumentError
from .geometry import MeanConfig, frechet_mean
from .newick import tree_to_newick
from .treespace import Split, Topology, Tree
from .ultrametric import (UltrametricMatrix, as_matrix, matrix_to_tree, split_matrices,
                          tree_to_matrix)


def split_frequencies(archive: PosteriorArchive) -> dict[Split, float]:
    """Fraction of retained samples containing each observed split."""
    if not archive.records:
        raise InvalidArgumentError("archive is empty")
    counts: dict[Split, int] = {}
    for r in archive.records:
        for s in r.splits:
            counts[s] = counts.get(s, 0) + 1
    n = len(archive.records)
    return {s: c / n for s, c in sorted(counts.items(), key=lambda kv: kv[0].mask)}


def credible_intervals(archive: PosteriorArchive,
                       level: float = 0.95) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise equal-tailed interval bounds at the given level.

    Quantiles interpolate the empirical distribution function linearly
    over the stack of the sampled trees' matrices.  The stack is built one
    topology at a time: one indicator matrix over the canonical masks and
    one matrix product per tree, bit-identical to :func:`tree_to_matrix`.
    """
    if not archive.records:
        raise InvalidArgumentError("archive is empty")
    if not 0.0 < level < 1.0:
        raise InvalidArgumentError(f"level must be in (0, 1), got {level}")
    trees = archive.trees()
    p = trees[0].p
    groups: dict[Topology, list[int]] = {}
    for i, t in enumerate(trees):
        groups.setdefault(t.topology, []).append(i)
    stack = np.empty((len(trees), p, p))
    for topology, rows in groups.items():
        # columns as each row lists them: root, leaves, internal splits ascending
        masks = [(1 << p) - 1, *(1 << i for i in range(p)), *topology.sorted_masks()]
        order = sorted(range(len(masks)), key=masks.__getitem__)
        L = np.array([(trees[i].root_length, *trees[i].leaf_lengths,
                       *trees[i].internal_lengths.values()) for i in rows])
        stack[rows] = split_matrices(p, [masks[j] for j in order], L[:, order])
    tail = 0.5 * (1.0 - level)
    lo, hi = np.quantile(stack, [tail, 1.0 - tail], axis=0, method="linear")
    return lo, hi


def map_sample(archive: PosteriorArchive) -> Tree:
    """The retained sample with the highest unnormalized log posterior.

    Ties resolve to the earliest iteration; no post-hoc optimization is
    applied.
    """
    if not archive.records:
        raise InvalidArgumentError("archive is empty")
    best = archive.records[0]
    for r in archive.records[1:]:
        if r.log_posterior > best.log_posterior:
            best = r
    return best.tree()


def posterior_mean(archive: PosteriorArchive,
                   cfg: MeanConfig | None = None) -> UltrametricMatrix:
    """Geodesic mean of the sampled trees, mapped to a matrix."""
    if not archive.records:
        raise InvalidArgumentError("archive is empty")
    mean_tree = frechet_mean(archive.trees(), cfg)
    return tree_to_matrix(mean_tree)


def coverage(lo, hi, truth) -> tuple[np.ndarray, float]:
    """Entrywise containment of a true matrix, and the containment rate.

    The rate averages over the lower triangle including the diagonal.
    """
    lo_a, hi_a, tr = as_matrix(lo), as_matrix(hi), as_matrix(truth)
    if not lo_a.shape == hi_a.shape == tr.shape:
        raise DimensionError(
            f"shape mismatch: {lo_a.shape}, {hi_a.shape}, {tr.shape}"
        )
    hit = (lo_a <= tr) & (tr <= hi_a)
    tri = np.tril_indices(tr.shape[0])
    return hit, float(np.mean(hit[tri]))


@dataclass
class SummaryReport:
    """Machine-readable posterior summary."""

    p: int
    num_samples: int
    frequencies: dict[Split, float]
    interval_level: float
    lo: np.ndarray
    hi: np.ndarray
    map_tree: Tree
    mean_matrix: UltrametricMatrix
    trace_stats: dict
    coverage_rate: float | None = None
    coverage_hits: np.ndarray | None = None
    recovery: dict[Split, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "p": self.p,
            "num_samples": self.num_samples,
            "interval_level": self.interval_level,
            "split_frequencies": {s.key(): f for s, f in self.frequencies.items()},
            "interval_lo": self.lo.tolist(),
            "interval_hi": self.hi.tolist(),
            "map_newick": tree_to_newick(self.map_tree),
            "mean_matrix": self.mean_matrix.values.tolist(),
            "trace_stats": self.trace_stats,
        }
        if self.coverage_rate is not None:
            out["coverage_rate"] = self.coverage_rate
            out["coverage_hits"] = self.coverage_hits.astype(int).tolist()
        if self.recovery:
            out["true_split_recovery"] = {s.key(): f for s, f in self.recovery.items()}
        return out


def trace_statistics(trace: list[tuple[int, float]]) -> dict:
    """Simple likelihood-trace descriptors for convergence eyeballing.

    The final window is the last tenth of the trace (at least one value).
    """
    if not trace:
        return {}
    values = np.array([v for _, v in trace])
    tail = values[-max(1, len(values) // 10):]
    return {
        "iterations": len(values),
        "max_log_lik": float(values.max()),
        "final_window_mean": float(tail.mean()),
        "final_window_sd": float(tail.std(ddof=1)) if len(tail) > 1 else 0.0,
    }


def build_summary(archive: PosteriorArchive, level: float = 0.95,
                  truth=None, mean_cfg: MeanConfig | None = None) -> SummaryReport:
    """Assemble the full report; adds coverage and recovery when truth is given."""
    freqs = split_frequencies(archive)
    lo, hi = credible_intervals(archive, level)
    report = SummaryReport(
        p=archive.p,
        num_samples=len(archive.records),
        frequencies=freqs,
        interval_level=level,
        lo=lo,
        hi=hi,
        map_tree=map_sample(archive),
        mean_matrix=posterior_mean(archive, mean_cfg),
        trace_stats=trace_statistics(archive.trace),
    )
    if truth is not None:
        truth_arr = as_matrix(truth)
        hits, rate = coverage(lo, hi, truth_arr)
        report.coverage_hits = hits
        report.coverage_rate = rate
        true_tree = matrix_to_tree(truth_arr)
        report.recovery = {
            s: freqs.get(s, 0.0) for s in true_tree.topology.sorted_splits()
        }
    return report
