"""Seeded input generation for the benchmark workloads.

Everything here is a pure function of the workload seed.  The summarize
archives are built without any sampler: a random truth, a fixed profile of
rearranged topologies around it (each exactly ``d`` rearrangements away,
made through ``resolution_candidates``), then jittered lengths.  A change to
the MCMC kernels therefore cannot change the summarize workloads' input.
"""

from __future__ import annotations

import math

import numpy as np

from treecov import (
    ArchiveRecord,
    PosteriorArchive,
    PriorSpec,
    RngStream,
    Topology,
    Tree,
    gaussian_loglik,
    random_tree,
    resolution_candidates,
    sample_gaussian,
    suff_stats,
    tree_log_prior,
    tree_to_matrix,
)

# Profiles of the summarize archives, modelled on real p = 20 MH archives: a
# concentrated one (n = 50p data: 13 topologies, cheap geodesics) and a
# diffuse one (n = p data: 276 topologies, several support pairs per
# geodesic).  ``levels[d]`` is (topologies exactly d rearrangements from the
# truth, records per topology); records are laid out in visits of at most
# ``VISIT`` consecutive records, in shuffled order, like an MCMC trace.
ARCHIVE_PROFILES = {
    "concentrated": {"n_per_p": 50, "sigma": 0.1,
                     "levels": [(1, 700), (8, 25), (4, 25)]},
    "diffuse": {"n_per_p": 1, "sigma": 0.3,
                "levels": [(1, 175), (15, 3), (30, 3), (40, 3), (50, 3),
                           (50, 3), (45, 3), (45, 3)]},
}
TINY_LEVELS = {"concentrated": [(1, 40), (2, 5), (1, 5)],
               "diffuse": [(1, 10), (4, 2), (6, 2), (6, 2)]}
VISIT = 20


def random_truth(p: int, seed: int) -> Tree:
    """Uniform resolved shape with every length uniform on [0.5, 1.5]."""
    rng = RngStream(seed, 1)
    shape = random_tree(p, "uniform-binary", 1.0, rng).topology
    internal = {s: rng.uniform(0.5, 1.5) for s in shape.sorted_splits()}
    leaf = tuple(rng.uniform(0.5, 1.5) for _ in range(p))
    return Tree(shape, internal, leaf, rng.uniform(0.5, 1.5))


def truth_data(truth: Tree, n: int, seed: int):
    return sample_gaussian(tree_to_matrix(truth), n, RngStream(seed, 2))


def _rearranged(truth: Tree, d: int, rng: RngStream) -> dict | None:
    """Internal lengths of a topology exactly ``d`` rearrangements away.

    Each step removes a split still shared with the truth and regrows, with
    the removed length, one of its alternatives that the truth lacks, so
    every step moves one split further from the truth.  Returns ``None``
    when a step has no such alternative.
    """
    p = truth.p
    own = set(truth.internal_lengths)
    cur = dict(truth.internal_lengths)
    for _ in range(d):
        shared = sorted((s for s in cur if s in own), key=lambda s: s.mask)
        removed = shared[rng.integers(len(shared))]
        cands = [c for c in resolution_candidates(Topology(p, frozenset(cur)), removed)
                 if c not in own]
        if not cands:
            return None
        cur[cands[rng.integers(len(cands))]] = cur.pop(removed)
    return cur


def summarize_archive(kind: str, p: int, seed: int, tiny: bool = False):
    """Return ``(truth, data, archive, distinct_topologies)`` for one profile."""
    prof = ARCHIVE_PROFILES[kind]
    levels = TINY_LEVELS[kind] if tiny else prof["levels"]
    truth = random_truth(p, seed)
    data = truth_data(truth, prof["n_per_p"] * p, seed)
    rng = RngStream(seed, 3)
    seen = set()
    visits = []
    for d, (count, per_topology) in enumerate(levels):
        made = 0
        while made < count:
            lengths = _rearranged(truth, d, rng)
            key = None if lengths is None else frozenset(lengths)
            if key is None or key in seen:
                continue
            seen.add(key)
            made += 1
            for start in range(0, per_topology, VISIT):
                visits.append((lengths, min(VISIT, per_topology - start)))

    sigma = prof["sigma"]
    stats = suff_stats(data)
    prior = PriorSpec()
    records = []
    for v in rng.generator.permutation(len(visits)):
        lengths, size = visits[v]
        for _ in range(size):
            internal = {s: x * math.exp(sigma * rng.normal()) for s, x in lengths.items()}
            leaf = tuple(x * math.exp(sigma * rng.normal()) for x in truth.leaf_lengths)
            root = truth.root_length * math.exp(sigma * rng.normal())
            tree = Tree(Topology(p, frozenset(internal)), internal, leaf, root)
            records.append(ArchiveRecord(
                iteration=len(records) + 1,
                log_prior=tree_log_prior(tree, prior),
                log_lik=gaussian_loglik(stats, tree_to_matrix(tree)),
                splits=tuple(sorted(internal, key=lambda s: s.mask)),
                lengths=internal,
                leaf_lengths=leaf,
                root_length=root,
            ))
    return truth, data, PosteriorArchive(p=p, records=records), len(seen)


def write_csv(path, rows):
    """Headerless CSV with every digit, as the CLI reads data and matrices."""
    np.savetxt(path, np.asarray(rows, dtype=float), delimiter=",", fmt="%.17g")
