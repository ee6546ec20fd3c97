"""Same-seed chain and summary outputs pinned by digest.

Four short seeded chains at p = 6 (MH binary, MH multifurcating with the
Poisson-Dirichlet prior, HMC started at the truth, and HMC from a random
start whose trajectories cross boundaries and whose proposals are both
accepted and rejected) must reproduce the sha256 digests below of their
archive JSON lines and their provenance.  A
refactor of the samplers has to keep every one of them.  The posterior
summary of a seeded archive over several topologies, Frechet mean
included, is pinned the same way for refactors of the geometry and the
summaries, and so are geodesic supports between seeded tree pairs and
seeded draws of both topology priors and of
``random_tree`` for refactors of the fragmentation samplers.

The digests depend on floating-point results, so a numpy, scipy or BLAS
upgrade, or a deliberate change of the numerics, can move them.  Such a
change re-records the digests here, and its CHANGES.md entry must say so
and why.
"""

import hashlib
import json
import math

import pytest

from treecov.archive import ArchiveRecord, PosteriorArchive
from treecov.geometry import MeanConfig, bhv_distance
from treecov.model import sample_gaussian
from treecov.posterior import build_summary
from treecov.priors import PriorSpec, sample_topology_prior
from treecov.rng import RngStream
from treecov.samplers import HmcConfig, MhConfig, run_chain
from treecov.treespace import random_tree
from treecov.ultrametric import tree_to_matrix

from test_geometry import rearranged_pair, shaped_tree

P = 6

CASES = {
    "mh-binary": (
        "init", "mh", MhConfig(iterations=120, burn_in=60, seed=11),
        "e0a18d3f07a403885c12496cdf74e4ebaa9c2221ac6a934c7dae904668fcb33f",
    ),
    "mh-multifurcating-pd": (
        "init", "mh", MhConfig(
            iterations=120, burn_in=60, seed=12, mode="multifurcating",
            prior=PriorSpec(kind="poisson-dirichlet", theta=1.5, alpha_pd=0.25)),
        "99ababf8a392839b0d393d08399a9b219bd046915f72f5fb7644114ceba03f92",
    ),
    "hmc-truth": (
        "truth", "hmc", HmcConfig(iterations=12, burn_in=6, leapfrog_steps=20,
                                  step_size=0.05, seed=13),
        "b47cb72612681ed88dce8caea08672294765cce8fa0e04c1f31ce34e5b0ac468",
    ),
    # 8 of 12 proposals accepted, rejects at iterations 1, 3, 7 and 9, and
    # 26 boundary reassignments: a reject restores the cached scores
    "hmc-init": (
        "init", "hmc", HmcConfig(iterations=12, burn_in=6, leapfrog_steps=20,
                                 step_size=0.035, seed=15),
        "da016cec84aa50587b3481d90fd2d97495859ae67d281f70f8bc5155187b1c46",
    ),
}


def run_case(name, tmp_path):
    """The case's archive and the bytes of its saved JSON lines."""
    start, algo, cfg, _ = CASES[name]
    truth = random_tree(P, rng=RngStream(7, 1))
    trees = {"truth": truth, "init": random_tree(P, rng=RngStream(7, 2))}
    data = sample_gaussian(tree_to_matrix(truth), 10 * P, RngStream(7, 3))
    archive = run_chain(data, trees[start], algo, cfg)
    path = tmp_path / "archive.jsonl"
    archive.save_jsonl(path)
    return archive, path.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_same_seed_digest(name, tmp_path):
    archive, text = run_case(name, tmp_path)
    digest = hashlib.sha256(text)
    digest.update(json.dumps(archive.provenance, sort_keys=True).encode())
    assert digest.hexdigest() == CASES[name][3]


# every case's records without their log_prior, and its provenance: the
# moves, trees and likelihoods a chain makes, whatever sums its prior
MOVE_DIGESTS = {
    "hmc-init": "5e3ca6d48326f99b0e25a571eb3a90d61c548886f10b9c40f924300d228f56db",
    "hmc-truth": "37b4585a56bdc3656e933d849ea2f401db4ea0e371dc132ac4ce9f8cc11bba75",
    "mh-binary": "8369b1addee257fd7816f0aa8cda60c65c9610fadef2227eaaced3aaca1ce421",
    "mh-multifurcating-pd":
        "3ed29537855f40f9105304939b177d1e324e1812cb0b20bbea5c9279ae1d6810",
}


@pytest.mark.parametrize("name", sorted(MOVE_DIGESTS))
def test_same_seed_moves(name, tmp_path):
    archive, text = run_case(name, tmp_path)
    digest = hashlib.sha256()
    for line in text.decode().splitlines():
        record = json.loads(line)
        del record["log_prior"]
        digest.update(json.dumps(record, sort_keys=True).encode())
    digest.update(json.dumps(archive.provenance, sort_keys=True).encode())
    assert digest.hexdigest() == MOVE_DIGESTS[name]


SUMMARY_DIGEST = "1528dced2e3c7b4cb261e78f22b28cfc4ee01efbc9c1918d7832502b6792d52e"


def test_summary_digest():
    # 40 records around four random topologies; every third record drops
    # a split, so the mean crosses resolved and multifurcating orthants
    rng = RngStream(21)
    bases = [random_tree(P, rng=rng) for _ in range(4)]
    records = []
    for i in range(40):
        base = bases[i % 4]
        internal = {s: v * math.exp(0.3 * rng.normal())
                    for s, v in base.internal_lengths.items()}
        if i % 3 == 0:
            del internal[min(internal, key=lambda s: s.mask)]
        records.append(ArchiveRecord(
            iteration=i + 1, log_prior=-float(i % 7), log_lik=-0.5 * i,
            splits=tuple(sorted(internal, key=lambda s: s.mask)),
            lengths=internal,
            leaf_lengths=tuple(v * math.exp(0.3 * rng.normal())
                               for v in base.leaf_lengths),
            root_length=base.root_length,
        ))
    archive = PosteriorArchive(p=P, records=records,
                               trace=[(r.iteration, r.log_lik) for r in records])
    report = build_summary(archive, truth=tree_to_matrix(bases[0]),
                           mean_cfg=MeanConfig(max_iterations=500))
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SUMMARY_DIGEST


SUPPORT_DIGEST = "e8644f18734762f433c6bdf555cd34a6d11fee70deb1445672f6c2ec17cc3b94"


def test_support_digest():
    # 30 pairs per leaf count, alternately independent and 1-4 regrafts
    # apart (several common-split regions), with random, equal (ratios
    # that tie) and partly near-zero internal lengths
    lines = []
    for p in (10, 20, 40):
        rng = RngStream(41, p)
        for i in range(30):
            lengths = ("random", "equal", "tiny")[i % 3]
            t1, t2 = (rearranged_pair(p, lengths, 1 + i % 4, rng) if i % 2
                      else (shaped_tree(p, lengths, rng), shaped_tree(p, lengths, rng)))
            d, support = bhv_distance(t1, t2)
            lines.append(json.dumps([d.hex(), support.to_dict()], sort_keys=True))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == SUPPORT_DIGEST


PRIOR_DRAW_SPECS = (
    PriorSpec(beta=-1.5),
    PriorSpec(beta=0.0),
    PriorSpec(beta=3.0),
    PriorSpec(kind="poisson-dirichlet", theta=1.0, alpha_pd=0.0),
    PriorSpec(kind="poisson-dirichlet", theta=1.5, alpha_pd=0.25),
    PriorSpec(kind="poisson-dirichlet", theta=-0.2, alpha_pd=0.5),
)
PRIOR_DRAW_SIZES = (2, 3, 5, 12, 40, 64)
PRIOR_DRAW_DIGEST = "324efcf9746b6b9fc2d2bcf0f6867806b9bea2679482d1cfe69a3e205028624e"


def test_prior_draw_digest():
    # 20 topologies per spec and leaf count, then 10 trees per leaf count
    # and random_tree mode, each spelled by its masks and exact lengths
    lines = []
    for i, spec in enumerate(PRIOR_DRAW_SPECS):
        for p in PRIOR_DRAW_SIZES:
            rng = RngStream(31, 100 * i + p)
            for _ in range(20):
                masks = sample_topology_prior(p, spec, rng).sorted_masks()
                lines.append(f"{i} {p} {masks}")
    for mode in ("uniform-binary", "equidistant"):
        for p in PRIOR_DRAW_SIZES:
            rng = RngStream(32, p)
            for _ in range(10):
                t = random_tree(p, mode, 0.7, rng)
                lines.append(" ".join(f"{s.mask}:{v.hex()}" for s, v in t.coordinates()))
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == PRIOR_DRAW_DIGEST
