"""Same-seed chain outputs pinned by digest.

Three short seeded chains at p = 6 (MH binary, MH multifurcating with the
Poisson-Dirichlet prior, and HMC started at the truth) must reproduce the
sha256 digests below of their archive JSON lines and their provenance.  A
refactor of the samplers has to keep every one of them.

The digests depend on floating-point results, so a numpy, scipy or BLAS
upgrade, or a deliberate change of the numerics, can move them.  Such a
change re-records the digests here, and its CHANGES.md entry must say so
and why.
"""

import hashlib
import json

import pytest

from treecov.model import sample_gaussian
from treecov.priors import PriorSpec
from treecov.rng import RngStream
from treecov.samplers import HmcConfig, MhConfig, run_chain
from treecov.treespace import random_tree
from treecov.ultrametric import tree_to_matrix

P = 6

CASES = {
    "mh-binary": (
        "init", "mh", MhConfig(iterations=120, burn_in=60, seed=11),
        "4945976216403934283af3d977e568774321afd78b1aafd67c3a932f49289aa2",
    ),
    "mh-multifurcating-pd": (
        "init", "mh", MhConfig(
            iterations=120, burn_in=60, seed=12, mode="multifurcating",
            prior=PriorSpec(kind="poisson-dirichlet", theta=1.5, alpha_pd=0.25)),
        "b06d653a22bf9c2caeec1d4fc694ad46df5607131a99000365e38c0e2798ebe1",
    ),
    "hmc-truth": (
        "truth", "hmc", HmcConfig(iterations=12, burn_in=6, leapfrog_steps=20,
                                  step_size=0.05, seed=13),
        "ee3f9d47d2c3b73784a82726529e3b803dc5f9eb27e227a3f359452c669a281c",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_same_seed_digest(name, tmp_path):
    start, algo, cfg, expected = CASES[name]
    truth = random_tree(P, rng=RngStream(7, 1))
    trees = {"truth": truth, "init": random_tree(P, rng=RngStream(7, 2))}
    data = sample_gaussian(tree_to_matrix(truth), 10 * P, RngStream(7, 3))
    archive = run_chain(data, trees[start], algo, cfg)
    path = tmp_path / "archive.jsonl"
    archive.save_jsonl(path)
    digest = hashlib.sha256(path.read_bytes())
    digest.update(json.dumps(archive.provenance, sort_keys=True).encode())
    assert digest.hexdigest() == expected
