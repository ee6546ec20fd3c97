import json
from pathlib import Path

import numpy as np
import pytest

from treecov.cli import (
    _KNOWN_KEYS,
    _prior_from_config,
    _sampler_from_config,
    load_run_config,
    main,
    read_matrix_csv,
    write_dataset_csv,
    write_matrix_csv,
)
from treecov.model import sample_gaussian
from treecov.newick import newick_to_tree, tree_to_newick
from treecov.rng import RngStream
from treecov.treespace import random_tree, star_tree
from treecov.ultrametric import tree_to_matrix


@pytest.fixture
def star_csv(tmp_path):
    path = tmp_path / "star.csv"
    write_matrix_csv(path, tree_to_matrix(star_tree((1, 1, 1), 1.0)).values)
    return path


class TestValidate:
    def test_valid_exit_zero(self, star_csv, capsys):
        assert main(["validate", str(star_csv)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"]

    def test_invalid_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        write_matrix_csv(path, np.ones((2, 2)))
        assert main(["validate", str(path)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert any(v["clause"] == "diagonal-dominance" for v in out["violations"])

    def test_malformed_exit_two(self, tmp_path, capsys):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n")
        assert main(["validate", str(path)]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.csv")]) == 2


class TestConvert:
    def test_star_to_newick(self, star_csv, tmp_path, capsys):
        out = tmp_path / "star.nwk"
        assert main(["convert", str(star_csv), "--to", "newick",
                     "--out", str(out)]) == 0
        assert out.read_text().strip() == "(0:1,1:1,2:1,3:1);"

    def test_roundtrip_many(self, tmp_path):
        rng = RngStream(6)
        for i in range(25):
            t = random_tree(2 + rng.integers(8), "uniform-binary", 1.0, rng)
            mpath = tmp_path / f"m{i}.csv"
            write_matrix_csv(mpath, tree_to_matrix(t).values)
            npath = tmp_path / f"t{i}.nwk"
            assert main(["convert", str(mpath), "--to", "newick",
                         "--out", str(npath)]) == 0
            back = tmp_path / f"b{i}.csv"
            assert main(["convert", str(npath), "--to", "matrix",
                         "--out", str(back)]) == 0
            original = read_matrix_csv(mpath)
            recovered = read_matrix_csv(back)
            assert np.max(np.abs(original - recovered)) < 1e-10

    def test_invalid_matrix_exit_one(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_matrix_csv(path, np.array([[3.0, 0, 1], [0, 3, 2], [1, 2, 3]]))
        assert main(["convert", str(path), "--to", "newick"]) == 1


class TestDistance:
    def test_identical_zero(self, star_csv, capsys):
        assert main(["distance", str(star_csv), str(star_csv)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["d_bhv"] == 0.0 and out["d_tree"] == 0.0

    def test_cone_pair(self, tmp_path, capsys):
        from treecov.treespace import Split, Topology, Tree

        def single(leafset, length):
            s = Split.from_leaves(4, leafset)
            return Tree(Topology(4, frozenset([s])), {s: length},
                        (1, 1, 1, 1), 0.5)

        a = tmp_path / "a.nwk"
        b = tmp_path / "b.nwk"
        a.write_text(tree_to_newick(single((1, 2), 0.5)))
        b.write_text(tree_to_newick(single((1, 3), 0.3)))
        assert main(["distance", str(a), str(b)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["d_bhv"] == pytest.approx(0.8)
        assert len(out["support"]["pairs"]) == 1

    def test_mixed_formats(self, star_csv, tmp_path, capsys):
        nwk = tmp_path / "star.nwk"
        nwk.write_text("(0:1,1:1,2:1,3:1);")
        assert main(["distance", str(star_csv), str(nwk)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["d_tree"] == pytest.approx(0.0, abs=1e-12)


def write_config(path, body):
    path.write_text(body)
    return str(path)


class TestSampleAndSummarize:
    def test_end_to_end(self, tmp_path, capsys):
        rng = RngStream(3)
        truth = random_tree(4, "uniform-binary", 1.0, rng)
        data = sample_gaussian(tree_to_matrix(truth), 80, rng)
        write_dataset_csv(tmp_path / "data.csv", data,
                          {"seed": 3, "true_tree": tree_to_newick(truth)})
        write_matrix_csv(tmp_path / "truth.csv", tree_to_matrix(truth).values)
        cfg = write_config(tmp_path / "run.ini", f"""
[model]
p = 4

[sampler]
algo = mh
iterations = 400
burn_in = 200

[io]
data = {tmp_path / 'data.csv'}
archive = {tmp_path / 'arch.jsonl'}
trace = {tmp_path / 'trace.csv'}

[run]
seed = 8
""")
        assert main(["sample", "--config", cfg]) == 0
        capsys.readouterr()
        assert main([
            "summarize", str(tmp_path / "arch.jsonl"),
            "--truth", str(tmp_path / "truth.csv"),
            "--out", str(tmp_path / "sum.json"),
            "--splits-csv", str(tmp_path / "freq.csv"),
            "--mean-iterations", "400",
        ]) == 0
        report = json.loads((tmp_path / "sum.json").read_text())
        assert 0.0 <= report["coverage_rate"] <= 1.0
        assert (tmp_path / "freq.csv").read_text().startswith("split,frequency")
        # metadata sidecar written next to the dataset
        meta = json.loads((tmp_path / "data.csv.meta.json").read_text())
        assert "true_tree" in meta

    def test_rerun_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.ini", f"""
[model]
p = 3

[sampler]
iterations = 100
burn_in = 50

[io]
archive = {tmp_path / 'a.jsonl'}
trace = {tmp_path / 't.csv'}

[run]
seed = 5
""")
        assert main(["sample", "--config", cfg]) == 0
        first = (tmp_path / "a.jsonl").read_bytes()
        assert main(["sample", "--config", cfg]) == 0
        assert (tmp_path / "a.jsonl").read_bytes() == first

    def test_two_chains_with_inits(self, tmp_path, capsys):
        t1 = random_tree(3, "uniform-binary", 1.0, RngStream(1))
        t2 = random_tree(3, "uniform-binary", 1.0, RngStream(2))
        (tmp_path / "a.nwk").write_text(tree_to_newick(t1))
        (tmp_path / "b.nwk").write_text(tree_to_newick(t2))
        cfg = write_config(tmp_path / "run.ini", f"""
[model]
p = 3

[sampler]
iterations = 60
burn_in = 30

[io]
archive = {tmp_path / 'a.jsonl'}
trace = {tmp_path / 't.csv'}

[run]
seed = 5
""")
        assert main(["sample", "--config", cfg, "--chains", "2",
                     "--inits", f"{tmp_path / 'a.nwk'},{tmp_path / 'b.nwk'}"]) == 0
        assert (tmp_path / "a-chain1.jsonl").exists()
        assert (tmp_path / "t-chain2.csv").exists()

    def test_non_positive_definite_init_exit_one(self, tmp_path, capsys):
        # leaf lengths below the root's rounding give a singular covariance
        (tmp_path / "init.nwk").write_text(tree_to_newick(star_tree((1e-17, 1e-17), 1.0)))
        write_dataset_csv(tmp_path / "data.csv",
                          sample_gaussian(np.eye(2), 20, RngStream(1)))
        cfg = write_config(tmp_path / "run.ini", f"""
[model]
p = 2

[sampler]
iterations = 10
burn_in = 5

[io]
data = {tmp_path / 'data.csv'}
archive = {tmp_path / 'a.jsonl'}
trace = {tmp_path / 't.csv'}
""")
        assert main(["sample", "--config", cfg,
                     "--inits", str(tmp_path / "init.nwk")]) == 1
        out = json.loads(capsys.readouterr().out)
        assert "positive definite" in out["error"]

    def test_hmc_reads_prior_section(self, tmp_path, capsys):
        truth = random_tree(4, "uniform-binary", 1.0, RngStream(3))
        (tmp_path / "init.nwk").write_text(tree_to_newick(truth))
        write_dataset_csv(tmp_path / "data.csv",
                          sample_gaussian(tree_to_matrix(truth), 40, RngStream(4)))
        archives = []
        for edge_mean in (1, 5):
            cfg = write_config(tmp_path / "run.ini", f"""
[model]
p = 4

[prior]
beta = 0
edge_mean = {edge_mean}

[sampler]
algo = hmc
iterations = 20
burn_in = 10
epsilon = 0.02
leapfrog_steps = 10

[io]
data = {tmp_path / 'data.csv'}
archive = {tmp_path / 'a.jsonl'}
trace = {tmp_path / 't.csv'}
""")
            assert main(["sample", "--config", cfg,
                         "--inits", str(tmp_path / "init.nwk")]) == 0
            archives.append((tmp_path / "a.jsonl").read_bytes())
        assert archives[0] != archives[1]

    def test_inline_comments_stripped(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.ini", f"""
[model]
p = 3                ; dimension

[prior]
beta = 0.5           ; yule-ish

[sampler]
iterations = 40      ; total
burn_in = 20

[io]
data =               ; omit for prior-only runs
archive = {tmp_path / 'a.jsonl'}   ; output
trace = {tmp_path / 't.csv'}
""")
        assert main(["sample", "--config", cfg]) == 0
        assert (tmp_path / "a.jsonl").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("prior", "beta", "yule"), ("sampler", "iterations", "1.5"),
        ("run", "seed", "x"), ("model", "p", "three"),
    ])
    def test_malformed_number_exit_two(self, tmp_path, capsys, section, key, value):
        body = {"model": {"p": "3"}, section: {}}
        body[section][key] = value
        text = "\n".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                         for sec, kv in body.items())
        cfg = write_config(tmp_path / "bad.ini", text)
        assert main(["sample", "--config", cfg]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert f"[{section}] {key}" in error

    def test_percent_is_literal(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.ini", f"""
[model]
p = 3

[sampler]
iterations = 40
burn_in = 20

[io]
archive = {tmp_path / 'out%1.jsonl'}
trace = {tmp_path / 't%1.csv'}
""")
        assert main(["sample", "--config", cfg]) == 0
        assert (tmp_path / "out%1.jsonl").exists()
        assert (tmp_path / "t%1.csv").exists()

    @pytest.mark.parametrize("text", ["[model]\np = 3\np = 4\n", "p = 3\n[model]\n"],
                             ids=["duplicate-key", "no-section-header"])
    def test_unparseable_ini_exit_two(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path / "bad.ini", text)
        assert main(["sample", "--config", cfg]) == 2
        assert "bad.ini" in json.loads(capsys.readouterr().out)["error"]

    def test_unknown_key_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.ini", "[model]\np = 3\nwhat = 1\n")
        assert main(["sample", "--config", cfg]) == 2
        out = json.loads(capsys.readouterr().out)
        assert "what" in out["error"]


class TestSimulateAndMean:
    def test_simulate(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "sim.ini", f"""
[sampler]
iterations = 300
burn_in = 150

[scenario]
p = 4
multipliers = 10
distributions = normal
replicates = 1
fixed_truth = true

[io]
report = {tmp_path / 'rep.json'}
splits_csv = {tmp_path / 'rec.csv'}

[run]
seed = 4
""")
        assert main(["simulate", "--config", cfg]) == 0
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert "cells" in rep and rep["p"] == 4

    @pytest.mark.parametrize("section,key", [("run", "threads"), ("io", "out_dir"),
                                             ("sampler", "lambda")])
    def test_removed_keys_rejected(self, tmp_path, capsys, section, key):
        cfg = write_config(tmp_path / "sim.ini",
                           f"[scenario]\np = 4\n\n[{section}]\n{key} = 2\n")
        assert main(["simulate", "--config", cfg]) == 2
        assert key in json.loads(capsys.readouterr().out)["error"]

    def test_mean_from_newick_list(self, tmp_path, capsys):
        trees = [random_tree(4, "uniform-binary", 1.0, RngStream(7, i))
                 for i in range(4)]
        listing = tmp_path / "trees.txt"
        listing.write_text("\n".join(tree_to_newick(t) for t in trees))
        assert main(["mean", str(listing), "--out", str(tmp_path / "m.csv"),
                     "--mean-iterations", "800"]) == 0
        mean = read_matrix_csv(tmp_path / "m.csv")
        from treecov.ultrametric import validate_ultrametric

        assert validate_ultrametric(mean).valid
        assert newick_to_tree((tmp_path / "m.nwk").read_text()).p == 4


class TestExampleConfig:
    EXAMPLE = Path(__file__).resolve().parent.parent / "demos" / "run.example.ini"

    @pytest.mark.parametrize("algo", ["mh", "hmc"])
    def test_example_loads(self, algo):
        cfg = load_run_config(self.EXAMPLE)
        assert cfg["io"]["data"] == "data.csv"  # inline comment stripped
        cfg["sampler"]["algo"] = algo
        prior = _prior_from_config(cfg)
        got, scfg = _sampler_from_config(cfg, 0)
        assert got == algo and scfg.prior == prior

    def test_example_lists_every_key(self):
        cfg = load_run_config(self.EXAMPLE)
        text = self.EXAMPLE.read_text()
        for section, keys in _KNOWN_KEYS.items():
            for key in keys:
                present = key in cfg.get(section, {}) or \
                    f"; {key} =" in text  # commented-out example value
                assert present, f"[{section}] {key} missing from the example"
