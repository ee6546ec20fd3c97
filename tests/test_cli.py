import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from treecov import sim
from treecov.archive import ArchiveRecord, PosteriorArchive
from treecov.cli import (
    _KNOWN_KEYS,
    _prior_from_config,
    _sampler_from_config,
    _scenario_from_config,
    load_run_config,
    main,
    read_matrix_csv,
    write_dataset_csv,
    write_matrix_csv,
)
from treecov.errors import ConfigError, DataError
from treecov.geometry import frechet_mean
from treecov.model import sample_gaussian
from treecov.newick import newick_to_tree, tree_to_newick
from treecov.priors import PriorSpec
from treecov.rng import RngStream
from treecov.samplers import HmcConfig, MhConfig, run_chain
from treecov.sim import Scenario
from treecov.treespace import random_tree, star_tree
from treecov.ultrametric import matrix_to_tree, tree_to_matrix

from test_newick import MALFORMED
from test_sim import must_not_run


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

    @pytest.mark.parametrize("command", [["validate"], ["convert", "--to", "newick"]])
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_tolerance_outside_zero_to_inf_is_a_usage_error(self, command, tol,
                                                            tmp_path, capsys):
        # every comparison with NaN is false, so NaN would pass this matrix
        path = tmp_path / "bad.csv"
        write_matrix_csv(path, np.array([[3.0, 1, 0], [1, 3, 1], [0, 1, 3]]))
        with pytest.raises(SystemExit) as exc:
            main([command[0], str(path), *command[1:], "--tol", tol])
        assert exc.value.code == 2
        assert "tolerance" in capsys.readouterr().err

    def test_zero_tolerance_accepted(self, star_csv, capsys):
        assert main(["validate", str(star_csv), "--tol", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["valid"]


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

    def test_one_leaf_roundtrip(self, tmp_path, capsys):
        mpath = tmp_path / "m.csv"
        write_matrix_csv(mpath, np.array([[1.0]]))
        assert main(["convert", str(mpath), "--to", "newick"]) == 0
        text = capsys.readouterr().out.strip()
        assert text == "(0:0,1:1);"
        npath = tmp_path / "t.nwk"
        npath.write_text(text + "\n")
        assert main(["convert", str(npath), "--to", "matrix"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_invalid_matrix_exit_one(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_matrix_csv(path, np.array([[3.0, 0, 1], [0, 3, 2], [1, 2, 3]]))
        assert main(["convert", str(path), "--to", "newick"]) == 1

    def test_more_than_64_leaves_exit_one(self, tmp_path, capsys):
        # a 65-leaf star would write Newick that convert --to matrix refuses
        path = tmp_path / "big.csv"
        write_matrix_csv(path, np.eye(65))
        out = tmp_path / "big.nwk"
        assert main(["convert", str(path), "--to", "newick", "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "leaf count 65 outside 1..64"
        assert not out.exists()

    @pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_newick_exit_one(self, text, tmp_path, capsys):
        path = tmp_path / "bad.nwk"
        path.write_text(text + "\n")
        assert main(["convert", str(path), "--to", "matrix"]) == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["error"] and err == ""


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

    # common splits {1..4}, {5..8} and {9, 10}; uncommon splits in both
    # inner regions and at the root, and the inner regions tie at ratio 1
    REGIONS = (
        "(0:0.5,((((1:1,2:1):0.5,3:1):0.4,4:1):0.9,"
        "((5:1,6:1):0.3,7:1,8:1):0.6):0.7,(9:1,10:1):0.4);",
        "(0:0.5,(6:1,(5:1,7:1):0.3,8:1):0.65,"
        "(((1:1,3:1):0.5,(2:1,4:1):0.25):0.8,(9:1,10:1):0.1):0.2);",
    )
    REGIONS_DIGEST = "74da4502351806c9fab4abb8247bb822d95649a3c349a5b273972d7ce214605a"

    def test_multi_region_stdout_pinned(self, tmp_path, capsys):
        a, b = tmp_path / "a.nwk", tmp_path / "b.nwk"
        a.write_text(self.REGIONS[0])
        b.write_text(self.REGIONS[1])
        assert main(["distance", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert [[s["split"] for s in pr["source"]]
                for pr in json.loads(out)["support"]["pairs"]] == \
            [["1,2", "5,6"], ["1,2,3"], ["1,2,3,4,5,6,7,8"]]
        assert hashlib.sha256(out.encode()).hexdigest() == self.REGIONS_DIGEST

    def test_mixed_formats(self, star_csv, tmp_path, capsys):
        nwk = tmp_path / "star.nwk"
        nwk.write_text("(0:1,1:1,2:1,3:1);")
        assert main(["distance", str(star_csv), str(nwk)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["d_tree"] == pytest.approx(0.0, abs=1e-12)


def write_config(path, body):
    path.write_text(body)
    return str(path)


class TestMalformedCsv:
    """A matrix or data CSV that does not parse exits 2 with a JSON error."""

    @pytest.mark.parametrize("command",
                             ["validate", "convert", "distance", "sample", "summarize"])
    def test_exit_two_naming_the_file(self, command, star_csv, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,0,0\n0,x,0\n0,0,1\n")
        archive = run_chain(None, random_tree(3), "mh", MhConfig(iterations=4, burn_in=2))
        archive.save_jsonl(tmp_path / "a.jsonl")
        cfg = write_config(tmp_path / "run.ini", f"[model]\np = 3\n[io]\ndata = {bad}\n")
        argv = {
            "validate": ["validate", bad],
            "convert": ["convert", bad, "--to", "newick"],
            "distance": ["distance", star_csv, bad],
            "sample": ["sample", "--config", cfg],
            "summarize": ["summarize", tmp_path / "a.jsonl", "--truth", bad,
                          "--out", tmp_path / "s.json"],
        }[command]
        assert main([str(a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert str(bad) in json.loads(captured.out)["error"]
        assert "Traceback" not in captured.out + captured.err


class TestUndecodableInput:
    """An input file that does not decode as text exits with a JSON error
    naming it: 2 for configs, Newick and matrix inputs, 1 for archives."""

    @pytest.mark.parametrize("command,code", [
        ("distance", 2), ("convert", 2), ("mean", 2), ("sample-inits", 2),
        ("sample-config", 2), ("simulate-config", 2), ("summarize", 1)])
    def test_typed_error_naming_the_file(self, command, code, star_csv,
                                         tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe" + "(1:1,2:1);".encode("utf-16-le"))
        cfg = write_config(tmp_path / "run.ini", f"""[model]
p = 2
[io]
archive = {tmp_path / 'a.jsonl'}
trace = {tmp_path / 't.csv'}
""")
        argv = {
            "distance": ["distance", star_csv, bad],
            "convert": ["convert", bad, "--to", "matrix"],
            "mean": ["mean", bad, "--out", tmp_path / "m.csv"],
            "sample-inits": ["sample", "--config", cfg, "--inits", bad],
            "sample-config": ["sample", "--config", bad],
            "simulate-config": ["simulate", "--config", bad],
            "summarize": ["summarize", bad, "--out", tmp_path / "s.json"],
        }[command]
        assert main([str(a) for a in argv]) == code
        captured = capsys.readouterr()
        assert str(bad) in json.loads(captured.out)["error"]
        assert "Traceback" not in captured.out + captured.err


class TestNonFiniteLengths:
    """A tree or archive record with a non-finite length exits 1 with a JSON error."""

    def test_distance_on_overflowing_newick(self, tmp_path, capsys):
        a = tmp_path / "a.nwk"
        b = tmp_path / "b.nwk"
        a.write_text("((1:1,2:1):1e400,3:1,0:1);")
        b.write_text("((1:1,3:1):1,2:1,0:1);")
        assert main(["distance", str(a), str(b)]) == 1
        captured = capsys.readouterr()
        assert "finite" in json.loads(captured.out)["error"]
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_summarize_archive_with_non_finite_length(self, literal, tmp_path, capsys):
        path = tmp_path / "a.jsonl"
        run_chain(None, random_tree(4), "mh",
                  MhConfig(iterations=6, burn_in=2)).save_jsonl(path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["root_length"] = "LENGTH"
        lines[1] = json.dumps(record).replace('"LENGTH"', literal)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "s.json"
        assert main(["summarize", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "finite" in json.loads(captured.out)["error"]
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()

    def test_load_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "a.jsonl"
        run_chain(None, random_tree(4), "mh",
                  MhConfig(iterations=6, burn_in=2)).save_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        record = json.loads(lines[2])
        record["root_length"] = "LENGTH"
        lines[2] = json.dumps(record).replace('"LENGTH"', "NaN")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"archive {path} line 3: edge lengths must be finite"):
            PosteriorArchive.load_jsonl(path)
        assert main(["summarize", str(path), "--out", str(tmp_path / "s.json")]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == f"archive {path} line 3: edge lengths must be finite"


class TestNonFiniteScores:
    """A record with a non-finite ``log_lik`` or ``log_prior`` is a data error."""

    @pytest.mark.parametrize("key, literal", [("log_lik", "NaN"),
                                              ("log_prior", "Infinity"),
                                              ("log_lik", "-Infinity")])
    def test_summarize_exits_one(self, key, literal, tmp_path, capsys):
        path = tmp_path / "a.jsonl"
        run_chain(None, random_tree(4), "mh",
                  MhConfig(iterations=6, burn_in=2)).save_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        record = json.loads(lines[1])
        record["log_prior"] = -1e9
        record[key] = "SCORE"
        lines[1] = json.dumps(record).replace('"SCORE"', literal)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "s.json"
        assert main(["summarize", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "must be finite" in json.loads(captured.out)["error"]
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()


class TestBadRecordAfterGoodOnes:
    """A bad record after good ones that share its splits or topology still
    fails, naming its own line."""

    GOOD = {"iter": 1, "log_prior": 0.0, "log_lik": 0.0,
            "splits": [[1, 2], [1, 2, 3]], "lengths": {"1,2": 0.5, "1,2,3": 0.4},
            "leaf_lengths": [1.0] * 4, "root_length": 0.5}

    @pytest.mark.parametrize("change, message", [
        ({"splits": [[1, 2], [1, 2, 5]], "lengths": {"1,2": 0.5, "1,2,5": 0.4}},
         "leaf 5 outside 1..4"),
        ({"splits": [[1, 2], [2, 3]], "lengths": {"1,2": 0.5, "2,3": 0.4}},
         "incompatible splits Split({1,2}/4) and Split({2,3}/4)"),
        ({"lengths": {"1,2": 0.5}}, "internal_lengths keys must equal topology splits"),
        ({"splits": [[1.0, 2], [1, 2, 3]]}, "malformed value"),
        ({"splits": [[True, 2], [1, 2, 3]]}, "leaf True is a boolean, not a label"),
        ({"splits": [[1, 2], [1, 2, 3], [1, 2]]}, "Split({1,2}/4) is listed twice"),
        ({"lengths": {"1,2": 0.5, "2,1": 0.5, "1,2,3": 0.4}},
         "lengths keys '1,2' and '2,1' both spell Split({1,2}/4)"),
        # float() would read true as 1.0 and "0.5" as 0.5, int() "3" as 3
        ({"iter": True}, "malformed value (iter True is not an integer)"),
        ({"iter": "3"}, "malformed value (iter '3' is not an integer)"),
        ({"log_prior": False}, "malformed value (a length or score is bool"),
        ({"log_lik": "0.5"}, "malformed value (a length or score is str"),
        ({"root_length": True}, "malformed value (a length or score is bool"),
        ({"leaf_lengths": [1.0, "0.5", 1.0, 1.0]}, "malformed value (a length or score is str"),
        ({"lengths": {"1,2": True, "1,2,3": 0.4}}, "malformed value (a length or score is bool"),
        ({"splits": [[1, 1, 2], [1, 2, 3]]}, "leaf 1 appears twice"),
        ({"lengths": {"1,1,2": 0.5, "1,2,3": 0.4}}, "leaf 1 appears twice"),
    ], ids=["leaf-out-of-range", "incompatible", "lengths-keys-differ", "float-leaf",
            "bool-leaf", "split-twice", "lengths-key-twice", "bool-iter", "string-iter",
            "bool-log-prior", "string-log-lik", "bool-root", "string-leaf-length",
            "bool-length", "leaf-twice-in-split", "leaf-twice-in-key"])
    def test_names_line_three(self, change, message, tmp_path, capsys):
        path = tmp_path / "a.jsonl"
        records = [self.GOOD, self.GOOD | {"iter": 2, "root_length": 0.7},
                   self.GOOD | {"iter": 3} | change, self.GOOD | {"iter": 4}]
        path.write_text("".join(json.dumps(d) + "\n" for d in records))
        expected = f"archive {path} line 3: {message}"
        with pytest.raises(DataError) as exc:
            PosteriorArchive.load_jsonl(path)
        assert str(exc.value).startswith(expected)
        out = tmp_path / "s.json"
        assert main(["summarize", str(path), "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().out)["error"].startswith(expected)
        assert not out.exists()

    def test_split_named_twice_in_a_chain_archive(self, tmp_path, capsys):
        # its frequency would read 2.0
        path = tmp_path / "a.jsonl"
        run_chain(None, random_tree(6), "mh",
                  MhConfig(iterations=6, burn_in=2)).save_jsonl(path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record["splits"].append(record["splits"][0])
        lines[0] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        twice = ",".join(map(str, record["splits"][0]))
        out = tmp_path / "s.json"
        assert main(["summarize", str(path), "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == \
            f"archive {path} line 1: Split({{{twice}}}/6) is listed twice in splits"
        assert not out.exists()


class TestMeanBudget:
    """``summarize`` and ``mean`` default to the library's mean budget."""

    @pytest.fixture(scope="class")
    def skewed_archive(self, tmp_path_factory):
        # 3000 copies of one star tree, then 1000 with leaf 1 tripled: the
        # mean has leaf 1 = 1.5, and a budget of 3000 steps never sees the
        # last 1000 records
        a = star_tree((1.0, 1.0, 1.0, 1.0), 0.5)
        b = star_tree((3.0, 1.0, 1.0, 1.0), 0.5)
        archive = PosteriorArchive(p=4, records=[
            ArchiveRecord.from_tree(i + 1, 0.0, 0.0, a if i < 3000 else b)
            for i in range(4000)])
        path = tmp_path_factory.mktemp("skewed") / "archive.jsonl"
        archive.save_jsonl(path)
        return path

    def test_mean_reaches_every_record(self, skewed_archive, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert main(["mean", str(skewed_archive), "--out", str(out)]) == 0
        assert matrix_to_tree(read_matrix_csv(out)).leaf_lengths[0] == \
            pytest.approx(1.5, abs=1e-3)

    def test_summarize_reaches_every_record(self, skewed_archive, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["summarize", str(skewed_archive), "--out", str(out)]) == 0
        mean = np.array(json.loads(out.read_text())["mean_matrix"])
        assert matrix_to_tree(mean).leaf_lengths[0] == pytest.approx(1.5, abs=1e-3)

    def test_mean_default_is_the_library_default(self, tmp_path, capsys):
        trees = [random_tree(4, "uniform-binary", 1.0, RngStream(9, i))
                 for i in range(7)]
        listing = tmp_path / "trees.txt"
        listing.write_text("\n".join(tree_to_newick(t) for t in trees))
        assert main(["mean", str(listing), "--out", str(tmp_path / "m.csv")]) == 0
        assert (tmp_path / "m.nwk").read_text() == \
            tree_to_newick(frechet_mean(trees)) + "\n"

    @pytest.mark.parametrize("level", ["1.5", "0", "-1", "nan"])
    def test_level_outside_zero_one_is_a_usage_error(self, level, skewed_archive,
                                                     tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["summarize", str(skewed_archive), "--out", str(tmp_path / "o"),
                  "--level", level])
        assert exc.value.code == 2
        assert "level in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, value", [("mean", "0"), ("summarize", "-5"),
                                                ("mean", "1.5")])
    def test_non_positive_cap_is_a_usage_error(self, command, value, skewed_archive,
                                               tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, str(skewed_archive), "--out", str(tmp_path / "o"),
                  "--mean-iterations", value])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err


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

    GOOD_RECORD = {"iter": 1, "log_prior": 0.0, "log_lik": 0.0, "splits": [[1, 2]],
                   "lengths": {"1,2": 0.5}, "leaf_lengths": [1.0, 1.0, 1.0],
                   "root_length": 0.5}

    @pytest.mark.parametrize("second, message", [
        ('{"iter": 2, "log_prior": 0.0,', "line 2: not valid JSON"),
        (json.dumps({k: v for k, v in GOOD_RECORD.items() if k != "root_length"}
                    | {"iter": 2}), "line 2: missing key 'root_length'"),
        (json.dumps(GOOD_RECORD | {"iter": 2, "splits": [], "lengths": {},
                                   "leaf_lengths": [1.0, 1.0]}),
         "line 2: record has 2 leaves, earlier records have 3"),
        ("[1, 2]", "line 2: expected a JSON object, got list"),
        (json.dumps(GOOD_RECORD | {"iter": 2, "root_length": "x"}),
         "line 2: malformed value"),
        (json.dumps(GOOD_RECORD | {"iter": 2, "lengths": {"1,a": 0.5}}),
         "line 2: malformed value"),
        (json.dumps(GOOD_RECORD | {"iter": 2, "leaf_lengths": 3}),
         "line 2: malformed value"),
    ], ids=["bad-json", "missing-key", "fewer-leaves", "not-object",
            "non-numeric", "bad-split-key", "leaf-lengths-not-list"])
    def test_bad_archive_exit_one(self, tmp_path, capsys, second, message):
        path = tmp_path / "arch.jsonl"
        path.write_text(json.dumps(self.GOOD_RECORD) + "\n" + second + "\n")
        assert main(["summarize", str(path), "--out", str(tmp_path / "s.json")]) == 1
        out, err_stream = capsys.readouterr()
        err = json.loads(out)["error"]
        assert str(path) in err and message in err
        assert "Traceback" not in err_stream

    @pytest.mark.parametrize("key", ["root_length", "log_lik", "leaf_lengths", "lengths"])
    def test_integer_too_large_for_a_float_exit_one(self, key, tmp_path, capsys):
        # a JSON integer of 400 digits is an int, which float() refuses
        path = tmp_path / "arch.jsonl"
        big = {"leaf_lengths": ["BIG", 1.0, 1.0], "lengths": {"1,2": "BIG"}}.get(key, "BIG")
        line = json.dumps(self.GOOD_RECORD | {key: big}).replace('"BIG"', "9" * 400)
        path.write_text(line + "\n")
        expected = (f"archive {path} line 1: malformed value "
                    "(int too large to convert to float)")
        with pytest.raises(DataError, match=re.escape(expected)):
            PosteriorArchive.load_jsonl(path)
        assert main(["summarize", str(path), "--out", str(tmp_path / "s.json")]) == 1
        out, err_stream = capsys.readouterr()
        assert json.loads(out)["error"] == expected
        assert "Traceback" not in err_stream

    def test_record_with_more_than_64_leaves_exit_one(self, tmp_path, capsys):
        path = tmp_path / "arch.jsonl"
        record = self.GOOD_RECORD | {"splits": [], "lengths": {}, "leaf_lengths": [1.0] * 65}
        path.write_text(json.dumps(record) + "\n")
        expected = f"archive {path} line 1: leaf count 65 outside 1..64"
        with pytest.raises(DataError, match=re.escape(expected)):
            PosteriorArchive.load_jsonl(path)
        assert main(["summarize", str(path), "--out", str(tmp_path / "s.json")]) == 1
        out, err_stream = capsys.readouterr()
        assert json.loads(out)["error"] == expected
        assert "Traceback" not in err_stream

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

    def test_init_with_wrong_leaf_count_exit_two(self, tmp_path, capsys):
        init = tmp_path / "init.nwk"
        init.write_text(tree_to_newick(random_tree(4, "uniform-binary", 1.0, RngStream(1))))
        cfg = write_config(tmp_path / "run.ini", f"""
[model]
p = 5

[sampler]
iterations = 20
burn_in = 10

[io]
archive = {tmp_path / 'a.jsonl'}
trace = {tmp_path / 't.csv'}
""")
        assert main(["sample", "--config", cfg, "--inits", str(init)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert str(init) in err and "4 leaves" in err and "p=5" in err
        assert not (tmp_path / "a.jsonl").exists()

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
        ("run", "seed", "x"), ("model", "p", "three"), ("scenario", "fixed_truth", "ture"),
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

    def test_over_the_cap_names_force(self, tmp_path, capsys, monkeypatch):
        # the pilot prices these chains at about 1e5 s on two workers
        cfg = write_config(tmp_path / "sim.ini", f"""
[sampler]
iterations = 1000000
burn_in = 9000

[scenario]
p = 30
multipliers = 3,5,10,25,50
distributions = normal,t3
replicates = 50

[io]
report = {tmp_path / 'rep.json'}
splits_csv = {tmp_path / 'rec.csv'}
""")
        monkeypatch.setattr(sim, "_run_replicate", must_not_run)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert main(["simulate", "--config", cfg]) == 1
        captured = capsys.readouterr()
        (line,) = captured.out.splitlines()
        assert "--force" in json.loads(line)["error"]
        assert "Traceback" not in captured.err
        assert [f.name for f in tmp_path.iterdir()] == ["sim.ini"]

    @pytest.mark.parametrize("section,key", [("run", "threads"), ("io", "out_dir"),
                                             ("sampler", "lambda"), ("sampler", "mass")])
    def test_removed_keys_rejected(self, tmp_path, capsys, section, key):
        # a tiny scenario, so that a key accepted by mistake fails fast
        sections = {"scenario": "p = 4\nmultipliers = 2\nreplicates = 1\n",
                    "sampler": "iterations = 20\nburn_in = 10\n"}
        sections[section] = sections.get(section, "") + f"{key} = 2\n"
        cfg = write_config(tmp_path / "sim.ini",
                           "".join(f"[{name}]\n{text}\n" for name, text in sections.items()))
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

    def test_mean_reads_an_archive_once(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "a.jsonl"
        archive = run_chain(None, random_tree(4), "mh", MhConfig(iterations=6, burn_in=2))
        archive.save_jsonl(path)
        path.write_text("\n \n" + path.read_text())  # blank lines before the first record
        loads = []
        load = PosteriorArchive.load_jsonl.__func__
        monkeypatch.setattr(PosteriorArchive, "load_jsonl", classmethod(
            lambda cls, p: loads.append(p) or load(cls, p)))
        monkeypatch.setattr("treecov.cli._read_text", must_not_run)
        assert main(["mean", str(path), "--out", str(tmp_path / "m.csv")]) == 0
        assert loads == [str(path)]
        assert json.loads(capsys.readouterr().out)["num_trees"] == len(archive)

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank"])
    def test_mean_of_no_trees_names_the_input(self, text, tmp_path, capsys):
        path = tmp_path / "none.txt"
        path.write_text(text)
        out = tmp_path / "m.csv"
        assert main(["mean", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"] == f"archive {path} contains no records"
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()


class TestRunSection:
    """A negative seed, a chain count below 1, a leaf count outside 2..64 or
    a sampler value its config rejects exits 2 and writes nothing."""

    def config(self, tmp_path, run="", sampler="", p=3):
        return write_config(tmp_path / "run.ini", f"""
[model]
p = {p}

[sampler]
iterations = 20
burn_in = 10
{sampler}

[scenario]
p = 3
multipliers = 2
replicates = 1

[io]
archive = {tmp_path / 'a.jsonl'}
trace = {tmp_path / 't.csv'}
report = {tmp_path / 'r.json'}
splits_csv = {tmp_path / 'r.csv'}

[run]
{run}
""")

    @pytest.mark.parametrize("command,key,value", [
        ("sample", "chains", "0"), ("sample", "seed", "-5"), ("simulate", "seed", "-5"),
    ])
    def test_out_of_range_exit_two(self, tmp_path, capsys, command, key, value):
        cfg = self.config(tmp_path, f"{key} = {value}")
        assert main([command, "--config", cfg]) == 2
        assert f"[run] {key} = {value}" in json.loads(capsys.readouterr().out)["error"]
        assert [f.name for f in tmp_path.iterdir()] == ["run.ini"]

    @pytest.mark.parametrize("command", ["sample", "simulate"])
    @pytest.mark.parametrize("sampler,message", [
        ("sigma_l = 0", "sigma_L must be positive"),
        ("algo = hmc\nepsilon = 0", "step_size must be positive"),
        ("mode = multifurcating", "multifurcating mode needs the poisson-dirichlet"),
        ("algo = hmc\nmode = multifurcating",
         "mode = multifurcating needs algo = mh: algo hmc samples binary trees only"),
    ])
    def test_rejected_sampler_value_exit_two(self, tmp_path, capsys, command, sampler,
                                             message):
        cfg = self.config(tmp_path, sampler=sampler)
        assert main([command, "--config", cfg]) == 2
        assert f"[sampler] {message}" in json.loads(capsys.readouterr().out)["error"]
        assert [f.name for f in tmp_path.iterdir()] == ["run.ini"]

    @pytest.mark.parametrize("sampler,message", [
        ("sigma_l = nan", "sigma_L must be positive"),
        ("sigma_l = inf", "sigma_L must be positive"),
        ("algo = hmc\nepsilon = nan", "step_size must be positive"),
        ("algo = hmc\ndelta = inf", "delta must be non-negative"),
    ])
    def test_non_finite_sampler_value_is_a_config_error(self, tmp_path, sampler, message):
        # only the config is built: a chain with sigma_L = nan never ends
        cfg = load_run_config(self.config(tmp_path, sampler=sampler))
        with pytest.raises(ConfigError, match=re.escape(f"[sampler] {message}")):
            _sampler_from_config(cfg, 0)

    @pytest.mark.parametrize("p", [1, 65])
    def test_model_leaf_count_outside_bounds_exit_two(self, tmp_path, capsys, p):
        assert main(["sample", "--config", self.config(tmp_path, p=p)]) == 2
        assert f"[model] p = {p} is outside 2..64" in \
            json.loads(capsys.readouterr().out)["error"]
        assert [f.name for f in tmp_path.iterdir()] == ["run.ini"]

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_chains_flag_must_be_positive(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--config", self.config(tmp_path), "--chains", value])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["run.ini"]


class TestConfigErrors:
    """A config or input file that cannot be used exits 2 with a JSON error
    saying why, before any chain runs."""

    @pytest.mark.parametrize("files,argv,message", [
        ({"run.ini": "[model]\np = 3\n[bogus]\nx = 1\n"}, ["sample"],
         "unknown config section [bogus]"),
        ({"run.ini": "[model]\np = 3\n[sampler]\nalgo = gibbs\n"}, ["sample"],
         "unknown sampler algo 'gibbs'"),
        ({"run.ini": "[run]\nseed = 1\n"}, ["sample"], "config must set [model] p"),
        ({"run.ini": "[scenario]\nreplicates = 1\n"}, ["simulate"],
         "config must set [scenario] p"),
        ({"run.ini": "[model]\np = 3\n[io]\ndata = data.csv\n",
          "data.csv": "1,2,3,4\n5,6,7,8\n"}, ["sample"], "data have p=4, config says p=3"),
        ({"run.ini": "[model]\np = 3\n[run]\nchains = 2\n",
          "a.nwk": "((1:1,2:1):1,3:1,0:1);\n"}, ["sample", "--inits", "a.nwk"],
         "1 init files given for 2 chains"),
        ({"m.csv": "1,0,0\n0,1,0\n"}, ["validate", "m.csv"],
         "expected a square matrix, got (2, 3)"),
        ({"m.csv": "2,1\n0.5,2\n"}, ["validate", "m.csv"], "matrix is not symmetric"),
    ], ids=["unknown-section", "unknown-algo", "no-model-p", "no-scenario-p",
            "data-p", "inits-count", "non-square", "non-symmetric"])
    def test_exit_two_with_its_message(self, tmp_path, monkeypatch, capsys, files, argv,
                                       message):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        if argv[0] in ("sample", "simulate"):
            argv = [argv[0], "--config", "run.ini", *argv[1:]]
        assert main(argv) == 2
        assert message in json.loads(capsys.readouterr().out)["error"]
        assert sorted(f.name for f in tmp_path.iterdir()) == sorted(files)


class TestScenarioSection:
    """A ``[scenario]`` value that cannot run exits 2 before any chain runs."""

    @pytest.mark.parametrize("word,value", [
        ("on", True), ("On", True), ("YES", True), ("1", True), ("true", True),
        ("off", False), ("No", False), ("0", False), ("FALSE", False),
    ])
    def test_fixed_truth_reads_configparser_words(self, tmp_path, word, value):
        cfg = load_run_config(write_config(tmp_path / "run.ini",
                                           f"[scenario]\np = 4\nfixed_truth = {word}\n"))
        assert cfg["scenario"]["fixed_truth"] is value

    @pytest.mark.parametrize("line,message", [
        ("length_mean = -1", "length_mean must be positive"),
        ("interval_level = 1.5", "interval_level must be in (0, 1)"),
        ("mean_passes = 0", "mean_passes must be >= 1"),
        ("drop_count = -1", "drop_count must be >= 0"),
        ("p = 1", "p = 1 is outside 2..64"),
        ("p = 65", "p = 65 is outside 2..64"),
        ("multipliers = 5,5", "multipliers must be non-empty and distinct, got (5, 5)"),
    ])
    def test_exit_two_naming_the_section(self, tmp_path, capsys, line, message):
        keys = {"p": "4", "multipliers": "2", "replicates": "1",
                "truth_mode": "unresolved"} | dict([line.split(" = ")])
        scenario = "\n".join(f"{k} = {v}" for k, v in keys.items())
        cfg = write_config(tmp_path / "run.ini", f"""
[sampler]
iterations = 20
burn_in = 10

[scenario]
{scenario}

[io]
report = {tmp_path / 'r.json'}
splits_csv = {tmp_path / 'r.csv'}
""")
        assert main(["simulate", "--config", cfg]) == 2
        assert f"[scenario] {message}" in json.loads(capsys.readouterr().out)["error"]
        assert [f.name for f in tmp_path.iterdir()] == ["run.ini"]


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


class TestStdoutContract:
    """Each subcommand prints only its result lines, each one strict JSON,
    also when the work runs on forked workers."""

    SRC = Path(__file__).resolve().parent.parent / "src"

    def stdout_lines(self, tmp_path, *args) -> list[dict]:
        env = dict(os.environ, PYTHONPATH=str(self.SRC))
        done = subprocess.run([sys.executable, "-m", "treecov.cli", *args],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
        lines = done.stdout.split("\n")
        assert lines[-1] == ""
        return [json.loads(line, parse_constant=_refuse_constant) for line in lines[:-1]]

    def config(self, tmp_path):
        return write_config(tmp_path / "run.ini", f"""
[model]
p = 4

[sampler]
iterations = 40
burn_in = 20

[scenario]
p = 4
multipliers = 2
replicates = 2

[io]
archive = {tmp_path / 'a.jsonl'}
trace = {tmp_path / 't.csv'}
report = {tmp_path / 'r.json'}
splits_csv = {tmp_path / 'r.csv'}
""")

    def test_simulate_prints_one_line(self, tmp_path):
        (line,) = self.stdout_lines(tmp_path, "simulate", "--config", self.config(tmp_path))
        assert line["report"] == str(tmp_path / "r.json")

    def test_sample_prints_one_line_per_chain(self, tmp_path):
        lines = self.stdout_lines(tmp_path, "sample", "--config", self.config(tmp_path),
                                  "--chains", "2")
        assert [line["chain"] for line in lines] == [1, 2]


def test_sample_loads_no_special_functions(tmp_path):
    # an MH run with data loads scipy's linear algebra only: scipy.special
    # or scipy.stats would add megabytes of resident memory to every run
    rng = RngStream(3)
    truth = random_tree(5, "uniform-binary", 1.0, rng)
    write_dataset_csv(tmp_path / "data.csv", sample_gaussian(tree_to_matrix(truth), 50, rng),
                      {"seed": 3, "true_tree": tree_to_newick(truth)})
    cfg = write_config(tmp_path / "run.ini", f"""
[model]
p = 5

[sampler]
iterations = 30
burn_in = 10

[io]
data = {tmp_path / 'data.csv'}
archive = {tmp_path / 'arch.jsonl'}
trace = {tmp_path / 'trace.csv'}
""")
    code = ("import json, sys\n"
            "from treecov.cli import main\n"
            f"code = main(['sample', '--config', {str(cfg)!r}])\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.startswith(('scipy.special', 'scipy.stats')))\n"
            "print(json.dumps([code, 'scipy.linalg' in sys.modules, loaded]))\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(TestStdoutContract.SRC)),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0, True, []]


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

    def test_example_gives_the_dataclass_defaults(self):
        # the example documents the defaults, so it must build exactly them
        cfg = load_run_config(self.EXAMPLE)
        assert _prior_from_config(cfg) == PriorSpec()
        assert _sampler_from_config(cfg, 0) == ("mh", MhConfig())
        assert _scenario_from_config(cfg) == Scenario(p=10)
        # the schedule keys show the mh defaults and name hmc's in a comment
        text = self.EXAMPLE.read_text()
        cfg["sampler"]["algo"] = "hmc"
        for key in ("iterations", "burn_in"):
            assert f"hmc's is {getattr(HmcConfig(), key)}" in text
            del cfg["sampler"][key]
        assert _sampler_from_config(cfg, 0) == ("hmc", HmcConfig())

    def test_example_lists_every_key(self):
        cfg = load_run_config(self.EXAMPLE)
        text = self.EXAMPLE.read_text()
        for section, keys in _KNOWN_KEYS.items():
            for key in keys:
                present = key in cfg.get(section, {}) or \
                    f"; {key} =" in text  # commented-out example value
                assert present, f"[{section}] {key} missing from the example"


class TestChainWorkers:
    """``sample --chains 2`` on two forked workers writes the serial bytes."""

    def outputs(self, tmp_path, capsys, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert main(["sample", "--config", str(tmp_path / "run.ini"), "--chains", "2"]) == 0
        stdout = capsys.readouterr().out
        files = {name: (tmp_path / name).read_bytes()
                 for name in ("a-chain1.jsonl", "a-chain2.jsonl",
                              "t-chain1.csv", "t-chain2.csv")}
        return stdout, files

    def test_two_workers_equal_serial(self, tmp_path, capsys, monkeypatch):
        truth = random_tree(4, "uniform-binary", 1.0, RngStream(3))
        write_dataset_csv(tmp_path / "data.csv",
                          sample_gaussian(tree_to_matrix(truth), 40, RngStream(4)))
        write_config(tmp_path / "run.ini", f"""
[model]
p = 4

[sampler]
iterations = 80
burn_in = 40

[io]
data = {tmp_path / 'data.csv'}
archive = {tmp_path / 'a.jsonl'}
trace = {tmp_path / 't.csv'}

[run]
seed = 9
""")
        serial = self.outputs(tmp_path, capsys, monkeypatch, 1)
        assert self.outputs(tmp_path, capsys, monkeypatch, 2) == serial
        stdout, files = serial
        assert files["a-chain1.jsonl"] != files["a-chain2.jsonl"]
        lines = [json.loads(line) for line in stdout.splitlines()]
        assert [line["chain"] for line in lines] == [1, 2]
        # the accept counts are made in the child that ran chain 2
        assert all(line["provenance"]["proposed_lengths"] > 0 for line in lines)
