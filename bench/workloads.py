"""The benchmark's workloads: seeded set-up, one op through the CLI, checks.

Every op calls ``treecov.cli.main(argv)`` in-process, exactly as the
``treecov`` console script does, so a workload sees the CLI's own defaults.
``prepare`` writes the op's request (outside the timed region), the harness
times the CLI call, and ``check`` verifies every output and returns the
files whose digests prove reproducibility.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import treecov.cli as cli
from inputs import random_truth, summarize_archive, truth_data, write_csv
from probes import Absent
from treecov import (
    PosteriorArchive,
    PriorSpec,
    bhv_distance,
    gaussian_loglik,
    matrix_to_tree,
    suff_stats,
    tree_distance,
    tree_log_prior,
    tree_to_matrix,
    tree_to_newick,
    validate_ultrametric,
)

REL_TOL = 1e-9


class CheckFailed(Exception):
    """An op's output failed a correctness check."""


def run_cli(argv) -> tuple[int, str]:
    """Run the CLI in-process; return its exit code and captured stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            print(json.dumps({"exception": traceback.format_exc()}))
            code = -1
    return code, buf.getvalue()


def _require(cond: bool, msg: str):
    if not cond:
        raise CheckFailed(msg)


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def _json_lines(text: str) -> list[dict]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("{"):
            out.append(json.loads(line))
    return out


def _write_ini(path: Path, sections: dict):
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    path.write_text("\n".join(lines))


@dataclass
class Workload:
    name: str
    unit: str
    min_ops: int = 3

    def setup(self, d: Path, seed: int) -> dict:
        """Generate inputs under ``d``; return them with their properties."""
        raise NotImplementedError

    def prepare(self, inp: dict, d: Path, seed: int, index: int) -> tuple[list, float]:
        """Write the op's request; return the CLI argv and its work units."""
        raise NotImplementedError

    def check(self, inp: dict, d: Path, code: int, out: str) -> dict:
        """Verify the op's outputs; return ``{label: path or bytes}`` to digest."""
        raise NotImplementedError

    def finish(self, inp: dict, d: Path) -> dict:
        """Checks that run once, after the timed loop."""
        return {}

    def probe_inputs(self, inp: dict, d: Path, captured: dict) -> dict:
        """The workload's own archive, trees, data and prior for the probes."""
        raise NotImplementedError


def archive_properties(archive) -> dict:
    """Record count, distinct topologies and mean support pairs of an archive.

    Support pairs are counted on geodesics between records half an archive
    apart (at most 200), as in the geodesic probe.
    """
    trees = archive.trees()
    n = len(trees)
    pairs = [len(bhv_distance(trees[i], trees[(i + n // 2) % n])[1].pairs)
             for i in range(0, n, max(1, n // 200))]
    return {"records": n, "distinct_topologies": len({t.topology for t in trees}),
            "mean_support_pairs": sum(pairs) / len(pairs)}


def _probe_context(archive, stats, prior=None, mode="binary") -> dict:
    return {"archive": archive, "trees": archive.trees(), "stats": stats,
            "prior": prior or PriorSpec(), "mode": mode}


@dataclass
class ChainWorkload(Workload):
    """``treecov sample``: one chain per op on data from a random truth."""

    algo: str = "mh"
    p: int = 20
    iterations: int = 300
    burn_in: int = 200
    leapfrog_steps: int = 0
    step_size: float = 0.0

    def setup(self, d, seed):
        truth = random_truth(self.p, seed)
        data = truth_data(truth, 10 * self.p, seed)
        write_csv(d / "data.csv", data.values)
        (d / "truth.nwk").write_text(tree_to_newick(truth) + "\n")
        return {"dir": d, "stats": suff_stats(data),
                "properties": {"p": self.p, "n": data.n}}

    def prepare(self, inp, d, seed, index):
        sampler = {"algo": self.algo, "iterations": self.iterations,
                   "burn_in": self.burn_in}
        if self.algo == "hmc":
            sampler.update(leapfrog_steps=self.leapfrog_steps, epsilon=self.step_size)
        _write_ini(d / "run.ini", {
            "model": {"p": self.p},
            "sampler": sampler,
            "io": {"data": inp["dir"] / "data.csv", "archive": d / "archive.jsonl",
                   "trace": d / "trace.csv"},
            "run": {"seed": 1000 * seed + index},
        })
        argv = ["sample", "--config", d / "run.ini"]
        if self.algo == "hmc":
            # HMC starts in the posterior bulk: from a random start its
            # acceptance is all-or-nothing, which the checks would reject
            argv += ["--inits", inp["dir"] / "truth.nwk"]
        work = self.iterations * (self.leapfrog_steps if self.algo == "hmc" else 1)
        return argv, work

    def check(self, inp, d, code, out):
        _require(code == 0, f"sample exited with {code}: {out[-2000:]}")
        lines = [x for x in _json_lines(out) if "provenance" in x]
        _require(len(lines) == 1, "sample printed no chain line")
        prov = lines[0]["provenance"]
        archive = PosteriorArchive.load_jsonl(d / "archive.jsonl")
        _require(len(archive) == self.iterations - self.burn_in,
                 f"archive has {len(archive)} records")
        trace = PosteriorArchive.load_trace_csv(d / "trace.csv")
        _require(len(trace) == self.iterations, f"trace has {len(trace)} rows")
        last = archive.records[-1]
        tree = last.tree()
        fresh = gaussian_loglik(inp["stats"], tree_to_matrix(tree))
        _require(_rel_close(last.log_lik, fresh),
                 f"last log_lik {last.log_lik!r} != fresh {fresh!r}")
        if self.algo == "mh":
            lp = tree_log_prior(tree, PriorSpec())
            _require(_rel_close(last.log_prior, lp),
                     f"last log_prior {last.log_prior!r} != fresh {lp!r}")
            ratios = {"topology": prov["accept_topology"] / prov["proposed_topology"],
                      "lengths": prov["accept_lengths"] / prov["proposed_lengths"]}
        else:
            ratios = {"hmc": prov["accept_hmc"] / prov["proposed_hmc"]}
        for move, r in ratios.items():
            _require(0.0 < r < 1.0, f"{move} acceptance {r} not in (0, 1)")
        return {"archive": d / "archive.jsonl", "trace": d / "trace.csv"}

    def finish(self, inp, d):
        return archive_properties(PosteriorArchive.load_jsonl(d / "op" / "archive.jsonl"))

    def probe_inputs(self, inp, d, captured):
        return _probe_context(PosteriorArchive.load_jsonl(d / "archive.jsonl"), inp["stats"])


@dataclass
class SummarizeWorkload(Workload):
    """``treecov summarize --truth`` with CLI defaults on a generated archive."""

    kind: str = "concentrated"
    p: int = 20
    tiny: bool = False

    def setup(self, d, seed):
        truth, data, archive, topologies = summarize_archive(
            self.kind, self.p, seed, self.tiny)
        archive.save_jsonl(d / "archive.jsonl")
        write_csv(d / "truth.csv", tree_to_matrix(truth).values)
        return {"dir": d, "truth": truth, "stats": suff_stats(data),
                "records": len(archive), "digest": None,
                "properties": {"p": self.p, "n": data.n, "records": len(archive),
                               "distinct_topologies": topologies}}

    def prepare(self, inp, d, seed, index):
        argv = ["summarize", inp["dir"] / "archive.jsonl",
                "--truth", inp["dir"] / "truth.csv", "--out", d / "summary.json"]
        if self.tiny:
            argv += ["--mean-iterations", "200"]
        return argv, 1

    def check(self, inp, d, code, out):
        _require(code == 0, f"summarize exited with {code}: {out[-2000:]}")
        text = (d / "summary.json").read_bytes()
        # repeated summaries of one archive must be byte-identical
        if inp["digest"] is None:
            inp["digest"] = text
        _require(text == inp["digest"], "summary differs from the run's first one")
        rep = json.loads(text)
        _require(rep["num_samples"] == inp["records"],
                 f"num_samples {rep['num_samples']} != {inp['records']}")
        mean = np.array(rep["mean_matrix"], dtype=float)
        report = validate_ultrametric(mean)
        _require(report.valid, f"mean matrix invalid: {report.summary()}")
        freqs = list(rep["split_frequencies"].values())
        _require(all(0.0 <= f <= 1.0 for f in freqs), "frequency outside [0, 1]")
        _require(0.0 <= rep["coverage_rate"] <= 1.0, "coverage outside [0, 1]")
        inp["mean_matrix"] = mean
        return {"summary": d / "summary.json"}

    def finish(self, inp, d):
        """Mean objective: mean squared tree distance to the archive's trees.

        The reported mean must beat the truth the archive was generated
        around, so a faster mean cannot silently be a worse one.
        """
        if "mean_matrix" not in inp:
            return {}
        archive = PosteriorArchive.load_jsonl(inp["dir"] / "archive.jsonl")
        trees = archive.trees()
        mean_tree = matrix_to_tree(inp["mean_matrix"])
        objective = math.fsum(tree_distance(mean_tree, t) ** 2 for t in trees) / len(trees)
        at_truth = math.fsum(tree_distance(inp["truth"], t) ** 2 for t in trees) / len(trees)
        _require(objective <= at_truth,
                 f"mean objective {objective} exceeds the truth's {at_truth}")
        return {"mean_objective": objective, "truth_objective": at_truth,
                **archive_properties(archive)}

    def probe_inputs(self, inp, d, captured):
        archive = PosteriorArchive.load_jsonl(inp["dir"] / "archive.jsonl")
        return _probe_context(archive, inp["stats"])


@dataclass
class SimulateWorkload(Workload):
    """``treecov simulate``: a p = 10 multifurcating scenario, default threads."""

    p: int = 10
    iterations: int = 200
    burn_in: int = 100
    replicates: int = 1
    multipliers: tuple = (5, 20)
    distributions: tuple = ("normal", "t3")

    def setup(self, d, seed):
        return {"dir": d, "properties": {
            "p": self.p, "replicates_per_op": self.cells() * self.replicates,
            "n": [m * self.p for m in self.multipliers]}}

    def cells(self) -> int:
        return len(self.multipliers) * len(self.distributions)

    def prepare(self, inp, d, seed, index):
        _write_ini(d / "sim.ini", {
            "prior": {"kind": "poisson-dirichlet"},
            "sampler": {"algo": "mh", "mode": "multifurcating",
                        "iterations": self.iterations, "burn_in": self.burn_in},
            "scenario": {"p": self.p,
                         "multipliers": ",".join(map(str, self.multipliers)),
                         "distributions": ",".join(self.distributions),
                         "truth_mode": "unresolved", "replicates": self.replicates},
            "io": {"report": d / "scenario.json", "splits_csv": d / "recovery.csv"},
            "run": {"seed": 1000 * seed + index},
        })
        return ["simulate", "--config", d / "sim.ini"], self.cells() * self.replicates

    def check(self, inp, d, code, out):
        _require(code == 0, f"simulate exited with {code}: {out[-2000:]}")
        rep = json.loads((d / "scenario.json").read_text())
        elapsed = rep.pop("elapsed_seconds")
        _require(elapsed > 0.0, "elapsed_seconds is not positive")
        cells = rep["cells"]
        _require(len(cells) == self.cells(), f"{len(cells)} cells, expected {self.cells()}")

        def numbers(x):
            if isinstance(x, dict):
                for v in x.values():
                    yield from numbers(v)
            elif isinstance(x, (int, float)):
                yield float(x)

        for key, cell in cells.items():
            _require(cell["replicates"] == self.replicates, f"{key}: replicate count")
            _require(all(math.isfinite(v) for v in numbers(cell)), f"{key}: non-finite value")
            _require(0.0 <= cell["median_coverage"] <= 1.0, f"{key}: coverage outside [0, 1]")
        # the report records its own wall time; digest everything else
        return {"report": json.dumps(rep, sort_keys=True).encode(),
                "recovery": d / "recovery.csv"}

    def probe_inputs(self, inp, d, captured):
        """The last replicate's chain, captured from ``run_chain`` while traced."""
        call = captured.get("treecov.samplers.run_chain")
        if call is None:
            raise Absent("treecov.samplers.run_chain was not traced")
        (data, _init, _algo, cfg), _kwargs, archive = call
        return _probe_context(archive, suff_stats(data), cfg.prior, cfg.mode)


def make_workloads(tiny: bool = False) -> dict[str, Workload]:
    """The six workloads; ``tiny`` shrinks every op for the self-test."""
    t = tiny
    ops = 1 if t else 3
    ws = [
        ChainWorkload("mh_p20", "MH iteration", ops, algo="mh", p=20,
                      iterations=40 if t else 300, burn_in=20 if t else 200),
        ChainWorkload("mh_p40", "MH iteration", ops, algo="mh", p=40,
                      iterations=30 if t else 100, burn_in=15 if t else 50),
        ChainWorkload("hmc_p20", "leapfrog step", ops, algo="hmc", p=20,
                      iterations=16 if t else 50, burn_in=8 if t else 40,
                      leapfrog_steps=5 if t else 10, step_size=0.1),
        SummarizeWorkload("summarize_concentrated", "summary", ops,
                          kind="concentrated", tiny=t),
        # five ops, not three: one diffuse summary takes about five seconds
        SummarizeWorkload("summarize_diffuse", "summary", 1 if t else 5,
                          kind="diffuse", tiny=t),
        SimulateWorkload("simulate", "replicate", ops,
                         iterations=30 if t else 200, burn_in=15 if t else 100),
    ]
    return {w.name: w for w in ws}
