"""Command-line front end.

Subcommands: ``validate`` (strict-ultrametric check of a matrix CSV),
``convert`` (matrix CSV <-> Newick), ``distance`` (geodesic distance between
two matrices/trees), ``sample`` (posterior chains from a run config),
``summarize`` (archive -> summary report), ``simulate`` (replicated
scenario), ``mean`` (geodesic mean of an archive or a Newick list).

Exit codes: 0 success, 1 domain violation (invalid matrix or tree),
2 usage/configuration/IO error.

The run config is an INI file with sections ``[model]``, ``[prior]``,
``[sampler]``, ``[io]``, ``[run]`` and, for ``simulate``, ``[scenario]``;
unknown keys are rejected, and ``;`` after whitespace starts a comment.
``[prior]`` sets the posterior target of both sampler algos.  A key sets the
config dataclass field of the same name (``sigma_l`` sets ``sigma_L`` and
``epsilon`` sets ``step_size``); the defaults live only in those dataclasses,
:class:`PriorSpec`, :class:`MhConfig`, :class:`HmcConfig` and
:class:`Scenario`, and every field a section leaves unset keeps its default.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .archive import PosteriorArchive
from .errors import (
    ConfigError,
    InvalidArgumentError,
    TreecovError,
    UltrametricViolationError,
)
from .geometry import MEAN_PASSES, MeanConfig, bhv_distance, frechet_mean, tree_distance
from .model import DataSet
from .newick import newick_to_tree, tree_to_newick
from .posterior import build_summary
from .priors import PriorSpec
from .rng import RngStream
from .samplers import ALGOS, run_chain
from .sim import COST_CAP_SECONDS, Scenario, _map_jobs, run_scenario, write_report
from .treespace import MAX_LEAVES, Tree, random_tree
from .ultrametric import (
    DEFAULT_TOL,
    matrix_to_tree,
    tree_to_matrix,
    validate_ultrametric,
)

_CHAIN_STREAM_BASE = 1000


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _read_csv(path) -> np.ndarray:
    """Headerless CSV of decimals as a 2-d array; ``ConfigError`` if malformed."""
    try:
        return np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))
    except ValueError as exc:
        raise ConfigError(f"{path}: not a CSV of numbers: {exc}") from None


def read_matrix_csv(path, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Headerless p x p CSV of decimals, symmetric within tolerance."""
    arr = _read_csv(path)
    if arr.shape[0] != arr.shape[1]:
        raise ConfigError(f"{path}: expected a square matrix, got {arr.shape}")
    if np.max(np.abs(arr - arr.T), initial=0.0) > tol:
        raise ConfigError(f"{path}: matrix is not symmetric within {tol}")
    return 0.5 * (arr + arr.T)


def write_matrix_csv(path, matrix):
    arr = np.asarray(matrix, dtype=float)
    with open(path, "w") as fh:
        for row in arr:
            fh.write(",".join(format(x, ".17g") for x in row) + "\n")


def _read_text(path) -> str:
    """The text of an input file; ``ConfigError`` naming it if it does not decode."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _load_tree_auto(path) -> Tree:
    """Accept either a matrix CSV or a Newick file, sniffing the content."""
    text = _read_text(path).strip()
    if text.startswith("("):
        return newick_to_tree(text)
    return matrix_to_tree(read_matrix_csv(path))


def write_dataset_csv(path, data: DataSet, sidecar: dict | None = None):
    np.savetxt(path, data.values, delimiter=",", fmt="%.17g")
    if sidecar is not None:
        Path(str(path) + ".meta.json").write_text(json.dumps(sidecar, indent=2))


def read_dataset_csv(path) -> DataSet:
    return DataSet(_read_csv(path))


# ---------------------------------------------------------------------------
# run config parsing
# ---------------------------------------------------------------------------

def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(x) for x in raw.split(","))


def _names(raw: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in raw.split(","))


def _flag(raw: str) -> bool:
    """configparser's boolean words in any case; ``KeyError`` for any other."""
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


# every recognized key, with the type its value is parsed to
_KNOWN_KEYS = {
    "model": {"p": int},
    "prior": {"kind": str, "beta": float, "theta": float, "alpha_pd": float,
              "edge_mean": float},
    "sampler": {"algo": str, "mode": str, "iterations": int, "burn_in": int,
                "sigma_l": float, "epsilon": float, "leapfrog_steps": int,
                "delta": float, "thin": int},
    "io": dict.fromkeys(("data", "archive", "trace", "report", "splits_csv"), str),
    "run": {"seed": int, "chains": int, "inits": str},
    "scenario": {"p": int, "multipliers": _ints, "distributions": _names,
                 "truth_mode": str, "drop_count": int, "drop_rule": str,
                 "replicates": int, "fixed_truth": _flag, "length_mean": float,
                 "interval_level": float, "mean_passes": int},
}

# keys whose config dataclass field has another name
_FIELD_NAMES = {"sigma_l": "sigma_L", "epsilon": "step_size"}


def load_run_config(path) -> dict:
    """Parse and validate the INI run config into nested dicts of typed values.

    Values are literal (``%`` is not an interpolation marker); a file that
    does not parse as INI raises ``ConfigError``.
    """
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    out: dict[str, dict] = {}
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        out[section] = {}
        for key, value in parser.items(section):
            kind = _KNOWN_KEYS[section].get(key)
            if kind is None:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                out[section][key] = kind(value)
            except (KeyError, ValueError):
                what = "a boolean" if kind is _flag else "a number"
                raise ConfigError(f"[{section}] {key} = {value!r} is not {what}") from None
    run = out.get("run", {})
    for key, low in (("seed", 0), ("chains", 1)):
        if run.get(key, low) < low:
            raise ConfigError(f"[run] {key} = {run[key]} is below {low}")
    return out


def _build(cls, cfg: dict, section: str, **fixed):
    """``cls`` from the keys config ``section`` sets, matched to its fields by name.

    Keys ``cls`` has no field for are ignored, ``fixed`` fields override the
    section, and every other field keeps its dataclass default.  A value
    ``cls`` rejects raises ``ConfigError`` naming the section.
    """
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {_FIELD_NAMES.get(k, k): v for k, v in cfg.get(section, {}).items()}
    try:
        return cls(**{k: v for k, v in kwargs.items() if k in names} | fixed)
    except InvalidArgumentError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _prior_from_config(cfg: dict) -> PriorSpec:
    return _build(PriorSpec, cfg, "prior")


def _sampler_from_config(cfg: dict, seed: int):
    algo = cfg.get("sampler", {}).get("algo", Scenario.algo)
    if algo not in ALGOS:
        raise ConfigError(f"unknown sampler algo {algo!r}")
    scfg = _build(ALGOS[algo], cfg, "sampler", prior=_prior_from_config(cfg), seed=seed)
    mode = cfg.get("sampler", {}).get("mode", scfg.mode)
    if mode != scfg.mode:  # HmcConfig.mode is a constant, which _build skips
        raise ConfigError(f"[sampler] mode = {mode} needs algo = mh: "
                          f"algo {algo} samples {scfg.mode} trees only")
    return algo, scfg


def _scenario_from_config(cfg: dict) -> Scenario:
    sec = cfg.get("scenario", {})
    if "p" not in sec:
        raise ConfigError("config must set [scenario] p")
    seed = cfg.get("run", {}).get("seed", 0)
    algo, scfg = _sampler_from_config(cfg, seed)
    # the sampler config fills the Scenario field named after its algo
    return _build(Scenario, cfg, "scenario", algo=algo, master_seed=seed, **{algo: scfg})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    arr = read_matrix_csv(args.matrix, args.tol)
    report = validate_ultrametric(arr, args.tol)
    print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.valid else 1


def cmd_convert(args) -> int:
    if args.to == "newick":
        tree = matrix_to_tree(read_matrix_csv(args.input, args.tol), args.tol)
        text = tree_to_newick(tree)
        if args.out:
            Path(args.out).write_text(text + "\n")
        else:
            print(text)
        return 0
    tree = newick_to_tree(_read_text(args.input))
    matrix = tree_to_matrix(tree).values
    if args.out:
        write_matrix_csv(args.out, matrix)
    else:
        print("\n".join(",".join(format(x, ".17g") for x in row) for row in matrix))
    return 0


def cmd_distance(args) -> int:
    t1 = _load_tree_auto(args.a)
    t2 = _load_tree_auto(args.b)
    d_internal, support = bhv_distance(t1, t2)
    d_full = tree_distance(t1, t2)
    print(json.dumps({
        "d_bhv": d_internal,
        "leaf_term": d_full - d_internal,
        "d_tree": d_full,
        "support": support.to_dict(),
    }, indent=2))
    return 0


def _resolve_inits(args, cfg, p: int, seed: int, chains: int) -> list[Tree]:
    inits_value = args.inits or cfg.get("run", {}).get("inits", "")
    if inits_value:
        paths = [s.strip() for s in inits_value.split(",") if s.strip()]
        if len(paths) != chains:
            raise ConfigError(
                f"{len(paths)} init files given for {chains} chains"
            )
        inits = [newick_to_tree(_read_text(pth)) for pth in paths]
        for pth, tree in zip(paths, inits):
            if tree.p != p:
                raise ConfigError(f"{pth}: init tree has {tree.p} leaves, config says p={p}")
        return inits
    return [
        random_tree(p, "uniform-binary", 1.0,
                    RngStream(seed, _CHAIN_STREAM_BASE + 7 * c))
        for c in range(chains)
    ]


def cmd_sample(args) -> int:
    """Run the config's chains and write each one's archive, trace and stdout line.

    The chains run on up to one process per available CPU; once all have
    finished, their outputs are written in chain order, byte-identical to a
    serial run.
    """
    cfg = load_run_config(args.config)
    if "model" not in cfg or "p" not in cfg["model"]:
        raise ConfigError("config must set [model] p")
    p = cfg["model"]["p"]
    if not 2 <= p <= MAX_LEAVES:
        raise ConfigError(f"[model] p = {p} is outside 2..{MAX_LEAVES}")
    seed = cfg.get("run", {}).get("seed", 0)
    chains = args.chains or cfg.get("run", {}).get("chains", 1)

    io_sec = cfg.get("io", {})
    data = None
    if io_sec.get("data"):
        data = read_dataset_csv(io_sec["data"])
        if data.p != p:
            raise ConfigError(f"data have p={data.p}, config says p={p}")
    archive_path = io_sec.get("archive", "archive.jsonl")
    trace_path = io_sec.get("trace", "trace.csv")

    inits = _resolve_inits(args, cfg, p, seed, chains)
    jobs = [(data, inits[c], *_sampler_from_config(cfg, seed + _CHAIN_STREAM_BASE * (c + 1)))
            for c in range(chains)]
    archives = _map_jobs(run_chain, jobs)
    for c, ((_data, _init, algo, _cfg), archive) in enumerate(zip(jobs, archives)):
        suffix = f"-chain{c + 1}" if chains > 1 else ""
        apath = _with_suffix(archive_path, suffix)
        tpath = _with_suffix(trace_path, suffix)
        archive.save_jsonl(apath)
        archive.save_trace_csv(tpath)
        print(json.dumps({
            "chain": c + 1, "algo": algo, "records": len(archive),
            "archive": str(apath), "trace": str(tpath),
            "provenance": archive.provenance,
        }))
    return 0


def _with_suffix(path, suffix: str):
    if not suffix:
        return path
    pth = Path(path)
    return pth.with_name(pth.stem + suffix + pth.suffix)


def cmd_summarize(args) -> int:
    archive = PosteriorArchive.load_jsonl(args.archive)
    truth = read_matrix_csv(args.truth) if args.truth else None
    mean_cfg = MeanConfig(max_iterations=args.mean_iterations)
    report = build_summary(archive, level=args.level, truth=truth,
                           mean_cfg=mean_cfg)
    out = Path(args.out or "summary.json")
    out.write_text(json.dumps(report.to_json_dict(), indent=2))
    if args.splits_csv:
        with open(args.splits_csv, "w") as fh:
            fh.write("split,frequency\n")
            for s, f in report.frequencies.items():
                fh.write(f"\"{s.key()}\",{f}\n")
    print(json.dumps({"summary": str(out), "num_samples": report.num_samples,
                      "coverage_rate": report.coverage_rate}))
    return 0


def cmd_simulate(args) -> int:
    cfg = load_run_config(args.config)
    report = run_scenario(_scenario_from_config(cfg), force=args.force)
    io_sec = cfg.get("io", {})
    json_path = io_sec.get("report", "scenario.json")
    csv_path = io_sec.get("splits_csv", "recovery.csv")
    write_report(report, json_path, csv_path)
    print(json.dumps({"report": json_path, "recovery_csv": csv_path,
                      "elapsed_seconds": report.elapsed_seconds}))
    return 0


def _first_byte(path) -> bytes:
    """The first byte of a file that is not ASCII whitespace; empty if none."""
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(4096), b""):
            if chunk := chunk.lstrip():
                return chunk[:1]
    return b""


def cmd_mean(args) -> int:
    # an archive is read once, by its loader, which also names a blank input
    if _first_byte(args.input) in (b"{", b""):
        trees = PosteriorArchive.load_jsonl(args.input).trees()
    else:
        text = _read_text(args.input)
        trees = [newick_to_tree(line) for line in text.splitlines() if line.strip()]
    mean_tree = frechet_mean(trees, MeanConfig(max_iterations=args.mean_iterations))
    matrix = tree_to_matrix(mean_tree)
    out_csv = args.out or "mean.csv"
    write_matrix_csv(out_csv, matrix.values)
    nwk_path = Path(out_csv).with_suffix(".nwk")
    nwk_path.write_text(tree_to_newick(mean_tree) + "\n")
    print(json.dumps({"matrix": str(out_csv), "newick": str(nwk_path),
                      "num_trees": len(trees)}))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a finite non-negative tolerance")
    return value


def _level(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a level in (0, 1)")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecov",
        description="Bayesian inference over tree-structured covariance matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a matrix CSV for strict ultrametricity")
    sp.add_argument("matrix")
    sp.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("convert", help="convert between matrix CSV and Newick")
    sp.add_argument("input")
    sp.add_argument("--to", choices=("newick", "matrix"), required=True)
    sp.add_argument("--out")
    sp.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    sp.set_defaults(func=cmd_convert)

    sp = sub.add_parser("distance", help="geodesic distance between two inputs")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(func=cmd_distance)

    sp = sub.add_parser("sample", help="run posterior chains from a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--chains", type=_positive_int)
    sp.add_argument("--inits", default="")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("summarize", help="summarize a posterior archive")
    sp.add_argument("archive")
    sp.add_argument("--truth")
    sp.add_argument("--level", type=_level, default=0.95)
    sp.add_argument("--out")
    sp.add_argument("--splits-csv", dest="splits_csv")
    sp.add_argument("--mean-iterations", dest="mean_iterations", type=_positive_int,
                    help=f"geodesic-mean step cap (default: {MEAN_PASSES} "
                    "passes over the input)")
    sp.set_defaults(func=cmd_summarize)

    sp = sub.add_parser("simulate", help="run a replicated simulation scenario")
    sp.add_argument("--config", required=True)
    sp.add_argument("--force", action="store_true",
                    help="run even when a pilot of the first chain prices the "
                    f"chains above the {COST_CAP_SECONDS:.0f} s cap")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("mean", help="geodesic mean of an archive or Newick list")
    sp.add_argument("input")
    sp.add_argument("--out")
    sp.add_argument("--mean-iterations", dest="mean_iterations", type=_positive_int,
                    help=f"geodesic-mean step cap (default: {MEAN_PASSES} "
                    "passes over the input)")
    sp.set_defaults(func=cmd_mean)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UltrametricViolationError as exc:
        print(json.dumps({"error": str(exc), "report": exc.report.to_dict()}))
        return 1
    except ConfigError as exc:
        print(json.dumps({"error": str(exc)}))
        return 2
    except TreecovError as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    except OSError as exc:
        print(json.dumps({"error": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
