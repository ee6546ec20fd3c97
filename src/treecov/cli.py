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
``[prior]`` sets the posterior target of both sampler algos.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from pathlib import Path

import numpy as np

from .archive import PosteriorArchive
from .errors import ConfigError, TreecovError, UltrametricViolationError
from .geometry import MeanConfig, bhv_distance, tree_distance
from .model import DataSet
from .newick import newick_to_tree, tree_to_newick
from .posterior import build_summary
from .priors import PriorSpec
from .rng import RngStream
from .samplers import HmcConfig, MhConfig, run_chain
from .sim import Scenario, run_scenario, write_report
from .treespace import Tree, random_tree
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

def read_matrix_csv(path, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Headerless p x p CSV of decimals, symmetric within tolerance."""
    arr = np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))
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


def _load_tree_auto(path) -> Tree:
    """Accept either a matrix CSV or a Newick file, sniffing the content."""
    text = Path(path).read_text().strip()
    if text.startswith("("):
        return newick_to_tree(text)
    return matrix_to_tree(read_matrix_csv(path))


def write_dataset_csv(path, data: DataSet, sidecar: dict | None = None):
    np.savetxt(path, data.values, delimiter=",", fmt="%.17g")
    if sidecar is not None:
        Path(str(path) + ".meta.json").write_text(json.dumps(sidecar, indent=2))


def read_dataset_csv(path) -> DataSet:
    return DataSet(np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float)))


# ---------------------------------------------------------------------------
# run config parsing
# ---------------------------------------------------------------------------

def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(x) for x in raw.split(","))


# every recognized key, with the type its value is parsed to
_KNOWN_KEYS = {
    "model": {"p": int},
    "prior": {"kind": str, "beta": float, "theta": float, "alpha_pd": float,
              "edge_mean": float},
    "sampler": {"algo": str, "mode": str, "iterations": int, "burn_in": int,
                "sigma_l": float, "epsilon": float, "leapfrog_steps": int,
                "delta": float, "mass": float, "thin": int},
    "io": dict.fromkeys(("data", "archive", "trace", "report", "splits_csv"), str),
    "run": {"seed": int, "chains": int, "inits": str},
    "scenario": {"p": int, "multipliers": _ints, "distributions": str,
                 "truth_mode": str, "drop_count": int, "drop_rule": str,
                 "replicates": int, "fixed_truth": str, "length_mean": float,
                 "interval_level": float, "mean_passes": int},
}


def load_run_config(path) -> dict:
    """Parse and validate the INI run config into nested dicts of typed values.

    Values are literal (``%`` is not an interpolation marker); a file that
    does not parse as INI raises ``ConfigError``.
    """
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
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
            except ValueError:
                raise ConfigError(f"[{section}] {key} = {value!r} is not a number") from None
    return out


def _prior_from_config(cfg: dict) -> PriorSpec:
    sec = cfg.get("prior", {})
    return PriorSpec(
        kind=sec.get("kind", "beta-splitting"),
        beta=sec.get("beta", -1.5),
        theta=sec.get("theta", 1.0),
        alpha_pd=sec.get("alpha_pd", 0.0),
        edge_mean=sec.get("edge_mean", 1.0),
    )


def _sampler_from_config(cfg: dict, seed: int):
    sec = cfg.get("sampler", {})
    algo = sec.get("algo", "mh")
    if algo == "mh":
        return algo, MhConfig(
            iterations=sec.get("iterations", 10000),
            burn_in=sec.get("burn_in", 9000),
            sigma_L=sec.get("sigma_l", 0.1),
            mode=sec.get("mode", "binary"),
            prior=_prior_from_config(cfg),
            seed=seed,
            thin=sec.get("thin", 1),
        )
    if algo == "hmc":
        return algo, HmcConfig(
            iterations=sec.get("iterations", 300),
            burn_in=sec.get("burn_in", 225),
            step_size=sec.get("epsilon", 0.0015),
            leapfrog_steps=sec.get("leapfrog_steps", 200),
            delta=sec.get("delta", 0.003),
            mass=sec.get("mass", 1.0),
            prior=_prior_from_config(cfg),
            seed=seed,
            thin=sec.get("thin", 1),
        )
    raise ConfigError(f"unknown sampler algo {algo!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    try:
        arr = read_matrix_csv(args.matrix, args.tol)
    except (OSError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 2
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
    tree = newick_to_tree(Path(args.input).read_text())
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
        return [newick_to_tree(Path(pth).read_text()) for pth in paths]
    return [
        random_tree(p, "uniform-binary", 1.0,
                    RngStream(seed, _CHAIN_STREAM_BASE + 7 * c))
        for c in range(chains)
    ]


def cmd_sample(args) -> int:
    cfg = load_run_config(args.config)
    if "model" not in cfg or "p" not in cfg["model"]:
        raise ConfigError("config must set [model] p")
    p = cfg["model"]["p"]
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
    for c in range(chains):
        algo, scfg = _sampler_from_config(cfg, seed + _CHAIN_STREAM_BASE * (c + 1))
        archive = run_chain(data, inits[c], algo, scfg)
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
    sec = cfg.get("scenario", {})
    if "p" not in sec:
        raise ConfigError("config must set [scenario] p")
    seed = cfg.get("run", {}).get("seed", 0)
    algo, scfg = _sampler_from_config(cfg, seed)
    scenario = Scenario(
        p=sec["p"],
        multipliers=sec.get("multipliers", (3, 5, 10, 25, 50)),
        distributions=tuple(s.strip() for s in sec.get("distributions", "normal").split(",")),
        truth_mode=sec.get("truth_mode", "resolved"),
        drop_count=sec.get("drop_count", 3),
        drop_rule=sec.get("drop_rule", "uniform"),
        replicates=sec.get("replicates", 50),
        algo=algo,
        mh=scfg if algo == "mh" else MhConfig(),
        hmc=scfg if algo == "hmc" else HmcConfig(),
        fixed_truth=sec.get("fixed_truth", "false").lower() in ("1", "true", "yes"),
        length_mean=sec.get("length_mean", 1.0),
        interval_level=sec.get("interval_level", 0.95),
        mean_passes=sec.get("mean_passes", 3),
        master_seed=seed,
    )
    report = run_scenario(scenario, force=args.force)
    io_sec = cfg.get("io", {})
    json_path = io_sec.get("report", "scenario.json")
    csv_path = io_sec.get("splits_csv", "recovery.csv")
    write_report(report, json_path, csv_path)
    print(json.dumps({"report": json_path, "recovery_csv": csv_path,
                      "elapsed_seconds": report.elapsed_seconds}))
    return 0


def cmd_mean(args) -> int:
    text = Path(args.input).read_text().strip()
    if text.startswith("{"):
        archive = PosteriorArchive.load_jsonl(args.input)
        trees = archive.trees()
    else:
        trees = [newick_to_tree(line) for line in text.splitlines() if line.strip()]
    from .geometry import frechet_mean

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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecov",
        description="Bayesian inference over tree-structured covariance matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a matrix CSV for strict ultrametricity")
    sp.add_argument("matrix")
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("convert", help="convert between matrix CSV and Newick")
    sp.add_argument("input")
    sp.add_argument("--to", choices=("newick", "matrix"), required=True)
    sp.add_argument("--out")
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sp.set_defaults(func=cmd_convert)

    sp = sub.add_parser("distance", help="geodesic distance between two inputs")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(func=cmd_distance)

    sp = sub.add_parser("sample", help="run posterior chains from a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--chains", type=int, default=0)
    sp.add_argument("--inits", default="")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("summarize", help="summarize a posterior archive")
    sp.add_argument("archive")
    sp.add_argument("--truth")
    sp.add_argument("--level", type=float, default=0.95)
    sp.add_argument("--out")
    sp.add_argument("--splits-csv", dest="splits_csv")
    sp.add_argument("--mean-iterations", dest="mean_iterations", type=int,
                    default=3000)
    sp.set_defaults(func=cmd_summarize)

    sp = sub.add_parser("simulate", help="run a replicated simulation scenario")
    sp.add_argument("--config", required=True)
    sp.add_argument("--force", action="store_true")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("mean", help="geodesic mean of an archive or Newick list")
    sp.add_argument("input")
    sp.add_argument("--out")
    sp.add_argument("--mean-iterations", dest="mean_iterations", type=int,
                    default=3000)
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
