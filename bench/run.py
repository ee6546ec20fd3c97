"""Layered benchmark of treecov: end-to-end workloads plus a traced run.

Run from the repository root:

    python3 bench/run.py --workload mh_p20 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --selftest

Each workload is a closed loop with one client in one process: ops call
``treecov.cli.main(argv)`` back to back until ``--seconds`` have passed (at
least the workload's ``min_ops``).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs every op once untraced and once traced, then the probes,
and prints the per-layer metrics.  The last line of stdout is the result
object; the line before it is the full report (provenance, per-op digests,
raw timings, absent metrics with reasons).  See ``bench/README.md``.
"""

import os

# pin BLAS/OpenMP before numpy is imported, here and in the import probe
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
SETUP_REPEATS = 3
MODULES = ("cli", "samplers", "model", "ultrametric", "priors", "treespace",
           "geometry", "posterior", "archive", "sim", "newick", "rng")
OP_SHARES = {"samplers.run_chain.op_pct": "treecov.samplers.run_chain",
             "geometry.frechet_mean.op_pct": "treecov.geometry.frechet_mean",
             "posterior.build_summary.op_pct": "treecov.posterior.build_summary"}
# The speed of a shared machine drifts by 10-25 % over tens of seconds.  A
# fixed reference kernel runs after every op, for about REF_SHARE of the op's
# time, and both timing metrics are rescaled by the run's median reference
# time over REF_NOMINAL_S (its typical median on the 2-vCPU 2.1 GHz Xeon
# where the bounds were set).
REF_NOMINAL_S = 0.0225
REF_SHARE = 0.15
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "calibrated_work_per_s": "1/s"}
SPAN_UNITS = {"cli.self_s": "s", "trace.accounted_pct": "%", "trace.overhead_pct": "%",
              **{f"self_pct.{m}": "%" for m in MODULES}, **{k: "%" for k in OP_SHARES}}


def reference_s() -> float:
    """Time a fixed kernel of interpreter work and small numpy calls."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(200000):
        acc += i * i % 7
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(1500):
        a = np.sqrt(a * a + 1.0) - 0.5
    return time.perf_counter() - t0


def sha256(data) -> str:
    """Digest of a file, or of bytes given directly."""
    return hashlib.sha256(data if isinstance(data, bytes) else data.read_bytes()).hexdigest()


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    src = hashlib.sha256()
    for f in sorted((SRC / "treecov").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": commit, "source_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "seed": seed, "client": "closed loop, 1 client, 1 process",
    }


def import_s() -> float:
    """Wall time of a fresh interpreter importing the CLI, as a user pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import treecov.cli"], cwd=ROOT, env=env,
                   check=True, timeout=120)
    return time.perf_counter() - t0


def set_up(w, seed: int, run_dir: Path):
    """Set up ``SETUP_REPEATS`` times; return the last inputs and the report.

    Each repeat imports the CLI in a fresh interpreter and regenerates every
    input file; the repeats must write byte-identical files.
    """
    walls, digests, inp = [], [], None
    for k in range(SETUP_REPEATS):
        d = run_dir / f"setup{k}"
        d.mkdir()
        t0 = time.perf_counter()
        imp = import_s()
        inp = w.setup(d, seed)
        walls.append(time.perf_counter() - t0)
        digests.append({f.name: sha256(f) for f in sorted(d.iterdir())})
        if k < SETUP_REPEATS - 1:
            shutil.rmtree(d)
    return inp, {"wall_s": walls, "import_s_last": imp, "files": digests[-1],
                 "reproducible": all(x == digests[0] for x in digests)}


def run_op(w, inp, seed, index, op_dir, refs, tracer=None):
    """Run one op, check its outputs and time the reference kernel after it."""
    from workloads import run_cli

    argv, work = w.prepare(inp, op_dir, seed, index)
    gc.collect()  # start every op from the same collector state
    if tracer is not None:
        tracer.op = index
        tracer.install()
    try:
        t0 = time.perf_counter()
        code, out = run_cli(argv)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    refs.extend(reference_s() for _ in range(max(1, round(REF_SHARE * wall / REF_NOMINAL_S))))
    rec = {"index": index, "traced": tracer is not None, "wall_s": wall,
           "work": work, "failure": None, "digests": {}}
    try:
        outputs = w.check(inp, op_dir, code, out)
        rec["digests"] = {k: sha256(p) for k, p in outputs.items()}
    except Exception as exc:  # any broken output is a failed op, not a crash
        rec["failure"] = f"{type(exc).__name__}: {exc}"
    return rec


def span_metrics(tracer, traced, untraced) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of the traced ops."""
    metrics, absent = {}, {}
    walls = {r["index"]: r["wall_s"] for r in traced}
    total = sum(walls.values())
    by_module, cli_self, accounted, inclusive = {}, {}, 0.0, {}
    for op, name, module, self_s, dur in tracer.self_times():
        if op not in walls:
            continue
        short = module.split(".", 1)[-1]
        by_module[short] = by_module.get(short, 0.0) + self_s
        accounted += self_s
        if short == "cli":
            cli_self[op] = cli_self.get(op, 0.0) + self_s
        inclusive[name] = inclusive.get(name, 0.0) + dur
    metrics["cli.self_s"] = statistics.median(cli_self.get(i, 0.0) for i in walls)
    metrics["trace.accounted_pct"] = 100.0 * accounted / total
    metrics["trace.overhead_pct"] = 100.0 * (
        sum(r["wall_s"] for r in traced) / sum(r["wall_s"] for r in untraced) - 1.0)
    for mod in MODULES:
        if f"treecov.{mod}" in sys.modules:
            metrics[f"self_pct.{mod}"] = 100.0 * by_module.get(mod, 0.0) / total
        else:
            absent[f"self_pct.{mod}"] = f"module treecov.{mod} no longer exists"
    for metric, name in OP_SHARES.items():
        if name in tracer.wrapped:
            metrics[metric] = 100.0 * inclusive.get(name, 0.0) / total
        else:
            absent[metric] = f"{name} is no longer a public function"
    return metrics, absent


def per_layer_units() -> dict:
    from probes import UNITS

    return {**SPAN_UNITS, **UNITS}


def measure(w, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; return ``(result, report)``."""
    from probes import Absent, run_probes
    from tracer import Tracer

    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{w.name}-seed{seed}-pid{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir()
    try:
        inp, setup = set_up(w, seed, run_dir)
        op_dir = run_dir / "op"
        op_dir.mkdir()
        tracer = Tracer(capture={"treecov.samplers.run_chain"}) if trace else None
        records, refs = [], []
        deadline = time.perf_counter() + seconds
        index = 0
        # a traced run counts both twins towards the workload's minimum
        while len(records) < w.min_ops or time.perf_counter() < deadline:
            records.append(run_op(w, inp, seed, index, op_dir, refs))
            if trace:
                records.append(run_op(w, inp, seed, index, op_dir, refs, tracer))
            index += 1
        correct = setup["reproducible"]
        try:
            finish = w.finish(inp, run_dir)
        except Exception as exc:  # a failed final check still prints a result
            finish = {"failure": f"{type(exc).__name__}: {exc}"}
            correct = False
        if trace:
            # a traced op must write exactly what its untraced twin wrote
            correct &= all(a["digests"] == b["digests"]
                           for a, b in zip(records[::2], records[1::2]))
        untraced = [r for r in records if not r["traced"] and r["failure"] is None]
        failed = sum(r["failure"] is not None for r in records)
        correct &= failed == 0 and bool(untraced)

        slowdown = statistics.median(refs) / REF_NOMINAL_S
        report = {"workload": w.name, "unit": w.unit, "provenance": provenance(seed),
                  "inputs": inp["properties"], "setup": setup, "finish": finish,
                  "reference_s": refs, "slowdown": slowdown, "ops": records}
        metrics, absent = {}, {}
        if not trace and untraced:
            rate = statistics.median(r["work"] / r["wall_s"] for r in untraced)
            report["work_per_s"] = rate
            metrics = {
                "setup_s": statistics.median(setup["wall_s"]) / slowdown,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "calibrated_work_per_s": rate * slowdown,
            }
        elif trace and untraced:
            traced = [r for r in records if r["traced"] and r["failure"] is None]
            metrics, absent = span_metrics(tracer, traced, untraced)
            try:
                ctx = w.probe_inputs(inp, op_dir, tracer.captured)
            except Absent as exc:
                ctx = {"missing": str(exc)}
            except Exception as exc:  # a probe input that cannot be had is absent
                ctx = {"missing": f"{type(exc).__name__}: {exc}"}
            ctx.update(seed=seed, dir=run_dir, n_calls=20 if tiny else 300,
                       n_sweeps=10 if tiny else 100, n_hmc_steps=4 if tiny else 20)
            got, gone = run_probes(ctx)
            metrics.update(got)
            absent.update(gone)
            spans_path = WORK / f"spans-{w.name}-seed{seed}.csv"
            tracer.write_csv(spans_path)
            report["spans_csv"] = str(spans_path.relative_to(ROOT))
            report["span_count"] = len(tracer.spans)
        report["absent"] = absent
        units = per_layer_units() if trace else END_TO_END
        result = {
            "correct": bool(correct),
            "attempted": len(records),
            "failed": failed,
            "metrics": {name: {"value": metrics.get(name), "unit": unit}
                        for name, unit in units.items()},
        }
        return result, report
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def selftest() -> int:
    """Run every workload at tiny size, untraced and traced, with all checks."""
    from workloads import make_workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) \
        if (ROOT / "BENCHMARK.json").exists() else None
    ok = True
    for w in make_workloads(tiny=True).values():
        for trace in (False, True):
            result, report = measure(w, seed=1, seconds=0, trace=trace, tiny=True)
            names = set(result["metrics"])
            expected = set(per_layer_units() if trace else END_TO_END)
            if spec is not None:
                key = "per_layer" if trace else "end_to_end"
                expected = {m["name"] for m in spec[key]}
            missing = sorted(expected - names)
            extra = sorted(names - expected)
            good = result["correct"] and not missing and not extra
            ok &= good
            failures = [r["failure"] for r in report["ops"] if r["failure"]]
            print(json.dumps({"workload": w.name, "trace": trace, "ok": good,
                              "missing": missing, "extra": extra, "absent": report["absent"],
                              "failures": failures, "ops": len(report["ops"])}))
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run every workload at tiny size, with checks and tracing")
    args = ap.parse_args(argv)
    if not (SRC / "treecov" / "__init__.py").is_file():
        print(f"bench: no treecov sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.selftest:
        return selftest()
    from workloads import make_workloads

    workloads = make_workloads()
    if args.workload not in workloads:
        print(f"bench: --workload must be one of {sorted(workloads)}", file=sys.stderr)
        return 2
    result, report = measure(workloads[args.workload], args.seed, args.seconds,
                             bool(args.trace))
    print(json.dumps(report, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
