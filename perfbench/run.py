"""chainbounds benchmark: CLI workloads timed end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-dtmc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process per workload: it generates the inputs from ``--seed``, calls
``chainbounds.cli.main(argv)`` in process for every op of the workload,
checks each op's output, and prints one JSON result as its last stdout
line. ``--trace 0`` gives the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and gives the per-layer metrics. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

if __name__ == "__main__":
    import benchenv

    benchenv.pin_blas_threads()

import checks
import inputs
import tracer
from benchenv import capture, thread_count

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
PACKAGE = "chainbounds"
LAYERS = ("cli", "chain_core", "spectral", "bounds", "exact_oracle", "simulate")
ROOT_SPAN = "cli.main"

MIN_PASSES = 3  # timed passes (or untraced/traced pairs) per run, at least

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.self_s": "s",
    "chain_core.load_chain_s": "s",
    "chain_core.stationary_distribution_s": "s",
    "chain_core.stationary_distribution.calls": "count",
    "chain_core.check_invariant.calls": "count",
    "chain_core.radon_nikodym_norm_s": "s",
    "spectral.gap_report_s": "s",
    "spectral.pseudo_gap_s": "s",
    "spectral.ip_gap_s": "s",
    "spectral.symmetric_gap_s": "s",
    "spectral.absolute_gap_s": "s",
    "spectral.ordinary_gap_s": "s",
    "spectral.embed_weighted.calls": "count",
    "spectral.numerical_radius_complex_s": "s",
    "spectral.numerical_radius_real_s": "s",
    "spectral.ip_gap_generator_s": "s",
    "bounds.tail_bound_s": "s",
    "bounds.tail_bound.calls": "count",
    "bounds.mgf_bound_continuous_s": "s",
    "bounds.mgf_bound_discrete_s": "s",
    "exact_oracle.exact_mgf_discrete_s": "s",
    "exact_oracle.exact_mgf_continuous_s": "s",
    "simulate.empirical_tail_s": "s",
    "simulate.empirical_tail.calls": "count",
    "simulate.replicas_simulated": "count",
    "simulate.ns_per_replica_step": "ns",
    "simulate.empirical_mgf_s": "s",
    "simulate.replica_rng_s": "s",
    "simulate.replica_rng.calls": "count",
    "simulate.clopper_pearson_s": "s",
    "process.cpu_s": "s",
    "process.threads_max": "count",
    "trace.overhead_ratio": "ratio",
}
# Per-layer metrics that are not one traced function's total time or calls.
DERIVED = {
    "cli.self_s", "simulate.replicas_simulated", "simulate.ns_per_replica_step",
    "process.cpu_s", "process.threads_max", "trace.overhead_ratio",
}


def cold_start() -> float:
    """Wall time of a fresh interpreter importing chainbounds.cli.

    The child inherits the BLAS thread pin and finds the package on
    PYTHONPATH.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {PACKAGE}.cli"], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def import_package():
    """Import chainbounds from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module(f"{PACKAGE}.cli")
    for layer in LAYERS:
        importlib.import_module(f"{PACKAGE}.{layer}")
    origin = Path(sys.modules[PACKAGE].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"{PACKAGE} was imported from {origin}, not from {SRC}")
    return cli


class Workload:
    """The ops of one workload and the record of every execution."""

    def __init__(self, cli, manifest: dict, indir: Path):
        self.cli = cli
        self.ops = [
            (op["name"], [op["command"], str(indir / op["input"]), *op["flags"]], op["check"])
            for op in manifest["ops"]
        ]
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict = {}
        self.digest_changed: set = set()
        self.op_s: dict = {name: [] for name, _, _ in self.ops}

    def run_pass(self, trace=None) -> float:
        """Run every op once; return the summed wall time of the main() calls."""
        gc.collect()
        wall = 0.0
        for name, argv, check in self.ops:
            if trace is not None:
                trace.op = name
            out, err = io.StringIO(), io.StringIO()
            error = None
            t0 = time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code, error = None, "traceback: " + traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - t0
            wall += elapsed
            self.op_s[name].append(elapsed)
            self._record(name, check, code, error, out.getvalue(), err.getvalue())
        return wall

    def _record(self, name, check, code, error, stdout, stderr) -> None:
        self.attempted += 1
        reason = error or checks.check(check, code, stdout)
        if reason is not None:
            self.failures.append(f"{name}: {reason}; stderr: {stderr.strip()[-300:]}")
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if self.digests.setdefault(name, digest) != digest:
            self.digest_changed.add(name)


def _function_of(metric: str) -> str:
    """'spectral.ip_gap_s' and 'spectral.ip_gap.calls' both name 'spectral.ip_gap'."""
    return metric.removesuffix(".calls").removesuffix("_s")


def _per_layer(summaries: list[dict], names: set, untraced: list[float],
               traced: list[float], cpu: list[float], threads: int) -> tuple[dict, list]:
    """Median over traced passes of every PER_LAYER metric; absent names listed."""
    functions = {m: _function_of(m) for m in PER_LAYER if m not in DERIVED}
    absent = sorted(m for m, fn in functions.items() if fn not in names)

    def one(summary: dict, metric: str) -> float:
        if metric == "cli.self_s":
            return summary["root_self_s"]
        if metric == "simulate.replicas_simulated":
            return float(sum(r for _, r, _n in summary["simulations"]))
        if metric == "simulate.ns_per_replica_step":
            dtmc = [(d, r * n) for d, r, n in summary["simulations"] if n]
            steps = sum(s for _, s in dtmc)
            return 1e9 * sum(d for d, _ in dtmc) / steps if steps else 0.0
        if metric.endswith(".calls"):
            return float(summary["calls"].get(functions[metric], 0))
        return summary["total_s"].get(functions[metric], 0.0)

    values = {
        m: statistics.median(one(s, m) for s in summaries)
        for m in PER_LAYER
        if not m.startswith(("process.", "trace."))
    }
    values["process.cpu_s"] = statistics.median(cpu)
    values["process.threads_max"] = float(threads)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return values, absent


def run_workload(args) -> int:
    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"error: {SRC / PACKAGE / 'cli.py'} not found; run from a chainbounds "
              "checkout", file=sys.stderr)
        return 2
    cli = import_package()  # also compiles the bytecode the cold starts then load
    indir = OUT / "inputs" / args.workload
    manifest = inputs.generate(args.workload, args.seed, indir, args.size)
    work = Workload(cli, manifest, indir)
    threads = thread_count()

    work.run_pass()  # warm-up: the first pass runs slowest
    untraced, traced, cpu, setup, summaries, spans = [], [], [], [], [], []
    t_end = time.perf_counter() + args.seconds
    while len(untraced) < MIN_PASSES or time.perf_counter() < t_end:
        c0 = time.process_time()
        untraced.append(work.run_pass())
        cpu.append(time.process_time() - c0)
        if not args.trace:
            # one cold start after each pass spreads them over the run, which
            # averages out the machine's slower and faster spells
            setup.append(cold_start())
        else:
            with tracer.Tracer(PACKAGE, LAYERS) as trace:
                traced.append(work.run_pass(trace))
            summaries.append(tracer.summarize(trace.spans, ROOT_SPAN))
            spans.append(trace.spans)
            names = set(trace.names.values())
        threads = max(threads, thread_count())

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "inputs_digest": manifest["inputs_digest"],
        "env": dict(capture(), threads_max=threads),
        "passes_s": untraced,
        "op_s": work.op_s,
        "error_rate": {"value": len(work.failures) / work.attempted, "unit": "ratio"},
        "failures": work.failures,
        "output_digests": work.digests,
        "digest_changed": sorted(work.digest_changed),
    }
    if args.trace:
        metrics, absent = _per_layer(summaries, names, untraced, traced, cpu, threads)
        units = PER_LAYER
        # per traced pass: the spans directly under cli.main, by layer, plus
        # cli.self_s add up to the cli.main total, which the traced wall covers
        report["traced_passes"] = [
            {"wall_s": wall, "cli.main_s": s["root_total_s"], "cli.self_s": s["root_self_s"],
             "top_level_s": s["top_level_s"]}
            for wall, s in zip(traced, summaries)
        ]
        report["absent"] = absent
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        report["setup_starts_s"] = setup

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "parent", "start", "end", "op", "sim_config"], "passes": spans}
        ))
        if absent:
            print(f"absent layer functions (reported as 0): {', '.join(absent)}", file=sys.stderr)
        last = report["traced_passes"][-1]
        split = ", ".join(f"{k} {v:.4f}" for k, v in sorted(last["top_level_s"].items()))
        print(f"last traced pass: wall {last['wall_s']:.4f} s = cli.self {last['cli.self_s']:.4f}"
              f" + top-level spans ({split})", file=sys.stderr)
    for failure in work.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    if work.digest_changed:
        print(f"output digest changed between passes: {sorted(work.digest_changed)}",
              file=sys.stderr)

    print(json.dumps(report))
    print(json.dumps({
        "correct": not work.failures,
        "attempted": work.attempted,
        "failed": len(work.failures),
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run each workload in its own process, one after another, and tabulate."""
    results = {}
    for workload in inputs.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        result["metrics"]["error_rate"] = report["error_rate"]
        results[workload] = result
    for workload, result in results.items():
        print(f"[{workload}] attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*inputs.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(inputs.SIZES), default="full",
                        help="input sizes; 'small' is for the smoke test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
