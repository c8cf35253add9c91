"""Smoke test of the benchmark at reduced input sizes.

Run from the root of a checkout:

    python3 perfbench/smoke.py [--seed 424242]

For every workload it runs ``run.py --size small`` untraced and traced and
checks that the result names every metric in BENCHMARK.json with its unit,
that every op passed its output check, and that the traced layer spans add
up to the traced wall time. It also checks that inputs are reproducible
from the seed and that the benchmark refuses to run without the program.
Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
sys.path.insert(0, str(BENCH_DIR))

import benchenv  # noqa: E402

benchenv.pin_blas_threads()

import run  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
ADD_UP_TOLERANCE = 0.05  # share of the traced wall time not under cli.main


class Checker:
    def __init__(self):
        self.failed = 0

    def __call__(self, ok: bool, label: str) -> bool:
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")
        self.failed += not ok
        return ok


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--size", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_spec(check: Checker) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    check(per_layer == run.PER_LAYER, "BENCHMARK.json per_layer matches run.PER_LAYER")
    names = [w["name"] for w in spec["workloads"]]
    check(tuple(names) == run.inputs.WORKLOADS, "BENCHMARK.json workloads match inputs.WORKLOADS")


def check_inputs(check: Checker, seed: int) -> None:
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as tmp:
        for workload in run.inputs.WORKLOADS:
            a = run.inputs.generate(workload, seed, Path(tmp) / "a", "small")
            b = run.inputs.generate(workload, seed, Path(tmp) / "b", "small")
            c = run.inputs.generate(workload, seed + 1, Path(tmp) / "c", "small")
            check(a["inputs_digest"] == b["inputs_digest"] != c["inputs_digest"],
                  f"{workload}: inputs depend on the seed alone")


def check_workload(check: Checker, workload: str, seed: int) -> None:
    for trace, expected in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        label = f"{workload} --trace {trace}"
        proc = _run(workload, seed, trace)
        detail = f" ({proc.stderr.strip()[-500:]})" if proc.returncode else ""
        if not check(proc.returncode == 0, f"{label}: exit code 0{detail}"):
            continue
        lines = proc.stdout.strip().splitlines()
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        check(set(result) == RESULT_KEYS, f"{label}: result keys")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              f"{label}: every op passed its output check {report['failures'][:3]}")
        units = {name: m.get("unit") for name, m in result["metrics"].items()}
        check(units == expected, f"{label}: every metric present with its unit")
        check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
              f"{label}: every metric value is a number")
        if trace:
            for p in report["traced_passes"]:
                layers = p["cli.self_s"] + sum(p["top_level_s"].values())
                ok = (abs(layers - p["cli.main_s"]) <= 1e-9 * max(1.0, p["wall_s"])
                      and abs(p["wall_s"] - p["cli.main_s"]) <= ADD_UP_TOLERANCE * p["wall_s"])
                check(ok, f"{label}: cli.self_s + top-level spans = traced wall "
                          f"({layers:.5f} vs {p['wall_s']:.5f} s)")


def check_refuses_without_program(check: Checker) -> None:
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        cmd = [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "spectra",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "refuses to run, printing no result, where src/ is absent")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=424242, help="workload seed (held out)")
    args = parser.parse_args(argv)
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    check = Checker()
    check_spec(check)
    check_inputs(check, args.seed)
    for workload in run.inputs.WORKLOADS:
        check_workload(check, workload, args.seed)
    check_refuses_without_program(check)
    print(f"{check.failed} check(s) failed" if check.failed else "all checks passed")
    return 1 if check.failed else 0


if __name__ == "__main__":
    sys.exit(main())
