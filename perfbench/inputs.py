"""Seeded input generator for the chainbounds benchmark.

Every input of a workload (chain and matrix JSON files, and the ``--seed``
passed to the CLI) is derived from the workload seed alone, so the same
seed gives byte-identical files. The manifest records a sha256 of every
file and one digest over all inputs and CLI arguments, so two runs can be
shown to have used identical inputs.

Usage (normally called by run.py):

    python3 perfbench/inputs.py --workload spectra --seed 7 [--size small]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import zlib
from pathlib import Path

if __name__ == "__main__":
    import benchenv

    benchenv.pin_blas_threads()

import numpy as np

# Input sizes are part of each workload's definition; "small" is the
# reduced size the smoke test runs.
SIZES = {
    "full": {
        "verify-dtmc": {"states": 32, "n": 1000, "delta_grid": "0.05,0.1,0.2", "replicas": 10000},
        "spectra": {"states": 600, "radius_dim": 100},
        "mgf-oracle": {
            "jump_states": 20, "theta": 0.05, "t": 100, "replicas": 10000,
            "chain_states": 400, "n": 10000,
        },
    },
    "small": {
        "verify-dtmc": {"states": 8, "n": 100, "delta_grid": "0.05,0.1,0.2", "replicas": 500},
        "spectra": {"states": 40, "radius_dim": 12},
        "mgf-oracle": {
            "jump_states": 6, "theta": 0.05, "t": 10, "replicas": 300,
            "chain_states": 30, "n": 500,
        },
    },
}
WORKLOADS = tuple(SIZES["full"])
SPARSE_EXTRA_TARGETS = 3  # random out-edges per state on top of the i -> i+1 cycle
# Every state leaves at this rate, so the number of jumps in [0, t] and the
# jump sampler's block size do not depend on the seed.
EXIT_RATE = 10.0


def _rng(workload: str, seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), stream])


def cli_seed(workload: str, seed: int, op: str) -> int:
    """The ``--seed`` handed to the CLI, derived from the workload seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:{op}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 2**31


def _labels(n: int) -> list[str]:
    return [f"s{i}" for i in range(n)]


def _normalize_rows(a: np.ndarray) -> np.ndarray:
    return a / a.sum(axis=1, keepdims=True)


def sparse_chain(rng: np.random.Generator, n: int) -> np.ndarray:
    """Irreducible sparse chain: the cycle i -> i+1 plus a few random edges."""
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = rng.uniform(0.1, 1.0)
        targets = rng.choice(n, size=min(SPARSE_EXTRA_TARGETS, n), replace=False)
        a[i, targets] += rng.uniform(0.1, 1.0, size=targets.size)
    return _normalize_rows(a)


def dense_chain(rng: np.random.Generator, n: int) -> np.ndarray:
    """Dense non-reversible chain with i.i.d. uniform weights."""
    return _normalize_rows(rng.uniform(0.01, 1.0, size=(n, n)))


def reversible_chain(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random walk on symmetric weights: reversible w.r.t. the row sums."""
    u = rng.uniform(0.01, 1.0, size=(n, n))
    return _normalize_rows(u + u.T)


def dense_generator(rng: np.random.Generator, n: int) -> np.ndarray:
    """Dense rate matrix with random jump probabilities and exit rate EXIT_RATE."""
    r = rng.uniform(0.01, 1.0, size=(n, n))
    np.fill_diagonal(r, 0.0)
    r *= EXIT_RATE / r.sum(axis=1, keepdims=True)
    return r - np.diag(r.sum(axis=1))


def _chain_doc(key: str, matrix: np.ndarray, f: np.ndarray) -> dict:
    return {"labels": _labels(matrix.shape[0]), key: matrix.tolist(), "f": f.tolist()}


def _write_json(path: Path, obj) -> str:
    data = json.dumps(obj).encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _op(name: str, command: str, input_file: str, flags: list, check: dict) -> dict:
    return {
        "name": name,
        "command": command,
        "input": input_file,
        "flags": [str(x) for x in flags],
        "check": check,
    }


def _verify_dtmc(seed: int, size: dict, files: dict) -> list[dict]:
    rng = _rng("verify-dtmc", seed, 0)
    n = size["states"]
    P = sparse_chain(rng, n)
    files["chain.json"] = _chain_doc("P", P, rng.uniform(-1.0, 1.0, n))
    rows = len(size["delta_grid"].split(","))
    flags = [
        "--n", size["n"], "--delta-grid", size["delta_grid"],
        "--replicas", size["replicas"], "--seed", cli_seed("verify-dtmc", seed, "verify"),
    ]
    return [_op("verify", "verify", "chain.json", flags, {"kind": "verify", "rows": rows})]


def _spectra(seed: int, size: dict, files: dict) -> list[dict]:
    n = size["states"]
    rng = _rng("spectra", seed, 0)
    files["nonreversible.json"] = {"labels": _labels(n), "P": dense_chain(rng, n).tolist()}
    rng = _rng("spectra", seed, 1)
    files["reversible.json"] = {"labels": _labels(n), "P": reversible_chain(rng, n).tolist()}
    rng = _rng("spectra", seed, 2)
    B = rng.standard_normal((size["radius_dim"], size["radius_dim"]))
    files["matrix.json"] = {"B": B.tolist()}
    radius_check = {
        "kind": "radius",
        "spectral_radius": float(np.abs(np.linalg.eigvals(B)).max()),
        "norm2": float(np.linalg.norm(B, 2)),
    }
    return [
        _op("gaps-nonreversible", "gaps", "nonreversible.json", [],
            {"kind": "gaps", "reversible": False}),
        _op("gaps-reversible", "gaps", "reversible.json", [],
            {"kind": "gaps", "reversible": True}),
        _op("radius", "radius", "matrix.json", [], radius_check),
    ]


def _mgf_oracle(seed: int, size: dict, files: dict) -> list[dict]:
    rng = _rng("mgf-oracle", seed, 0)
    m = size["jump_states"]
    files["jump.json"] = _chain_doc("Q", dense_generator(rng, m), rng.uniform(-1.0, 1.0, m))
    rng = _rng("mgf-oracle", seed, 1)
    n = size["chain_states"]
    files["chain.json"] = _chain_doc("P", dense_chain(rng, n), rng.uniform(-1.0, 1.0, n))
    theta = size["theta"]
    return [
        _op("mgf-jump", "mgf", "jump.json",
            ["--theta", theta, "--t", size["t"], "--replicas", size["replicas"],
             "--seed", cli_seed("mgf-oracle", seed, "mgf-jump")],
            {"kind": "mgf"}),
        _op("mgf-exact", "mgf", "chain.json", ["--theta", theta, "--n", size["n"]],
            {"kind": "mgf"}),
    ]


_BUILDERS = {"verify-dtmc": _verify_dtmc, "spectra": _spectra, "mgf-oracle": _mgf_oracle}


def generate(workload: str, seed: int, outdir: Path, size: str = "full") -> dict:
    """Write the workload's input files into ``outdir`` and return its manifest."""
    if seed < 0:
        raise ValueError("the workload seed must be >= 0")
    outdir.mkdir(parents=True, exist_ok=True)
    docs: dict = {}
    ops = _BUILDERS[workload](seed, SIZES[size][workload], docs)
    inputs = {name: _write_json(outdir / name, doc) for name, doc in docs.items()}
    digest = hashlib.sha256(
        json.dumps({"inputs": inputs, "ops": ops}, sort_keys=True).encode()
    ).hexdigest()
    manifest = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "inputs": inputs,
        "ops": ops,
        "inputs_digest": digest,
    }
    _write_json(outdir / "manifest.json", manifest)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (default perfbench/out/inputs/<workload>)")
    args = parser.parse_args(argv)
    out = args.out or Path(__file__).resolve().parent / "out" / "inputs" / args.workload
    manifest = generate(args.workload, args.seed, out, args.size)
    print(json.dumps(manifest, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
