"""Output checks for each CLI op of the benchmark.

Each check returns None when the op's output is correct and a one-line
reason otherwise. Every op in the benchmark is expected to exit with 0.
"""

from __future__ import annotations

import json
import math

VERIFY_HEADER = "param,estimate,ci_low,ci_high,bound,consistent"
PSEUDO_KMAX = 20  # the CLI default for --pseudo-kmax, which the ops leave unset


def _verify(params: dict, stdout: str):
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != VERIFY_HEADER:
        return "verify: missing CSV header"
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != params["rows"]:
        return f"verify: {len(rows)} rows for {params['rows']} deltas"
    if any(len(row) != 6 or row[5] != "true" for row in rows):
        return "verify: a row is not consistent=true"
    return None


def _gaps(params: dict, stdout: str):
    report = json.loads(stdout)
    eta_p, eta_s, eta_a = report["eta_p"], report["eta_s"], report["eta_a"]
    if not eta_p >= eta_s - 1e-9 >= eta_a - 2e-9:
        return f"gaps: ordering violated ({eta_p}, {eta_s}, {eta_a})"
    if params["reversible"] and report["eta"] is None:
        return "gaps: eta is null for a reversible chain"
    if (report["pseudo"] or {}).get("k_max") != PSEUDO_KMAX:
        return f"gaps: pseudo.k_max is not {PSEUDO_KMAX}"
    return None


def _radius(params: dict, stdout: str):
    out = json.loads(stdout)
    real, cplx = out["real"], out["complex"]
    # w(B) lies in [rho(B), ||B||_2]; the slack absorbs rounding in the two
    # independent eigen/SVD computations of the upper end.
    if not params["spectral_radius"] <= cplx <= params["norm2"] * (1 + 1e-12):
        return (f"radius: complex {cplx} outside [{params['spectral_radius']}, "
                f"{params['norm2']}]")
    if cplx < real - 1e-12:
        return f"radius: complex {cplx} below real {real}"
    return None


def _mgf(params: dict, stdout: str):
    out = json.loads(stdout)
    exact = out["exact"]
    if not isinstance(exact, (int, float)) or not math.isfinite(exact):
        return f"mgf: exact value {exact!r} is not finite"
    if out["within_bound"] is False:
        return "mgf: exact MGF exceeds the theorem bound"
    return None


_CHECKS = {"verify": _verify, "gaps": _gaps, "radius": _radius, "mgf": _mgf}


def check(params: dict, exit_code: int, stdout: str):
    """None if the op succeeded and its output is correct, else the reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        return _CHECKS[params["kind"]](params, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"{params['kind']}: malformed output ({type(exc).__name__}: {exc})"
