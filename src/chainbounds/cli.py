"""Command-line interface.

Exit codes: 0 success (all consistency checks passed), 1 a verified bound
fell below the empirical lower confidence limit, 2 input or validation
error (with a machine-readable JSON object on stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import bounds as bounds_mod
from . import examples as examples_mod
from .chain_core import (
    ChainData,
    _read_json,
    _schema_array,
    _schema_vector,
    check_invariant,
    load_chain,
    make_distribution,
    make_observable,
    radon_nikodym_norm,
    stationary_distribution,
)
from .errors import ChainBoundsError, InvalidQuery, SchemaError
from .exact_oracle import exact_mgf
from .simulate import SimConfig, empirical_mgf, empirical_tail
from .spectral import (
    gap_report,
    ip_gap,
    numerical_radius_complex,
    numerical_radius_real,
)

VERIFY_CSV_HEADER = "param,estimate,ci_low,ci_high,bound,consistent"
SWEEP_CSV_HEADER = "axis,value,exponent,bound,theta,c_theta,vacuous"


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors follow the exit-2 JSON contract."""

    def error(self, message):
        print(
            json.dumps({"error": "ArgumentError", "message": message}),
            file=sys.stderr,
        )
        raise SystemExit(2)


def _fail(exc: Exception) -> int:
    # numpy raises a private MemoryError subclass for arrays it cannot allocate;
    # its printed name should not rest on how numpy names that class
    name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
    print(
        json.dumps({"error": name, "message": str(exc)}),
        file=sys.stderr,
    )
    return 2


def _parse_p(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    return float(text)


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _bool_csv(value: bool) -> str:
    return "true" if value else "false"


def _resolve_mu(chain: ChainData):
    if chain.mu is not None:
        check_invariant(chain.operator, chain.mu)
        return chain.mu
    return stationary_distribution(chain.operator)


def _resolve_f(chain: ChainData, flag_value: str | None) -> np.ndarray:
    if flag_value is not None:
        if chain.f_values is not None:
            print("warning: --f overrides the f stored in the chain file", file=sys.stderr)
        return _schema_vector(_parse_floats(flag_value), '"--f"')
    if chain.f_values is None:
        raise SchemaError('this command needs an observable: add "f" to the chain file or pass --f')
    return chain.f_values


def _resolve_nu(chain: ChainData, flag_value: str | None, mu):
    if flag_value is not None:
        if chain.nu is not None:
            print("warning: --nu overrides the nu stored in the chain file", file=sys.stderr)
        return make_distribution(_parse_floats(flag_value), chain.operator.n_states)
    return chain.nu if chain.nu is not None else mu


def _centered_observable(values, mu):
    obs = make_observable(values, mu, auto_center=True)
    raw_mean = float(mu.weights @ np.asarray(values, dtype=float))
    print(f"auto-centered f: removed E_mu[f] = {raw_mean!r}", file=sys.stderr)
    return obs


def _horizon(chain: ChainData, args) -> dict:
    """The ``{"n": ...}`` or ``{"t": ...}`` horizon of the run."""
    if chain.kind == "discrete":
        if args.n is None:
            raise SchemaError("discrete chains need --n")
        if args.t is not None:
            raise SchemaError("discrete chains take --n, not --t")
        return {"n": args.n}
    if args.t is None:
        raise SchemaError("jump processes need --t")
    if args.n is not None:
        raise SchemaError("jump processes take --t, not --n")
    return {"t": args.t}


def _sim_config(args, init, horizon: dict) -> SimConfig:
    """The replication plan, validated before any gap, bound or oracle work."""
    return SimConfig(replicas=args.replicas, seed=args.seed, init=init,
                     alpha=args.alpha, **horizon)


def _finite_or_null(obj):
    """``obj`` with every non-finite float replaced by None, which JSON has as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def _emit_json(obj) -> None:
    # JSON has no NaN or Infinity: such a float prints as null
    print(json.dumps(_finite_or_null(obj), indent=2, allow_nan=False))


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_gaps(args) -> int:
    chain = load_chain(args.chain)
    mu = _resolve_mu(chain)
    report = gap_report(chain.operator, mu, k_max=args.pseudo_kmax)
    if args.output_format == "human":
        for key in ("eta_p", "eta_s", "eta_a", "eta"):
            print(f"{key} = {getattr(report, key)}")
        if report.pseudo is not None:
            print(
                f"pseudo gap (k <= {report.pseudo.k_max}, lower bound) = "
                f"{report.pseudo.value} at k = {report.pseudo.k}"
            )
        print(f"degenerate = {_bool_csv(report.degenerate)}")
    else:
        _emit_json(dataclasses.asdict(report))
    return 0


def _query_from_args(args, delta=None, n=None, t=None) -> bounds_mod.BoundQuery:
    return bounds_mod.BoundQuery(
        mode=args.mode,
        n=n if n is not None else args.n,
        t=t if t is not None else args.t,
        delta=delta if delta is not None else args.delta,
        M=args.M,
        sigma2=args.sigma2,
        eta_p=args.eta_p,
        p=_parse_p(args.p),
        nu_norm=args.nu_norm,
    )


def _cmd_bound(args) -> int:
    result = bounds_mod.tail_bound(_query_from_args(args))
    if args.output_format == "human":
        for key, value in dataclasses.asdict(result).items():
            print(f"{key} = {value}")
    else:
        _emit_json(dataclasses.asdict(result))
    return 0


def _cmd_mgf(args) -> int:
    chain = load_chain(args.chain)
    mu = _resolve_mu(chain)
    obs = _centered_observable(_resolve_f(chain, args.f), mu)
    sigma = math.sqrt(obs.sigma2)
    theta = args.theta
    horizon = _horizon(chain, args)
    config = None if args.replicas is None else _sim_config(args, mu, horizon)
    eta = ip_gap(chain.operator, mu)
    (length,) = horizon.values()
    exact = exact_mgf(chain.operator, mu, obs, theta, length)
    in_range = obs.M > 0 and abs(theta) < eta / (2.0 * obs.M)
    bound = None
    if in_range:
        bound = bounds_mod.mgf_bound(chain.kind, theta, length, obs.M, sigma, eta)
    empirical = None
    if config is not None:
        empirical = dataclasses.asdict(
            empirical_mgf(config, chain.operator, obs, theta, bound=bound))
    out = {
        "mode": chain.kind,
        **horizon,
        "theta": theta,
        "eta_p": eta,
        "M": obs.M,
        "sigma2": obs.sigma2,
        "exact": exact,
        "theta_in_range": in_range,
        "bound": bound,
        "within_bound": None if bound is None else exact <= bound * (1 + 1e-9),
        "empirical": empirical,
    }
    _emit_json(out)
    return 0


def _cmd_verify(args) -> int:
    chain = load_chain(args.chain)
    mu = _resolve_mu(chain)
    obs = _centered_observable(_resolve_f(chain, args.f), mu)
    if obs.M == 0:
        raise InvalidQuery("the observable f is constant under mu: centred, it is 0 "
                           "everywhere and has no tail to verify")
    nu = _resolve_nu(chain, args.nu, mu)
    horizon_kwargs = _horizon(chain, args)
    config = _sim_config(args, nu, horizon_kwargs)
    p = _parse_p(args.p)
    nu_norm = radon_nikodym_norm(nu, mu, p)
    eta = ip_gap(chain.operator, mu)
    deltas = _parse_floats(args.delta_grid)
    if not deltas:
        raise SchemaError("--delta-grid needs at least one value")
    template = bounds_mod.BoundQuery(mode=chain.kind, delta=deltas[0], M=obs.M,
                                     sigma2=obs.sigma2, eta_p=eta, p=p, nu_norm=nu_norm,
                                     **horizon_kwargs)
    bounds = bounds_mod.bound_sweep(template, "delta", deltas)
    rows = list(zip(deltas, empirical_tail(config, chain.operator, obs, deltas, bounds)))
    all_consistent = all(report.consistent for _, report in rows)
    if args.output_format == "json":
        _emit_json([
            {"param": delta, **dataclasses.asdict(report)} for delta, report in rows
        ])
    else:
        print(VERIFY_CSV_HEADER)
        for delta, report in rows:
            print(
                f"{delta!r},{report.estimate!r},{report.ci_low!r},{report.ci_high!r},"
                f"{report.bound_compared.probability_bound!r},{_bool_csv(report.consistent)}"
            )
    return 0 if all_consistent else 1


def sweep_to_csv(sweep_axis: str, values, results: list[bounds_mod.BoundResult]) -> str:
    """Render sweep results as CSV with round-trip float precision."""
    rows = [SWEEP_CSV_HEADER] + [
        f"{sweep_axis},{value!r},{res.exponent!r},{res.probability_bound!r},"
        f"{res.theta_used!r},{res.c_theta!r},{_bool_csv(res.vacuous)}"
        for value, res in zip(values, results)
    ]
    return "".join(row + "\n" for row in rows)


def _cmd_sweep(args) -> int:
    values = [v.strip() for v in args.values.split(",") if v.strip() != ""]
    if not values:
        raise SchemaError("--values needs at least one entry")
    if args.axis == "n":
        typed = [int(v) for v in values]
    else:
        typed = [float(v) for v in values]
    # the first value stands in for a swept --n, --t or --delta left out
    seed_kwargs = {args.axis: typed[0]} if getattr(args, args.axis) is None else {}
    results = bounds_mod.bound_sweep(_query_from_args(args, **seed_kwargs), args.axis, typed)
    if args.output_format == "json":
        _emit_json([
            {"axis": args.axis, "value": v, **dataclasses.asdict(r)}
            for v, r in zip(typed, results)
        ])
    else:
        sys.stdout.write(sweep_to_csv(args.axis, typed, results))
    return 0


def _load_matrix_file(path) -> np.ndarray:
    obj = _read_json(path)
    if isinstance(obj, dict):
        if set(obj) != {"B"}:
            raise SchemaError('matrix document must be a bare 2D array or {"B": [[...]]}')
        obj = obj["B"]
    return _schema_array(obj, "matrix document", 2)


def _cmd_radius(args) -> int:
    a = _load_matrix_file(args.matrix)
    real = numerical_radius_real(a)
    cplx = numerical_radius_complex(a)
    out = {"real": real, "complex": cplx}
    if args.output_format == "human":
        print(f"real numerical radius    = {real}")
        print(f"complex numerical radius = {cplx}")
    else:
        _emit_json(out)
    return 0


def _check(label: str, ok: bool, detail: str) -> tuple[str, bool]:
    status = "PASS" if ok else "FAIL"
    return f"[{status}] {label}: {detail}", ok


def _example_pair_hopping() -> tuple[list[str], bool]:
    P = examples_mod.zero_absolute_gap_chain()
    mu = stationary_distribution(P)
    report = gap_report(P, mu)
    lines = [
        "4-state pair-hopping chain (irreducible, zero absolute gap):",
        f"  mu    = {mu.weights.tolist()}",
        f"  eta_p = {report.eta_p}",
        f"  eta_s = {report.eta_s}",
        f"  eta_a = {report.eta_a}",
        f"  pseudo gap (k <= {report.pseudo.k_max}) = {report.pseudo.value} at k = {report.pseudo.k}",
    ]
    checks = [
        _check("uniform invariant law", bool(np.abs(mu.weights - 0.25).max() <= 1e-12),
               "max |mu - 1/4| <= 1e-12"),
        _check("absolute gap vanishes", abs(report.eta_a) <= 1e-10, f"|eta_a| = {abs(report.eta_a)}"),
        _check("symmetric gap positive", report.eta_s > 0.4, f"eta_s = {report.eta_s}"),
        _check("IP gap positive", report.eta_p > 0.4, f"eta_p = {report.eta_p}"),
        _check("gap ordering", report.eta_p >= report.eta_s - 1e-9 >= report.eta_a - 2e-9,
               "eta_p >= eta_s >= eta_a"),
    ]
    lines += [text for text, _ in checks]
    return lines, all(ok for _, ok in checks)


def _example_skew_radius() -> tuple[list[str], bool]:
    a = examples_mod.skew_matrix()
    wr = numerical_radius_real(a)
    wr2 = numerical_radius_real(a @ a)
    wc = numerical_radius_complex(a)
    wc2 = numerical_radius_complex(a @ a)
    lines = [
        "skew-symmetric 2x2 rotation generator:",
        f"  real radius:    w(A) = {wr},  w(A^2) = {wr2}",
        f"  complex radius: w(A) = {wc},  w(A^2) = {wc2}",
    ]
    checks = [
        _check("real radius of A is 0", abs(wr) <= 1e-12, f"w(A) = {wr}"),
        _check("real radius of A^2 is 1", abs(wr2 - 1.0) <= 1e-12,
               "power inequality fails over the reals"),
        _check("complex power inequality", wc2 <= wc**2 * (1 + 1e-12),
               f"w(A^2) = {wc2} <= w(A)^2 (1 + 1e-12)"),
    ]
    lines += [text for text, _ in checks]
    return lines, all(ok for _, ok in checks)


def _example_flip_chain() -> tuple[list[str], bool]:
    P = examples_mod.flip_chain()
    mu = stationary_distribution(P)
    report = gap_report(P, mu)
    pseudo = report.pseudo
    lines = [
        "deterministic 2-state alternator:",
        f"  eta_p = {report.eta_p}  (the universal cap)",
        f"  eta_s = {report.eta_s}",
        f"  eta_a = {report.eta_a}",
        f"  pseudo gap truncated at k = 20: {pseudo.value}",
        "  note: the IP gap is maximal while every truncation of the",
        "  pseudo gap is 0, so IP-gap bounds apply where pseudo-gap",
        "  bounds are silent.",
    ]
    checks = [
        _check("IP gap attains the cap", abs(report.eta_p - 2.0) <= 1e-10, f"eta_p = {report.eta_p}"),
        _check("absolute gap vanishes", abs(report.eta_a) <= 1e-10, f"eta_a = {report.eta_a}"),
        _check("truncated pseudo gap vanishes", abs(pseudo.value) <= 1e-10, f"value = {pseudo.value}"),
    ]
    lines += [text for text, _ in checks]
    return lines, all(ok for _, ok in checks)


_EXAMPLES = {
    "appendix-a": _example_pair_hopping,
    "skew-radius": _example_skew_radius,
    "flip-chain": _example_flip_chain,
}


def _cmd_examples(args) -> int:
    builder = _EXAMPLES.get(args.name)
    if builder is None:
        print(
            json.dumps({
                "error": "UnknownExample",
                "message": f"unknown example {args.name!r}",
                "known": sorted(_EXAMPLES),
            }),
            file=sys.stderr,
        )
        return 2
    lines, ok = builder()
    print("\n".join(lines))
    return 0 if ok else 1


# --------------------------------------------------------------------------
# parser assembly
# --------------------------------------------------------------------------

def _add_output_format(sub, default: str, choices=("json", "csv", "human")) -> None:
    sub.add_argument("--output-format", choices=choices, default=default)


def _add_bound_flags(sub) -> None:
    sub.add_argument("--mode", choices=("discrete", "continuous"), required=True)
    sub.add_argument("--n", type=int, default=None, help="step horizon (discrete)")
    sub.add_argument("--t", type=float, default=None, help="time horizon (continuous)")
    sub.add_argument("--M", type=float, required=True, help="sup bound on |f|")
    sub.add_argument("--sigma2", type=float, required=True, help="variance proxy")
    sub.add_argument("--eta-p", dest="eta_p", type=float, required=True)
    sub.add_argument("--p", default="inf", help="density moment order in (1, inf]")
    sub.add_argument("--nu-norm", dest="nu_norm", type=float, default=1.0)


def build_parser() -> _Parser:
    parser = _Parser(prog="chainbounds", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gaps = sub.add_parser("gaps", help="spectral gaps of a chain file")
    gaps.add_argument("chain")
    gaps.add_argument("--pseudo-kmax", dest="pseudo_kmax", type=int, default=20)
    _add_output_format(gaps, "json", ("json", "human"))
    gaps.set_defaults(func=_cmd_gaps)

    bound = sub.add_parser("bound", help="evaluate one tail bound")
    _add_bound_flags(bound)
    bound.add_argument("--delta", type=float, required=True)
    _add_output_format(bound, "json", ("json", "human"))
    bound.set_defaults(func=_cmd_bound)

    mgf = sub.add_parser("mgf", help="exact vs bounded MGF for a chain file")
    mgf.add_argument("chain")
    mgf.add_argument("--theta", type=float, required=True)
    mgf.add_argument("--n", type=int, default=None)
    mgf.add_argument("--t", type=float, default=None)
    mgf.add_argument("--f", default=None, help="comma-separated f values (overrides file)")
    mgf.add_argument("--replicas", type=int, default=None)
    mgf.add_argument("--seed", type=int, default=0)
    mgf.add_argument("--alpha", type=float, default=0.05)
    _add_output_format(mgf, "json", ("json",))
    mgf.set_defaults(func=_cmd_mgf)

    verify = sub.add_parser("verify", help="Monte Carlo check of the tail bound")
    verify.add_argument("chain")
    verify.add_argument("--n", type=int, default=None)
    verify.add_argument("--t", type=float, default=None)
    verify.add_argument("--delta-grid", dest="delta_grid", required=True)
    verify.add_argument("--replicas", type=int, default=10000)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--alpha", type=float, default=0.05)
    verify.add_argument("--p", default="inf")
    verify.add_argument("--f", default=None)
    verify.add_argument("--nu", default=None)
    _add_output_format(verify, "csv", ("csv", "json"))
    verify.set_defaults(func=_cmd_verify)

    sweep = sub.add_parser("sweep", help="tail bound along one axis")
    _add_bound_flags(sweep)
    sweep.add_argument("--delta", type=float, default=None)
    sweep.add_argument("--axis", choices=("n", "t", "delta", "eta_p"), required=True)
    sweep.add_argument("--values", required=True, help="comma-separated axis values")
    _add_output_format(sweep, "csv", ("csv", "json"))
    sweep.set_defaults(func=_cmd_sweep)

    radius = sub.add_parser("radius", help="real and complex numerical radius")
    radius.add_argument("matrix", help="JSON file: bare 2D array or {\"B\": ...}")
    _add_output_format(radius, "json", ("json", "human"))
    radius.set_defaults(func=_cmd_radius)

    examples = sub.add_parser("examples", help="built-in demonstration instances")
    examples.add_argument("name")
    examples.set_defaults(func=_cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ChainBoundsError as exc:
        return _fail(exc)
    except (OSError, ValueError, MemoryError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
