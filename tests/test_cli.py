import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import chainbounds as cb
from chainbounds import cli, simulate
from chainbounds.spectral import ORDERING_SLACK
from chainbounds.examples import FLIP_ROWS, SKEW_ROWS, ZERO_ABSOLUTE_GAP_ROWS

GOLDEN_IP_GAP = math.sqrt((3.0 - math.sqrt(5.0)) / 2.0)


def _chain_file(tmp_path, obj, name="chain.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _assert_gap_ordering(doc):
    # the ordering GapReport enforces at construction, read off the JSON
    assert doc["eta_p"] >= doc["eta_s"] - ORDERING_SLACK
    assert doc["eta_s"] >= doc["eta_a"] - ORDERING_SLACK


def _four_state_file(tmp_path, **extra):
    doc = {"labels": ["a", "b", "c", "d"], "P": ZERO_ABSOLUTE_GAP_ROWS,
           "f": [1, 0, 0, -1]}
    doc.update(extra)
    return _chain_file(tmp_path, doc)


class TestGaps:
    def test_four_state_values(self, tmp_path, capsys):
        rc = cli.main(["gaps", _four_state_file(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        _assert_gap_ordering(doc)
        assert abs(doc["eta_a"]) <= 1e-10
        assert doc["eta_s"] == pytest.approx(0.5, abs=1e-10)
        assert doc["eta_p"] == pytest.approx(GOLDEN_IP_GAP, abs=1e-10)
        assert doc["eta"] is None
        assert doc["pseudo"]["k_max"] == 20

    def test_identity_chain_not_irreducible(self, tmp_path, capsys):
        path = _chain_file(tmp_path, {"labels": ["a", "b"], "P": [[1, 0], [0, 1]]})
        rc = cli.main(["gaps", path])
        err = capsys.readouterr().err
        assert rc == 2
        assert json.loads(err)["error"] == "NotIrreducible"

    def test_pseudo_kmax_below_one_rejected(self, tmp_path, capsys):
        # k_max counts steps, not states: an input error, not a dimension one
        rc = cli.main(["gaps", _four_state_file(tmp_path), "--pseudo-kmax", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "InvalidQuery", "message": "k_max must be an integer in [1, inf]"}

    @pytest.mark.parametrize("doc", [
        {"labels": ["x", "y"], "Q": [[-1, 1], [2, -2]]},
        {"labels": ["a"], "P": [[1]]},
    ], ids=["jump-process", "one-state-chain"])
    @pytest.mark.parametrize("k_max", ["0", "-3"])
    def test_pseudo_kmax_below_one_rejected_without_pseudo_gap(self, doc, k_max, tmp_path,
                                                               capsys):
        # refused where no pseudo gap is computed too, as on a multi-state chain
        rc = cli.main(["gaps", _chain_file(tmp_path, doc), "--pseudo-kmax", k_max])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "InvalidQuery", "message": "k_max must be an integer in [1, inf]"}

    def test_flip_chain_values(self, tmp_path, capsys):
        path = _chain_file(tmp_path, {"labels": ["a", "b"], "P": FLIP_ROWS})
        rc = cli.main(["gaps", path])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        _assert_gap_ordering(doc)
        assert doc["eta_p"] == pytest.approx(2.0, abs=1e-10)
        assert doc["eta_s"] == pytest.approx(2.0, abs=1e-10)
        assert abs(doc["eta_a"]) <= 1e-10

    def test_gaps_and_mgf_print_one_eta_p_for_a_reversible_chain(self, tmp_path, capsys):
        # gaps reads eta_p through gap_report, mgf through ip_gap: one route
        path = _chain_file(tmp_path, {
            "labels": ["a", "b", "c", "d"],
            "P": [[0.5, 0.3, 0.2, 0.0], [0.15, 0.5, 0.25, 0.1],
                  [0.1, 0.25, 0.4, 0.25], [0.0, 0.2, 0.5, 0.3]],
            "f": [1, 0, -1, 2],
        })
        assert cli.main(["gaps", path]) == 0
        gaps = json.loads(capsys.readouterr().out)
        assert cli.main(["mgf", path, "--theta", "0.01", "--n", "10"]) == 0
        mgf = json.loads(capsys.readouterr().out)
        assert gaps["eta"] is not None
        assert mgf["eta_p"] == gaps["eta_p"] == gaps["eta_s"]

    def test_generator_chain(self, tmp_path, capsys):
        path = _chain_file(tmp_path, {"labels": ["x", "y"], "Q": [[-1, 1], [2, -2]]})
        rc = cli.main(["gaps", path])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["eta_p"] == pytest.approx(3.0, abs=1e-10)
        assert doc["eta_s"] is None

    def test_schema_error_exit_two(self, tmp_path, capsys):
        path = _chain_file(tmp_path, {"labels": ["a"], "P": [[1.0]], "bogus": 1})
        rc = cli.main(["gaps", path])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"

    @pytest.mark.parametrize("key, value", [
        ("P", [[0.5, 0.5], ["0.5", "0.5"]]),
        ("Q", [["-1", "1"], ["1", "-1"]]),
        ("mu", ["0.5", "0.5"]),
        ("nu", [0.5, "0.5"]),
        ("f", ["1", "-1"]),
    ])
    def test_numeric_strings_rejected(self, key, value, tmp_path, capsys):
        doc = {"labels": ["a", "b"], key: value}
        if key != "Q":
            doc.setdefault("P", [[0.5, 0.5], [0.5, 0.5]])
        rc = cli.main(["gaps", _chain_file(tmp_path, doc)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "SchemaError", "message": f'"{key}" must contain only numbers'}

    @pytest.mark.parametrize("key, value", [
        ("P", [[True, 0.0], [0.5, 0.5]]),
        ("Q", [[-1, True], [1, -1]]),
        ("mu", [True, 0]),
        ("nu", [0.0, True]),
        ("f", [True, 0.0]),
    ])
    def test_booleans_rejected(self, key, value, tmp_path, capsys):
        # numpy reads a JSON boolean next to numbers as a number
        doc = {"labels": ["a", "b"], "f": [1, -1], key: value}
        if key != "Q":
            doc.setdefault("P", [[0.5, 0.5], [0.5, 0.5]])
        rc = cli.main(["verify", _chain_file(tmp_path, doc), "--n", "10", "--t", "1",
                       "--delta-grid", "0.1", "--replicas", "10"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "SchemaError", "message": f'"{key}" must contain only numbers'}

    @pytest.mark.parametrize("key, value", [
        ("mu", "[NaN, 0.5]"),
        ("nu", "[0.5, Infinity]"),
        ("f", "[NaN, 1]"),
        ("f", "[1e400, 1]"),
        ("--f", "nan,1"),
        ("--f", "inf,1"),
    ])
    def test_non_finite_vectors_rejected(self, key, value, tmp_path, capsys):
        # refused by the schema, not later as an SVD that does not converge,
        # a bound's M <= 0 (NaN passes every comparison-based check) or an
        # MGF that underflows; --f values get the rule of the file's "f"
        flag = [key, value] if key == "--f" else []
        fields = {} if flag else {"f": "[1, -1]", key: value}
        path = tmp_path / "chain.json"
        path.write_text('{"labels": ["a", "b"], "P": [[0.5, 0.5], [0.5, 0.5]]'
                        + "".join(f', "{k}": {v}' for k, v in fields.items()) + "}")
        for argv in (["verify", "--delta-grid", "0.1", "--replicas", "10"],
                     ["mgf", "--theta", "0.1"]):
            rc = cli.main([argv[0], str(path), "--n", "10", *argv[1:], *flag])
            assert rc == 2
            assert capsys.readouterr().err == json.dumps(
                {"error": "SchemaError",
                 "message": f'"{key}" must contain only finite numbers'}) + "\n"

    def test_f_flag_length_checked(self, tmp_path, capsys):
        # a typed error before centring, not numpy's raw matmul ValueError
        path = _chain_file(tmp_path, {"labels": ["a", "b"], "P": [[0.5, 0.5], [0.5, 0.5]]})
        for argv in (["verify", "--delta-grid", "0.1", "--replicas", "10"],
                     ["mgf", "--theta", "0.1"]):
            rc = cli.main([argv[0], path, "--n", "10", *argv[1:], "--f", "1,2,3"])
            assert rc == 2
            assert capsys.readouterr().err == json.dumps({
                "error": "DimensionMismatch",
                "message": "observable values do not match the state space"}) + "\n"

    def test_nu_flag_length_checked(self, tmp_path, capsys):
        path = _chain_file(tmp_path, {"labels": ["a", "b"], "P": [[0.5, 0.5], [0.5, 0.5]],
                                      "f": [1, -1]})
        rc = cli.main(["verify", path, "--n", "10", "--delta-grid", "0.1", "--nu", "1,0,0"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {
            "error": "DimensionMismatch", "message": "distribution has 3 weights for 2 states"}

    def test_duplicate_labels_rejected(self, tmp_path, capsys):
        path = _chain_file(tmp_path, {"labels": ["a", "a"], "P": [[0.5, 0.5], [0.5, 0.5]]})
        rc = cli.main(["gaps", path])
        assert rc == 2
        assert capsys.readouterr().err == json.dumps({
            "error": "DimensionMismatch", "message": "state labels must be distinct"}) + "\n"

    @pytest.mark.parametrize("depth", [500, 5000])
    def test_deep_nesting_is_schema_error(self, depth, tmp_path, capsys):
        # the decoder's object walk is recursive Python: a traceback, not exit 2,
        # unless its RecursionError is caught
        path = tmp_path / "chain.json"
        path.write_text('{"labels": ["a"], "P": ' + "[" * depth + "1" + "]" * depth + "}")
        rc = cli.main(["gaps", str(path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError" and err["message"].startswith("invalid JSON: ")

    @pytest.mark.parametrize("command, text", [
        ("gaps", '{"labels": ["a"], "P": [[1.0]]}'),
        ("radius", "[[1, 0], [0, 1]]"),
    ])
    def test_file_not_utf8_is_schema_error(self, command, text, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_bytes(text.encode() + b"\xff")
        rc = cli.main([command, str(path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert err["message"].startswith("invalid JSON: 'utf-8' codec can't decode byte 0xff")

    def test_human_format(self, tmp_path, capsys):
        rc = cli.main(["gaps", _four_state_file(tmp_path), "--output-format", "human"])
        out = capsys.readouterr().out
        assert rc == 0 and "eta_p" in out

    def test_file_mu_must_be_invariant(self, tmp_path, capsys):
        path = _chain_file(
            tmp_path,
            {"labels": ["a", "b"], "P": [[0.9, 0.1], [0.5, 0.5]], "mu": [0.5, 0.5]},
        )
        rc = cli.main(["gaps", path])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "NotInvariant"

    def test_reducible_chain_with_file_mu_has_zero_ip_gap(self, tmp_path, capsys):
        # two closed classes: a mu that weights both is invariant, and the
        # second null direction of the generator reads 0, not rounding noise
        block = [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]
        rows = [r + [0, 0, 0] for r in block] + [[0, 0, 0] + r for r in block[::-1]]
        path = _chain_file(tmp_path, {"labels": list("abcdef"), "P": rows, "mu": [1 / 6] * 6})
        assert cli.main(["gaps", path]) == 0
        assert json.loads(capsys.readouterr().out)["eta_p"] == 0.0


_GAPS_TAIL = """  "degenerate": false,
  "tolerances": {
    "reversibility": 1e-10,
    "ordering_slack": 1e-09
  }
}
"""

# `gaps` JSON stdout, byte for byte: best k = 1, best k > 1 (a cycle holding
# only at state 0), and a periodic chain whose values are all 0, so every k
# is scanned and k = 1 is kept
GOLDEN_GAPS = {
    "best-k-1": (
        [[0.5, 0.3, 0.2], [0.2, 0.6, 0.2], [0.3, 0.3, 0.4]],
        """{
  "eta_p": 0.692820323027551,
  "eta_s": 0.6922649730810375,
  "eta_a": 0.6906038252386791,
  "eta": null,
  "pseudo": {
    "value": 0.9042740070430622,
    "k": 1,
    "k_max": 20
  },
""" + _GAPS_TAIL,
    ),
    "best-k-5": (
        [[0.5, 0.5, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1],
         [1, 0, 0, 0, 0]],
        """{
  "eta_p": 0.8710860620711345,
  "eta_s": 0.5000000000000002,
  "eta_a": 0.0,
  "eta": null,
  "pseudo": {
    "value": 0.1276018460433895,
    "k": 5,
    "k_max": 20
  },
""" + _GAPS_TAIL,
    ),
    "periodic": (
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        """{
  "eta_p": 1.7320508075688772,
  "eta_s": 1.4999999999999998,
  "eta_a": 0.0,
  "eta": null,
  "pseudo": {
    "value": 0.0,
    "k": 1,
    "k_max": 20
  },
""" + _GAPS_TAIL,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_GAPS))
def test_gaps_json_matches_golden(name, tmp_path, capsys):
    rows, expected = GOLDEN_GAPS[name]
    labels = [str(i) for i in range(len(rows))]
    rc = cli.main(["gaps", _chain_file(tmp_path, {"labels": labels, "P": rows})])
    assert rc == 0
    assert capsys.readouterr().out == expected


_JUMP_DOC = {"labels": ["x", "y", "z"], "Q": [[-2, 1, 1], [1, -1, 0], [2, 2, -4]],
             "f": [1, -1, 0.5]}

# sampler stdout, byte for byte: any change to a replica's stream shows here
GOLDEN_SAMPLER = {
    "mgf-jump": (
        _JUMP_DOC,
        ["mgf", "--theta", "0.2", "--t", "5", "--replicas", "300", "--seed", "17"],
        """{
  "mode": "continuous",
  "t": 5.0,
  "theta": 0.2,
  "eta_p": 2.257842677588063,
  "M": 1.1363636363636362,
  "sigma2": 0.9132231404958677,
  "exact": 1.074817178976862,
  "theta_in_range": true,
  "bound": 1.2170217121871147,
  "within_bound": true,
  "empirical": {
    "kind": "mgf",
    "estimate": 1.0426883457431657,
    "ci_low": 0.9973812763787117,
    "ci_high": 1.0879954151076197,
    "replicas_used": 300,
    "seed": 17,
    "bound_compared": 1.2170217121871147,
    "consistent": true,
    "heavy_tail": false
  }
}
""",
    ),
    "verify-chain-csv": (
        {"labels": ["a", "b", "c", "d"], "P": ZERO_ABSOLUTE_GAP_ROWS, "f": [1, 0, 0, -1]},
        ["verify", "--n", "60", "--delta-grid", "0.05,0.1,0.3", "--replicas", "300",
         "--seed", "17"],
        """param,estimate,ci_low,ci_high,bound,consistent
0.05,0.7433333333333333,0.6899830175945729,0.7918063163198661,1.9885498898165423,true
0.1,0.4766666666666667,0.4189581580700267,0.5348404577247352,1.9546017026631097,true
0.3,0.0033333333333333335,8.438913231780044e-05,0.018431252048067885,1.6274359014155122,true
""",
    ),
    "verify-jump-json": (
        _JUMP_DOC,
        ["verify", "--t", "20", "--delta-grid", "0.1", "--replicas", "300", "--seed", "17",
         "--output-format", "json"],
        """[
  {
    "param": 0.1,
    "kind": "tail",
    "estimate": 0.62,
    "ci_low": 0.5624398171973981,
    "ci_high": 0.6751647936958731,
    "replicas_used": 300,
    "seed": 17,
    "bound_compared": {
      "probability_bound": 1.898832425465355,
      "exponent": -0.05190799619096934,
      "theta_used": 0.051907996190969335,
      "c_theta": 0.9986340256545485,
      "vacuous": true,
      "boundary_limit": false
    },
    "consistent": true,
    "heavy_tail": false
  }
]
""",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SAMPLER))
def test_sampler_output_matches_golden(name, tmp_path, capsys):
    doc, argv, expected = GOLDEN_SAMPLER[name]
    rc = cli.main([argv[0], _chain_file(tmp_path, doc), *argv[1:]])
    assert rc == 0
    assert capsys.readouterr().out == expected


# `gaps --output-format human` stdout, byte for byte: a non-reversible chain,
# a reversible one (eta is printed) and a jump process (no pseudo gap line)
GOLDEN_GAPS_HUMAN = {
    "chain": (
        {"labels": ["0", "1", "2"], "P": GOLDEN_GAPS["best-k-1"][0]},
        """eta_p = 0.692820323027551
eta_s = 0.6922649730810375
eta_a = 0.6906038252386791
eta = None
pseudo gap (k <= 20, lower bound) = 0.9042740070430622 at k = 1
degenerate = false
""",
    ),
    # for the stored doubles eta = 2 - p00 - p11 = 0.70000000000000006661...
    # exactly, and with rho = p00 + p11 - 1 the pseudo gap 1 - rho^2 is
    # 0.91000000000000003996... (40-digit mpmath); (1 - rho)(1 + rho) rounds
    # 1 ulp below it
    "reversible": (
        {"labels": ["a", "b"], "P": [[0.7, 0.3], [0.4, 0.6]]},
        """eta_p = 0.7000000000000001
eta_s = 0.7000000000000001
eta_a = 0.7000000000000001
eta = 0.7000000000000001
pseudo gap (k <= 20, lower bound) = 0.9099999999999999 at k = 1
degenerate = false
""",
    ),
    "jump": (
        _JUMP_DOC,
        """eta_p = 2.257842677588063
eta_s = None
eta_a = None
eta = None
degenerate = false
""",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_GAPS_HUMAN))
def test_gaps_human_matches_golden(name, tmp_path, capsys):
    doc, expected = GOLDEN_GAPS_HUMAN[name]
    rc = cli.main(["gaps", _chain_file(tmp_path, doc), "--output-format", "human"])
    assert rc == 0
    assert capsys.readouterr().out == expected


_SWEEP_ROW = """    "vacuous": true,
    "boundary_limit": false
  },
"""

# `bound` and `sweep` stdout, byte for byte: the key order of every JSON
# object and human listing, and the CSV renderer
GOLDEN_BOUNDS = {
    "bound-json": (
        ["bound", "--mode", "discrete", "--n", "500", "--delta", "0.1", "--M", "1",
         "--sigma2", "0.5", "--eta-p", "0.6", "--p", "3", "--nu-norm", "1.5"],
        """{
  "probability_bound": 2.6442394084656136,
  "exponent": -0.12622882294670723,
  "theta_used": 0.005049152917868287,
  "c_theta": 0.9996812748923027,
  "vacuous": true,
  "boundary_limit": false
}
""",
    ),
    "bound-boundary-json": (
        ["bound", "--mode", "continuous", "--t", "40", "--delta", "0.25", "--M", "2",
         "--sigma2", "0", "--eta-p", "0.3"],
        """{
  "probability_bound": 1.3745785575819445,
  "exponent": -0.375,
  "theta_used": 0.075,
  "c_theta": 0.0,
  "vacuous": true,
  "boundary_limit": true
}
""",
    ),
    "bound-human": (
        ["bound", "--mode", "continuous", "--t", "40", "--delta", "0.25", "--M", "2",
         "--sigma2", "0.7", "--eta-p", "0.3", "--output-format", "human"],
        """probability_bound = 1.8921918315675663
exponent = -0.055411324178019535
theta_used = 0.011082264835603907
c_theta = 0.9890227190841618
vacuous = True
boundary_limit = False
""",
    ),
    "sweep-csv": (
        ["sweep", "--mode", "discrete", "--delta", "0.1", "--M", "1", "--sigma2", "0.5",
         "--eta-p", "0.6", "--axis", "n", "--values", "10,100,100000"],
        """axis,value,exponent,bound,theta,c_theta,vacuous
n,10,-0.0037868646884012167,1.9924405928828424,0.007573729376802431,0.9996812748923027,true
n,100,-0.03786864688401217,1.9256788090826056,0.007573729376802431,0.9996812748923027,true
n,100000,-37.86864688401217,7.159548193009266e-17,0.007573729376802431,0.9996812748923027,false
""",
    ),
    "sweep-json": (
        ["sweep", "--mode", "continuous", "--t", "30", "--M", "1", "--sigma2", "0.25",
         "--eta-p", "0.8", "--axis", "delta", "--values", "0,0.05,0.5",
         "--output-format", "json"],
        """[
  {
    "axis": "delta",
    "value": 0.0,
    "probability_bound": 2.0,
    "exponent": 0.0,
    "theta_used": 0.0,
    "c_theta": 1.0,
""" + _SWEEP_ROW + """  {
    "axis": "delta",
    "value": 0.05,
    "probability_bound": 1.9702607521272015,
    "exponent": -0.014981285083167673,
    "theta_used": 0.019975046777556897,
    "c_theta": 0.9987523388778446,
""" + _SWEEP_ROW + """  {
    "axis": "delta",
    "value": 0.5,
    "probability_bound": 0.5228327760349069,
    "exponent": -1.3416407864998738,
    "theta_used": 0.17888543819998318,
    "c_theta": 0.8944271909999159,
    "vacuous": false,
    "boundary_limit": false
  }
]
""",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BOUNDS))
def test_bound_output_matches_golden(name, capsys):
    argv, expected = GOLDEN_BOUNDS[name]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv", [
    ["mgf", "--theta", "0.2", "--n", "10", "--replicas", "10", "--seed", "-1"],
    ["verify", "--n", "10", "--delta-grid", "0.1", "--replicas", "10", "--seed", "-1"],
])
def test_negative_seed_fails_before_gap_bound_and_oracle(argv, tmp_path, capsys, monkeypatch):
    calls = []

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("ip_gap", "gap_report", "exact_mgf", "empirical_mgf", "empirical_tail"):
        count(cli, name)
    for name in ("tail_bound", "mgf_bound"):
        count(cli.bounds_mod, name)
    rc = cli.main([argv[0], _four_state_file(tmp_path), *argv[1:]])
    assert rc == 2
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "InvalidQuery"
    assert calls == []


_JUMP_2 = {"labels": ["x", "y"], "Q": [[-1, 1], [2, -2]], "f": [1, -1]}
_BOUND_FLAGS = ["--M", "1", "--sigma2", "0.5", "--eta-p", "1", "--delta", "0.1"]


@pytest.mark.parametrize("command", [
    ["mgf", "--theta", "0.2"],
    ["verify", "--delta-grid", "0.1", "--replicas", "10"],
], ids=["mgf", "verify"])
@pytest.mark.parametrize("doc,flags,message", [
    ({"labels": ["a", "b"], "P": [[0.5, 0.5], [0.5, 0.5]], "f": [1, -1]},
     ["--n", "10", "--t", "5"], "discrete chains take --n, not --t"),
    (_JUMP_2, ["--t", "5", "--n", "7"], "jump processes take --t, not --n"),
], ids=["chain", "jump"])
def test_other_time_scale_horizon_rejected(command, doc, flags, message, tmp_path, capsys):
    rc = cli.main([command[0], _chain_file(tmp_path, doc), *command[1:], *flags])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert json.loads(captured.err.splitlines()[-1]) == {
        "error": "SchemaError", "message": message}


@pytest.mark.parametrize("argv,message", [
    (["bound", "--mode", "discrete", "--t", "5", *_BOUND_FLAGS],
     "discrete queries need a horizon n and no t"),
    (["bound", "--mode", "discrete", *_BOUND_FLAGS],
     "discrete queries need a horizon n and no t"),
    (["bound", "--mode", "continuous", "--n", "5", *_BOUND_FLAGS],
     "continuous queries need a horizon t and no n"),
    (["sweep", "--mode", "continuous", "--axis", "n", "--values", "5,10", *_BOUND_FLAGS],
     "continuous queries need a horizon t and no n"),
], ids=["bound-discrete-t", "bound-discrete-none", "bound-continuous-n", "sweep-continuous-n"])
def test_horizon_flag_of_the_other_mode_rejected(argv, message, capsys):
    # --mode picks which of --n and --t is the query's one horizon
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "InvalidQuery", "message": message}


class TestNonFiniteHorizon:
    """A NaN or infinite t, or an n beyond the float range, is an input error
    (exit 2), never a bound or a crash."""

    def _assert_rejected(self, rc, capsys, message):
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        err = json.loads(captured.err.splitlines()[-1])
        assert err == {"error": "InvalidQuery", "message": message}

    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_verify(self, t, tmp_path, capsys):
        rc = cli.main(["verify", _chain_file(tmp_path, _JUMP_2), "--t", t,
                       "--delta-grid", "0.1", "--replicas", "10"])
        self._assert_rejected(rc, capsys, "horizon t must be a real number in [0, max float]")

    def test_bound(self, capsys):
        rc = cli.main(["bound", "--mode", "continuous", "--t", "nan", *_BOUND_FLAGS])
        self._assert_rejected(rc, capsys, "horizon t must be a real number in [0, max float]")

    def test_sweep(self, capsys):
        rc = cli.main(["sweep", "--mode", "continuous", "--axis", "t",
                       "--values", "nan,inf", *_BOUND_FLAGS])
        self._assert_rejected(rc, capsys, "horizon t must be a real number in [0, max float]")

    @pytest.mark.parametrize("replicas", [[], ["--replicas", "10"]])
    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_mgf(self, t, replicas, tmp_path, capsys):
        # the exact oracle and the sampler reject the horizon alike
        rc = cli.main(["mgf", _chain_file(tmp_path, _JUMP_2), "--theta", "0.3",
                       "--t", t, *replicas])
        self._assert_rejected(rc, capsys, "horizon t must be a real number in [0, max float]")

    def test_bound_n_beyond_floats(self, capsys):
        rc = cli.main(["bound", "--mode", "discrete", "--n", str(10**400), *_BOUND_FLAGS])
        self._assert_rejected(rc, capsys, "horizon n must be an integer in [1, max float]")

    def test_sweep_n_beyond_floats(self, capsys):
        rc = cli.main(["sweep", "--mode", "discrete", "--axis", "n",
                       "--values", f"5,{10**400}", *_BOUND_FLAGS])
        self._assert_rejected(
            rc, capsys, f"row 1 (value {10**400}): horizon n must be an integer in [1, max float]"
        )


class TestBound:
    ARGS = [
        "bound", "--mode", "discrete", "--n", "1000", "--delta", "0.1",
        "--M", "1", "--sigma2", "0.1", "--eta-p", "1", "--p", "inf",
        "--nu-norm", "1",
    ]

    def test_hand_value(self, capsys):
        rc = cli.main(self.ARGS)
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["probability_bound"] == pytest.approx(
            2 * math.exp(-10 / (4 * math.sqrt(6.41))), rel=1e-12
        )
        assert set(doc) == {field.name for field in dataclasses.fields(cb.BoundResult)}

    def test_delta_zero_vacuous_still_exit_zero(self, capsys):
        args = list(self.ARGS)
        args[args.index("--delta") + 1] = "0"
        rc = cli.main(args)
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["vacuous"] is True
        assert doc["probability_bound"] == pytest.approx(2.0)

    def test_p_one_rejected(self, tmp_path, capsys):
        args = list(self.ARGS)
        args[args.index("--p") + 1] = "1"
        rc = cli.main(args)
        err = json.loads(capsys.readouterr().err)
        assert rc == 2
        assert err["error"] == "InvalidP" and "vacuous" in err["message"]
        # verify refuses p = 1 by the same check, with the same message
        rc = cli.main(["verify", _four_state_file(tmp_path), "--n", "10",
                       "--delta-grid", "0.1", "--replicas", "10", "--p", "1"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err.splitlines()[-1]) == err

    def test_missing_flag_is_exit_two(self, capsys):
        rc = cli.main(["bound", "--mode", "discrete", "--n", "10"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ArgumentError"


class TestMgf:
    def test_theta_zero(self, tmp_path, capsys):
        rc = cli.main(["mgf", _four_state_file(tmp_path), "--theta", "0", "--n", "5"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["exact"] == pytest.approx(1.0, rel=1e-12)
        assert doc["bound"] == pytest.approx(1.0, rel=1e-12)
        assert doc["within_bound"] is True

    def test_out_of_range_theta_reports_null_bound(self, tmp_path, capsys):
        rc = cli.main(["mgf", _four_state_file(tmp_path), "--theta", "5", "--n", "5"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["theta_in_range"] is False
        assert doc["bound"] is None
        assert doc["exact"] > 1.0

    def test_with_empirical(self, tmp_path, capsys):
        rc = cli.main([
            "mgf", _four_state_file(tmp_path), "--theta", "0.2", "--n", "10",
            "--replicas", "2000", "--seed", "4",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        emp = doc["empirical"]
        assert set(emp) == {field.name for field in dataclasses.fields(cb.SimReport)}
        assert emp["ci_low"] <= doc["exact"] <= emp["ci_high"]
        assert doc["exact"] <= doc["bound"] * (1 + 1e-9)

    def test_continuous_chain(self, tmp_path, capsys):
        path = _chain_file(
            tmp_path,
            {"labels": ["x", "y"], "Q": [[-1, 1], [2, -2]], "f": [1, -1]},
        )
        rc = cli.main(["mgf", path, "--theta", "0.3", "--t", "2.0"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["mode"] == "continuous"
        assert doc["exact"] <= doc["bound"] * (1 + 1e-9)

    def test_horizon_past_double_range_finishes(self, tmp_path, capsys):
        # the exact oracle replays whole periods at once, so n = 10^30 costs
        # what n = 10^3 does; the MGF itself is past double range
        path = _chain_file(tmp_path, {"labels": ["a", "b"], "P": [[0.9, 0.1], [0.2, 0.8]],
                                      "f": [1, -1]})
        start = time.perf_counter()
        rc = cli.main(["mgf", path, "--theta", "0.1", "--n", str(10**30)])
        assert time.perf_counter() - start < 5.0
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        # the MGF overflows to inf, which JSON has only as null
        assert doc["n"] == 10**30 and doc["exact"] is None

    def test_non_finite_floats_print_as_null(self, tmp_path, capsys):
        path = _chain_file(tmp_path, {"labels": ["a", "b"], "P": [[0.9, 0.1], [0.2, 0.8]],
                                      "f": [1, -1]})
        rc = cli.main(["mgf", path, "--theta", "0.1", "--n", str(10**30)])

        def refuse(token):
            raise ValueError(f"bare {token} is not JSON")

        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert rc == 0
        assert doc["exact"] is None and doc["bound"] is None
        assert doc["theta_in_range"] is True and doc["within_bound"] is True
        assert math.isfinite(doc["eta_p"]) and math.isfinite(doc["M"])

    def test_emit_json_nulls_only_non_finite_floats(self, capsys):
        obj = {"a": [1.5, math.inf, (-math.inf, 2)], "b": {"c": math.nan, "d": None},
               "e": np.float64(0.1), "f": np.float64(np.nan), "g": True, "h": "inf"}
        cli._emit_json(obj)
        assert json.loads(capsys.readouterr().out) == {
            "a": [1.5, None, [None, 2]], "b": {"c": None, "d": None},
            "e": 0.1, "f": None, "g": True, "h": "inf",
        }
        finite = {"x": [0.1, 1e-300, -2.5e17, 3], "y": {"z": np.float64(1 / 3)}}
        cli._emit_json(finite)
        assert capsys.readouterr().out == json.dumps(finite, indent=2) + "\n"

    @pytest.mark.parametrize("theta", ["nan", "inf"])
    @pytest.mark.parametrize("kind", ["chain", "jump"])
    def test_non_finite_theta_is_exit_two(self, tmp_path, capsys, theta, kind):
        if kind == "chain":
            path, horizon = _four_state_file(tmp_path), ["--n", "10"]
        else:
            doc = {"labels": ["x", "y"], "Q": [[-1, 1], [2, -2]], "f": [1, -1]}
            path, horizon = _chain_file(tmp_path, doc), ["--t", "2.0"]
        rc = cli.main(["mgf", path, "--theta", theta, *horizon])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        err = json.loads(captured.err.splitlines()[-1])
        assert err == {"error": "InvalidQuery",
                       "message": "theta must be a real number in [-max float, max float]"}

    def test_overflowing_empirical_mgf_is_heavy_tailed(self, tmp_path, capsys):
        # exp(theta S) overflows on most paths: the estimate is inf (null in
        # JSON), the report says heavy_tail, and numpy prints no warning
        path = _chain_file(tmp_path, {
            "labels": ["a", "b", "c"],
            "P": [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]],
            "f": [1000, 0, -1000],
        })
        rc = cli.main(["mgf", path, "--theta", "0.5", "--n", "50", "--replicas", "100"])
        captured = capsys.readouterr()
        assert rc == 0
        emp = json.loads(captured.out)["empirical"]
        assert emp["estimate"] is None and emp["heavy_tail"] is True
        assert [line.split(":")[0] for line in captured.err.splitlines()] == ["auto-centered f"]


# f of order 10^6, whose centred mean rounds to 1.7e-10, which a fixed
# centring tolerance of 1e-10 used to refuse
_LARGE_F = {"labels": ["a", "b", "c"],
            "P": [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]],
            "f": [1000000.3, -2000000.7, 3000000.1]}


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "50", "--delta-grid", "100000", "--replicas", "100", "--seed", "1"],
    ["mgf", "--n", "50", "--theta", "1e-9", "--replicas", "100"],
], ids=["verify", "mgf"])
def test_large_observable_answers(argv, tmp_path, capsys):
    rc = cli.main([argv[0], _chain_file(tmp_path, _LARGE_F), *argv[1:]])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert captured.out


class TestVerify:
    def test_large_p_start_norm_is_finite(self, tmp_path, capsys):
        # a start on the least likely state of a drift chain: its density
        # ratio to p = 200 would overflow unless scaled by the largest ratio
        n = 30
        rows = [[0.0] * n for _ in range(n)]
        for i in range(n):
            rows[i][min(i + 1, n - 1)] += 0.45
            rows[i][max(i - 1, 0)] += 0.55
        f = [-1 + 2 * i / (n - 1) for i in range(n)]
        path = _chain_file(tmp_path, {"labels": [str(i) for i in range(n)], "P": rows, "f": f})
        nu = ",".join(["0"] * (n - 1) + ["1"])
        rc = cli.main(["verify", path, "--n", "1000", "--delta-grid", "0.3", "--replicas", "100",
                       "--seed", "1", "--nu", nu, "--p", "200", "--output-format", "json"])
        (row,) = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert 1 <= row["bound_compared"]["probability_bound"] < math.inf

    def test_flip_chain_trivial(self, tmp_path, capsys):
        path = _chain_file(
            tmp_path, {"labels": ["a", "b"], "P": FLIP_ROWS, "f": [1, -1]}
        )
        rc = cli.main([
            "verify", path, "--n", "50", "--delta-grid", "0.5",
            "--replicas", "200", "--seed", "0",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().split("\n")
        assert lines[0] == cli.VERIFY_CSV_HEADER
        fields = lines[1].split(",")
        assert float(fields[1]) == 0.0  # even horizon: sums cancel exactly
        assert fields[5] == "true"
        assert "auto-centered f" in captured.err

    def test_reproducible_output(self, tmp_path, capsys):
        path = _four_state_file(tmp_path)
        args = [
            "verify", path, "--n", "100", "--delta-grid", "0.1,0.2",
            "--replicas", "400", "--seed", "21",
        ]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_continuous_verify(self, tmp_path, capsys):
        path = _chain_file(
            tmp_path,
            {"labels": ["x", "y"], "Q": [[-1, 1], [2, -2]], "f": [1, -1]},
        )
        rc = cli.main([
            "verify", path, "--t", "30", "--delta-grid", "0.5",
            "--replicas", "500", "--seed", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[1].split(",")[5] == "true"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("kind", ["discrete", "continuous"])
    def test_grid_equals_single_delta_runs(self, tmp_path, capsys, kind, fmt):
        if kind == "discrete":
            path, horizon = _four_state_file(tmp_path), ["--n", "60"]
        else:
            path = _chain_file(tmp_path, {
                "labels": ["x", "y", "z"],
                "Q": [[-2, 1, 1], [1, -1, 0], [2, 2, -4]],
                "f": [1, -1, 0.5],
            })
            horizon = ["--t", "5"]
        common = ["verify", path, *horizon, "--replicas", "300", "--seed", "17",
                  "--output-format", fmt]
        grid = ["0.05", "0.1", "0.3"]
        assert cli.main(common + ["--delta-grid", ",".join(grid)]) == 0
        whole = capsys.readouterr().out
        parts = []
        for delta in grid:
            assert cli.main(common + ["--delta-grid", delta]) == 0
            parts.append(capsys.readouterr().out)
        if fmt == "csv":
            lines = whole.splitlines()
            assert lines[0] == cli.VERIFY_CSV_HEADER
            assert lines[1:] == [part.splitlines()[1] for part in parts]
        else:
            assert json.loads(whole) == [json.loads(part)[0] for part in parts]

    @pytest.mark.parametrize("kind", ["discrete", "continuous"])
    def test_grid_simulates_once(self, tmp_path, capsys, monkeypatch, kind):
        sampler = "_dtmc_sums" if kind == "discrete" else "_ctmc_integrals"
        real, calls = getattr(simulate, sampler), []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(simulate, sampler, counted)
        if kind == "discrete":
            path, horizon = _four_state_file(tmp_path), ["--n", "30"]
        else:
            path, horizon = _chain_file(tmp_path, _JUMP_2), ["--t", "5"]
        rc = cli.main(["verify", path, *horizon, "--delta-grid", "0.05,0.1,0.3",
                       "--replicas", "50", "--seed", "3"])
        assert rc == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert len(calls) == 1

    def test_point_mass_nu(self, tmp_path, capsys):
        path = _four_state_file(tmp_path, nu=[1, 0, 0, 0])
        rc = cli.main([
            "verify", path, "--n", "80", "--delta-grid", "0.2",
            "--replicas", "300", "--seed", "5", "--p", "inf",
        ])
        assert rc == 0

    def test_violation_exits_one(self, tmp_path, capsys, monkeypatch):
        # force an inconsistent report to exercise the exit-1 contract
        def fake_tail(config, op, f, deltas, bounds=None):
            return [
                cb.SimReport(
                    kind="tail", estimate=0.9, ci_low=0.8, ci_high=0.95,
                    replicas_used=config.replicas, seed=config.seed,
                    bound_compared=bound, consistent=False,
                )
                for bound in bounds
            ]

        monkeypatch.setattr(cli, "empirical_tail", fake_tail)
        rc = cli.main([
            "verify", _four_state_file(tmp_path), "--n", "10",
            "--delta-grid", "0.9", "--replicas", "10", "--seed", "0",
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert out.splitlines()[1].split(",")[5] == "false"

    def test_constant_f_is_invalid_query(self, tmp_path, capsys):
        # f = (3, 3) once centred to a 4.4e-16 residue whose tail "violated" the bound
        path = _chain_file(tmp_path, {"labels": ["a", "b"],
                                      "P": [[0.547, 0.453], [0.7422, 0.2578]], "f": [3, 3]})
        rc = cli.main(["verify", path, "--n", "50", "--delta-grid", "1e-16,2e-16,3e-16,4e-16",
                       "--replicas", "2000", "--seed", "1"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "InvalidQuery" and "constant under mu" in err["message"]

    def test_unallocatable_replicas_exit_two(self, tmp_path, capsys):
        # 10^18 replicas need 8 EB for their results, more than any address
        # space holds: a usage error (exit 2), not a bound violation (exit 1)
        path = _chain_file(tmp_path, {"labels": ["a", "b"], "P": [[0.5, 0.5], [0.5, 0.5]],
                                      "f": [1, -1]})
        rc = cli.main(["verify", path, "--n", "10", "--delta-grid", "0.1",
                       "--replicas", str(10**18)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "MemoryError" and "allocate" in err["message"]

    def test_memory_error_subclass_reported_as_memory_error(self, capsys):
        class _ArrayMemoryError(MemoryError):
            pass

        assert cli._fail(_ArrayMemoryError("no room")) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "MemoryError",
                                                       "message": "no room"}

    def test_missing_f_is_schema_error(self, tmp_path, capsys):
        path = _chain_file(tmp_path, {"labels": ["a", "b"], "P": FLIP_ROWS})
        rc = cli.main(["verify", path, "--n", "10", "--delta-grid", "0.1"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"

    def test_flag_overrides_file_f_with_warning(self, tmp_path, capsys):
        path = _four_state_file(tmp_path)
        rc = cli.main([
            "verify", path, "--n", "20", "--delta-grid", "0.3",
            "--replicas", "100", "--seed", "0", "--f", "0.5,0,0,-0.5",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "overrides" in captured.err


class TestSweep:
    def test_exponent_doubles(self, capsys):
        rc = cli.main([
            "sweep", "--mode", "discrete", "--axis", "n", "--values", "1000,2000",
            "--delta", "0.1", "--M", "1", "--sigma2", "0.1", "--eta-p", "1",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "axis,value,exponent,bound,theta,c_theta,vacuous"
        e1 = float(lines[1].split(",")[2])
        e2 = float(lines[2].split(",")[2])
        assert e2 == pytest.approx(2 * e1, rel=1e-12)

    def test_json_format(self, capsys):
        rc = cli.main([
            "sweep", "--mode", "discrete", "--axis", "delta", "--values", "0.0,0.1",
            "--n", "10000", "--M", "1", "--sigma2", "0.1", "--eta-p", "1",
            "--output-format", "json",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc[0]["vacuous"] is True and doc[1]["vacuous"] is False

    def test_invalid_value_exit_two(self, capsys):
        rc = cli.main([
            "sweep", "--mode", "discrete", "--axis", "delta", "--values", "0.1,-1",
            "--n", "100", "--M", "1", "--sigma2", "0.1", "--eta-p", "1",
        ])
        assert rc == 2

    @pytest.mark.parametrize("axis,horizon", [
        ("n", ["--mode", "discrete"]),
        ("t", ["--mode", "continuous"]),
        ("eta_p", ["--mode", "discrete", "--n", "100"]),
    ])
    def test_missing_delta_exit_two(self, axis, horizon, capsys):
        rc = cli.main([
            "sweep", *horizon, "--axis", axis, "--values", "5,10",
            "--M", "1", "--sigma2", "0.5", "--eta-p", "0.3",
        ])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InvalidQuery" and "delta" in err["message"]


class TestImports:
    def test_light_commands_skip_scipy(self, tmp_path):
        # scipy and orjson are imported only inside the functions that use
        # them, so the CLI import loads neither, and gaps and bound load no
        # scipy module
        src = str(Path(cb.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        runs = {
            "gaps": ["gaps", _four_state_file(tmp_path)],
            "bound": ["bound", "--mode", "discrete", "--n", "100", "--delta", "0.1",
                      "--M", "1", "--sigma2", "0.5", "--eta-p", "0.3"],
        }
        seen_path = tmp_path / "seen.json"
        code = f"""
import json, sys
import chainbounds.cli as cli

def loaded(*packages):
    return sorted(m for m in sys.modules if m.split(".")[0] in packages)

seen = {{"import": loaded("scipy", "orjson")}}
for name, argv in {runs!r}.items():
    seen[name] = [cli.main(argv), loaded("scipy")]
open({str(seen_path)!r}, "w").write(json.dumps(seen))
"""
        done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        seen = json.loads(seen_path.read_text())
        assert seen == {"import": [], "gaps": [0, []], "bound": [0, []]}


class TestRadius:
    def test_skew_file(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(SKEW_ROWS))
        rc = cli.main(["radius", str(path)])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert set(doc) == {"real", "complex"}
        assert doc["real"] == 0.0
        assert doc["complex"] == pytest.approx(1.0, abs=1e-9)

    def test_wrapped_matrix_key(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"B": [[0, 1], [0, 0]]}))
        rc = cli.main(["radius", str(path)])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["complex"] == pytest.approx(0.5, abs=1e-9)

    def test_bad_document(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"A": [[0]]}))
        assert cli.main(["radius", str(path)]) == 2

    @pytest.mark.parametrize("doc", [
        [["1", "0"], ["0", "1"]],
        [[True, 0], [0, 1]],
        {"B": [[0, 1], [False, 0.5]]},
    ])
    def test_non_numbers_rejected(self, doc, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["radius", str(path)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "SchemaError", "message": "matrix document must contain only numbers"}


# `examples` stdout, byte for byte, with exit code 0 for each
GOLDEN_EXAMPLES = {
    "appendix-a": """\
4-state pair-hopping chain (irreducible, zero absolute gap):
  mu    = [0.25, 0.25, 0.25, 0.25]
  eta_p = 0.6180339887498949
  eta_s = 0.4999999999999999
  eta_a = 1.1102230246251565e-16
  pseudo gap (k <= 20) = 0.5 at k = 2
[PASS] uniform invariant law: max |mu - 1/4| <= 1e-12
[PASS] absolute gap vanishes: |eta_a| = 1.1102230246251565e-16
[PASS] symmetric gap positive: eta_s = 0.4999999999999999
[PASS] IP gap positive: eta_p = 0.6180339887498949
[PASS] gap ordering: eta_p >= eta_s >= eta_a
""",
    "skew-radius": """\
skew-symmetric 2x2 rotation generator:
  real radius:    w(A) = 0.0,  w(A^2) = 1.0
  complex radius: w(A) = 1.0,  w(A^2) = 1.0
[PASS] real radius of A is 0: w(A) = 0.0
[PASS] real radius of A^2 is 1: power inequality fails over the reals
[PASS] complex power inequality: w(A^2) = 1.0 <= w(A)^2 (1 + 1e-12)
""",
    "flip-chain": """\
deterministic 2-state alternator:
  eta_p = 2.0  (the universal cap)
  eta_s = 2.0
  eta_a = 0.0
  pseudo gap truncated at k = 20: 0.0
  note: the IP gap is maximal while every truncation of the
  pseudo gap is 0, so IP-gap bounds apply where pseudo-gap
  bounds are silent.
[PASS] IP gap attains the cap: eta_p = 2.0
[PASS] absolute gap vanishes: eta_a = 0.0
[PASS] truncated pseudo gap vanishes: value = 0.0
""",
}


class TestExamples:
    @pytest.mark.parametrize("name", ["appendix-a", "skew-radius", "flip-chain"])
    def test_builtins_pass(self, name, capsys):
        rc = cli.main(["examples", name])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out and "PASS" in out

    @pytest.mark.parametrize("name", sorted(GOLDEN_EXAMPLES))
    def test_output_matches_golden(self, name, capsys):
        rc = cli.main(["examples", name])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == GOLDEN_EXAMPLES[name]
        assert captured.err == ""

    def test_unknown_name_lists_known(self, capsys):
        rc = cli.main(["examples", "nope"])
        err = json.loads(capsys.readouterr().err)
        assert rc == 2
        assert "appendix-a" in err["known"]


class TestParsing:
    def test_no_subcommand_exit_two(self, capsys):
        assert cli.main([]) == 2

    def test_missing_file_exit_two(self, capsys):
        rc = cli.main(["gaps", "/nonexistent/chain.json"])
        assert rc == 2

    def test_malformed_value_list_exit_two(self, tmp_path, capsys):
        path = _four_state_file(tmp_path)
        rc = cli.main([
            "verify", path, "--n", "10", "--delta-grid", "0.1,oops",
            "--replicas", "10",
        ])
        assert rc == 2
        last_err_line = capsys.readouterr().err.strip().splitlines()[-1]
        assert json.loads(last_err_line)["error"] == "ValueError"
