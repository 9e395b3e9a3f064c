import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import toursid
from toursid import search
from toursid.cli import main
from toursid.core import format_tree_text, tree, format_digraph_text, digraph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_path_json(capsys):
    code, out, err = run_cli(capsys, "classify-path", ">>>>><><>", "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["verdict"] == "Neither"
    assert payload["counts"]["c_2p3"] == -11


def test_classify_path_text(capsys):
    code, out, _ = run_cli(capsys, "classify-path", "><")
    assert code == 0
    assert out == "><: LTS [wedges:C(P3)<0]\n"


def test_classify_cycle(capsys):
    code, out, _ = run_cli(capsys, "classify-cycle", ">>>>>", "--json")
    payload = json.loads(out)
    assert payload["verdict"] == "LTAS" and payload["flips"] == 0


def test_domain_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "classify-path", "><><><>")
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "PreconditionViolated"


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_verify_rejects_an_empty_scan(max_n, capsys):
    code, out, err = run_cli(capsys, "verify", "--mode", "tas", "--pattern", ">><<",
                             "--max-n", max_n, "--json")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "PreconditionViolated"


@pytest.mark.parametrize("argv", [
    ["verify", "--mode", "tas", "--pattern-file", "{tmp}/missing.dg"],
    ["hom", "--pattern-path", "><", "--host-file", "{tmp}/missing.txt"],
    ["hom", "--pattern-file", "{tmp}/missing.dg", "--host-file", "{tmp}/host.txt"],
], ids=["verify-pattern-file", "hom-host-file", "hom-pattern-file"])
def test_missing_file_is_a_structured_error(argv, tmp_path, capsys):
    (tmp_path / "host.txt").write_text("tournament n=3\n011\n001\n000\n")
    code, out, err = run_cli(capsys, *[a.replace("{tmp}", str(tmp_path)) for a in argv])
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "FileNotFoundError"
    assert "missing" in payload["message"]


@pytest.mark.parametrize("argv,text", [
    (["verify", "--mode", "tas", "--pattern-file", "{f}"], "digraph v=2\n0 1\n1 0\n"),
    (["orient-tree", "--file", "{f}"], "tree v=4\n0 1\n1 2\n"),
    (["hom", "--pattern-path", "><", "--host-file", "{f}"], "wtournament n=2\n1/2 2\n-1 1/2\n"),
    (["hom", "--pattern-path", "><", "--host-file", "{f}"], "tournament n=3\n011\n001\n"),
    (["hom", "--pattern-path", "><", "--host-file", "{f}"], "tournament n=3\n011\n00\n000\n"),
    (["hom", "--pattern-path", "><", "--host-file", "{f}"], "wtournament n=1\n1/0\n"),
    (["strong-tas", "--file", "{f}"], "digraph v=3\n0 x\n"),
    (["iso-pair", "--file", "{f}"], "tree v=three\n"),
    (["hom", "--pattern-path", "><", "--host-file", "{f}"], "matrix n=1\n0\n"),
    (["verify", "--mode", "tas", "--pattern-file", "{f}"], "digraph v=3\n0 1\n0 1\n"),
], ids=["digon", "tree-too-few-edges", "weighted-entry-2", "truncated-tournament",
        "short-tournament-row", "zero-denominator", "bad-token", "bad-size", "bad-header",
        "repeated-arc"])
def test_malformed_file_is_a_structured_error(argv, text, tmp_path, capsys):
    f = tmp_path / "input.txt"
    f.write_text(text)
    code, out, err = run_cli(capsys, *[a.replace("{f}", str(f)) for a in argv])
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "InvalidInput"


def test_non_utf8_file_is_a_structured_error(tmp_path, capsys):
    f = tmp_path / "host.txt"
    f.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, "hom", "--pattern-path", "><", "--host-file", str(f))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "InvalidInput"


@pytest.mark.parametrize("argv", [
    ["certificate", "PerturbedCyclic", "--delta", "abc"],
    ["certificate", "PerturbedCyclic", "--delta", "1/0"],
    ["sparse", "--parts", "1,x"],
    ["sparse", "--parts", "1"],
    ["fg", "--sample", "5", "0", "--seed", "1"],
    ["fg", "--sample", "0", "5", "--seed", "1"],
    ["localwalk", "--steps", "0"],
    ["lyapunov", "--mode", "fg", "--steps", "100", "--seed", "1", "--batches", "0"],
    ["lyapunov", "--mode", "recurrence", "--steps", "100", "--seed", "1"],
    ["lyapunov", "--mode", "recurrence", "--beta", "x", "--steps", "100", "--seed", "1"],
    ["lyapunov", "--mode", "recurrence", "--beta", "1/8", "--steps", "200", "--seed", "-5"],
    ["lyapunov", "--mode", "fg", "--steps", "200", "--seed", "-5"],
    ["lyapunov", "--mode", "fg", "--beta", "1e400", "--steps", "100", "--seed", "1"],
    ["lyapunov", "--mode", "fg", "--beta", "7/9", "--steps", "100", "--seed", "1"],
    ["fg", "--sample", "5", "3", "--seed", "-1"],
    ["strong-tas", "--file", "{f}", "--independent", "9"],
    ["strong-tas", "--file", "{f}", "--independent", "-1"],
    ["strong-tas", "--file", "{f}", "--independent", "x"],
    ["verify", "--mode", "tas", "--pattern", ">><<", "--budget", "-3", "--seed", "1"],
], ids=" ".join)
def test_bad_argument_value_is_a_structured_error(argv, tmp_path, capsys):
    f = tmp_path / "pattern.dg"
    f.write_text("digraph v=3\n0 1\n0 2\n")
    code, out, err = run_cli(capsys, *[a.replace("{f}", str(f)) for a in argv])
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    # verify reports its out-of-range sizes as it does --max-n 0
    expected = "PreconditionViolated" if argv[0] == "verify" else "InvalidInput"
    assert json.loads(err)["error"] == expected


def test_recurrence_beta_past_the_float_range_is_a_structured_error(capsys):
    code, out, err = run_cli(capsys, "lyapunov", "--mode", "recurrence", "--beta", "1e400",
                             "--steps", "100", "--seed", "1")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "DiscriminantNegative"


def test_recurrence_beta_just_past_a_quarter_is_a_structured_error(capsys):
    # 1/4 + 10^-16 converts to the float 1/4, so only the exact beta is out of range
    code, out, err = run_cli(capsys, "lyapunov", "--mode", "recurrence",
                             "--beta", "2500000000000001/10000000000000000",
                             "--steps", "10", "--seed", "1", "--batches", "1")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "DiscriminantNegative"


def test_verify_budget_past_the_cap_is_a_structured_error(capsys, monkeypatch):
    from toursid import search

    monkeypatch.setattr(search, "contract", lambda d, a: pytest.fail("contract ran"))
    code, out, err = run_cli(capsys, "verify", "--mode", "tas", "--pattern", ">><<",
                             "--budget", str(search.OPTIMIZER_BUDGET_CAP + 1), "--seed", "1")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "CapExceeded"


def test_verify_takes_a_negative_seed(capsys):
    # the optimizer seeds Python's random, which takes any integer
    code, out, err = run_cli(capsys, "verify", "--mode", "tas", "--pattern", "><",
                             "--max-n", "2", "--budget", "2", "--seed", "-3")
    assert (code, err) == (0, "")
    assert out.startswith("pattern >< mode TAS: ")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_counts(capsys):
    code, out, _ = run_cli(capsys, "counts", ">>>>><><>", "--json")
    payload = json.loads(out)
    assert (payload["c_p3"], payload["c_p5"], payload["c_2p3"]) == (0, 2, -11)


def test_verify_no_violation(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--mode", "tas", "--pattern", ">><<", "--max-n", "4", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["violation"] is None
    assert payload["samples"] == 75


def test_verify_finds_violation(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--mode", "tas", "--pattern", "><>>><", "--max-n", "3", "--json"
    )
    payload = json.loads(out)
    assert payload["violation"] is not None
    assert "/" in payload["violation"]["value"]


def test_verify_byte_determinism(capsys):
    args = ["verify", "--mode", "ts", "--pattern", "><", "--max-n", "3", "--json"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_expand_text(capsys):
    code, out, _ = run_cli(capsys, "expand", "><")
    assert out == "(1/4)*n^3*S2^0 + (-1/1)*n^0*S2^1\n"


def test_certify_sign(capsys):
    code, out, _ = run_cli(capsys, "certify-sign", ">><<", "--json")
    payload = json.loads(out)
    assert payload["verdict"] == "CertifiedTAS"
    assert payload["trace"]


def test_kernels(capsys):
    code, out, _ = run_cli(capsys, "kernels", "B1", "--json")
    payload = json.loads(out)
    assert payload["t_p5"] == "1/16"
    assert payload["t_2p3"] == "1/16"


def test_certificate_with_files(tmp_path, capsys):
    prefix = str(tmp_path / "cert")
    code, out, _ = run_cli(capsys, "certificate", "TransitiveTriangle", "--out", prefix)
    payload = json.loads(out)
    assert payload["direction"] == "ViolatesTAS"
    assert payload["value"] == "2307/64"
    assert (tmp_path / "cert.wt").exists()
    sidecar = json.loads((tmp_path / "cert.json").read_text())
    assert sidecar["threshold"] == "2187/64"


def test_hom_with_host_file(tmp_path, capsys):
    host = tmp_path / "host.txt"
    host.write_text("tournament n=3\n011\n001\n000\n")
    code, out, _ = run_cli(
        capsys, "hom", "--pattern-path", "><>>><", "--host-file", str(host), "--json"
    )
    payload = json.loads(out)
    assert payload["h"] == "2307/64"


def test_orient_tree(tmp_path, capsys):
    f = tmp_path / "tree.txt"
    f.write_text(format_tree_text(tree(3, [(0, 1), (1, 2)])))
    code, out, _ = run_cli(capsys, "orient-tree", "--file", str(f), "--json")
    payload = json.loads(out)
    assert payload["provenance"] == "CaterpillarRule"
    assert payload["arcs"] == [[0, 1], [1, 2]]


def test_iso_pair(tmp_path, capsys):
    f = tmp_path / "tree.txt"
    f.write_text(format_tree_text(tree(3, [(0, 1), (0, 2)])))
    code, out, _ = run_cli(capsys, "iso-pair", "--file", str(f))
    payload = json.loads(out)
    assert payload["found"] and payload["v"] == 0


def test_strong_tas(tmp_path, capsys):
    f = tmp_path / "d.txt"
    f.write_text(format_digraph_text(digraph(3, [(0, 1), (1, 2)])))
    code, out, _ = run_cli(
        capsys, "strong-tas", "--file", str(f), "--independent", "1", "--max-n", "3"
    )
    payload = json.loads(out)
    assert payload["passed"]


def test_strong_tas_needs_a_host_size(tmp_path, capsys):
    f = tmp_path / "p2.dg"
    f.write_text("digraph v=3\n0 1\n1 2\n")
    code, out, err = run_cli(capsys, "strong-tas", "--file", str(f), "--independent", "1",
                             "--max-n", "0")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "PreconditionViolated",
                               "message": "the strong TAS check needs n_max >= 1"}


def test_lyapunov_requires_seed(capsys):
    with pytest.raises(SystemExit):
        main(["lyapunov", "--mode", "recurrence", "--beta", "1/8", "--steps", "1000"])


def test_lyapunov_json_deterministic(capsys):
    args = [
        "lyapunov", "--mode", "recurrence", "--beta", "1/8",
        "--steps", "20000", "--seed", "1",
    ]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["beta"] == "1/8"


def test_lyapunov_csv(capsys):
    code, out, _ = run_cli(
        capsys, "lyapunov", "--mode", "recurrence", "--beta", "0",
        "--steps", "1000", "--seed", "2", "--batches", "4", "--csv",
    )
    lines = out.strip().splitlines()
    assert lines[0] == "batch,steps,lambda_hat"
    assert len(lines) == 5


def test_fg_single_orientation(capsys):
    code, out, _ = run_cli(capsys, "fg", "--orientation", ">>>>")
    payload = json.loads(out)
    assert payload["total"] == "5/8"


def test_fg_sample_requires_seed(capsys):
    code, out, err = run_cli(capsys, "fg", "--sample", "10", "100")
    assert code == 1
    assert json.loads(err)["error"] == "ToursidError"


def test_fg_exhaustive_sample_past_the_cap_is_a_structured_error(capsys):
    code, out, err = run_cli(capsys, "fg", "--sample", "17", "1", "--exhaustive")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "CapExceeded"


def test_fg_exhaustive(capsys):
    code, out, _ = run_cli(capsys, "fg", "--sample", "8", "256", "--exhaustive")
    payload = json.loads(out)
    assert payload["mean_total"] == "2/1"


def test_fg_sample_past_the_float_range_is_strict_json(capsys):
    # past 256 steps mean_total would overflow: it is null, never NaN
    code, out, _ = run_cli(capsys, "fg", "--sample", "257", "3", "--seed", "1")

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    assert code == 0 and json.loads(out, parse_constant=reject)["mean_total"] is None


def test_localwalk(capsys):
    code, out, _ = run_cli(capsys, "localwalk", "--steps", "4")
    payload = json.loads(out)
    assert payload["p_zero"] == "3/8"


@pytest.mark.parametrize("argv", [
    ["localwalk", "--steps", "15000"],
    ["fg", "--orientation", ">" * 15000],
], ids=["localwalk", "fg"])
def test_values_past_the_digit_limit_are_a_structured_error(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "CapExceeded"


def test_localwalk_just_under_the_digit_limit(capsys):
    code, out, err = run_cli(capsys, "localwalk", "--steps", "14000")
    assert (code, err) == (0, "")
    p_zero = Fraction(math.comb(14000, 7000), 2**14000)
    payload = json.loads(out)
    assert payload["steps"] == 14000
    assert Fraction(payload["p_zero"]) == p_zero
    assert Fraction(payload["p_pos"]) == Fraction(payload["p_neg"]) == (1 - p_zero) / 2


def test_sparse(capsys):
    code, out, _ = run_cli(capsys, "sparse", "--parts", "1,1,1,1,1,1,1,1,1")
    payload = json.loads(out)
    assert payload["violates"] is True
    assert payload["e"] == 36


DETERMINISM_SWEEP = [
    ["classify-path", ">>>>><><>", "--json"],
    ["classify-cycle", ">>>>>", "--json"],
    ["counts", ">><>><>", "--json"],
    ["expand", "><<<", "--json"],
    ["certify-sign", "><", "--json"],
    ["kernels", "MBalanced", "--json"],
    ["certificate", "PerturbedCyclic"],
    ["localwalk", "--steps", "6"],
    ["sparse", "--parts", "2,2,2"],
    ["fg", "--orientation", "><><"],
    ["fg", "--sample", "6", "64", "--exhaustive"],
    ["lyapunov", "--mode", "fg", "--steps", "5000", "--seed", "9"],
]


@pytest.mark.parametrize("argv", DETERMINISM_SWEEP, ids=lambda a: a[0])
def test_every_subcommand_is_byte_deterministic(argv, capsys):
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first[0] == 0
    assert first == second


GOLDEN = {
    ("classify-path", "><", "--json"): (
        '{"counts":{"c_2p3":0,"c_min_k":null,"c_p3":-1,"c_p5":0,"min_k":null},'
        '"e":2,"input":"><","rule":"wedges:C(P3)<0","v":3,"verdict":"LTS"}\n'
    ),
    ("localwalk", "--steps", "4"): (
        '{"p_neg":"5/16","p_pos":"5/16","p_zero":"3/8","steps":4}\n'
    ),
    ("expand", "><"): "(1/4)*n^3*S2^0 + (-1/1)*n^0*S2^1\n",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=lambda a: a[0])
def test_golden_outputs(argv, capsys):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == GOLDEN[argv]


def test_hom_float_backend(tmp_path, capsys):
    host = tmp_path / "host.txt"
    host.write_text("tournament n=3\n011\n001\n000\n")
    code, out, _ = run_cli(
        capsys, "hom", "--pattern-path", "><>>><", "--host-file", str(host),
        "--float", "--json",
    )
    payload = json.loads(out)
    assert isinstance(payload["h"], float)
    assert abs(payload["h"] - 36.046875) < 1e-9


def test_json_counts_are_python_ints_or_fraction_strings(tmp_path, capsys):
    # numbers from the int64 kernel must leave as Python ints or exact
    # "p/q" strings; a numpy scalar would not reach the JSON writer
    (tmp_path / "host.t").write_text("tournament n=3\n010\n001\n100\n")
    (tmp_path / "square.dg").write_text("digraph v=4\n0 1\n1 2\n2 3\n0 3\n")
    runs = [
        ["verify", "--mode", "tas", "--pattern", ">>><<", "--max-n", "5", "--json"],
        ["verify", "--mode", "tas", "--pattern", "><>>><", "--max-n", "4", "--json"],
        ["verify", "--mode", "ts", "--pattern-file", str(tmp_path / "square.dg"),
         "--max-n", "4", "--json"],
    ]
    for flags in ([], ["--no-loops"]):
        for pattern in (["--pattern-path", ">><"], ["--pattern-cycle", ">><"],
                        ["--pattern-file", str(tmp_path / "square.dg")]):
            runs.append(["hom", *pattern, "--host-file", str(tmp_path / "host.t"), *flags,
                         "--json"])
    fraction = re.compile(r"-?\d+/\d+")
    for argv in runs:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        payload = json.loads(out)
        numbers = [payload["n_checked"], payload["samples"]] if argv[0] == "verify" else []
        assert all(type(x) is int for x in numbers)
        exact = [payload.get("h"), payload.get("t")]
        if payload.get("violation"):
            exact = [payload["violation"]["threshold"], payload["violation"]["value"]]
        assert all(x is None or fraction.fullmatch(x) for x in exact)
    report = search.refute("><>>><", "TAS", n_max=4)
    value = report.violation.value
    assert type(report.samples) is int and type(report.n_checked) is int
    assert type(value.numerator) is int and type(value.denominator) is int


def test_verify_writes_certificate_files(tmp_path, capsys):
    prefix = str(tmp_path / "viol")
    code, out, _ = run_cli(
        capsys, "verify", "--mode", "tas", "--pattern", "><>>><",
        "--max-n", "3", "--json", "--out", prefix,
    )
    assert code == 0
    assert (tmp_path / "viol.wt").exists()
    sidecar = json.loads((tmp_path / "viol.json").read_text())
    assert sidecar["direction"] == "ViolatesTAS"


# Exact stdout recorded before the evaluators were merged into one kernel;
# any change to an exhaustive scan or an exact count shows up here.
GOLDEN_FILES = {
    "square.dg": "digraph v=4\n0 1\n1 2\n2 3\n0 3\n",
    "cycle5.dg": "digraph v=5\n0 1\n1 2\n2 3\n3 4\n4 0\n",
    "tree6.dg": "digraph v=6\n0 1\n2 1\n1 3\n3 4\n5 3\n",
    "host.wt": "wtournament n=3\n1/2 99/100 0\n1/100 1/2 1\n1 0 1/2\n",
    "host.t": "tournament n=3\n011\n001\n000\n",
    "cyclic.t": "tournament n=3\n010\n001\n100\n",
    "tree.txt": "tree v=3\n0 1\n1 2\n",
    "spider.txt": "tree v=7\n0 1\n1 2\n0 3\n3 4\n0 5\n5 6\n",
    "legs.txt": "tree v=10\n0 1\n1 2\n0 3\n3 4\n4 5\n0 6\n6 7\n7 8\n8 9\n",
    "digraph.txt": "digraph v=4\n0 1\n2 1\n3 0\n",
    "anchored.dg": "digraph v=3\n0 1\n2 1\n",
    "arc.dg": "digraph v=2\n0 1\n",
    "out-star.dg": "digraph v=3\n0 1\n0 2\n",
    # cycle_digraph("<<<<<<<><><>")
    "c12.dg": "digraph v=12\n1 0\n2 1\n3 2\n4 3\n5 4\n6 5\n7 6\n7 8\n9 8\n9 10\n11 0\n11 10\n",
}

GOLDEN_SCANS = [
    (["verify", "--mode", "tas", "--pattern", ">><<", "--max-n", "4", "--json"],
     '{"mode":"TAS","n_checked":4,"pattern":">><<","samples":75,'
     '"violation":null}\n'),
    (["verify", "--mode", "tas", "--pattern", "><>>><", "--max-n", "3"],
     'pattern ><>>>< mode TAS: violation found\n{"direction": "ViolatesTAS", '
     '"pattern": "><>>><", "threshold": "2/1", "value": "71/32"}\n'),
    (["verify", "--mode", "tas", "--pattern-file", "square.dg", "--max-n", "4", "--json"],
     '{"mode":"TAS","n_checked":4,"pattern":"digraph(v=4,e=4)",'
     '"samples":75,"violation":null}\n'),
    (["verify", "--mode", "ts", "--pattern-file", "square.dg", "--max-n", "4", "--json"],
     '{"mode":"TS","n_checked":2,"pattern":"digraph(v=4,e=4)",'
     '"samples":3,"violation":{"direction":"ViolatesTS","pattern":null,'
     '"threshold":"1/1","value":"7/8"}}\n'),
    (["verify", "--mode", "tas", "--pattern-file", "cycle5.dg", "--max-n", "4", "--json"],
     '{"mode":"TAS","n_checked":4,"pattern":"digraph(v=5,e=5)",'
     '"samples":75,"violation":null}\n'),
    (["verify", "--mode", "ts", "--pattern-file", "cycle5.dg", "--max-n", "4", "--json"],
     '{"mode":"TS","n_checked":2,"pattern":"digraph(v=5,e=5)",'
     '"samples":3,"violation":{"direction":"ViolatesTS","pattern":null,'
     '"threshold":"1/1","value":"1/16"}}\n'),
    (["verify", "--mode", "tas", "--pattern-file", "tree6.dg", "--max-n", "4", "--json"],
     '{"mode":"TAS","n_checked":4,"pattern":"digraph(v=6,e=5)",'
     '"samples":75,"violation":null}\n'),
    (["verify", "--mode", "ts", "--pattern-file", "tree6.dg", "--max-n", "4", "--json"],
     '{"mode":"TS","n_checked":2,"pattern":"digraph(v=6,e=5)",'
     '"samples":3,"violation":{"direction":"ViolatesTS","pattern":null,'
     '"threshold":"2/1","value":"9/8"}}\n'),
    # n = 5 and 6, recorded while every exact step still ran as an einsum:
    # the TAS scans reach the stacks on which the two-matrix steps run as
    # matmul; the TS scans stop at their violation at n = 2
    (["verify", "--mode", "tas", "--pattern-file", "square.dg", "--max-n", "5", "--json"],
     '{"mode":"TAS","n_checked":5,"pattern":"digraph(v=4,e=4)",'
     '"samples":1099,"violation":null}\n'),
    (["verify", "--mode", "tas", "--pattern-file", "square.dg", "--max-n", "6", "--json"],
     '{"mode":"TAS","n_checked":6,"pattern":"digraph(v=4,e=4)",'
     '"samples":33867,"violation":null}\n'),
    (["verify", "--mode", "ts", "--pattern-file", "square.dg", "--max-n", "5", "--json"],
     '{"mode":"TS","n_checked":2,"pattern":"digraph(v=4,e=4)",'
     '"samples":3,"violation":{"direction":"ViolatesTS","pattern":null,'
     '"threshold":"1/1","value":"7/8"}}\n'),
    (["verify", "--mode", "ts", "--pattern-file", "square.dg", "--max-n", "6", "--json"],
     '{"mode":"TS","n_checked":2,"pattern":"digraph(v=4,e=4)",'
     '"samples":3,"violation":{"direction":"ViolatesTS","pattern":null,'
     '"threshold":"1/1","value":"7/8"}}\n'),
    (["verify", "--mode", "tas", "--pattern-file", "cycle5.dg", "--max-n", "5", "--json"],
     '{"mode":"TAS","n_checked":5,"pattern":"digraph(v=5,e=5)",'
     '"samples":1099,"violation":null}\n'),
    (["verify", "--mode", "tas", "--pattern-file", "cycle5.dg", "--max-n", "6", "--json"],
     '{"mode":"TAS","n_checked":6,"pattern":"digraph(v=5,e=5)",'
     '"samples":33867,"violation":null}\n'),
    (["verify", "--mode", "ts", "--pattern-file", "cycle5.dg", "--max-n", "5", "--json"],
     '{"mode":"TS","n_checked":2,"pattern":"digraph(v=5,e=5)",'
     '"samples":3,"violation":{"direction":"ViolatesTS","pattern":null,'
     '"threshold":"1/1","value":"1/16"}}\n'),
    (["verify", "--mode", "ts", "--pattern-file", "cycle5.dg", "--max-n", "6", "--json"],
     '{"mode":"TS","n_checked":2,"pattern":"digraph(v=5,e=5)",'
     '"samples":3,"violation":{"direction":"ViolatesTS","pattern":null,'
     '"threshold":"1/1","value":"1/16"}}\n'),
    (["hom", "--pattern-cycle", ">><", "--host-file", "host.wt", "--json"],
     '{"h":"33751/10000","pattern":"cycle >><","t":"33751/270000"}\n'),
    (["hom", "--pattern-cycle", ">>>>>", "--host-file", "host.wt"],
     "h = 151859901/20000000\nt = 50619967/1620000000\n"),
    (["hom", "--pattern-file", "square.dg", "--host-file", "host.wt", "--json"],
     '{"h":"198350199/50000000","pattern":"digraph v=4","t":"22038911/450000000"}\n'),
    (["hom", "--pattern-file", "tree6.dg", "--host-file", "host.wt", "--json"],
     '{"h":"284748713/12500000","pattern":"digraph v=6","t":"284748713/9112500000"}\n'),
    (["hom", "--pattern-file", "cycle5.dg", "--host-file", "host.wt", "--json"],
     '{"h":"151859901/20000000","pattern":"digraph v=5","t":"50619967/1620000000"}\n'),
    # 6^12 maps each: the frontier sum rechecks the 11-edge path and the
    # 12-cycle in at most 12 * 6^3 steps
    (["verify", "--mode", "tas", "--pattern", "<<<<<><<><>", "--max-n", "6", "--json"],
     '{"mode":"TAS","n_checked":6,"pattern":"<<<<<><<><>","samples":33867,'
     '"violation":{"direction":"ViolatesTAS","pattern":"<<<<<><<><>",'
     '"threshold":"1062882/1","value":"272438103/256"}}\n'),
    (["verify", "--mode", "tas", "--pattern-file", "c12.dg", "--max-n", "6", "--json"],
     '{"mode":"TAS","n_checked":6,"pattern":"digraph(v=12,e=12)","samples":33867,'
     '"violation":{"direction":"ViolatesTAS","pattern":null,'
     '"threshold":"531441/1","value":"1100808645/2048"}}\n'),
]


# Every README example and the file-reading, tree, anchored-check and
# cycle-rule paths of the CLI, recorded before the duplicated chain, walk,
# reader and f/g loops were written once.  The README's stochastic examples
# run 10^7, 10^6 and 10^5 steps; here they run 10^5, 2*10^4 and 300 (still
# past the 256-step cut where fg --sample stops reporting mean_total).
GOLDEN_COMMANDS = [
    (["classify-path", ">>>>><><>", "--json"],
     '{"counts":{"c_2p3":-11,"c_min_k":2,"c_p3":0,"c_p5":2,"min_k":4},"e":9,"i'
     'nput":">>>>><><>","rule":"P5-2P3:case(iii)","v":10,"verdict":"Neither"}\n'),
    (["classify-cycle", ">>>>>", "--json"],
     '{"counts":{"c_2p3":0,"c_min_k":null,"c_p3":5,"c_p5":5,"min_k":null},"e":'
     '5,"flips":0,"input":">>>>>","rule":"wedges-cycle:case(ii)","v":5,"verdic'
     't":"LTAS"}\n'),
    (["counts", ">><>><>", "--json"],
     '{"c_2p3":2,"c_min_k":2,"c_p3":-2,"c_p5":-2,"input":">><>><>","kind":"pat'
     'h","min_k":3}\n'),
    (["counts", ">><>><>", "--cycle"],
     'C(P3)=-1 C(P5)=-5 C(2P3)=3 min_k=3 C(P_2k+1)=3\n'),
    (["expand", "><<<"],
     '(1/16)*n^5*S2^0*S4^0 + (1/4)*n^2*S2^1*S4^0 + (-1/1)*n^0*S2^0*S4^1\n'),
    # the JSON form of the line above, recorded before one emitter served both
    (["expand", "><<<", "--json"],
     '{"e":4,"orientation":"><<<","terms":[{"coeff":"-1/1","n_power":0,"s_indices":[4]},'
     '{"coeff":"1/4","n_power":2,"s_indices":[2]},{"coeff":"1/16","n_power":5,"s_indices":[]}],'
     '"v":5}\n'),
    (["certify-sign", ">><<", "--json"],
     '{"orientation":">><<","trace":["bound (1)*n^0*X4 by (1/4)*n^2*X2 and can'
     'cel","all positive monomials absorbed; residual <= 0"],"verdict":"Certif'
     'iedTAS"}\n'),
    (["certify-sign", "><>>><"],
     'Unknown\n'
     '  no greedy certificate in either direction\n'),
    # one coefficient split over two partners
    (["certify-sign", ">>><<>><>>", "--json"],
     '{"orientation":">>><<>><>>","trace":["bound (1)*n^0*X10 by (1/4)*n^2*X8 '
     'and cancel","bound (1/4)*n^1*X2*X6 by (1/16)*n^4*X6 and cancel","bound ('
     '1/4)*n^1*X2*X6 by (1/64)*n^5*X2*X2 and cancel","bound (1/4)*n^1*X4*X4 by'
     ' (1/4)*n^2*X8 and cancel","bound (1/64)*n^6*X4 by (1/256)*n^8*X2 and can'
     'cel","all positive monomials absorbed; residual <= 0"],"verdict":"Certif'
     'iedTAS"}\n'),
    (["kernels", "MBalanced", "--json"],
     '{"n":3,"name":"MBalanced","rows":[["0/1","1/1","-1/1"],["-1/1","0/1","1/'
     '1"],["1/1","-1/1","0/1"]],"t_2p3":"0/1","t_p3":"0/1","t_p5":"0/1"}\n'),
    (["kernels", "B1"],
     'B1: n=2\n'
     '0/1 1/1\n'
     '-1/1 0/1\n'
     't_P3=-1/4 t_P5=1/16 t_2P3=1/16\n'),
    # the one named kernel with nonzero t_P3 and t_P5
    (["kernels", "BPrime", "--json"],
     '{"n":3,"name":"BPrime","rows":[["0/1","1/1","-1/1"],["-1/1","0/1","0/1"],["1/1","0/1",'
     '"0/1"]],"t_2p3":"4/729","t_p3":"-2/27","t_p5":"4/243"}\n'),
    (["kernels", "BPrime"],
     'BPrime: n=3\n'
     '0/1 1/1 -1/1\n'
     '-1/1 0/1 0/1\n'
     '1/1 0/1 0/1\n'
     't_P3=-2/27 t_P5=4/243 t_2P3=4/729\n'),
    (["verify", "--mode", "tas", "--pattern", ">><<", "--max-n", "5", "--json"],
     '{"mode":"TAS","n_checked":5,"pattern":">><<","samples'
     '":1099,"violation":null}\n'),
    (["verify", "--mode", "ts", "--pattern", "><>>><", "--max-n", "3", "--budget", "2",
      "--seed", "1", "--json"],
     '{"mode":"TS","n_checked":3,"pattern":"><>>><","sample'
     's":16,"violation":{"direction":"ViolatesTS","pattern":"><>>><","threshol'
     'd":"2187/64","value":"56742746491475924378841795/16605514241291028746650'
     '24"}}\n'),
    (["verify", "--mode", "ts", "--pattern-file", "tree6.dg", "--max-n", "1", "--budget", "1",
      "--seed", "2", "--json"],
     '{"mode":"TS","n_checked":1,"pattern":"digraph(v=6,e=5'
     ')","samples":4,"violation":{"direction":"ViolatesTS","pattern":null,"thr'
     'eshold":"2/1","value":"9/8"}}\n'),
    (["orient-tree", "--file", "tree.txt", "--json"],
     '{"arcs":[[0,1],[1,2]],"provenance":"CaterpillarRule"}\n'),
    (["orient-tree", "--file", "spider.txt", "--json"],
     '{"arcs":[[0,3],[0,5],[1,0],[1,2],[3,4],[5,6]],"provenance":"IsoPairRecur'
     'sion"}\n'),
    (["orient-tree", "--file", "spider.txt"],
     'digraph v=7\n'
     '0 3\n'
     '0 5\n'
     '1 0\n'
     '1 2\n'
     '3 4\n'
     '5 6\n'
     'provenance: IsoPairRecursion\n'),
    (["orient-tree", "--file", "legs.txt"],
     '{"arcs":null,"provenance":"Unknown"}\n'),
    (["iso-pair", "--file", "tree.txt"],
     '{"found":true,"h1":[0],"h2":[2],"phi":[[0,2]],"v":1,"w":0}\n'),
    (["iso-pair", "--file", "spider.txt"],
     '{"found":true,"h1":[1,2],"h2":[3,4],"phi":[[1,3],[2,4]],"v":0,"w":1}\n'),
    (["iso-pair", "--file", "legs.txt"],
     '{"found":false}\n'),
    (["strong-tas", "--file", "digraph.txt", "--independent", "1", "--max-n", "4"],
     '{"checked":285,"passed":true}\n'),
    (["strong-tas", "--file", "anchored.dg", "--independent", "0,2", "--max-n", "3"],
     '{"checked":8,"counterexample":{"adj":[[0,0,0],[1,0,0],[1,1,0]],"bound":"'
     '3/4","count":1,"embedding":[[0,1],[2,2]],"n":3},"passed":false}\n'),
    (["strong-tas", "--file", "arc.dg", "--independent", "0", "--max-n", "5"],
     '{"checked":8,"counterexample":{"adj":[[0,0,0],[1,0,0],[1,1,0]],"bound":"'
     '3/2","count":2,"embedding":[[0,2]],"n":3},"passed":false}\n'),
    (["strong-tas", "--file", "out-star.dg", "--independent", "1,2", "--max-n", "5"],
     '{"checked":5,"counterexample":{"adj":[[0,0,0],[1,0,0],[1,1,0]],"bound":"'
     '3/4","count":1,"embedding":[[1,0],[2,1]],"n":3},"passed":false}\n'),
    (["lyapunov", "--mode", "recurrence", "--beta", "1/8", "--steps", "100000", "--seed", "1"],
     '{"beta":"1/8","ci95_high":-0.007528876343776887,"ci95_low":-0.0092155221'
     '2450917,"lambda_hat":-0.008372199234143028,"mode":"recurrence","seed":1,'
     '"steps":100000}\n'),
    # beta = 0: every zero is +0.0, batch means and both CI ends alike
    (["lyapunov", "--mode", "recurrence", "--beta", "0", "--steps", "1000", "--seed", "2"],
     '{"beta":"0/1","ci95_high":0.0,"ci95_low":0.0,"lambda_hat":0.0,"mode":"recurrence",'
     '"seed":2,"steps":1000}\n'),
    (["lyapunov", "--mode", "recurrence", "--beta", "0", "--steps", "1000", "--seed", "2",
      "--batches", "4", "--csv"],
     'batch,steps,lambda_hat\n0,250,0.0\n1,250,0.0\n2,250,0.0\n3,250,0.0\n'),
    (["lyapunov", "--mode", "fg", "--steps", "20000", "--seed", "2", "--csv"],
     'batch,steps,lambda_hat\n'
     '0,200,-0.04583949451528211\n'
     '1,200,-0.06551171780906158\n'
     '2,200,0.003395552540843454\n'
     '3,200,-0.0861061851508206\n'
     '4,200,-0.03811063437153105\n'
     '5,200,-0.03920342152919336\n'
     '6,200,-0.07313665975760227\n'
     '7,200,-0.03905473581207836\n'
     '8,200,-0.03124139420909117\n'
     '9,200,-0.017246304247309753\n'
     '10,200,-0.052760125101141496\n'
     '11,200,-0.03713987579051839\n'
     '12,200,-0.023961709867564806\n'
     '13,200,-0.09211207866399881\n'
     '14,200,-0.0777521048992508\n'
     '15,200,0.00018707159716953469\n'
     '16,200,-0.022935427375989973\n'
     '17,200,-0.07251582949685358\n'
     '18,200,-0.03406981012456242\n'
     '19,200,-0.027742632324987967\n'
     '20,200,-0.0610598962271385\n'
     '21,200,-0.027922723327869648\n'
     '22,200,-0.03692891375084059\n'
     '23,200,-0.029647644637993836\n'
     '24,200,-0.022225548856297905\n'
     '25,200,-0.03026368948452344\n'
     '26,200,-0.04633011531150473\n'
     '27,200,-0.08877699891934455\n'
     '28,200,-0.043798103980886224\n'
     '29,200,-0.040079675823297405\n'
     '30,200,-0.07960123146092911\n'
     '31,200,-0.02787382084192444\n'
     '32,200,-0.02528486392562911\n'
     '33,200,-0.06565065707178291\n'
     '34,200,-0.04100061230025659\n'
     '35,200,-0.004332649475488779\n'
     '36,200,-0.03289324239747742\n'
     '37,200,-0.006604729369701943\n'
     '38,200,-0.06727002475334189\n'
     '39,200,-0.011620377807581121\n'
     '40,200,-0.06999682071227512\n'
     '41,200,-0.04008625064819256\n'
     '42,200,-0.008084458312023344\n'
     '43,200,-0.08206448229747167\n'
     '44,200,-0.05329721275051895\n'
     '45,200,-0.07767978796762862\n'
     '46,200,-0.03471271139137002\n'
     '47,200,-0.05705873626467195\n'
     '48,200,-0.03287044132256597\n'
     '49,200,-0.006471465054856935\n'
     '50,200,-0.04976051807606154\n'
     '51,200,-0.10528994969911168\n'
     '52,200,-0.04287973527888909\n'
     '53,200,-0.038778801811028246\n'
     '54,200,0.010553679232877186\n'
     '55,200,-0.05202899061712344\n'
     '56,200,-0.037593796695247476\n'
     '57,200,-0.05491955786878321\n'
     '58,200,-0.06924848652503983\n'
     '59,200,-0.023255882145609804\n'
     '60,200,-0.0398723902635777\n'
     '61,200,-0.027502897881300895\n'
     '62,200,-0.00592802244900497\n'
     '63,200,-0.005873218478105855\n'
     '64,200,-0.12751605956313428\n'
     '65,200,0.004129571486611212\n'
     '66,200,-0.03974817686223389\n'
     '67,200,-0.05223854332838243\n'
     '68,200,0.01649831056860933\n'
     '69,200,-0.0857935759713297\n'
     '70,200,-0.06311469457735995\n'
     '71,200,-0.006538220258713636\n'
     '72,200,-0.07848138154385595\n'
     '73,200,0.030705330392667634\n'
     '74,200,-0.06365672681571993\n'
     '75,200,0.005169482453140972\n'
     '76,200,-0.0061194384822397295\n'
     '77,200,-0.07623996401886643\n'
     '78,200,-0.060452991810849996\n'
     '79,200,-0.05616403326717261\n'
     '80,200,-0.04239884204262125\n'
     '81,200,-0.07495983092933897\n'
     '82,200,-0.04207327123479729\n'
     '83,200,-0.0717738961692413\n'
     '84,200,-0.06808915794309656\n'
     '85,200,-0.026961744494882395\n'
     '86,200,-0.01227275001721523\n'
     '87,200,-0.011948724684298213\n'
     '88,200,-0.016701895437381608\n'
     '89,200,-0.05723431244275105\n'
     '90,200,-0.04297495525701152\n'
     '91,200,-0.06888940801614638\n'
     '92,200,-0.08082489736368245\n'
     '93,200,-0.041472271836227606\n'
     '94,200,0.0008698548686464847\n'
     '95,200,-0.028783232915222924\n'
     '96,200,-0.04777479471299273\n'
     '97,200,-0.004166290413280649\n'
     '98,200,-0.100048651379214\n'
     '99,200,-0.07526697721364087\n'),
    (["fg", "--orientation", "><><"],
     '{"f":"41/16","g":"17/16","orientation":"><><","steps":4,"total":"29/8"}\n'),
    (["fg", "--sample", "300", "400", "--seed", "3"],
     '{"exhaustive":false,"frac_at_least":0.0175,"mean_log_ratio":-0.043722731'
     '43260374,"mean_total":null,"median_log_ratio":-0.043079713676770874,"n":'
     '300,"trials":400}\n'),
    (["fg", "--sample", "10", "1024", "--exhaustive"],
     '{"exhaustive":true,"frac_at_least":0.39453125,"mean_log_ratio":-0.037066'
     '11671728768,"mean_total":"2/1","median_log_ratio":-0.026070548475357884,'
     '"n":10,"trials":1024}\n'),
    (["sparse", "--parts", "1,1,1,1,1,1,1,1,1"],
     '{"e":36,"edges":[[0,1],[0,2],[0,3],[0,4],[0,5],[0,6],[0,7],[0,8],[1,2],['
     '1,3],[1,4],[1,5],[1,6],[1,7],[1,8],[2,3],[2,4],[2,5],[2,6],[2,7],[2,8],['
     '3,4],[3,5],[3,6],[3,7],[3,8],[4,5],[4,6],[4,7],[4,8],[5,6],[5,7],[5,8],['
     '6,7],[6,8],[7,8]],"k":9,"m":9,"parts":[[0],[1],[2],[3],[4],[5],[6],[7],['
     '8]],"violates":true}\n'),
    (["hom", "--pattern-path", "><>>><", "--host-file", "host.t", "--json"],
     '{"h":"2307/64","pattern":"path ><>>><","t":"769/46656"}\n'),
    (["hom", "--pattern-path", "><>>><", "--host-file", "host.t", "--no-loops"],
     'h = 0/1\n'
     't = 0/1\n'),
    (["hom", "--pattern-path", "><>>><", "--host-file", "host.t", "--float", "--json"],
     '{"h":36.046875,"pattern":"path ><>>><","t":0.016482338820301784}\n'),
    (["hom", "--pattern-path", ">><<>", "--host-file", "host.wt", "--json"],
     '{"h":"569542351/25000000","pattern":"path >><<>","t":"569542351/18225000'
     '000"}\n'),
    (["hom", "--pattern-path", ">><<>", "--host-file", "host.wt", "--float"],
     'h = 22.781694039999998\n'
     't = 0.031250609108367626\n'),
    # Loop-free unweighted hosts.  These were added later: --float used to
    # be ignored here (printing "h = 3/1"), and the digraph and cycle counts
    # came back as numpy integers, printed as "h = 3" / "t = 0.111..." and
    # rejected by the JSON writer.
    (["hom", "--pattern-path", ">>", "--host-file", "cyclic.t", "--no-loops", "--float"],
     'h = 3.0\n'
     't = 0.1111111111111111\n'),
    (["hom", "--pattern-cycle", ">>>", "--host-file", "cyclic.t", "--no-loops"],
     'h = 3/1\n'
     't = 1/9\n'),
    (["hom", "--pattern-file", "tree6.dg", "--host-file", "cyclic.t", "--no-loops", "--json"],
     '{"h":"3/1","pattern":"digraph v=6","t":"1/243"}\n'),
    (["classify-cycle", ">><", "--json"],
     '{"counts":{"c_2p3":0,"c_min_k":null,"c_p3":-1,"c_p5":0,"min_k":null},"e"'
     ':3,"flips":1,"input":">><","rule":"wedges-cycle:case(i)","v":3,"verdict"'
     ':"LTS"}\n'),
    (["classify-cycle", ">>>>><"],
     'cycle >>>>>< (flips=1): Neither [wedges-cycle:cycle-parity]\n'),
    (["classify-cycle", ">>>>><><", "--best-effort"],
     'cycle >>>>><>< (flips=2): Neither [2P3-cycle:cycle-parity]\n'),
    (["classify-cycle", ">>>><>><", "--best-effort"],
     'cycle >>>><>>< (flips=2): Neither [P5-2P3-cycle:cycle-parity]\n'),
    (["classify-cycle", ">>>><><<", "--best-effort"],
     'cycle >>>><><< (flips=3): LTAS [2P3-cycle:case(ii)]\n'),
    (["classify-cycle", ">><<>><<", "--best-effort"],
     'cycle >><<>><< (flips=4): LTS [P5-2P3-cycle:case(i)]\n'),
    (["classify-cycle", ">>>>>>><><><", "--best-effort", "--json"],
     '{"counts":{"c_2p3":-18,"c_min_k":-4,"c_p3":0,"c_p5":4,"min_k":4},"e":12,'
     '"flips":3,"input":">>>>>>><><><","rule":"P5-2P3-cycle:case(iii)","v":12,'
     '"verdict":"Neither"}\n'),
    (["classify-cycle", ">>>>>><><<><", "--best-effort"],
     'cycle >>>>>><><<>< (flips=4): Neither [2P3-cycle:case(iii)]\n'),
    (["classify-cycle", ">>>>><>>><><", "--best-effort"],
     'cycle >>>>><>>><>< (flips=3): LTAS [P5-2P3-cycle:case(ii)]\n'),
    (["classify-cycle", ">>><", "--best-effort"],
     'cycle >>>< (flips=1): Unknown [unknown:all-zero]\n'),
]


@pytest.mark.parametrize("argv,expected", GOLDEN_SCANS + GOLDEN_COMMANDS, ids=lambda a: " ".join(a)
                         if isinstance(a, list) else None)
def test_golden_scans_and_counts(argv, expected, tmp_path, capsys):
    for name, text in GOLDEN_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in GOLDEN_FILES else a for a in argv]
    assert run_cli(capsys, *argv) == (0, expected, "")


# Runs every case of argv lists read as JSON from stdin through main in one
# process and prints [exit code, stdout, stderr] for each as JSON.
_RUN_ARGV_LISTS = """
import contextlib, io, json, sys
from toursid.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_golden_corpus_is_unchanged_under_python_O(tmp_path):
    # -O strips every assert, so an assert with a side effect changes a byte
    for name, text in GOLDEN_FILES.items():
        (tmp_path / name).write_text(text)
    cases = [(list(argv), out) for argv, out in sorted(GOLDEN.items())]
    cases += [([str(tmp_path / a) if a in GOLDEN_FILES else a for a in argv], out)
              for argv, out in GOLDEN_SCANS + GOLDEN_COMMANDS]
    src = os.path.dirname(os.path.dirname(os.path.abspath(toursid.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", _RUN_ARGV_LISTS],
                          input=json.dumps([argv for argv, _ in cases]),
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, check=True)
    assert json.loads(proc.stdout) == [[0, out, ""] for _, out in cases]


@pytest.mark.parametrize("argv,expected", [
    (["certificate", "TransitiveTriangle"],
     '{"direction":"ViolatesTAS","pattern":"><>>><","threshold":"2187/64","value":"2307/64"}\n'),
    (["certificate", "PerturbedCyclic", "--delta", "1/50"],
     '{"direction":"ViolatesTS","pattern":"><>>><","threshold":"2187/64",'
     '"value":"533930539573/15625000000"}\n'),
    (["certificate", "PerturbedCyclic", "--delta", "0"],
     '{"direction":null,"pattern":"><>>><","threshold":"2187/64","value":"2187/64"}\n'),
    (["certificate", "PerturbedCyclic", "--delta", "1/2"],
     '{"direction":"ViolatesTAS","pattern":"><>>><","threshold":"2187/64","value":"2245/64"}\n'),
], ids=lambda a: a[1] if isinstance(a, list) else None)
def test_golden_certificate_files(argv, expected, tmp_path, capsys):
    prefix = str(tmp_path / "cert")
    assert run_cli(capsys, *argv, "--out", prefix) == (0, expected, "")
    assert (tmp_path / "cert.json").read_text() == expected
    hosts = {
        "TransitiveTriangle": "wtournament n=3\n1/2 1/1 1/1\n0/1 1/2 1/1\n0/1 0/1 1/2\n",
        "PerturbedCyclic --delta 1/50": "wtournament n=3\n1/2 49/50 0/1\n1/50 1/2 1/1\n1/1 0/1 1/2\n",
        "PerturbedCyclic --delta 0": "wtournament n=3\n1/2 1/1 0/1\n0/1 1/2 1/1\n1/1 0/1 1/2\n",
        "PerturbedCyclic --delta 1/2": "wtournament n=3\n1/2 1/2 0/1\n1/2 1/2 1/1\n1/1 0/1 1/2\n",
    }
    assert (tmp_path / "cert.wt").read_text() == hosts[" ".join(argv[1:])]


def test_golden_refuted_path_certificate_files(tmp_path, capsys):
    prefix = str(tmp_path / "viol")
    out = run_cli(capsys, "verify", "--mode", "tas", "--pattern", "><>>><",
                  "--max-n", "3", "--json", "--out", prefix)
    assert out == (0, '{"mode":"TAS","n_checked":2,"pattern":"><>>><",'
                      '"samples":3,"violation":{"direction":"ViolatesTAS","pattern":"><>>><",'
                      '"threshold":"2/1","value":"71/32"}}\n', "")
    assert (tmp_path / "viol.wt").read_text() == "wtournament n=2\n1/2 0/1\n1/1 1/2\n"
    assert (tmp_path / "viol.json").read_text() == (
        '{"direction":"ViolatesTAS","pattern":"><>>><","threshold":"2/1","value":"71/32"}\n')


_ORIENTATION = st.text(alphabet="<>RLx-", max_size=30)
_FUZZ_ARGV = st.one_of(
    st.tuples(st.sampled_from(["classify-path", "classify-cycle"]), _ORIENTATION,
              st.lists(st.sampled_from(["--best-effort", "--json"]), unique=True))
    .map(lambda t: [t[0], t[1], *t[2]]),
    st.tuples(_ORIENTATION, st.lists(st.sampled_from(["--cycle", "--json"]), unique=True))
    .map(lambda t: ["counts", t[0], *t[1]]),
    _ORIENTATION.map(lambda o: ["fg", "--orientation", o]),
)


def assert_exit_contract(argv):
    """main(argv) exits 0, 1 or 2, never with a traceback; exit 1 prints
    nothing on stdout and one JSON error object on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
    if code == 1:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}


@settings(max_examples=100, deadline=None)
@given(_FUZZ_ARGV)
def test_orientation_commands_keep_the_exit_contract(argv):
    assert_exit_contract(argv)


def _file_text(head, lines):
    return "\n".join([head, *lines]) + "\n"


_KINDS = ["digraph", "tournament", "wtournament", "tree"]


@st.composite
def _valid_file_text(draw, kind):
    """A text of this kind on 1 to 4 vertices."""
    n = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if kind == "tree":
        return _file_text(f"tree v={n}", [f"{draw(st.integers(0, i - 1))} {i}" for i in range(1, n)])
    if kind == "digraph":
        chosen = [p for p in pairs if draw(st.booleans())]
        return _file_text(f"digraph v={n}", [f"{u} {w}" if draw(st.booleans()) else f"{w} {u}"
                                              for u, w in chosen])
    rows = [[Fraction(1, 2) if kind == "wtournament" else 0] * n for _ in range(n)]
    for i, j in pairs:
        x = Fraction(draw(st.integers(0, 4)), 4) if kind == "wtournament" else draw(st.integers(0, 1))
        rows[i][j], rows[j][i] = x, 1 - x
    if kind == "tournament":
        return _file_text(f"tournament n={n}", ["".join(map(str, row)) for row in rows])
    return _file_text(f"wtournament n={n}", [" ".join(map(str, row)) for row in rows])


_JUNK_LINE = st.lists(st.sampled_from(["0", "1", "3", "-1", "x", "1/2", "1/0", "nan", "0110"]),
                      max_size=4).map(" ".join)
_JUNK_HEAD = st.tuples(
    st.sampled_from(["digraph v", "tree v", "tournament n", "wtournament n", "matrix n", "tree"]),
    st.sampled_from(["0", "-1", "2", "x", ""]),
).map("=".join)


@st.composite
def _file_of(draw, kinds):
    """A valid text of one of these kinds, of another kind, or one with a line
    replaced, dropped or repeated, or a new header."""
    how = draw(st.sampled_from(["valid", "valid", "other", "replace", "drop", "repeat", "head"]))
    kind = draw(st.sampled_from(_KINDS if how == "other" else kinds))
    lines = draw(_valid_file_text(kind)).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    if how == "replace":
        lines[i] = draw(_JUNK_LINE)
    elif how == "drop":
        del lines[i]
    elif how == "repeat":
        lines.insert(i, lines[i])
    elif how == "head":
        lines[0] = draw(_JUNK_HEAD)
    return _file_text(lines[0] if lines else "", lines[1:])


_HOSTS = ["tournament", "wtournament"]
_FILE_ARGV = st.one_of(
    st.tuples(st.sampled_from([["--pattern-path", "><"], ["--pattern-cycle", "><>", "--no-loops"]]),
              _file_of(_HOSTS))
    .map(lambda t: (["hom", *t[0], "--host-file", "{a}"], t[1], "")),
    st.tuples(_file_of(["digraph"]), _file_of(_HOSTS), st.booleans())
    .map(lambda t: (["hom", "--pattern-file", "{a}", "--host-file", "{b}"]
                    + ["--float"] * t[2], t[0], t[1])),
    _file_of(["tree"]).map(lambda text: (["orient-tree", "--file", "{a}"], text, "")),
    _file_of(["tree"]).map(lambda text: (["iso-pair", "--file", "{a}"], text, "")),
    st.tuples(st.sampled_from(["tas", "ts"]), st.integers(1, 3), _file_of(["digraph"]))
    .map(lambda t: (["verify", "--mode", t[0], "--pattern-file", "{a}", "--max-n", str(t[1])],
                    t[2], "")),
    st.tuples(st.sampled_from(["", "0", "1", "0,2"]), st.integers(0, 3), _file_of(["digraph"]))
    .map(lambda t: (["strong-tas", "--file", "{a}", "--independent", t[0], "--max-n", str(t[1])],
                    t[2], "")),
)


@settings(max_examples=120, deadline=None)
@given(_FILE_ARGV)
def test_file_commands_keep_the_exit_contract(tmp_path_factory, case):
    # one test call runs every example, so each rewrites both files in pytest's base temp dir
    argv, text_a, text_b = case
    base = tmp_path_factory.getbasetemp()
    paths = {"{a}": base / "fuzz-a.txt", "{b}": base / "fuzz-b.txt"}
    paths["{a}"].write_text(text_a)
    paths["{b}"].write_text(text_b)
    assert_exit_contract([str(paths[x]) if x in paths else x for x in argv])


# Numeric arguments: in-range values, out-of-range values and the texts that
# break naive number parsing.  Sizes stay small so every example runs fast.
_ODD_NUMBER = st.sampled_from(["1/0", "nan", "inf", "1e400", "1e-400", "0.5", "x", ""])


def _int_arg(lo, hi):
    return st.one_of(st.integers(lo, hi).map(str), _ODD_NUMBER)


_SEED = st.one_of(st.integers(-3, 3), st.integers(-(2**65), 2**65)).map(str) | _ODD_NUMBER
_FRACTION_ARG = st.one_of(
    st.fractions(-1, 2, max_denominator=100).map(str),
    st.integers(-2, 2).map(str),
    _ODD_NUMBER,
)


def _with(flag, values):
    """[flag, value] or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


_NUMERIC_ARGV = st.one_of(
    st.tuples(st.sampled_from(["recurrence", "fg"]), _with("--beta", _FRACTION_ARG),
              _int_arg(-2, 1000), _SEED, _with("--batches", _int_arg(-2, 50)),
              st.sampled_from([[], ["--csv"]]))
    .map(lambda t: ["lyapunov", "--mode", t[0], *t[1], "--steps", t[2], "--seed", t[3],
                    *t[4], *t[5]]),
    st.tuples(_int_arg(-2, 10), _int_arg(-2, 50), _with("--seed", _SEED),
              st.sampled_from([[], ["--exhaustive"]]))
    .map(lambda t: ["fg", "--sample", t[0], t[1], *t[2], *t[3]]),
    _int_arg(-3, 300).map(lambda n: ["localwalk", "--steps", n]),
    st.lists(_int_arg(-1, 3), max_size=6).map(lambda parts: ["sparse", "--parts", ",".join(parts)]),
    st.tuples(st.sampled_from(["TransitiveTriangle", "PerturbedCyclic"]), _FRACTION_ARG)
    .map(lambda t: ["certificate", t[0], "--delta", t[1]]),
    st.tuples(st.sampled_from(["tas", "ts"]), st.sampled_from([">><", "><>>><", ">>><<"]),
              _int_arg(-1, 4), _with("--budget", _int_arg(-1, 3)), _with("--seed", _SEED))
    .map(lambda t: ["verify", "--mode", t[0], "--pattern", t[1], "--max-n", t[2], *t[3], *t[4]]),
)


@settings(max_examples=150, deadline=None)
@given(_NUMERIC_ARGV)
def test_numeric_arguments_keep_the_exit_contract(argv):
    assert_exit_contract(argv)
