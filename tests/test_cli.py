import json

import pytest

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


def test_fg_exhaustive(capsys):
    code, out, _ = run_cli(capsys, "fg", "--sample", "8", "256", "--exhaustive")
    payload = json.loads(out)
    assert payload["mean_total"] == "2/1"


def test_localwalk(capsys):
    code, out, _ = run_cli(capsys, "localwalk", "--steps", "4")
    payload = json.loads(out)
    assert payload["p_zero"] == "3/8"


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
}

GOLDEN_SCANS = [
    (["verify", "--mode", "tas", "--pattern", ">><<", "--max-n", "4", "--json"],
     '{"margin_min":"0/1","mode":"TAS","n_checked":4,"pattern":">><<","samples":75,'
     '"violation":null}\n'),
    (["verify", "--mode", "tas", "--pattern", "><>>><", "--max-n", "3"],
     'pattern ><>>>< mode TAS: violation found\n{"direction": "ViolatesTAS", '
     '"pattern": "><>>><", "threshold": "2/1", "value": "71/32"}\n'),
    (["verify", "--mode", "tas", "--pattern-file", "square.dg", "--max-n", "4", "--json"],
     '{"margin_min":"0/1","mode":"TAS","n_checked":4,"pattern":"digraph(v=4,e=4)",'
     '"samples":75,"violation":null}\n'),
    (["verify", "--mode", "ts", "--pattern-file", "square.dg", "--max-n", "4", "--json"],
     '{"margin_min":"0/1","mode":"TS","n_checked":2,"pattern":"digraph(v=4,e=4)",'
     '"samples":3,"violation":{"direction":"ViolatesTS","pattern":null,'
     '"threshold":"1/1","value":"7/8"}}\n'),
    (["verify", "--mode", "tas", "--pattern-file", "cycle5.dg", "--max-n", "4", "--json"],
     '{"margin_min":"0/1","mode":"TAS","n_checked":4,"pattern":"digraph(v=5,e=5)",'
     '"samples":75,"violation":null}\n'),
    (["verify", "--mode", "ts", "--pattern-file", "cycle5.dg", "--max-n", "4", "--json"],
     '{"margin_min":"0/1","mode":"TS","n_checked":2,"pattern":"digraph(v=5,e=5)",'
     '"samples":3,"violation":{"direction":"ViolatesTS","pattern":null,'
     '"threshold":"1/1","value":"1/16"}}\n'),
    (["verify", "--mode", "tas", "--pattern-file", "tree6.dg", "--max-n", "4", "--json"],
     '{"margin_min":"0/1","mode":"TAS","n_checked":4,"pattern":"digraph(v=6,e=5)",'
     '"samples":75,"violation":null}\n'),
    (["verify", "--mode", "ts", "--pattern-file", "tree6.dg", "--max-n", "4", "--json"],
     '{"margin_min":"0/1","mode":"TS","n_checked":2,"pattern":"digraph(v=6,e=5)",'
     '"samples":3,"violation":{"direction":"ViolatesTS","pattern":null,'
     '"threshold":"2/1","value":"9/8"}}\n'),
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
]


@pytest.mark.parametrize("argv,expected", GOLDEN_SCANS, ids=lambda a: " ".join(a)
                         if isinstance(a, list) else None)
def test_golden_scans_and_counts(argv, expected, tmp_path, capsys):
    for name, text in GOLDEN_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in GOLDEN_FILES else a for a in argv]
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_golden_refuted_path_certificate_files(tmp_path, capsys):
    prefix = str(tmp_path / "viol")
    out = run_cli(capsys, "verify", "--mode", "tas", "--pattern", "><>>><",
                  "--max-n", "3", "--json", "--out", prefix)
    assert out == (0, '{"margin_min":"0/1","mode":"TAS","n_checked":2,"pattern":"><>>><",'
                      '"samples":3,"violation":{"direction":"ViolatesTAS","pattern":"><>>><",'
                      '"threshold":"2/1","value":"71/32"}}\n', "")
    assert (tmp_path / "viol.wt").read_text() == "wtournament n=2\n1/2 0/1\n1/1 1/2\n"
    assert (tmp_path / "viol.json").read_text() == (
        '{"direction":"ViolatesTAS","pattern":"><>>><","threshold":"2/1","value":"71/32"}\n')
