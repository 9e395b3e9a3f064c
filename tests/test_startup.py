"""What the command line loads before it runs a command.

`toursid.cli` imports each command's modules inside its handler, so a fresh
process runs the classifiers, the counts, the local walk and the f/g chain
without numpy.  These checks run in fresh interpreters, since this test
process has long since imported everything.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import toursid
from toursid.cli import build_parser, main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(toursid.__file__)))

PROBE = """
import contextlib, io, json, sys
import toursid.cli
after_import = sorted(m for m in sys.modules if m.startswith("toursid"))
with contextlib.redirect_stdout(io.StringIO()):
    rc = toursid.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"rc": rc, "after_import": after_import, "numpy": "numpy" in sys.modules}))
"""

NUMPY_FREE = [
    ["classify-path", ">>><<>><", "--json"],
    ["classify-cycle", ">><<>>", "--best-effort"],
    ["counts", ">><<>", "--cycle", "--json"],
    ["localwalk", "--steps", "7"],
    ["fg", "--orientation", ">><>"],
    ["fg", "--sample", "6", "4", "--exhaustive"],
]


def _probe(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("argv", NUMPY_FREE, ids=" ".join)
def test_command_runs_without_numpy(argv):
    res = _probe(argv)
    assert res["rc"] == 0
    assert not res["numpy"]


def test_importing_the_cli_loads_only_the_error_types():
    res = _probe(["localwalk", "--steps", "1"])
    assert res["after_import"] == ["toursid", "toursid.cli", "toursid.errors"]


def test_a_numpy_command_still_loads_numpy():
    # the probe would read numpy-free if the child never got as far as numpy
    assert _probe(["expand", "><>"])["numpy"]


def _subcommands():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sorted(sub.choices)


def test_the_help_sweep_sees_the_subcommands():
    assert {argv[0] for argv in NUMPY_FREE} | {"verify", "hom"} <= set(_subcommands())


@pytest.mark.parametrize("cmd", _subcommands())
def test_every_subcommand_help_exits_zero(cmd):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    assert out.getvalue().startswith(f"usage: toursid {cmd} ")
