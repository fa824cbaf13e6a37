"""Byte-for-byte golden outputs of the CLI on the default equation and a
small ODE corpus.  A change to any golden file is a change in behaviour and
must be made on purpose."""

import contextlib
import io
from pathlib import Path

import pytest

from merosolve.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
WIDTH = "y'' + omega^2*y - y^-3"

CASES = {
    "analyze-default": ["analyze"],
    "series-default": ["series"],
    "closed-form-default": ["closed-form"],
    "report-default": ["report"],
    "analyze-width-exact": ["analyze", "--ode", WIDTH, "--param", "omega=3/2"],
    "analyze-width-float": ["analyze", "--ode", WIDTH, "--param", "omega=1.5"],
    "analyze-width-zero": ["analyze", "--ode", WIDTH, "--param", "omega=0"],
    "analyze-riccati-cot": ["analyze", "--ode", "y' + 1 + y^2"],
    "analyze-cubic": ["analyze", "--ode", "y'' - 2*y^3"],
    "analyze-quadratic": ["analyze", "--ode", "y'' - 6*y^2"],
    "analyze-kdv": ["analyze", "--ode", "y''' - 12*y*y'"],
    # a branch family of order 5, which no default cap excludes
    "analyze-sextic": ["analyze", "--ode", "y'' - y^6"],
    # a negative constant inside a base: normalized_input prints it as (-1)
    "analyze-negated-base": ["analyze", "--ode", "y'' - 2*(-y)^3"],
    # a free value off the width terms' lattice: the solve's step falls
    # from 4 to 2
    "series-width-free": ["series", "--param", "omega=3/2", "--free", "1=1/3",
                          "--order", "16"],
    # three dominant monomials at p = -1, one with a float coefficient
    "analyze-three-group-float": ["analyze", "--ode", "y'' + k1*y*y' + k2*y^3",
                                  "--param", "k1=3.0", "--param", "k2=1"],
    "integrate-width": ["integrate", "--ic", "2,0", "--path", "0:3",
                        "--tol", "1e-8"],
    "integrate-complex": ["integrate", "--omega", "0.8", "--ic", "1.2,-0.4",
                          "--path", "0:2+1i:4", "--tol", "1e-8",
                          "--format", "csv"],
    "probe-branch": ["probe", "--omega", "0", "--ic", "1,0",
                     "--path", "0:0.999i"],
    "verify-exact-free": ["verify-exact", "--omega", "0"],
    "verify-exact-complex": ["verify-exact", "--omega", "0.8+0.2i",
                             "--A", "1.5", "--B", "0.5", "--C", "1"],
}


def golden_path(name) -> Path:
    """The golden file of a case; its extension is the case's --format."""
    argv = CASES[name]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    return GOLDEN_DIR / f"{name}.{fmt}"


def cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name):
    expected = golden_path(name).read_text(encoding="utf-8")
    assert cli_stdout(CASES[name]) == expected


# `merosolve --help` and each subcommand's --help at 80 columns
HELP_COMMANDS = ("merosolve", "analyze", "series", "closed-form", "integrate",
                 "probe", "verify-exact", "report")


@pytest.mark.parametrize("command", HELP_COMMANDS)
def test_help_bytes(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command == "merosolve" else [command, "--help"]
    expected = (GOLDEN_DIR / f"help-{command}.txt").read_text(encoding="utf-8")
    assert cli_stdout(argv) == expected


def test_shared_parser_carries_no_state_between_calls():
    # repeatable flags, formats and defaults set by one call must not leak
    # into the next call through the parser that main builds once
    cli_stdout(["series", "--ode", "y'' - 2*y^3", "--free", "4=1",
                "--param", "c=2"])
    assert cli_stdout(CASES["analyze-default"]) == \
        golden_path("analyze-default").read_text(encoding="utf-8")
    cli_stdout(CASES["integrate-complex"])
    assert cli_stdout(CASES["integrate-width"]) == \
        golden_path("integrate-width").read_text(encoding="utf-8")
