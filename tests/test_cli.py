import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest

from merosolve.balance import find_balances
from merosolve.cli import main
from merosolve.odemodel import normalize, parse_ode
from merosolve.report import REPORT_SCHEMA, SCHEMA_VERSION

SRC = Path(__file__).resolve().parent.parent / "src"

def run_json(tmp_path, args, name="out.json"):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    assert rc == 0, f"command failed: {args}"
    return json.loads(out.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# analyze / series / closed-form
# ---------------------------------------------------------------------------

def test_analyze_default_case(tmp_path):
    payload = run_json(tmp_path, ["analyze"])
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["ode"]["cleared"]["text"] == "y^3*y'' + y^4 - 1"
    families = {f["p"]: f for f in payload["balance"]["families"]}
    assert families["1/2"]["consistent"] is True
    assert families["1/2"]["branch_order"] == 2
    assert families["-1"]["consistent"] is False
    assert families["-1"]["leading_polynomial"][4] == [2.0, 0.0]
    assert families["1/2"]["resonances"] == ["-1", "1"]


def test_analyze_custom_ode(tmp_path):
    payload = run_json(
        tmp_path,
        ["analyze", "--ode", "y'' - 2*y^3", "--order", "8"],
    )
    families = {f["p"]: f for f in payload["balance"]["families"]}
    assert families["-1"]["consistent"] is True
    assert families["-1"]["resonances"] == ["-1", "4"]


def test_vanishing_pole_leading_polynomial_frees_the_residue(tmp_path):
    # y*y'' - 2*y'^2 + y^3: the p = -1 leading polynomial is identically
    # zero, and y = 1/(t^2/2 + c1*t + c0) has a free residue
    payload = run_json(tmp_path, ["analyze", "--ode", "y*y'' - 2*y'^2 + y^3"])
    families = {f["p"]: f for f in payload["balance"]["families"]}
    assert families["-1"]["leading_polynomial"] == [[0, 0]] * 3
    claim = next(c for c in payload["claims"] if c["id"] == "imaginary-free-residue")
    assert claim["status"] == "confirmed"
    assert "leading order only" in claim["evidence"]["note"]
    assert "zero root" not in claim["evidence"]["note"]


@pytest.mark.parametrize("ode", [
    "y'' - 2*(-y)^3",
    "y'' + (-5)^-1",
    "-(y'' - 2*y^3)",
    "y''*(-2) + y^3",
])
def test_negative_constant_in_a_factor_or_base_is_analyzed(tmp_path, ode):
    # normalized_input prints the constant in parentheses, as (-2)
    payload = run_json(tmp_path, ["analyze", "--ode", ode])
    text = payload["ode"]["normalized_input"]
    assert parse_ode(text) == parse_ode(ode)


def test_negated_base_analyzes_as_its_expansion(tmp_path):
    # -2*(-y)^3 = 2*y^3: everything but the input text agrees
    negated = run_json(tmp_path, ["analyze", "--ode", "y'' - 2*(-y)^3"], "a.json")
    expanded = run_json(tmp_path, ["analyze", "--ode", "y'' + 2*y^3"], "b.json")
    for payload in (negated, expanded):
        del payload["ode"]["input"], payload["ode"]["normalized_input"]
    assert negated == expanded


def test_analyze_reads_ode_from_file(tmp_path):
    ode_file = tmp_path / "equation.txt"
    ode_file.write_text("y'' - 2*y^3\n", encoding="utf-8")
    payload = run_json(tmp_path, ["analyze", "--ode", f"@{ode_file}"])
    assert payload["ode"]["input"] == "y'' - 2*y^3"


def test_series_command(tmp_path):
    payload = run_json(tmp_path, ["series", "--order", "10"])
    assert payload["command"] == "series"
    solutions = payload["series"]["solutions"]
    assert len(solutions) == 1
    assert solutions[0]["series"]["branch_order"] == 2
    assert payload["series"]["coefficient_comparison"]["rows"]


def test_series_free_parameter_flag(tmp_path):
    base = run_json(tmp_path, ["series", "--ode", "y'' - 2*y^3"], "a.json")
    bumped = run_json(
        tmp_path, ["series", "--ode", "y'' - 2*y^3", "--free", "4=1"], "b.json"
    )
    terms_base = dict(
        (j, (re, im)) for j, re, im in base["series"]["solutions"][0]["series"]["terms"]
    )
    terms_bump = dict(
        (j, (re, im)) for j, re, im in bumped["series"]["solutions"][0]["series"]["terms"]
    )
    assert 3 not in terms_base
    assert terms_bump[3] == (1.0, 0.0)


def test_free_value_at_non_resonant_order_exits_2(capsys):
    # the default width equation has the positive resonance 1 only
    assert main(["series", "--free", "7=1"]) == 2
    err = capsys.readouterr().err
    assert "non-resonant order 7" in err
    assert "available resonances: 1" in err


def test_free_value_beyond_truncation_order_exits_2(capsys):
    # the pole family of y'' = 2 y^3 reaches its resonance 4 at order 4
    argv = ["series", "--ode", "y'' - 2*y^3", "--free", "4=1", "--order", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "resonance 4 lies beyond the truncation order 2" in err
    assert "--order 4" in err


def test_free_value_at_the_truncation_order_is_used(tmp_path):
    payload = run_json(tmp_path, [
        "series", "--ode", "y'' - 2*y^3", "--free", "4=1", "--order", "4",
    ])
    (solution,) = payload["series"]["solutions"]
    assert solution["free_parameters"] == {"4": [1, 0]}
    assert [c["resonance"] for c in solution["compatibility"]] == ["4"]


def test_free_parameters_list_only_resonances_the_series_reaches(tmp_path):
    # p = -2/7 has the resonance 18/7, reached at series order 18
    argv = ["analyze", "--ode", "y'' - c*y^8", "--param", "c=6",
            "--branch-max", "7"]
    for order, listed in (("12", {}), ("18", {"18/7": [0, 0]})):
        payload = run_json(tmp_path, argv + ["--order", order])
        for solution in payload["series"]["solutions"]:
            assert solution["p"] == "-2/7"
            assert solution["free_parameters"] == listed
            assert len(solution["compatibility"]) == len(listed)


@pytest.mark.parametrize("m, p, resonance", [
    (6, "-2/5", "14/5"),
    (8, "-2/7", "18/7"),
])
def test_high_power_branch_family_without_a_cap(tmp_path, m, p, resonance):
    # y'' = y^m branches as tau^(-2/(m-1)); the search has no default cap
    payload = run_json(tmp_path, ["analyze", "--ode", f"y'' - y^{m}"])
    assert payload["balance"]["branch_max"] is None
    (fam,) = [f for f in payload["balance"]["families"] if f["consistent"]]
    assert fam["p"] == p
    assert fam["resonances"] == ["-1", resonance]
    claim = next(c for c in payload["claims"] if c["id"] == "no-painleve-property")
    assert claim["status"] == "confirmed"


def test_float_resonance_off_the_360_lattice_is_kept(tmp_path):
    # p = -2/7 has the resonance 18/7, and 7 does not divide 360
    payload = run_json(tmp_path, [
        "analyze", "--ode", "y'' - c*y^8", "--param", "c=2.5",
        "--branch-max", "7", "--order", "18",
    ])
    families = {f["p"]: f for f in payload["balance"]["families"]}
    assert families["-2/7"]["resonances"] == ["-1", "18/7"]


def test_free_parameter_reaches_closed_form_candidates(tmp_path):
    # the candidates are built from the printed series, free value included
    payload = run_json(
        tmp_path, ["analyze", "--ode", "y'' - 2*y^3", "--free", "4=1"]
    )
    rational = next(
        c for c in payload["closed_form"]["candidates"] if c["kind"] == "rational"
    )
    assert [3, 1.0, 0.0] in rational["tail"]


def test_closed_form_command(tmp_path):
    payload = run_json(tmp_path, ["closed-form", "--ode", "y' + 1 + y^2"])
    cands = payload["closed_form"]["candidates"]
    periodic = [c for c in cands if c["kind"] == "simply-periodic"]
    assert periodic and periodic[0]["verified"] is True
    assert abs(periodic[0]["period"][0] - math.pi) < 1e-12
    gate = payload["closed_form"]["elliptic_admissibility"]
    assert gate == [{"p": "-1", "admissible": False}]


def test_closed_form_branch_family_gates(tmp_path):
    payload = run_json(tmp_path, ["closed-form"], "branch.json")
    section = payload["closed_form"]
    assert section["periodic_errors"] and "branch order 2" in (
        section["periodic_errors"][0]["error"]
    )
    gate = section["elliptic_admissibility"][0]
    assert gate["admissible"] is None and "not Laurent" in gate["note"]


def test_verify_exact_from_ic_case(tmp_path):
    payload = run_json(
        tmp_path, ["verify-exact", "--case", "from-ic", "--omega", "1"]
    )
    res = payload["results"]["width_from_ics"]
    assert res["max_residual"] < 1e-8
    assert res["normalization_mismatch"] is False


# ---------------------------------------------------------------------------
# integrate / probe / verify-exact / report
# ---------------------------------------------------------------------------

def test_integrate_json(tmp_path):
    payload = run_json(
        tmp_path,
        ["integrate", "--omega", "1", "--ic", "1,0", "--path", "0:5",
         "--tol", "1e-10"],
    )
    assert payload["system"] == "ermakov-pinney"
    assert not payload["halted"]
    rows = payload["samples"]
    assert all(len(r) == 6 for r in rows)
    assert abs(rows[-1][2] - 1.0) < 1e-8


def test_integrate_csv(tmp_path):
    out = tmp_path / "traj.csv"
    rc = main(["integrate", "--system", "linear", "--omega", "1",
               "--ic", "0,1", "--path", "0:1.5707963267948966",
               "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "re_t,im_t,re_value,im_value,re_slope,im_slope"
    last = [float(x) for x in lines[-1].split(",")]
    assert abs(last[2] - 1.0) < 1e-8


def test_integrate_csv_and_json_cells_of_extreme_floats(tmp_path, monkeypatch):
    # signed zero, the smallest subnormal and the largest float print with
    # 17 significant digits in both formats and read back bit for bit
    from merosolve import cli
    from merosolve.numeric import ComplexTrajectory, TrajectoryPoint

    tiny, huge = 5e-324, 1.7976931348623157e308
    traj = ComplexTrajectory(
        samples=[TrajectoryPoint(complex(-0.0, 0.0), complex(tiny, -huge),
                                 complex(huge, -tiny))],
        singular_near_zero=False,
        stats={"accepted": 0, "rejected": 0, "rhs_evals": 1},
    )
    monkeypatch.setattr(cli, "integrate", lambda *args, **kwargs: traj)
    out = tmp_path / "traj.csv"
    assert main(["integrate", "--format", "csv", "--out", str(out)]) == 0
    cells = ("-0,0,4.9406564584124654e-324,-1.7976931348623157e+308,"
             "1.7976931348623157e+308,-4.9406564584124654e-324")
    assert out.read_text(encoding="utf-8") == (
        "re_t,im_t,re_value,im_value,re_slope,im_slope\n" + cells + "\n"
    )
    row = [float(x) for x in cells.split(",")]
    assert [math.copysign(1.0, x) for x in row[:2]] == [-1.0, 1.0]
    assert row[2:] == [tiny, -huge, huge, -tiny]
    out = tmp_path / "traj.json"
    assert main(["integrate", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert '"samples": [\n    [' + cells.replace(",", ", ") + "]\n  ]" in text


def test_probe_command(tmp_path):
    payload = run_json(
        tmp_path,
        ["probe", "--omega", "0", "--ic", "1,0", "--path", "0:0.999i"],
    )
    assert payload["kind"] == "zero-of-alpha"
    t_star = complex(payload["t_star"][0], payload["t_star"][1])
    assert abs(t_star - 1j) < 1e-3
    assert abs(payload["exponent"]["value"] - 0.5) < 0.02
    stats = payload["stats"]
    assert set(stats) == {"accepted", "rejected", "rhs_evals"}
    # six evaluations per attempted step, plus the integration's one first
    # stage
    assert stats["rhs_evals"] == 6 * (stats["accepted"] + stats["rejected"]) + 1
    # one recorded sample per accepted step, plus the start point
    assert payload["samples"] == stats["accepted"] + 1


def test_probe_default_locates_a_zero(tmp_path):
    # the default probes omega = 1 with ic (1/2, 0), whose width has zeros
    # at +-i atanh(1/4), not the equilibrium alpha = 1 of ic (1, 0)
    payload = run_json(tmp_path, ["probe"])
    assert payload["omega"] == [1, 0]
    assert payload["kind"] == "zero-of-alpha"
    t_star = complex(*payload["t_star"])
    assert abs(t_star - 1j * math.atanh(0.25)) < 1e-8
    assert abs(payload["exponent"]["value"] - 0.5) < 1e-4
    assert payload["halt_reason"].startswith("approaching the singular")


def test_integrate_overflow_halts_on_finite_points(tmp_path):
    # |value| grows like exp(1000 t) and overflows near t = 0.355; the
    # non-finite states there are rejected until the step underflows, and
    # the halt says that the solution overflowed
    payload = run_json(
        tmp_path,
        ["integrate", "--omega", "1000i", "--ic", "2,0", "--path", "0:1"],
    )
    assert payload["halted"] is True
    assert payload["halt_reason"] == "solution overflows to a non-finite state"
    assert all(math.isfinite(x) for row in payload["samples"] for x in row)
    assert payload["samples"][-1][0] < 1.0
    # a linear equation has no singular point to blame either
    payload = run_json(
        tmp_path,
        ["integrate", "--system", "linear", "--omega", "1000i", "--ic", "2,0",
         "--path", "0:1"],
    )
    assert payload["halt_reason"] == "solution overflows to a non-finite state"
    # the same trajectory is no approach to a zero of the width
    payload = run_json(
        tmp_path,
        ["probe", "--omega", "1000i", "--ic", "2,0", "--path", "0:1"],
    )
    assert payload["halted"] is True
    assert payload["kind"] == "none" and payload["exponent"] is None


def test_verify_exact_pinney(tmp_path):
    payload = run_json(
        tmp_path,
        ["verify-exact", "--case", "pinney", "--A", "2", "--B", "1",
         "--C", "1", "--omega", "1"],
    )
    res = payload["results"]["pinney"]
    assert res["max_residual"] < 1e-8
    assert res["numeric_deviation"] < 1e-6
    assert res["constraint"]["ac_convention_holds"] is True
    assert res["constraint"]["reversed_sign_holds"] is False
    statuses = {c["id"]: c["status"] for c in payload["claims"]}
    assert statuses["constraint-sign"] == "refuted"


def test_report_command(tmp_path):
    payload = run_json(tmp_path, ["report"])
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert "exact_lab" in payload and "numeric" in payload
    ids = [c["id"] for c in payload["claims"]]
    assert len(ids) == len(set(ids))
    for claim in payload["claims"]:
        assert claim["anchor"]
        assert claim["status"] in ("confirmed", "refuted", "not-applicable")


def test_report_text_format(tmp_path):
    out = tmp_path / "report.txt"
    rc = main(["analyze", "--format", "text", "--out", str(out)])
    assert rc == 0
    text = out.read_text(encoding="utf-8")
    assert "claims" in text
    assert "balance" in text


# ---------------------------------------------------------------------------
# determinism and error handling
# ---------------------------------------------------------------------------

def test_analyze_deterministic_bytes(tmp_path):
    a = tmp_path / "one.json"
    b = tmp_path / "two.json"
    assert main(["analyze", "--out", str(a)]) == 0
    assert main(["analyze", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bad_ode_exits_2(capsys):
    assert main(["analyze", "--ode", "y'' + * y"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--ode", "(y + 1"], "expected ')' (line 1, column 7)"),
    (["analyze", "--ode", "y^y"], "expected integer exponent (line 1, column 3)"),
    (["analyze", "--ode", "y^1.5"],
     "exponent must be an integer (line 1, column 3)"),
    (["analyze", "--ode", "y'' y"],
     "unexpected trailing input 'y' (line 1, column 5)"),
    (["analyze", "--ode", "y'' 2"],
     "unexpected trailing input '2' (line 1, column 5)"),
    (["analyze", "--ode", "(y + 1)^-1"],
     "negative power applies to a non-monomial subexpression"),
    (["analyze", "--ode", "(y - y)^-1 + y"],
     "negative power of a zero subexpression"),
    (["probe", "--ic", "1"], "--ic needs VALUE,SLOPE, got '1'"),
    (["report", "--ic", "1,2,3"], "--ic needs VALUE,SLOPE, got '1,2,3'"),
])
def test_input_error_message_names_what_was_written(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_syntax_error_in_an_ode_file_names_its_line(tmp_path, capsys):
    path = tmp_path / "ode.txt"
    path.write_text("y''\n  - 2*y^3 + )", encoding="utf-8")
    assert main(["analyze", "--ode", f"@{path}"]) == 2
    assert capsys.readouterr().err == \
        "error: unexpected token ')' (line 2, column 13)\n"


def test_non_integer_order_exits_2(capsys):
    assert main(["analyze", "--order", "x"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == \
        "merosolve analyze: error: argument --order: invalid int value: 'x'"


def test_unbound_parameter_exits_2(capsys):
    assert main(["analyze", "--ode", "y'' + omega^2*y"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--param", "omgea=2"],
     "--param omgea: the equation has no such parameter; it reads omega"),
    (["series", "--ode", "y'' - c*y^3", "--param", "c=2", "--param", "k=1",
      "--param", "a=3"],
     "--param a, k: the equation has no such parameter; it reads c"),
    (["report", "--ode", "y'' - 2*y^3", "--param", "c=2"],
     "--param c: the equation has no such parameter; it reads none"),
])
def test_unused_parameter_exits_2(capsys, argv, message):
    # a misspelt name is refused instead of analysing the default
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["analyze", "closed-form", "report"])
def test_omega_may_be_bound_for_any_equation(tmp_path, command):
    # the claimed pole data read omega whatever the equation
    run_json(tmp_path, [command, "--ode", "y'' - c*y^3", "--param", "c=2",
                        "--param", "omega=3"])


def test_unknown_flag_exits_2(capsys):
    assert main(["analyze", "--nonsense"]) == 2


def test_unreadable_ode_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    assert main(["analyze", "--ode", f"@{missing}"]) == 2


def test_bad_param_syntax_exits_2(capsys):
    assert main(["analyze", "--param", "omega"]) == 2


def test_negative_order_exits_2(capsys):
    assert main(["series", "--order", "-3"]) == 2
    assert "argument --order: must be at least 0, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("command, value", [("analyze", "0"), ("report", "-2")])
def test_branch_max_below_one_exits_2(command, value, capsys):
    assert main([command, "--branch-max", value]) == 2
    err = capsys.readouterr().err
    assert f"argument --branch-max: must be at least 1, got {value}" in err
    assert "n_max" not in err


def test_order_zero_keeps_the_leading_term(tmp_path):
    payload = run_json(tmp_path, ["series", "--order", "0"])
    (solution,) = payload["series"]["solutions"]
    assert [j for j, _, _ in solution["series"]["terms"]] == [1]


@pytest.mark.parametrize("argv, terms", [
    # wp(tau; g2 = 0, g3 = 28) = tau^-2 + tau^4 + tau^10/13 + ...
    (["--ode", "y'' - 6*y^2", "--free", "6=1"],
     [[-2, 1, 0], [4, 1, 0], [10, 1 / 13, 0]]),
    (["--ode", "y'' - 6*y^2"], [[-2, 1, 0]]),
    (["--ode", "y'' - 2*y^3"], [[-1, -1, 0]]),
])
def test_series_hand_values(tmp_path, argv, terms):
    payload = run_json(tmp_path, ["series"] + argv)
    (solution,) = payload["series"]["solutions"]
    assert solution["series"]["terms"] == terms


def test_bad_path_exits_2(capsys):
    assert main(["probe", "--omega", "0", "--path", "0"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify-exact", "--omega", "1000i"],
    ["verify-exact", "--omega", "1e200"],
    ["verify-exact", "--A", "1e300"],
    ["report", "--param", "omega=1000i"],
    ["analyze", "--param", "omega=1e400"],
])
def test_float_overflow_exits_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {argv[0]}: input overflows floating point (")


@pytest.mark.parametrize("argv", [
    ["analyze", "--param", "omega=1e400"],
    ["integrate", "--omega", "1e400"],
    ["analyze", "--ode", "y'' - 1e400*y^3"],
])
def test_overflowing_literal_gives_one_error_in_every_run(argv, capsys):
    # the literal is refused where it is parsed, so neither the payload's
    # non-finite check nor an errno left over from earlier float arithmetic
    # decides which error is printed
    want = (f"error: {argv[0]}: input overflows floating point "
            f"(complex literal '1e400' is beyond the float range)\n")
    for _ in range(2):
        assert main(argv) == 2
        assert capsys.readouterr().err == want
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from merosolve.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        env=env, timeout=120, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", want)


def test_non_finite_payload_float_names_its_field(capsys):
    # the p = -1 family (a = 4.3e-10) has series coefficients up to 1e65, so
    # the rational candidate's residual norm overflows to inf
    argv = ["analyze", "--ode", "y'' + k0*y^3 + k1*y^2*y' + k2*y'^2",
            "--param", "k0=0.5", "--param", "k1=7/3", "--param", "k2=1e-9"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: non-finite float in report payload at "
        "closed_form.candidates[0].residual_norm\n")


@pytest.mark.parametrize("power", [3, 5])
def test_non_finite_polynomial_coefficient_exits_2(power, capsys):
    # c = 1e308 overflows a coefficient of the resonance polynomial to inf
    # or nan; the root finder refuses it before any arithmetic warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["analyze", "--ode", f"y'' - c*y^{power}", "--param", "c=1e308"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: analyze: input overflows floating point (")
    assert err.endswith(" is not finite)\n")


@pytest.mark.parametrize("power, p, resonances", [
    (3, "-1", ["-1", "4"]),
    (5, "-1/2", ["-1", "3"]),
])
@pytest.mark.parametrize("c", ["1e220", "1e250", "1e300"])
def test_large_coefficient_keeps_the_linear_response(tmp_path, power, p,
                                                     resonances, c):
    # at c = 1e300 the leading coefficient a = (p(p-1)/c)**(1/(m-1)) is
    # about 1e-150 (m = 3) or 1e-75 (m = 5), so a**m underflows; the linear
    # response is summed from a**(m-1) and the series still solves
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        payload = run_json(tmp_path, ["analyze", "--ode", f"y'' - c*y^{power}",
                                      "--param", f"c={c}"])
    consistent = [f for f in payload["balance"]["families"] if f["consistent"]]
    assert [(f["p"], f["resonances"]) for f in consistent] == [(p, resonances)]


def test_exact_root_past_float_precision_solves_exactly(tmp_path):
    # c = 2/(10**16 + 1)**2 has the exact roots a = +-(10**16 + 1), which a
    # float cannot hold; the root rule finishes them exactly, so the series
    # of exact input stays exact and leaves no residual
    c = "2/" + str((10**16 + 1) ** 2)
    payload = run_json(tmp_path, ["series", "--ode", "y'' - c*y^3",
                                  "--param", f"c={c}"])
    (solution,) = payload["series"]["solutions"]
    assert solution["max_residual_through_order"] == 0
    assert all(c["satisfied"] for c in solution["compatibility"])


@pytest.mark.parametrize("command", ["analyze", "series", "closed-form", "report"])
def test_huge_exact_root_does_not_overflow(tmp_path, command):
    # c = 2/10**300 has the exact roots a = +-10**150: the compatibility
    # tolerance, which needs |a|**3, is not computed for exact input
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        payload = run_json(tmp_path, [command, "--ode", "y'' - c*y^3",
                                      "--param", "c=2/1" + "0" * 300])
    assert payload["command"] == command


@pytest.mark.parametrize("c", ["1e-15", "1/1000000000000000"])
def test_small_coefficient_keeps_its_family(tmp_path, c):
    # the leading polynomial is 2a - c*a**3: a float c of any size is a
    # coefficient of the equation, not noise, so the float input finds the
    # family a = +-sqrt(2/c) ~ +-4.47e7 that the exact one finds
    payload = run_json(tmp_path, ["analyze", "--ode", "y'' - c*y^3",
                                  "--param", f"c={c}"])
    consistent = [f for f in payload["balance"]["families"] if f["consistent"]]
    assert [(f["p"], f["resonances"]) for f in consistent] == [("-1", ["-1", "4"])]
    coeffs = consistent[0]["leading_coefficients"]
    assert len(coeffs) == 2
    for (re, im), sign in zip(coeffs, (-1, 1)):
        assert im == 0
        assert math.isclose(re, sign * math.sqrt(2e15), rel_tol=1e-15)


def test_tiny_float_coefficients_pin_the_residue_as_exact_ones_do(tmp_path):
    # k*y'' - c*y^3 with k = c = 1e-15 has the leading polynomial
    # 2e-15 a - 1e-15 a**3: small coefficients, not zero ones, so the residue
    # is pinned to +-sqrt 2 as with exact k = c = 1/10**15
    claims = []
    for k in ("1e-15", "1/1000000000000000"):
        payload = run_json(tmp_path, ["analyze", "--ode", "k*y'' - c*y^3",
                                      "--param", f"k={k}", "--param", f"c={k}"])
        claims.append(next(c for c in payload["claims"]
                           if c["id"] == "imaginary-free-residue"))
    assert claims[0]["status"] == claims[1]["status"] == "refuted"
    coeffs = claims[0]["evidence"]["leading_coefficients"]
    assert coeffs == claims[1]["evidence"]["leading_coefficients"]
    assert len(coeffs) == 2
    for (re, im), sign in zip(coeffs, (-1, 1)):
        assert im == 0
        assert math.isclose(re, sign * math.sqrt(2), rel_tol=1e-15)


def test_tiny_coefficient_finds_its_family_and_overflows_cleanly(capsys):
    # at c = 1e-300 the family a = +-sqrt(2e300) is found; its series needs
    # a**3 ~ 2.8e450, beyond the float range, so analyze stops with the
    # overflow error that exact c = 1/10**300 gives too
    families = find_balances(normalize(parse_ode("y'' - c*y^3"), {"c": 1e-300}))
    consistent = [f for f in families if f.consistent]
    assert [(f.p, f.resonances) for f in consistent] == [(-1, (-1, 4))]
    coeffs = consistent[0].leading_coeffs
    assert [z.imag for z in coeffs] == [0, 0]
    assert math.isclose(coeffs[1].real, math.sqrt(2e300), rel_tol=1e-15)
    assert coeffs[0] == -coeffs[1]
    assert main(["analyze", "--ode", "y'' - c*y^3", "--param", "c=1e-300"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: analyze: input overflows floating point (")


def test_leading_equation_check_scales_with_its_terms(tmp_path):
    # the leading equation is -108000 a**4 - 90 a**6 = 0, so a = +-20 sqrt(3) i
    # and |90 a**6| ~ 1.6e11: float rounding alone leaves ~1e-5 in its
    # value, which the check allows because it is bounded by the terms'
    # own size and not by 1e-8 * |a|
    payload = run_json(tmp_path, [
        "analyze", "--ode", "y'' + k0*y^3*y^2*y''' + k1*y*y'''^3",
        "--param", "k0=3/2", "--param", "k1=1/2"])
    assert payload["series"]["solutions"]


@pytest.mark.parametrize("ode, params", [
    # the linear step at order 2 is 4.8e-16: below 1e-13, but some 1e14
    # times its own rounding
    ("y'''' + k0*y''^2 + k1*y'^3", ["k0=1e-9", "k1=0.1"]),
    # a = +-3.7e4 makes the leading terms ~2e30, so rounding leaves ~5e14
    # in the value of the leading equation, far above 1e-8 * |a|
    ("y'' + k0*y'^3*y'^2 + k1*y''^3*y^2*y^2", ["k0=1e9", "k1=1.5"]),
], ids=["linear-step", "leading-equation"])
def test_wide_scale_coefficients_solve(tmp_path, ode, params):
    # a float value is judged zero against its own rounding, never against
    # an absolute 1e-13 or 1e-8 * |a|: these exited 3 and 2 before
    argv = ["analyze", "--ode", ode]
    for p in params:
        argv += ["--param", p]
    assert run_json(tmp_path, argv)["series"]["solutions"]


def test_one_equation_one_branch(tmp_path):
    # exact and float coefficients find their roots on one path, so they
    # pick the same leading coefficient, and 2.0 gives the exact root -i
    def leading(ode):
        payload = run_json(tmp_path, ["series", "--ode", ode])
        return [s["leading_coefficient"] for s in payload["series"]["solutions"]]

    assert leading("y'' + y^3") == leading("y'' + 1.0*y^3") == [[0, -1.414213562373095]]
    assert leading("y'' + 2.0*y^3") == [[0, -1]]


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--param", "omega=1/0"], "--param 'omega=1/0': division by zero"),
    (["series", "--free", "4=1/0"], "--free '4=1/0': division by zero"),
    (["series", "--free", "1/0=1"], "--free '1/0=1': division by zero"),
    (["report", "--param", "omega=1/0"], "--param 'omega=1/0': division by zero"),
    (["integrate", "--omega", "1/0"], "--omega '1/0': division by zero"),
    (["probe", "--ic", "1,1/0"], "--ic '1/0': division by zero"),
    (["probe", "--path", "0:2/0"], "--path '2/0': division by zero"),
    (["verify-exact", "--C", "3/0"], "--C '3/0': division by zero"),
    # every other literal a flag refuses is reported the same way
    (["analyze", "--param", "omega=abc"],
     "--param 'omega=abc': bad complex literal: 'abc'"),
    (["report", "--param", "omega="], "--param 'omega=': empty complex literal"),
    (["series", "--free", "x=1"],
     "--free 'x=1': Invalid literal for Fraction: 'x'"),
    (["series", "--free", "1=abc"], "--free '1=abc': bad complex literal: 'abc'"),
    (["integrate", "--omega", "abc"], "--omega 'abc': bad complex literal: 'abc'"),
    (["probe", "--ic", "1,abc"], "--ic 'abc': bad complex literal: 'abc'"),
    (["probe", "--path", "0:1+"], "--path '1+': bad complex literal: '1+'"),
    (["verify-exact", "--A", "1 2"],
     "--A '1 2': whitespace inside complex literal: '1 2'"),
    # a literal that is nonzero as written must not silently become 0.0;
    # in ODE text the refusal names the literal's position
    (["analyze", "--param", "c=1e-400"],
     "--param 'c=1e-400': complex literal '1e-400' underflows to zero"),
    (["integrate", "--ic", "1e-400,0"],
     "--ic '1e-400': complex literal '1e-400' underflows to zero"),
    (["integrate", "--omega", "1e-400"],
     "--omega '1e-400': complex literal '1e-400' underflows to zero"),
    (["probe", "--path", "0:1e-400"],
     "--path '1e-400': complex literal '1e-400' underflows to zero"),
    (["analyze", "--ode", "y'' - 1e-400*y^3"],
     "complex literal '1e-400' underflows to zero (line 1, column 7)"),
], ids=["analyze-param", "series-free-value", "series-free-resonance",
        "report-param", "integrate-omega", "probe-ic", "probe-path",
        "verify-exact-C", "analyze-param-text", "report-param-empty",
        "series-free-resonance-text", "series-free-value-text",
        "integrate-omega-text", "probe-ic-text", "probe-path-text",
        "verify-exact-A-space", "analyze-param-underflow",
        "integrate-ic-underflow", "integrate-omega-underflow",
        "probe-path-underflow", "analyze-ode-underflow"])
def test_exact_division_by_zero_names_the_flag_and_value(argv, message,
                                                         capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unknown_option_reports_the_subcommand_usage(capsys):
    assert main(["verify-exact", "--alpha0", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: merosolve verify-exact [-h]")
    assert err.endswith(
        "merosolve verify-exact: error: unrecognized arguments: --alpha0 2\n")
    # an unknown option before the subcommand is still the top level's
    assert main(["--bogus", "analyze"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: merosolve [-h]")
    assert err.endswith("merosolve: error: unrecognized arguments: --bogus\n")


def test_verify_exact_has_no_initial_condition_flags(capsys):
    # the from-ic case always starts the width from (1, 0); no flag sets it
    for flag in ("--alpha0", "--dalpha0"):
        assert main(["verify-exact", flag, "2"]) == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("integrate", "--ic", "-1,0"),
    ("integrate", "--path", "-1:1"),
    ("probe", "--ic", "-0.5,0"),
    ("probe", "--ic", "-.5,0"),
    ("verify-exact", "--A", "-1/2"),
    ("verify-exact", "--omega", "-2i"),
    ("integrate", "--omega", "-i"),
])
def test_negative_value_as_a_separate_argument(command, flag, value, tmp_path,
                                              capsys):
    # argparse reads only -N and -N.N as numbers; a token of '-' and then a
    # digit, '.' or 'i' is the value of the flag before it, as in FLAG=VALUE
    runs = []
    for argv in ([flag, value], [f"{flag}={value}"]):
        out = tmp_path / "out.json"
        rc = main([command, *argv, "--out", str(out)])
        text = out.read_text(encoding="utf-8") if rc == 0 else None
        runs.append((rc, capsys.readouterr().err, text))
        out.unlink(missing_ok=True)
    assert runs[0] == runs[1]
    rc, err, _ = runs[0]
    assert "usage:" not in err
    # -1/2 is no width constant, and the quadratic form says so
    assert rc == (2 if flag == "--A" else 0)


def test_main_builds_one_parser_tree(tmp_path, monkeypatch):
    import argparse

    from merosolve import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    cli._build_parser()
    one_tree = len(built)
    cli._build_parser.cache_clear()
    built.clear()
    for command in (["series"], ["verify-exact", "--case", "pinney"],
                    ["analyze"]):
        assert main(command + ["--out", str(tmp_path / "out.json")]) == 0
    assert built and len(built) <= one_tree


def test_internal_inconsistency_exits_3(tmp_path, capsys, monkeypatch):
    from merosolve import report as rpt
    from merosolve.errors import InternalInconsistencyError

    def broken(*args, **kwargs):
        raise InternalInconsistencyError("forced failure for the exit path")

    monkeypatch.setattr(rpt, "analysis_payload", broken)
    assert main(["analyze", "--out", str(tmp_path / "x.json")]) == 3
    assert "internal inconsistency" in capsys.readouterr().err


def test_every_subcommand_default_case_is_fast(tmp_path):
    import time

    commands = [
        ["analyze"],
        ["series"],
        ["closed-form"],
        ["integrate"],
        ["probe"],
        ["verify-exact"],
        ["report"],
    ]
    for args in commands:
        out = tmp_path / (args[0] + ".json")
        start = time.monotonic()
        assert main(args + ["--out", str(out)]) == 0
        assert time.monotonic() - start < 5.0, args[0]


# ---------------------------------------------------------------------------
# open exit-3 inputs: each is a known defect, pinned so that its fix flips
# the strict xfail
# ---------------------------------------------------------------------------

@pytest.mark.xfail(strict=True, reason=(
    "a 1e-300 coefficient can still reach exit 3: the p = -3 family has "
    "a = 9.6e-299, linear_response underflows to zero, and the first "
    "non-resonant order reports a singular linear step"))
def test_tiny_coefficient_on_a_high_derivative_never_exits_3(tmp_path):
    argv = ["closed-form", "--ode",
            "y'' + k0*y''^3*y''^2 + k1*y'*y''^3*y^2 + k2*y^2",
            "--param", "k0=1e-300", "--param", "k1=0.5", "--param", "k2=0.3",
            "--out", str(tmp_path / "out.json")]
    assert main(argv) in (0, 2)


@pytest.mark.xfail(strict=True, reason=(
    "the perfect square (y'' - c*y^3)^2 has double leading roots, where the "
    "float linear response is rounding noise: c = 3 reports 'resonance -1 "
    "missing' while c = 2 reports a degenerate family"))
def test_perfect_square_fails_alike_for_every_coefficient(capsys):
    outcomes = []
    for c in (2, 3):
        code = main(["analyze", "--ode", f"(y'' - {c}*y^3)^2"])
        outcomes.append((code, capsys.readouterr().err))
    assert outcomes[0] == outcomes[1]
