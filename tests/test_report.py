import contextlib
import io
import json
import math
import random
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from merosolve import report
from merosolve.errors import ExponentUnresolvedError
from merosolve.exactlab import pinney_zero
from merosolve.report import (
    REPORT_SCHEMA,
    Analysis,
    analysis_claims,
    analyze_payload,
    claimed_pole_coefficients,
    coefficient_comparison_section,
    complex_json,
    exactlab_claims,
    exactlab_results,
    numeric_claims,
    to_json,
)
from merosolve.scalars import QComplex

EP_TEXT = "y'' + omega^2*y - y^-3"


# ---------------------------------------------------------------------------
# claimed recursion values (formula evaluations, checked by hand)
# ---------------------------------------------------------------------------

def test_claimed_coefficients_at_unit_frequency():
    claimed = claimed_pole_coefficients(QComplex(1), QComplex(0, 1))
    assert claimed[-1] == QComplex(0, 1)
    assert claimed[0] == 0
    assert claimed[1] == QComplex(0, Fraction(-2, 3))
    # a2 = -(a*a1) / (6 a1 + 4 a a1 + 2 a) with a = i: denominator 8/3 - 2i
    assert claimed[2] == QComplex(Fraction(-4, 25), Fraction(-3, 25))
    assert claimed[3] is not None


def test_recomputed_coefficients_at_unit_frequency():
    # hand-derived forced expansion: y = i/tau + c1 tau + c3 tau^3 + ...
    # order tau^-5 gives c0 = 0; tau^-4 gives 6 a^3 c1 + a^4 = 0, so
    # c1 = -i/6; tau^-3 vanishes identically, c2 = 0; tau^-2 carries
    # 6 a^2 c1^2 + 4 a^3 c1 = -1/2 against response 12 a^3 = -12i, so
    # c3 = i/24.
    analysis = Analysis(EP_TEXT, {"omega": 1})
    assert analysis.residue == QComplex(0, 1)
    series = analysis.forced.series.coeffs
    assert series.get(0, 0) == 0
    assert series[1] == QComplex(0, Fraction(-1, 6))
    assert series.get(2, 0) == 0
    assert series[3] == QComplex(0, Fraction(1, 24))


def test_comparison_table_flags():
    table = coefficient_comparison_section(Analysis(EP_TEXT, {"omega": 1}))
    rows = {row["index"]: row for row in table["rows"]}
    assert rows[0]["match"] is True
    assert rows[1]["match"] is False
    assert rows[2]["match"] is False
    assert table["leading_equation_violated"] is True


def test_analyze_solves_each_series_once(monkeypatch):
    # one solve for the single consistent family (p = 1/2) plus the forced
    # p = -1 solve; the claimed-pole block is built once for the closed-form
    # section and the ledger together
    from merosolve import series

    calls = {"solve": 0, "synthetic": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(series, "solve_local_series",
                        counted("solve", series.solve_local_series))
    monkeypatch.setattr(series, "synthetic_laurent_solution",
                        counted("synthetic", series.synthetic_laurent_solution))
    analyze_payload(EP_TEXT, {"omega": QComplex(1)})
    assert calls == {"solve": 2, "synthetic": 1}


def test_analyze_solves_each_resonance_polynomial_once(monkeypatch, w3_poly,
                                                       w3_family):
    # the family search solves the p = 1/2 family's polynomial and stores
    # the resonances, its series solve reads them, and the forced p = -1
    # solve needs its own
    from merosolve import balance, series

    calls = []
    rational_resonances = balance.rational_resonances

    def counted(fam, a):
        calls.append(a)
        return rational_resonances(fam, a)

    monkeypatch.setattr(balance, "rational_resonances", counted)
    monkeypatch.setattr(series, "rational_resonances", counted)
    analyze_payload(EP_TEXT, {"omega": QComplex(1)})
    assert len(calls) == 2

    # y'' = 2 y^3 has the roots -1 and 1; only the first one's resonances
    # are stored, and a forced solve recomputes even at that root
    calls.clear()
    first, other = w3_family.leading_coeffs
    stored = series.solve_local_series(w3_poly, w3_family, first, K=6)
    assert calls == []
    series.solve_local_series(w3_poly, w3_family, other, K=6)
    forced = series.solve_local_series(w3_poly, w3_family, first, K=6, force=True)
    assert calls == [other, first]
    assert stored.series == forced.series
    assert stored.free_parameters == forced.free_parameters


def test_analyze_linearizes_each_family_once(monkeypatch, tmp_path):
    # the family search linearizes every family it returns, the
    # one-monomial p = -1 pole family of the width equation included; the
    # series solve and the forced p = -1 solve read those linearizations
    from merosolve import balance
    from merosolve.cli import main

    calls = []
    linearize = balance.linearize

    def counted(poly, p, dominant):
        calls.append(p)
        return linearize(poly, p, dominant)

    monkeypatch.setattr(balance, "linearize", counted)
    out = str(tmp_path / "out.json")
    for argv, linearized in (
        (["analyze"], [Fraction(-1), Fraction(1, 2)]),
        (["report"], [Fraction(-1), Fraction(1, 2)]),
        # y'' = 2 y^3: the search linearizes the p = -1 family and the
        # series solve and the forced residue solve read it
        (["analyze", "--ode", "y'' - 2*y^3"], [Fraction(-1)]),
    ):
        calls.clear()
        assert main(argv + ["--out", out]) == 0
        assert calls == linearized


def test_analyze_builds_the_comparison_table_once(monkeypatch):
    # the series section and the pole-coefficient-recursion claim read one
    # table, and the forced series is solved only through its last index
    calls = []

    def counted(a):
        calls.append(a)
        return coefficient_comparison_section(a)

    monkeypatch.setattr(report, "coefficient_comparison_section", counted)
    payload = analyze_payload(EP_TEXT, {"omega": QComplex(1)})
    assert len(calls) == 1
    claim = next(c for c in payload["claims"]
                 if c["id"] == "pole-coefficient-recursion")
    table = payload["series"]["coefficient_comparison"]
    assert claim["evidence"]["rows"] is table["rows"]
    assert max(calls[0].forced.series.coeffs) == report.COMPARED_INDICES[-1] == 3


def test_analyze_builds_the_claimed_candidate_json_once(monkeypatch):
    # the closed-form section and the exact-cot-solution claim read one entry
    sources = []
    candidate_json = report._candidate_json

    def counted(cand, source):
        sources.append(source)
        return candidate_json(cand, source)

    monkeypatch.setattr(report, "_candidate_json", counted)
    payload = analyze_payload(EP_TEXT, {"omega": QComplex(1)})
    assert sources.count("claimed-pole-data") == 1
    [entry] = [c for c in payload["closed_form"]["candidates"]
               if c["source"] == "claimed-pole-data"]
    claim = next(c for c in payload["claims"] if c["id"] == "exact-cot-solution")
    assert claim["evidence"]["residual_norm"] == entry["residual_norm"]
    assert claim["status"] == ("confirmed" if entry["verified"] else "refuted")


def test_ledger_ids_are_unique_and_anchored():
    claims = (analysis_claims(Analysis(EP_TEXT, {"omega": 1}))
              + exactlab_claims(exactlab_results())
              + numeric_claims([]))
    ids = [c["id"] for c in claims]
    assert len(ids) == len(set(ids)) == 13
    assert all(isinstance(c["anchor"], str) and c["anchor"].strip()
               for c in claims)


# ---------------------------------------------------------------------------
# claims evaluation on synthetic probe payloads
# ---------------------------------------------------------------------------

def probe(t_star, kind="zero-of-alpha"):
    return {"kind": kind, "t_star": complex_json(t_star) if t_star else None}


def test_numeric_claims_confirmed_for_conjugate_pair():
    claims = numeric_claims([probe(1j), probe(-1j)])
    assert claims[0]["status"] == "confirmed"
    assert claims[0]["evidence"]["conjugate_pair_found"] is True


def test_numeric_claims_refuted_off_axis():
    claims = numeric_claims([probe(0.5 + 1j), probe(0.5 - 1j)])
    assert claims[0]["status"] == "refuted"


def test_numeric_claims_not_applicable_without_detection():
    claims = numeric_claims([probe(None, kind="none")])
    assert claims[0]["status"] == "not-applicable"


@pytest.mark.parametrize("error", [
    ValueError("need at least 8 samples inside the fit annulus, got 3"),
    ExponentUnresolvedError("exponent unresolved: fit R^2 = 0.5000",
                            r_squared=0.5),
])
def test_probe_payload_reports_an_unresolved_exponent(monkeypatch, error):
    def fit(traj, t_star):
        raise error

    monkeypatch.setattr(report, "fit_local_exponent", fit)
    payload = report.probe_payload(0, (1, 0), [0, 0.999j])
    assert payload["kind"] == "zero-of-alpha"
    assert payload["exponent"] == {"error": str(error)}


def test_probe_payload_does_not_swallow_programming_errors(monkeypatch):
    def fit(traj, t_star):
        raise TypeError("unsupported operand type(s)")

    monkeypatch.setattr(report, "fit_local_exponent", fit)
    with pytest.raises(TypeError):
        report.probe_payload(0, (1, 0), [0, 0.999j])


def _probe_points(seed, count):
    """Seeded initial data (alpha0, alpha0', omega) drawn from the boxes
    the probe benchmark draws from."""
    rng = random.Random(seed)
    box = ((0.8, 2.5), (-0.8, 0.8), (0.6, 1.6))
    return [tuple(round(rng.uniform(lo, hi), 6) for lo, hi in box)
            for _ in range(count)]


@pytest.mark.parametrize("a0, da0, omega", _probe_points(30, 6))
def test_probe_payload_reaches_the_closed_form_zero(a0, da0, omega):
    # a probe aimed at the closed-form zero of the width locates it and
    # fits the square-root exponent there
    t_star = pinney_zero(a0, da0, omega)
    payload = report.probe_payload(omega, (a0, da0), [0, t_star], tol=1e-10)
    assert payload["kind"] == "zero-of-alpha"
    assert abs(complex(*payload["t_star"]) - t_star) <= 1e-8
    assert abs(payload["exponent"]["value"] - 0.5) <= 1e-4


def invariant_status(results):
    statuses = {c["id"]: c["status"] for c in exactlab_claims(results)}
    return statuses["invariant-conservation"]


@pytest.mark.parametrize("omega", [0.1, 0.5, 1, 2, 3, 5, 10])
def test_invariant_conservation_holds_at_default_tolerance(omega):
    # the drift threshold is 100 * tol = 1e-8; at the default tol 1e-10 the
    # largest drift over these frequencies is about 1.7e-9 (omega = 5)
    results = exactlab_results(omega=omega, tol=1e-10)
    assert results["invariant"]["threshold"] == 1e-8
    assert invariant_status(results) == "confirmed"


@pytest.mark.parametrize("omega, tol", [(1, 1e-8), (5, 1e-9)])
def test_invariant_threshold_follows_tolerance(omega, tol):
    # both drifts are about 1.7e-8, above a fixed 1e-8 but well inside
    # 100 * tol
    results = exactlab_results(omega=omega, tol=tol)
    assert results["invariant"]["drift"] > 1e-8
    assert results["invariant"]["threshold"] == 100 * tol
    assert invariant_status(results) == "confirmed"


def test_invariant_large_drift_is_refuted():
    results = exactlab_results(omega=1, tol=1e-10)
    results["invariant"]["drift"] = 1e-2
    assert invariant_status(results) == "refuted"


def test_analysis_claim_statuses_default(ep_poly):
    payload = analyze_payload(EP_TEXT, {"omega": QComplex(1)})
    statuses = {c["id"]: c["status"] for c in payload["claims"]}
    assert statuses["simple-pole-family"] == "refuted"
    assert statuses["branch-point-order-two"] == "confirmed"
    assert statuses["imaginary-free-residue"] == "refuted"
    assert statuses["pole-coefficient-recursion"] == "refuted"
    assert statuses["exact-cot-solution"] == "refuted"
    assert statuses["no-painleve-property"] == "confirmed"
    jsonschema.validate(payload, REPORT_SCHEMA)


def test_dual_bookkeeping_in_family_json():
    payload = analyze_payload(EP_TEXT, {"omega": QComplex(1)})
    fam = next(
        f for f in payload["balance"]["families"] if f["p"] == "-1"
    )
    assert fam["q"] == "-6"          # cleared form
    assert fam["uncleared_q"] == "-3"  # original form


# ---------------------------------------------------------------------------
# verdicts against theorems
# ---------------------------------------------------------------------------

def _polynomial_ode(rng):
    """A random y'' = P(y) or y' = P(y), deg P from 2 to 6 and coefficients
    in +-{1, 2, 3}, as ``y'' - 2*y^3 + y - 3``, a negative term also as
    ``+ -2*y``: never ``y^0``.  Returns the text, the order and deg P."""
    order, degree = rng.choice((1, 2)), rng.randint(2, 6)
    coeffs = {degree: rng.choice((-3, -2, -1, 1, 2, 3))}
    for k in range(degree):
        if rng.random() < 0.5:
            coeffs[k] = rng.choice((-3, -2, -1, 1, 2, 3))
    text = "y" + "'" * order
    for k in sorted(coeffs, reverse=True):
        c = -coeffs[k]  # the term of y^(order) - P(y)
        factors = [str(abs(c))] if abs(c) != 1 or k == 0 else []
        factors += [] if k == 0 else ["y"] if k == 1 else [f"y^{k}"]
        sign = " + " if c > 0 else rng.choice((" - ", " + -"))
        text += sign + "*".join(factors)
    return text, order, degree


def _no_painleve_status(a: Analysis) -> str:
    return next(c["status"] for c in analysis_claims(a)
                if c["id"] == "no-painleve-property")


def test_painleve_verdicts_follow_the_theorems():
    # y'' = P(y) has the Painleve property exactly when deg P <= 3, since
    # y'**2 = 2 int P + C; y' = P(y) exactly when deg P <= 2, the Riccati
    # case.  Past those degrees the balance branches, p = -2/(deg P - 1) or
    # -1/(deg P - 1), and every compatibility condition holds throughout
    rng = random.Random(5)
    for _ in range(250):
        text, order, degree = _polynomial_ode(rng)
        a = Analysis(text, {})
        painleve = degree <= (3 if order == 2 else 2)
        assert _no_painleve_status(a) == ("refuted" if painleve
                                          else "confirmed"), text
        assert all(check.satisfied for local in a.locals
                   for check in local.compatibility), text


def _open_verdict(items, why):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP {items}: {why}")


@pytest.mark.parametrize("ode, status", [
    pytest.param("y'' - 2*y^3 - 3*y*y'", "confirmed", marks=_open_verdict(
        "item 8", "the root a = 2 has resonance 5/2, movable branching, but "
                  "the verdict reads only the family's branch order")),
    pytest.param("y'' - 2*y^3 - y'", "confirmed", marks=_open_verdict(
        "items 8 and 21", "the compatibility condition at r = 4 fails, a "
                          "movable logarithm, but the verdict reads only "
                          "the branch order")),
    pytest.param("y'' - 6*y^2 - y'", "confirmed", marks=_open_verdict(
        "items 8 and 21", "the compatibility condition at r = 6 fails, a "
                          "movable logarithm, but the verdict reads only "
                          "the branch order")),
    pytest.param("y'' - 2*y^3 - y*y'", "confirmed", marks=_open_verdict(
        "items 3 and 8", "the second resonance is irrational and is never "
                         "found")),
    # positive control: a linearisable equation with the Painleve property
    ("y'' + 3*y*y' + y^3", "refuted"),
])
def test_painleve_verdict_on_known_equations(ode, status):
    a = Analysis(ode, {})
    assert _no_painleve_status(a) == status
    if status == "refuted":
        assert all(check.satisfied for local in a.locals
                   for check in local.compatibility)


# ---------------------------------------------------------------------------
# JSON emitter
# ---------------------------------------------------------------------------

def test_to_json_float_formatting():
    assert to_json(math.pi) == "3.1415926535897931"
    assert to_json(1e30) == "1e+30"
    assert to_json(0.0) == "0"
    assert to_json(True) == "true"
    assert to_json(None) == "null"


def test_to_json_rejects_non_finite():
    with pytest.raises(ValueError):
        to_json(float("nan"))
    with pytest.raises(ValueError):
        to_json(float("inf"))


def test_to_json_escapes_strings():
    assert to_json('a"b\\c') == '"a\\"b\\\\c"'
    assert to_json("line\nbreak") == '"line\\u000abreak"'


def _escape_by_loop(s):
    """Reference escape, one character at a time: '"' and backslash get a
    backslash, code points below 0x20 a \\u escape."""
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.text(st.characters(max_codepoint=0x7f)),
    st.text(st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028a\u00e9\U0001f600')),
))
def test_escape_matches_the_character_loop_and_round_trips(s):
    escaped = to_json(s)
    assert escaped == _escape_by_loop(s)
    assert json.loads(escaped) == s


def test_to_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        to_json({"x": object()})
    with pytest.raises(TypeError):
        to_json({1: "non-string key"})
    # an unknown value inside a table of float rows
    with pytest.raises(TypeError):
        to_json([[1.0, 2.0], [0.5, object()]])


def _reference_json(obj, indent=0):
    """Reference writer, one value at a time: the element-wise rules of
    to_json with no row or table shortcut."""
    pad, pad_in = "  " * indent, "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite float in report payload")
        if obj == 0.0:
            return "0" if math.copysign(1.0, obj) > 0 else "-0"
        return format(obj, ".17g")
    if isinstance(obj, str):
        return _escape_by_loop(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_reference_json(v, indent + 1) for v in obj]
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(pad_in + item for item in items) + "\n" + pad + "]"
    if not obj:
        return "{}"
    parts = [pad_in + _escape_by_loop(k) + ": " + _reference_json(v, indent + 1)
             for k, v in obj.items()]
    return "{\n" + ",\n".join(parts) + "\n" + pad + "}"


_FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_FINITE_FLOATS, min_size=1, max_size=8))
def test_to_json_float_row_matches_per_item_formatting(row):
    # a row of plain floats takes the one-pass path; it must print what
    # the element-wise writer prints for each item
    want = "[" + ", ".join(_reference_json(v) for v in row) + "]"
    assert to_json(row) == want
    assert to_json(tuple(row)) == want
    assert to_json({"rows": [row]}) == '{\n  "rows": [\n    ' + want + "\n  ]\n}"


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_to_json_rejects_non_finite_in_float_rows(bad):
    with pytest.raises(ValueError, match="non-finite"):
        to_json([1.0, bad, -0.0])
    with pytest.raises(ValueError, match="non-finite"):
        to_json({"samples": [[0.0, 1.0], [bad, 0.5]]})


@pytest.mark.parametrize("where, payload", [
    ("a[1].b[2]", {"a": [1, {"b": [1, "s", math.inf]}]}),
    ("[0].t[1]", ({"t": (1, math.nan)},)),
    ("[1][1][0].k", [[1, 2], [3, [{"k": -math.inf}]]]),
    # a float row or table is named as a whole
    ("x.rows", {"x": {"rows": [[0.0], [math.nan]]}}),
    ("x[1].y", {"x": [0, {"z": "s", "y": math.inf}]}),
])
def test_to_json_names_the_path_to_a_non_finite_float(where, payload):
    with pytest.raises(ValueError) as info:
        to_json(payload)
    assert str(info.value) == "non-finite float in report payload at " + where


def _rows_of(values, max_size=6):
    # lists and tuples, ragged and empty
    return st.one_of(st.lists(values, max_size=max_size),
                     st.lists(values, max_size=max_size).map(tuple))


class _Float(float):
    pass


class _Int(int):
    pass


class _Str(str):
    pass


# the characters that need an escape, and printable and non-printable ones
# that need none
_TEXT = st.one_of(
    st.text(max_size=3),
    st.text(st.sampled_from('"\\\x00\x1f\x7f \u00e9\u2028\U0001f600a'), max_size=4),
)
_SUBCLASS_VALUES = st.one_of(
    _FINITE_FLOATS.map(_Float), st.integers().map(_Int), _TEXT.map(_Str),
)
_FLOAT_ROWS = _rows_of(_FINITE_FLOATS)
_MIXED_ROWS = _rows_of(st.one_of(
    _FINITE_FLOATS, st.integers(), st.booleans(), st.none(),
    st.text(max_size=3), st.lists(_FINITE_FLOATS, max_size=2),
))
# long tables too, a few hundred rows as the CLI prints: a short drawn
# table repeated to the drawn length
_LONG_TABLES = st.builds(
    lambda rows, n: [rows[i % len(rows)] for i in range(n)],
    st.lists(st.one_of(_FLOAT_ROWS, st.lists(_FINITE_FLOATS, min_size=6,
                                             max_size=6)),
             min_size=1, max_size=4),
    st.integers(min_value=100, max_value=400),
)
_TABLES = st.one_of(
    _rows_of(st.one_of(_FLOAT_ROWS, _FLOAT_ROWS.filter(bool), _MIXED_ROWS),
             max_size=5),
    _LONG_TABLES, _LONG_TABLES.map(tuple),
)
_PAYLOADS = st.recursive(
    st.one_of(_FINITE_FLOATS, st.integers(), st.booleans(), st.none(), _TEXT,
              _FLOAT_ROWS, _MIXED_ROWS, _TABLES),
    lambda children: st.one_of(
        _rows_of(children, max_size=4),
        st.dictionaries(
            st.one_of(_TEXT, _TEXT.map(_Str)),
            st.one_of(children, _SUBCLASS_VALUES,
                      st.lists(children, max_size=3).map(tuple)),
            max_size=4,
        ),
    ),
    max_leaves=12,
)


@settings(max_examples=250, deadline=None)
@given(_PAYLOADS)
def test_to_json_tables_match_the_element_wise_writer(payload):
    assert to_json(payload) == _reference_json(payload)


@settings(max_examples=100, deadline=None)
@given(st.lists(_FLOAT_ROWS.filter(bool), min_size=1, max_size=5), st.data())
def test_to_json_non_finite_anywhere_in_a_table_raises(table, data):
    bad = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    i = data.draw(st.integers(min_value=0, max_value=len(table) - 1))
    row = list(table[i])
    row[data.draw(st.integers(min_value=0, max_value=len(row) - 1))] = bad
    table[i] = row
    for payload in (table, {"samples": table}, [table]):
        with pytest.raises(ValueError, match="non-finite float in report payload"):
            _reference_json(payload)
        with pytest.raises(ValueError, match="non-finite float in report payload"):
            to_json(payload)


def test_to_json_float_subclass_row_renders_the_same_bytes():
    row = [0.0, -0.0, 1.5, 5e-324, -2.5e300, math.pi]
    assert to_json([_Float(v) for v in row]) == to_json(row)
    assert to_json([1.0, _Float(-0.0)]) == "[1, -0]"
    with pytest.raises(ValueError, match="non-finite"):
        to_json([_Float(math.inf)])


def test_every_claim_verdict_depends_on_the_input():
    # a check whose (status, evidence) no input of a fixed corpus changes is
    # a constant, not a computed verdict: every claim id must give at least
    # two distinct pairs over the golden analyze and verify-exact inputs and
    # two report runs that differ only in the probes' initial data
    from merosolve.cli import main
    from test_golden import CASES

    runs = [argv for argv in CASES.values() if argv[0] == "analyze"]
    runs += [["verify-exact"]]
    runs += [argv for argv in CASES.values() if argv[0] == "verify-exact"]
    runs += [["report", "--ic", "1,0"], ["report", "--ic", "0.5,0"]]
    seen = {}
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        for claim in json.loads(out.getvalue())["claims"]:
            seen.setdefault(claim["id"], set()).add(
                (claim["status"], to_json(claim["evidence"])))
    ids = [*report.ANALYSIS_CHECKS, *report.EXACTLAB_CHECKS,
           *report.NUMERIC_CHECKS]
    assert sorted(seen) == sorted(ids)
    assert {i: len(seen[i]) for i in ids if len(seen[i]) < 2} == {}
