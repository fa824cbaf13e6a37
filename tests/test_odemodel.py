import cmath
import random

import pytest

from merosolve.errors import (
    NormalizationError,
    OdeSyntaxError,
    UnboundParameterError,
)
from merosolve.odemodel import (
    Add,
    Const,
    DiffMonomial,
    DifferentialPolynomial,
    Mul,
    Param,
    Pow,
    Y,
    eval_ast,
    normalize,
    parse_ode,
    unique_highest_degree_term,
    unparse,
)
from merosolve.scalars import QComplex, parse_complex_literal


def degrees_map(poly):
    return {m.degrees: m.coeff for m in poly.monomials}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_ep_has_three_addends():
    ast = parse_ode("y'' + omega^2*y - y^-3")
    assert isinstance(ast, Add)
    assert len(ast.terms) == 3


def test_parse_fourth_derivative():
    ast = parse_ode("y'''' ")
    assert ast == Y(4)


def test_parse_stray_operator_reports_position():
    with pytest.raises(OdeSyntaxError) as err:
        parse_ode("y'' + * y")
    assert err.value.column == 7


def test_parse_rejects_tenth_derivative():
    parse_ode("y" + "'" * 9)  # order 9 is the limit
    with pytest.raises(OdeSyntaxError):
        parse_ode("y" + "'" * 10)


def test_parse_rejects_unknown_token():
    with pytest.raises(OdeSyntaxError):
        parse_ode("y'' + $")


def test_parse_rejects_zero_exponent():
    with pytest.raises(OdeSyntaxError):
        parse_ode("y^0")


def test_parse_empty_input():
    with pytest.raises(OdeSyntaxError):
        parse_ode("   ")


def test_parse_leading_minus_and_parens():
    ast = parse_ode("-(y + 1)*y''")
    assert isinstance(ast, Mul)


@pytest.mark.parametrize("text, explicit", [
    ("y'' + -y^3", "y'' - y^3"),
    ("y'' - (2 + -1*y)", "y'' - (2 - 1*y)"),
    ("y''*-y", "y''*(-1)*y"),
    ("y'' - -y^3", "y'' + y^3"),
    ("y'' + -2*y^3", "y'' - 2*y^3"),
    ("y'' - y*-(y + 1)", "y'' + y*(y + 1)"),
    ("y'' + +y", "y'' + y"),
])
def test_sign_after_an_operator(text, explicit):
    ast = parse_ode(text)
    assert degrees_map(normalize(ast, {})) == \
        degrees_map(normalize(parse_ode(explicit), {}))
    # unparse writes the explicit form, which reads back as the same tree
    assert parse_ode(unparse(ast)) == ast


@pytest.mark.parametrize("text, column", [
    ("y'' + -", 8), ("y'' - -", 8), ("y''*-", 6), ("y'' + - * y", 9)])
def test_dangling_sign_reports_position(text, column):
    with pytest.raises(OdeSyntaxError) as err:
        parse_ode(text)
    assert err.value.column == column


def test_negated_sum_keeps_its_parentheses():
    # unparse printed -(2 - y) as - 2 - y, which reads back as another sum
    for text in ("y'' - (2 - y)", "-(y - 2) + y''", "y'' + (-1)*(2 - y)"):
        ast = parse_ode(text)
        assert parse_ode(unparse(ast)) == ast
    assert unparse(parse_ode("y'' - (2 - y)")) == "y'' - (2 - y)"


def test_unparse_round_trip_on_text():
    for text in (
        "y'' + omega^2*y - y^-3",
        "y'' - 2*y^3",
        "y' + 1 + y^2",
        "-y + 2.5*y''",
        "(y + 1)^2 - omega*y",
        # float constants whose repr has an exponent or is subnormal, a
        # -0.0 factor, and a float 1.0 that negation must keep
        "y'' - 1e-05*y^3",
        "y'' + 2.5e+300*y - y^3",
        "5e-324*y'' - y^2",
        "y*(-0.0) + y''",
        "y'' - 1.0*y*y'",
    ):
        ast = parse_ode(text)
        again = parse_ode(unparse(ast))
        # repr tells the signs of zero parts and float from exact apart
        assert again == ast and repr(again) == repr(ast)


# negative constants that head no addend: a factor after the first, a
# power's base and a whole negated equation, which unparse prints as (-2)
NEGATIVE_CONSTANT_INPUTS = (
    "y'' - 2*(-y)^3",
    "y'' + (-5)^-1",
    "-(y'' - 2*y^3)",
    "y''*(-2) + y^3",
)


@pytest.mark.parametrize("text", NEGATIVE_CONSTANT_INPUTS + (
    "y''*(-2.5) + y^3", "(-0.5)^2*y'' - y", "-(2.5*y'')",
    # -0.0 is negative by its sign bit, though not less than zero
    "y'' - 0.0 + y^3", "y'' - 0.0*y + y^3", "y''*(-0.0) + y^3",
    "y'' + (-0.0)^3*y + y^3"))
def test_unparse_round_trip_of_negative_constants(text):
    ast = parse_ode(text)
    assert parse_ode(unparse(ast)) == ast


@pytest.mark.parametrize("text, printed", [
    ("y'' - 0.0 + y^3", "y'' - 0.0 + y^3"),
    ("y'' - 0.0*y + y^3", "y'' - 0.0*y + y^3"),
    ("y''*(-0.0) + y^3", "y''*(-0.0) + y^3"),
    ("y'' + (-0.0)^3*y + y^3", "y'' + (-0.0)^3*y + y^3"),
])
def test_negative_zero_prints_its_sign(text, printed):
    assert unparse(parse_ode(text)) == printed


def test_negated_float_one_stays_float():
    poly = normalize(parse_ode("y'' - (-1.0)*y*y'"), {})
    assert not poly.is_exact
    assert poly.to_text() == "1.0*y*y' + y''"


def _literal_corpus():
    """Decimal and integer literals as ODE text writes them: fixed edge
    cases, then seeded long digit strings and decimals across the whole
    exponent range, the refused ones included."""
    rng = random.Random(19)
    literals = ["3.", ".5", "1E-3", "2.5e+300", "5e-324", "1e-310", "0.0",
                "0e5", "7", "0", "1e-400", "1e400", "2.5e-324", "2e-324"]

    def digits(lo, hi):
        return "".join(rng.choice("0123456789") for _ in range(rng.randint(lo, hi)))

    for _ in range(60):
        literals.append(rng.choice("123456789") + digits(10, 60))
        mantissa = rng.choice([digits(1, 30) + "." + digits(0, 30),
                               "." + digits(1, 30), digits(1, 30)])
        literals.append(f"{mantissa}{rng.choice('eE')}{rng.choice(['', '+', '-'])}"
                        f"{rng.randint(0, 400)}")
    return literals


@pytest.mark.parametrize("literal", _literal_corpus())
def test_ode_literals_read_as_flag_literals(literal):
    # a number in ODE text and a parameter bound to the same text reach
    # normalize as the same coefficient, or are refused for the same reason
    try:
        c = parse_complex_literal(literal)
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc) if isinstance(exc, OverflowError)
                           else OdeSyntaxError) as err:
            parse_ode(f"y'' - {literal}*y^3")
        assert str(err.value).startswith(str(exc))
        return
    in_text = normalize(parse_ode(f"y'' - {literal}*y^3"), {})
    bound = normalize(parse_ode("y'' - c*y^3"), {"c": c})
    assert degrees_map(in_text) == degrees_map(bound)
    assert in_text.is_exact == bound.is_exact


def _random_ast(rng, depth=0):
    choice = rng.random()
    if depth > 2 or choice < 0.35:
        kind = rng.randrange(3)
        if kind == 0:
            return Const(QComplex(rng.randrange(1, 9)))
        if kind == 1:
            return Param(rng.choice(["omega", "mu"]))
        return Y(rng.randrange(0, 4))
    if choice < 0.55:
        return Add(tuple(_random_ast(rng, depth + 1) for _ in range(2)))
    if choice < 0.8:
        factors = tuple(_random_ast(rng, depth + 1) for _ in range(2))
        if rng.random() < 0.3:
            # a negative factor after the first, as y*(-3)
            factors += (Const(QComplex(-rng.randrange(1, 9))),)
        return Mul(factors)
    base = _random_ast(rng, depth + 1)
    if rng.random() < 0.3:
        # a negative base, as (-3)^k, or a negated one, as (-y)^k
        base = rng.choice([Const(QComplex(-rng.randrange(1, 9))),
                           Mul((Const(QComplex(-1)), base))])
    exponent = rng.choice([1, 2, 3])
    return Pow(base, exponent)


def test_unparse_round_trip_generated():
    from fractions import Fraction

    rng = random.Random(7)
    env = {"omega": 2, "mu": 3}
    # exact values make the comparison independent of summation order
    values = [
        QComplex(Fraction(7, 10)),
        QComplex(Fraction(-3, 10)),
        QComplex(Fraction(11, 10)),
        QComplex(Fraction(1, 2)),
    ]
    for _ in range(200):
        ast = _random_ast(rng)
        text = unparse(ast)
        reparsed = parse_ode(text)
        assert eval_ast(reparsed, env, values) == eval_ast(ast, env, values)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_ep(ep_poly):
    assert ep_poly.clearing_multiplier == 3
    got = degrees_map(ep_poly)
    assert got[((0, 3), (2, 1))] == 1
    assert got[((0, 4),)] == 1
    assert got[()] == -1
    assert len(ep_poly.monomials) == 3
    assert ep_poly.is_exact


def test_normalize_already_polynomial(w3_poly):
    assert w3_poly.clearing_multiplier == 0
    got = degrees_map(w3_poly)
    assert got[((2, 1),)] == 1
    assert got[((0, 3),)] == -2


def test_normalize_rejects_constant_result():
    with pytest.raises(NormalizationError):
        normalize(parse_ode("y^-1 * y^1"), {})


def test_normalize_rejects_identically_zero():
    with pytest.raises(NormalizationError):
        normalize(parse_ode("y - y"), {})


def test_normalize_rejects_negative_derivative_power():
    with pytest.raises(NormalizationError):
        normalize(parse_ode("y'^-1 + y"), {})


def test_normalize_rejects_unbound_parameter():
    with pytest.raises(UnboundParameterError):
        normalize(parse_ode("y'' + omega^2*y"), {})


def test_normalize_merges_like_monomials():
    poly = normalize(parse_ode("y*y + y^2 + y''"), {})
    got = degrees_map(poly)
    assert got[((0, 2),)] == 2
    assert len(poly.monomials) == 2


def test_normalize_signatures_unique(ep_poly, w3_poly, cot_poly):
    for poly in (ep_poly, w3_poly, cot_poly):
        sigs = [m.degrees for m in poly.monomials]
        assert len(sigs) == len(set(sigs))


def _smooth_probe(t):
    """A strictly positive test function with analytic derivatives."""
    f = 2.5 + cmath.sin(t) * 0.4 + cmath.cos(2 * t) * 0.2
    d1 = cmath.cos(t) * 0.4 - 2 * cmath.sin(2 * t) * 0.2
    d2 = -cmath.sin(t) * 0.4 - 4 * cmath.cos(2 * t) * 0.2
    d3 = -cmath.cos(t) * 0.4 + 8 * cmath.sin(2 * t) * 0.2
    d4 = cmath.sin(t) * 0.4 + 16 * cmath.cos(2 * t) * 0.2
    return [f, d1, d2, d3, d4]


@pytest.mark.parametrize(
    "text,env",
    [
        ("y'' + omega^2*y - y^-3", {"omega": 1}),
        ("y'' + omega^2*y - y^-3", {"omega": 2.5}),
        ("y'' - 2*y^3", {}),
        ("y' + 1 + y^2", {}),
        ("y^-2 + y'*y + mu", {"mu": 0.25}),
    ],
)
def test_normalize_preserves_solution_set(text, env):
    # original expression times f**multiplier equals the cleared polynomial
    ast = parse_ode(text)
    poly = normalize(ast, env)
    rng = random.Random(11)
    for _ in range(20):
        t = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
        values = _smooth_probe(t)
        lhs = complex(eval_ast(ast, env, values)) * values[0] ** poly.clearing_multiplier
        rhs = complex(poly.evaluate(values))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_round_trip_normalize_equivalence():
    rng = random.Random(23)
    env = {"omega": 2, "mu": 3}
    count = 0
    for _ in range(300):
        ast = _random_ast(rng)
        try:
            poly = normalize(ast, env)
        except NormalizationError:
            continue
        count += 1
        again = normalize(parse_ode(unparse(ast)), env)
        assert degrees_map(again) == degrees_map(poly)
        assert again.clearing_multiplier == poly.clearing_multiplier
    assert count > 100


# ---------------------------------------------------------------------------
# top-degree uniqueness
# ---------------------------------------------------------------------------

def test_top_degree_unique_for_cubic(w3_poly):
    result = unique_highest_degree_term(w3_poly)
    assert result.holds
    assert result.top_degree == 3


def test_top_degree_not_unique_for_cleared_width_equation(ep_poly):
    result = unique_highest_degree_term(ep_poly)
    assert not result.holds
    assert result.top_degree == 4
    assert len(result.top_monomials) == 2


def test_top_degree_constant_polynomial():
    poly = DifferentialPolynomial(
        (DiffMonomial.from_map(QComplex(-1), {}),), 0
    )
    result = unique_highest_degree_term(poly)
    assert result.holds
    assert result.top_degree == 0


def test_cleared_text_reparses_to_same_polynomial(ep_poly, w3_poly, cot_poly):
    for poly in (ep_poly, w3_poly, cot_poly):
        again = normalize(parse_ode(poly.to_text()), {})
        assert degrees_map(again) == degrees_map(poly)
        assert again.clearing_multiplier == 0
