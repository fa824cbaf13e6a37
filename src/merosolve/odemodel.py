"""ODE text model: a small DSL for autonomous scalar ODEs and normalization
to cleared differential-polynomial form.

Grammar (whitespace insignificant)::

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := ('+'|'-') factor | base ('^' signed_int)?
    base   := number | name | yterm | '(' expr ')'
    yterm  := 'y' followed by primes, one per derivative order

A sign at the start of an expression belongs to ``expr``; a sign after an
operator, as in ``y'' + -y^3`` or ``y''*-y``, is a signed factor, and ``-``
negates the factor as a leading one does its term (``-y^3`` is -(y^3)).

``y`` is the dependent variable, primes mark derivatives (``y''`` is the
second derivative, at most order 9).  Numbers are read by
:func:`merosolve.scalars.parse_complex_literal`, the reader of flag values
too: integers stay exact and decimals become floats.  A decimal that is
nonzero as written but rounds to 0.0 is an :class:`OdeSyntaxError` at its
position; one beyond the float range raises ``OverflowError``, as a flag's
does.  Parameter names are ASCII identifiers.
"""

from __future__ import annotations

import math
import re
from functools import reduce

from .errors import NormalizationError, OdeSyntaxError, UnboundParameterError
from .records import Record
from .scalars import (
    DECIMAL,
    QComplex,
    canonical_scalar,
    is_exact,
    parse_complex_literal,
    scalar_pow,
)

MAX_DERIVATIVE_ORDER = 9


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Const(Record):
    __slots__ = ("value",)  # QComplex (exact) or complex


class Param(Record):
    __slots__ = ("name",)


class Y(Record):
    __slots__ = ("order",)


class Add(Record):
    __slots__ = ("terms",)


class Mul(Record):
    __slots__ = ("factors",)


class Pow(Record):
    __slots__ = ("base", "exponent")


def ast_parameters(ast) -> set:
    """Names of all parameters appearing in the tree."""
    if isinstance(ast, Param):
        return {ast.name}
    if isinstance(ast, Add):
        return set().union(*(ast_parameters(t) for t in ast.terms))
    if isinstance(ast, Mul):
        return set().union(*(ast_parameters(f) for f in ast.factors))
    if isinstance(ast, Pow):
        return ast_parameters(ast.base)
    return set()


def eval_ast(ast, env, y_values):
    """Evaluate the tree given parameter bindings and derivative values.

    ``y_values[k]`` supplies the value of the k-th derivative.  Exactness is
    preserved when every input is exact.
    """
    if isinstance(ast, Const):
        return ast.value
    if isinstance(ast, Param):
        if ast.name not in env:
            raise UnboundParameterError(f"parameter {ast.name!r} is not bound")
        return canonical_scalar(env[ast.name])
    if isinstance(ast, Y):
        if ast.order >= len(y_values):
            raise ValueError(
                f"need derivative of order {ast.order}, got {len(y_values)} values"
            )
        return y_values[ast.order]
    if isinstance(ast, Add):
        total = eval_ast(ast.terms[0], env, y_values)
        for t in ast.terms[1:]:
            total = total + eval_ast(t, env, y_values)
        return total
    if isinstance(ast, Mul):
        prod = eval_ast(ast.factors[0], env, y_values)
        for f in ast.factors[1:]:
            prod = prod * eval_ast(f, env, y_values)
        return prod
    if isinstance(ast, Pow):
        return scalar_pow(eval_ast(ast.base, env, y_values), ast.exponent)
    raise TypeError(f"not an AST node: {ast!r}")


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _Token(Record):
    # kind: NUMBER NAME Y OP END; text: the source text, which errors quote
    __slots__ = ("kind", "value", "text", "line", "column")


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append(_Token("OP", ch, ch, line, col))
            i += 1
            col += 1
            continue
        m = DECIMAL.match(text, i)
        if m:
            literal = m.group(0)
            try:
                value = parse_complex_literal(literal)
            except ValueError as exc:
                raise OdeSyntaxError(str(exc), line, col) from None
            tokens.append(_Token("NUMBER", value, literal, line, col))
            col += len(literal)
            i = m.end()
            continue
        m = _NAME.match(text, i)
        if m:
            name = m.group(0)
            if name == "y":
                order = 0
                j = m.end()
                while j < len(text) and text[j] == "'":
                    order += 1
                    j += 1
                if order > MAX_DERIVATIVE_ORDER:
                    raise OdeSyntaxError(
                        f"derivative order {order} exceeds {MAX_DERIVATIVE_ORDER}",
                        line,
                        col,
                    )
                tokens.append(_Token("Y", order, text[i:j], line, col))
                col += j - i
                i = j
            else:
                tokens.append(_Token("NAME", name, name, line, col))
                col += len(name)
                i = m.end()
            continue
        raise OdeSyntaxError(f"unknown token {ch!r}", line, col)
    tokens.append(_Token("END", None, "", line, col))
    return tokens


def _negate(node):
    if isinstance(node, Const):
        return Const(-node.value)
    if isinstance(node, Mul) and isinstance(node.factors[0], Const):
        head = Const(-node.factors[0].value)
        rest = node.factors[1:]
        # only the exact 1 that negation itself puts in front goes; a float
        # 1.0 was written and keeps the term in float mode
        if head.value.__class__ is QComplex and head.value == 1:
            return Mul(rest) if len(rest) > 1 else rest[0]
        return Mul((head,) + rest)
    if isinstance(node, Mul):
        return Mul((Const(QComplex(-1)),) + node.factors)
    return Mul((Const(QComplex(-1)), node))


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.peek()
        if tok.kind != "OP" or tok.value != op:
            raise OdeSyntaxError(f"expected {op!r}", tok.line, tok.column)
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise OdeSyntaxError(
                f"unexpected trailing input {tok.text!r}", tok.line, tok.column
            )
        return node

    def expr(self):
        terms = []
        tok = self.peek()
        negate_first = False
        if tok.kind == "OP" and tok.value in "+-":
            self.advance()
            negate_first = tok.value == "-"
        first = self.term()
        terms.append(_negate(first) if negate_first else first)
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value in "+-":
                self.advance()
                term = self.term()
                terms.append(_negate(term) if tok.value == "-" else term)
            else:
                break
        if len(terms) == 1:
            return terms[0]
        flat = []
        for t in terms:
            if isinstance(t, Add):
                flat.extend(t.terms)
            else:
                flat.append(t)
        return Add(tuple(flat))

    def term(self):
        factors = [self.factor()]
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value == "*":
                self.advance()
                factors.append(self.factor())
            else:
                break
        if len(factors) == 1:
            return factors[0]
        flat = []
        for f in factors:
            if isinstance(f, Mul):
                flat.extend(f.factors)
            else:
                flat.append(f)
        return Mul(tuple(flat))

    def factor(self):
        # a sign after an operator, as in y'' + -y^3; one at the start of an
        # expression is read by ``expr``, so it keeps its tree
        tok = self.peek()
        if tok.kind == "OP" and tok.value in "+-":
            self.advance()
            node = self.factor()
            return _negate(node) if tok.value == "-" else node
        base = self.base()
        tok = self.peek()
        if tok.kind == "OP" and tok.value == "^":
            self.advance()
            exponent = self.signed_int()
            return Pow(base, exponent)
        return base

    def signed_int(self):
        sign = 1
        tok = self.peek()
        if tok.kind == "OP" and tok.value in "+-":
            self.advance()
            sign = -1 if tok.value == "-" else 1
            tok = self.peek()
        if tok.kind != "NUMBER":
            raise OdeSyntaxError("expected integer exponent", tok.line, tok.column)
        self.advance()
        value = tok.value
        if not (isinstance(value, QComplex) and value.im == 0 and value.re.denominator == 1):
            raise OdeSyntaxError("exponent must be an integer", tok.line, tok.column)
        exponent = sign * int(value.re)
        if exponent == 0:
            raise OdeSyntaxError("zero exponent is not allowed", tok.line, tok.column)
        return exponent

    def base(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Const(tok.value)
        if tok.kind == "NAME":
            self.advance()
            return Param(tok.value)
        if tok.kind == "Y":
            self.advance()
            return Y(tok.value)
        if tok.kind == "OP" and tok.value == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise OdeSyntaxError(
            f"unexpected token {tok.text!r}" if tok.kind != "END" else "unexpected end of input",
            tok.line,
            tok.column,
        )


def parse_ode(text: str):
    """Parse DSL text into an expression tree.  Deterministic; raises
    :class:`OdeSyntaxError` with line/column on malformed input."""
    if not text or not text.strip():
        raise OdeSyntaxError("empty input", 1, 1)
    return _Parser(_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# Unparser
# ---------------------------------------------------------------------------

def _real_constant(value):
    """``(negative, magnitude text)`` of a real constant, or None for one
    with an imaginary part.  A float is negative by its sign bit, so -0.0
    is; an exact magnitude prints as its Fraction does, ``3`` or ``3/2``."""
    if isinstance(value, QComplex):
        if value.im != 0:
            return None
        return value.re < 0, str(abs(value.re))
    if value.imag != 0:
        return None
    return math.copysign(1.0, value.real) < 0, repr(abs(value.real))


def _format_number(value) -> str:
    """A real constant as DSL text.  A negative one heads no addend (those
    are emitted via subtraction), so it is a factor, a base or the whole
    equation, and it prints in parentheses, as ``(-2)``, which the grammar
    reads back as the same constant."""
    real = _real_constant(value)
    if real is None:
        raise ValueError("complex constants are not representable in the DSL")
    negative, magnitude = real
    if "/" in magnitude:
        raise ValueError("non-integer exact constants are not representable")
    return f"(-{magnitude})" if negative else magnitude


def _is_negative_addend(node) -> bool:
    if isinstance(node, Mul):
        node = node.factors[0]
    if isinstance(node, Const):
        real = _real_constant(node.value)
        return real is not None and real[0]
    return False


def _unparse_factor(node) -> str:
    if isinstance(node, (Add, Mul)):
        return f"({unparse(node)})"
    return unparse(node)


def unparse(ast) -> str:
    """Render a tree back to DSL text; ``parse_ode(unparse(a))`` equals ``a``
    for any tree produced by :func:`parse_ode`."""
    if isinstance(ast, Const):
        return _format_number(ast.value)
    if isinstance(ast, Param):
        return ast.name
    if isinstance(ast, Y):
        return "y" + "'" * ast.order
    if isinstance(ast, Pow):
        base = ast.base
        if isinstance(base, (Add, Mul, Pow)):
            base_str = f"({unparse(base)})"
        else:
            base_str = unparse(base)
        return f"{base_str}^{ast.exponent}"
    if isinstance(ast, Mul):
        return "*".join(_unparse_factor(f) for f in ast.factors)
    if isinstance(ast, Add):
        parts = []
        for i, term in enumerate(ast.terms):
            if _is_negative_addend(term):
                # -(2 - y) negates to the sum 2 - y: it keeps its parentheses
                term = _negate(term)
                text = unparse(term)
                if isinstance(term, Add):
                    text = f"({text})"
                parts.append(("-" if i == 0 else " - ") + text)
            else:
                parts.append((" + " if i else "") + unparse(term))
        return "".join(parts)
    raise TypeError(f"not an AST node: {ast!r}")


# ---------------------------------------------------------------------------
# Differential polynomials
# ---------------------------------------------------------------------------

class DiffMonomial(Record):
    """One monomial ``coeff * prod_k (y^(k))^d_k`` with d_k > 0."""

    __slots__ = ("coeff", "degrees")  # degrees: sorted ((k, d_k), ...)

    @classmethod
    def from_map(cls, coeff, degree_map):
        degrees = tuple(sorted((k, d) for k, d in degree_map.items() if d != 0))
        for k, d in degrees:
            if k < 0 or d < 0:
                raise ValueError(f"invalid degree entry ({k}, {d})")
        return cls(canonical_scalar(coeff), degrees)

    @property
    def total_degree(self) -> int:
        return sum(d for _, d in self.degrees)

    @property
    def derivative_weight(self) -> int:
        """Total derivative order W = sum k*d_k."""
        return sum(k * d for k, d in self.degrees)

    @property
    def max_order(self) -> int:
        return max((k for k, _ in self.degrees), default=0)

    def evaluate(self, y_values):
        value = self.coeff
        for k, d in self.degrees:
            value = value * scalar_pow(y_values[k], d)
        return value

    def text(self) -> str:
        parts = []
        for k, d in self.degrees:
            name = "y" + "'" * k
            parts.append(name if d == 1 else f"{name}^{d}")
        return "*".join(parts) if parts else "1"


class DifferentialPolynomial(Record):
    """Cleared polynomial form of the ODE, with the y-power used to clear
    negative exponents recorded in ``clearing_multiplier``."""

    __slots__ = ("monomials", "clearing_multiplier")

    def __init__(self, monomials: tuple, clearing_multiplier: int = 0):
        if not monomials:
            raise ValueError("differential polynomial must have monomials")
        signatures = [m.degrees for m in monomials]
        if len(set(signatures)) != len(signatures):
            raise ValueError("duplicate monomial signatures")
        super().__init__(monomials, clearing_multiplier)

    @property
    def max_order(self) -> int:
        return max(m.max_order for m in self.monomials)

    @property
    def is_exact(self) -> bool:
        return all(is_exact(m.coeff) for m in self.monomials)

    def evaluate(self, y_values):
        total = self.monomials[0].evaluate(y_values)
        for m in self.monomials[1:]:
            total = total + m.evaluate(y_values)
        return total

    def to_text(self) -> str:
        parts = []
        for i, m in enumerate(self.monomials):
            real = _real_constant(m.coeff)
            if real is None:
                sign, mag_str = "+", f"({m.coeff})"
            else:
                sign, mag_str = "-" if real[0] else "+", real[1]
            body = m.text()
            if body == "1":
                piece = mag_str
            elif mag_str in ("1",):
                piece = body
            else:
                piece = f"{mag_str}*{body}"
            if i == 0:
                parts.append(piece if sign == "+" else f"-{piece}")
            else:
                parts.append(f" {sign} {piece}")
        return "".join(parts)


def _expand(ast, env):
    """Expand to raw monomials [(coeff, {k: exponent})]; exponents of the
    undifferentiated variable may still be negative here."""
    if isinstance(ast, Const):
        return [(ast.value, {})]
    if isinstance(ast, Param):
        return [(canonical_scalar(env[ast.name]), {})]
    if isinstance(ast, Y):
        return [(QComplex(1), {ast.order: 1})]
    if isinstance(ast, Add):
        out = []
        for t in ast.terms:
            out.extend(_expand(t, env))
        return out
    if isinstance(ast, Mul):
        return reduce(_raw_product, (_expand(f, env) for f in ast.factors),
                      [(QComplex(1), {})])
    if isinstance(ast, Pow):
        base = _expand(ast.base, env)
        e = ast.exponent
        if e > 0:
            return reduce(_raw_product, [base] * e, [(QComplex(1), {})])
        # negative exponent: only a single monomial can be inverted
        merged = _merge_raw(base)
        if not merged:
            raise NormalizationError("negative power of a zero subexpression")
        if len(merged) != 1:
            raise NormalizationError(
                "negative power applies to a non-monomial subexpression"
            )
        (signature, coeff), = merged.items()
        inv_coeff = scalar_pow(coeff, e)
        return [(inv_coeff, {k: e * d for k, d in signature})]
    raise TypeError(f"not an AST node: {ast!r}")


def _raw_product(left, right):
    """The raw monomials of ``left * right``: every left term times every
    right term, left terms outermost, each coefficient ``c_left * c_right``."""
    combined = []
    for c1, d1 in left:
        for c2, d2 in right:
            degrees = dict(d1)
            for k, d in d2.items():
                degrees[k] = degrees.get(k, 0) + d
            combined.append((c1 * c2, degrees))
    return combined


def _merge_raw(raw):
    merged = {}
    for coeff, degrees in raw:
        signature = tuple(sorted((k, d) for k, d in degrees.items() if d != 0))
        if signature in merged:
            merged[signature] = merged[signature] + coeff
        else:
            merged[signature] = coeff
    return {
        sig: coeff for sig, coeff in merged.items() if coeff
    }


def normalize(ast, env) -> DifferentialPolynomial:
    """Bind parameters, expand, clear negative powers of y and merge terms.

    Multiplies through by the minimal power ``y^k`` needed to remove negative
    exponents of the undifferentiated variable; negative powers of
    derivatives are rejected, as are identically zero or constant results.
    """
    for name in sorted(ast_parameters(ast)):
        if name not in env:
            raise UnboundParameterError(f"parameter {name!r} is not bound")
    raw = _expand(ast, env)
    for _, degrees in raw:
        for k, d in degrees.items():
            if k >= 1 and d < 0:
                primes = "'" * k
                raise NormalizationError(
                    f"negative power of derivative y{primes} is unsupported"
                )
    merged = _merge_raw(raw)
    if not merged:
        raise NormalizationError("expression is identically zero")
    min_y_power = min(
        (dict(sig).get(0, 0) for sig in merged), default=0
    )
    multiplier = max(0, -min_y_power)
    monomials = []
    for sig, coeff in merged.items():
        degrees = dict(sig)
        if multiplier:
            degrees[0] = degrees.get(0, 0) + multiplier
        monomials.append(DiffMonomial.from_map(coeff, degrees))
    if all(not m.degrees for m in monomials):
        raise NormalizationError("expression does not depend on y")
    monomials.sort(key=lambda m: (-m.total_degree, m.degrees))
    return DifferentialPolynomial(tuple(monomials), multiplier)


class TopDegreeReport(Record):
    __slots__ = ("holds", "top_degree", "top_monomials")


def unique_highest_degree_term(poly: DifferentialPolynomial) -> TopDegreeReport:
    """Check whether scaling y by a constant leaves exactly one monomial of
    maximal total degree (the hypothesis behind the explicit closed-form
    constructions for autonomous polynomial ODEs)."""
    top = max(m.total_degree for m in poly.monomials)
    indices = tuple(
        i for i, m in enumerate(poly.monomials) if m.total_degree == top
    )
    return TopDegreeReport(len(indices) == 1, top, indices)
