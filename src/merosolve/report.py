"""Analysis report assembly: one ``Analysis`` record per call, the payload
sections and the published claims ledger as pure functions of it, and a
deterministic one-pass JSON writer.  The record computes each costly stage at most
once and only when a section needs it, so a command pays only for the
sections it prints.

Importing this module loads ``numeric`` and ``exactlab``, which the probes,
the exact lab and the JSON writer need on every path.  The four symbolic
layers, ``odemodel``, ``balance``, ``series`` and ``closedform``, are
imported by the functions that call them, so they load with the first
``Analysis`` and a probe-only process never loads them.  Those functions
import the module (``import merosolve.series as series``), not names from
it: once the module is loaded, that statement costs about 0.3 microseconds
on CPython 3.11 and ``from .series import ...`` about 1.2.

Every published claim the pipeline can test appears in the ledger with an
anchor string, a status in {confirmed, refuted, not-applicable} and the
numeric evidence that produced the verdict.  Verdicts are always computed,
never hard-coded: each one depends on the analysed equation, the exact-lab
parameters or the probe paths.  Two claims of the paper are left out of the
ledger because no input could change their verdict.  The cot expansion
magnitudes 1/3, 1/45 and 2/945 are fixed numbers; acceptance criterion 3
(``tests/test_acceptance.py``) checks them against ``series.cot_laurent``.
The global exponential-form solution has no derivation to check, and
nothing tests it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain

from .errors import (
    ExponentUnresolvedError,
    NoPeriodicCandidateError,
    NotLaurentError,
)
from .exactlab import (
    QuadFormParams,
    constraint_report,
    ermakov_invariant,
    oscillator_basis,
    pinney_solution,
    width_from_ics,
)
from .numeric import (
    ComplexPath,
    EpWidthOde,
    LinearOscillatorOde,
    detect_singularity,
    fit_local_exponent,
    integrate,
    invariant_drift,
)
from .records import Record
from .scalars import QComplex, is_exact, is_zero, mul_frac, to_complex

SCHEMA_VERSION = 1

DEFAULT_ODE_TEXT = "y'' + omega^2*y - y^-3"


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

# One pass over the payload: ``_write`` appends the text of each value to a
# single list that ``to_json`` joins once.  It dispatches on the exact type,
# formats the scalars inside a dict or a list in that container's loop,
# prints a row of plain floats through one "%.17g" template and a table of
# such rows through one template for the whole table, applied to its
# flattened cells, and sends anything else (a subclass of a JSON type, say)
# through the isinstance rules of ``_scalar``.  Equal payloads give equal
# bytes.

# '"', backslash and the control characters below 0x20; every other code
# point passes through unchanged
_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\"}
_ESCAPES.update((c, f"\\u{c:04x}") for c in range(0x20))


def _escape(s: str) -> str:
    # every code point below 0x20 is non-printable, so a printable string
    # without '"' and backslash is its own escape; the table lookup of
    # str.translate costs a failed dict probe per character
    if s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    return '"' + s.translate(_ESCAPES) + '"'


# Every float is printed by "%.17g": 17 significant digits, a lowercase
# exponent, "0" and "-0" for the zeros.  It is the formatter that
# format(v, ".17g") uses, and of all the floats only inf and nan put an "n"
# into the text.

class _NonFinite(ValueError):
    """A non-finite float in a payload; ``args`` holds the keys (".key") and
    indices ("[i]") that lead to it from the payload's root."""

    def __str__(self):
        where = "".join(self.args).lstrip(".")
        return "non-finite float in report payload" + (where and " at " + where)


def _finite(text: str) -> str:
    if "n" in text:
        raise _NonFinite()
    return text


@lru_cache(maxsize=64)
def _row_template(n: int) -> str:
    """``"[%.17g, ..., %.17g]"`` for a row of n floats."""
    return "[" + ", ".join(["%.17g"] * n) + "]"


class _Newlines(dict):
    """A line break and the indent of nesting level ``level``, made once."""

    def __missing__(self, level: int) -> str:
        text = self[level] = "\n" + "  " * level
        return text


_NEWLINE = _Newlines()
_FLOAT = frozenset({float})
_SEQUENCES = frozenset({list, tuple})
_SCALARS = frozenset({str, int, float, bool, type(None)})
_CONTAINERS = (dict, list, tuple)


def to_json(obj) -> str:
    """Emit JSON with fixed float formatting (17 significant digits,
    lowercase exponent) so identical payloads serialize byte-identically."""
    out = []
    _write(obj, 0, out)
    return "".join(out)


def _scalar(obj) -> str:
    """The text of a value that is no dict, list or tuple.  The writer
    formats values of the exact scalar types itself; this takes the rest,
    so a subclass prints as its base type."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _finite("%.17g" % obj)
    if isinstance(obj, str):
        return _escape(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write(obj, level: int, out: list) -> None:
    """Append the text of ``obj`` to ``out`` in one pass.  ``level`` is the
    indent of the line the value starts on; the values inside a dict or a
    list are formatted in its loop, and only a nested dict or list (or a
    subclass value) makes a call."""
    cls = type(obj)
    if cls is not dict and cls is not list and cls is not tuple:
        if isinstance(obj, dict):
            cls = dict
        elif not isinstance(obj, (list, tuple)):
            out.append(_scalar(obj))
            return
    if not obj:
        out.append("{}" if cls is dict else "[]")
        return
    append = out.append
    if cls is dict:
        inner = _NEWLINE[level + 1]
        items = obj.items()
        head, sep, close = "{" + inner, "," + inner, _NEWLINE[level] + "}"
    else:
        # exact types: an int, a bool or a float subclass is no plain float
        types = set(map(type, obj))
        if types == _FLOAT:
            # a row of plain floats: one template application
            append(_finite(_row_template(len(obj)) % tuple(obj)))
            return
        inner = _NEWLINE[level + 1]
        if types <= _SEQUENCES:
            # flattened into a list: tuple() of an iterator grows and then
            # shrinks its tuple, and CPython keeps a freed small tuple on the
            # free list of its final length, where such tuples pile up
            cells = [*chain.from_iterable(obj)]
            if set(map(type, cells)) == _FLOAT:
                # a table of float rows: the row templates (an empty row's
                # is "[]") joined into one for the whole table, applied once
                # to the flat cells
                template = ("," + inner).join(
                    [_row_template(len(row)) for row in obj])
                template = "[" + inner + template + _NEWLINE[level] + "]"
                append(_finite(template % tuple(cells)))
                return
        items = enumerate(obj)
        if types <= _SCALARS or not any(issubclass(t, _CONTAINERS) for t in types):
            head, sep, close = "[", ", ", "]"
        else:
            head, sep, close = "[" + inner, "," + inner, _NEWLINE[level] + "]"
    try:
        for key, value in items:
            if cls is dict:
                if type(key) is str and key.isprintable() and '"' not in key \
                        and "\\" not in key:
                    head = f'{head}"{key}": '
                elif isinstance(key, str):
                    head = f"{head}{_escape(key)}: "
                else:
                    raise TypeError(f"JSON keys must be strings, got {key!r}")
            t = type(value)
            if t is str:
                if value.isprintable() and '"' not in value and "\\" not in value:
                    append(f'{head}"{value}"')
                else:
                    append(head + _escape(value))
            elif t is float:
                text = "%.17g" % value
                if "n" in text:
                    raise _NonFinite()
                append(head + text)
            elif t is int:
                append(f"{head}{value}")
            elif t is bool:
                append(head + ("true" if value else "false"))
            elif value is None:
                append(head + "null")
            else:
                append(head)
                _write(value, level + 1, out)
            head = sep
    except _NonFinite as exc:
        exc.args = ("." + key if cls is dict else f"[{key}]",) + exc.args
        raise
    append(close)


def complex_json(z) -> list:
    zc = to_complex(z)
    return [float(zc.real), float(zc.imag)]


def series_json(s) -> dict:
    return {"branch_order": s.n,
            "terms": [[j, *complex_json(c)] for j, c in s.terms()]}


def _scalar_match(claimed, computed) -> bool:
    if is_exact(claimed) and is_exact(computed):
        return claimed == computed
    diff = abs(to_complex(claimed) - to_complex(computed))
    scale = max(1.0, abs(to_complex(claimed)))
    return diff <= 1e-9 * scale


# ---------------------------------------------------------------------------
# claimed pole expansion (published recursion formulas, evaluated as claims)
# ---------------------------------------------------------------------------

def claimed_pole_coefficients(omega, residue):
    """The published simple-pole coefficient formulas, evaluated literally.

    Returns {index: value} for indices -1..3, or None when a denominator in
    the recursion vanishes.
    """
    a = residue
    w2 = omega * omega
    a0 = QComplex(0) if is_exact(a) and is_exact(omega) else 0j
    a1 = mul_frac(w2 * a, Fraction(-2, 3))
    den2 = 6 * a1 + 4 * a * a1 + 2 * w2 * a
    if is_zero(den2, 1e-300):
        return None
    a2 = -(a * a1) / den2
    den3 = 2 * a * a * a1 + 4 * a * a + 4 * w2 * a * a * a
    if is_zero(den3, 1e-300):
        return None
    a3 = (1 - 2 * a * a * a2 * a2 + 2 * (1 + 3 * w2) * a * a * a1 * a1) / den3
    return {-1: a, 0: a0, 1: a1, 2: a2, 3: a3}


# the comparison's rows: every claimed coefficient after the residue (index -1)
COMPARED_INDICES = range(0, 4)


class ClaimedPole(Record):
    """The published pole coefficients put to the test: the JSON of the cot
    candidate matched to the Laurent solution they define or the reason none
    could be built, and the period-formula values (None without one)."""

    __slots__ = ("candidate", "error", "period_formula")


# ---------------------------------------------------------------------------
# the analysis record
# ---------------------------------------------------------------------------

def _check_params(env, read):
    """Reject bound names the equation does not read, so that a misspelt
    name is not analysed as the default.  ``omega`` is exempt: every
    analysis reads it for the claimed pole data, and ``report`` for its lab
    and probes."""
    unused = sorted(set(env) - read - {"omega"})
    if unused:
        raise ValueError(
            f"--param {', '.join(unused)}: the equation has no such parameter; "
            f"it reads {', '.join(sorted(read)) or 'none'}"
        )


def _check_free(free, families, K):
    """Reject free values the solver would never use: at orders where no
    consistent family has a positive resonance on its branch lattice, or at
    a resonance that no family's series reaches by the truncation order K."""
    reached_at = {}  # resonance -> lowest series order that reaches it
    for f in families:
        if not f.consistent:
            continue
        for r in f.resonances:
            rho = r * f.branch_order
            if r > 0 and rho.denominator == 1:
                reached_at[r] = min(reached_at.get(r, rho), rho)
    requested = sorted(Fraction(r) for r in free)
    unused = [r for r in requested if r not in reached_at]
    if unused:
        listed = ", ".join(str(r) for r in sorted(reached_at)) or "none"
        raise ValueError(
            "free value at a non-resonant order "
            f"{', '.join(str(r) for r in unused)}; "
            f"available resonances: {listed}"
        )
    beyond = [r for r in requested if reached_at[r] > K]
    if beyond:
        needed = max(reached_at[r] for r in beyond)
        raise ValueError(
            "free value at resonance "
            f"{', '.join(str(r) for r in beyond)} lies beyond the "
            f"truncation order {K}; it needs --order {needed} or higher"
        )


class Analysis:
    """One ODE analysed once, for one call.

    Building it parses and clears the equation, finds the balance families
    and evaluates the published pole coefficients at the residue i.  The
    costly stages are cached properties, each computed on first use and at
    most once: ``locals``, ``forced``, ``claimed`` and ``comparison``, the
    pole-coefficient table that the series section and the ledger share.
    """

    def __init__(self, ode_text: str, env: dict, K: int = 12,
                 n_max: int | None = None, free=None):
        import merosolve.balance as balance
        import merosolve.odemodel as odemodel

        self.ode_text = ode_text
        self.env = env
        self.K = K
        self.n_max = n_max
        self.free = free
        self.omega = env.get("omega")
        self.ast = odemodel.parse_ode(ode_text)
        _check_params(env, odemodel.ast_parameters(self.ast))
        self.poly = odemodel.normalize(self.ast, env)
        self.families = balance.find_balances(self.poly, n_max=n_max)
        if free:
            _check_free(free, self.families, K)
        # the search always reports p = -1
        self.pole_family = next(f for f in self.families if f.p == -1)
        self.residue = QComplex(0, 1) if is_exact(self.omega) else 1j
        # None without a frequency or when a recursion denominator vanishes
        self.claimed_coefficients = (
            None if self.omega is None
            else claimed_pole_coefficients(self.omega, self.residue)
        )

    @cached_property
    def locals(self) -> list:
        """One local solution per consistent family, with ``free`` injected
        at the resonances."""
        import merosolve.series as series

        return [
            series.solve_local_series(self.poly, fam, fam.leading_coeffs[0],
                                      K=self.K, free=self.free)
            for fam in self.families
            if fam.consistent
        ]

    @cached_property
    def forced(self):
        """Independent recomputation of the pole coefficients: the simple-pole
        ansatz with ``residue`` forced into the cleared equation and solved
        order by order, through the last index the comparison reads: index
        k lies k + 1 orders above the residue."""
        import merosolve.series as series

        return series.solve_local_series(self.poly, self.pole_family,
                                         self.residue,
                                         K=COMPARED_INDICES[-1] + 1, force=True)

    @cached_property
    def claimed(self):
        """The :class:`ClaimedPole` block, or None without claimed
        coefficients."""
        if self.claimed_coefficients is None:
            return None
        import merosolve.closedform as closedform
        import merosolve.series as series

        local = series.synthetic_laurent_solution(
            self.poly, dict(self.claimed_coefficients), trunc=3
        )
        try:
            cand = closedform.build_periodic(local)
        except NoPeriodicCandidateError as exc:
            return ClaimedPole(None, str(exc), None)
        formula_T = closedform.period_from_pole_data(local)
        branch_values = closedform.period_branch_values(formula_T)
        tol = 1e-8 * max(1.0, abs(cand.period))
        return ClaimedPole(_candidate_json(cand, "claimed-pole-data"), None, {
            "value": complex_json(formula_T),
            "branch_values": [complex_json(v) for v in branch_values],
            "matched_period": complex_json(cand.period),
            "magnitude_consistent": abs(abs(formula_T) - abs(cand.period)) <= tol,
            "branch_consistent": any(abs(v - cand.period) <= tol
                                     for v in branch_values),
        })

    @cached_property
    def comparison(self):
        """The :func:`coefficient_comparison_section` table, or None."""
        return coefficient_comparison_section(self)


# ---------------------------------------------------------------------------
# section builders: pure functions of an Analysis
# ---------------------------------------------------------------------------

def ode_section(a: Analysis) -> dict:
    import merosolve.odemodel as odemodel

    return {
        "input": a.ode_text,
        "normalized_input": odemodel.unparse(a.ast),
        "parameters": {
            name: complex_json(a.env[name]) for name in sorted(a.env)
        },
        "cleared": {
            "text": a.poly.to_text(),
            "clearing_multiplier": a.poly.clearing_multiplier,
            "monomials": [
                {
                    "coeff": complex_json(m.coeff),
                    "degrees": {str(k): d for k, d in m.degrees},
                }
                for m in a.poly.monomials
            ],
            "exact_coefficients": a.poly.is_exact,
        },
    }


def _uncleared_exponents(fam, poly) -> list:
    """The monomial exponents at the family's p = m/n in the original,
    uncleared equation: clearing multiplied it by y**C, C the
    ``clearing_multiplier``, which raised every exponent ``D*p - W`` by C*p
    (D the total degree, W the derivative weight)."""
    m, n = fam.p.numerator, fam.p.denominator
    c = poly.clearing_multiplier
    return [Fraction((mono.total_degree - c) * m - n * mono.derivative_weight, n)
            for mono in poly.monomials]


def family_json(fam, poly) -> dict:
    uncleared = _uncleared_exponents(fam, poly)
    return {
        "p": str(fam.p),
        "branch_order": fam.branch_order,
        "q": str(fam.q),
        "kind": "pole" if fam.branch_order == 1 else "algebraic-branch-point",
        "dominant_monomials": list(fam.dominant),
        "two_term_balance": fam.two_term,
        "leading_polynomial": [complex_json(c) for c in fam.leading_poly],
        "leading_coefficients": [complex_json(a) for a in fam.leading_coeffs],
        "consistent": fam.consistent,
        "resonances": [str(r) for r in fam.resonances],
        "uncleared_exponents": [str(e) for e in uncleared],
        "uncleared_q": str(min(uncleared)),
    }


def balance_section(a: Analysis) -> dict:
    import merosolve.odemodel as odemodel

    top = odemodel.unique_highest_degree_term(a.poly)
    return {
        "branch_max": a.n_max,
        "top_degree_uniqueness": {
            "holds": top.holds,
            "top_degree": top.top_degree,
        },
        "families": [family_json(f, a.poly) for f in a.families],
    }


def local_solution_json(local) -> dict:
    return {
        "p": str(local.family.p),
        "leading_coefficient": complex_json(local.a),
        "series": series_json(local.series),
        "free_parameters": {
            str(r): complex_json(v)
            for r, v in sorted(local.free_parameters.items())
        },
        "compatibility": [
            {
                "resonance": str(c.resonance),
                "satisfied": c.satisfied,
                "residual": complex_json(c.residual),
            }
            for c in local.compatibility
        ],
        "max_residual_through_order": _residual_norm(local),
    }


def _residual_norm(local) -> float:
    import merosolve.series as series

    residual = series.substitute(local.poly, local.series)
    skip = set()
    n = local.series.n
    q_idx = int(local.family.q * n)
    for c in local.compatibility:
        if not c.satisfied:
            skip.add(q_idx + int(c.resonance * n))
    norm = 0.0
    for j, c in residual.coeffs.items():
        if j in skip:
            continue
        norm = max(norm, abs(to_complex(c)))
    return norm


def series_section(a: Analysis) -> dict:
    return {
        "order": a.K,
        "solutions": [local_solution_json(local) for local in a.locals],
        "coefficient_comparison": a.comparison,
    }


def coefficient_comparison_section(a: Analysis):
    """Side-by-side table of the published pole-coefficient recursion versus
    the forced recomputation, with per-coefficient match flags; None
    without claimed coefficients."""
    if a.claimed_coefficients is None:
        return None
    rows = []
    for k in COMPARED_INDICES:
        claim_value = a.claimed_coefficients[k]
        computed = a.forced.series.coeffs.get(k, 0)
        rows.append(
            {
                "index": k,
                "claimed": complex_json(claim_value),
                "recomputed": complex_json(computed),
                "match": _scalar_match(claim_value, computed),
            }
        )
    leading_violation = next(
        (c for c in a.forced.compatibility if c.resonance == 0), None
    )
    return {
        "residue": complex_json(a.residue),
        "rows": rows,
        "leading_equation_violated": (
            not leading_violation.satisfied if leading_violation else False
        ),
        "leading_equation_residual": (
            complex_json(leading_violation.residual) if leading_violation else None
        ),
    }


def _candidate_json(cand, source: str) -> dict:
    return {
        "kind": cand.kind,
        "source": source,
        "pole_part": [
            [k, *complex_json(c)] for k, c in sorted(cand.pole_part.items())
        ],
        "h0": complex_json(cand.h0),
        "L": complex_json(cand.L) if cand.L is not None else None,
        "period": complex_json(cand.period) if cand.period is not None else None,
        "tail": [[k, *complex_json(c)] for k, c in sorted(cand.tail.items())],
        "verified": cand.verified,
        "residual_norm": float(cand.residual_norm),
        "first_failing_order": (
            str(cand.first_failing_order)
            if cand.first_failing_order is not None
            else None
        ),
    }


def _claimed_pole_data(a: Analysis):
    block = a.claimed
    if block is None:
        return None
    data = {"coefficients": {str(k): complex_json(v) for k, v in
                             sorted(a.claimed_coefficients.items())}}
    if block.candidate is None:
        data["periodic_error"] = block.error
    else:
        data["period_formula"] = block.period_formula
    return data


def closedform_section(a: Analysis) -> dict:
    import merosolve.closedform as closedform

    candidates = []
    errors = []
    elliptic = []
    for local in a.locals:
        fam = local.family
        if fam.branch_order == 1:
            # elliptic forms are only gated by the necessary condition
            # (vanishing residue); no construction is attempted either way
            elliptic.append({
                "p": str(fam.p),
                "admissible": closedform.elliptic_admissible(local),
            })
            candidates.append(
                _candidate_json(
                    closedform.build_rational(local, m=max(0, a.K // 2)),
                    "local-series")
            )
        else:
            elliptic.append({
                "p": str(fam.p),
                "admissible": None,
                "note": f"branch order {fam.branch_order}: not Laurent",
            })
        try:
            cand = closedform.build_periodic(local)
            candidates.append(_candidate_json(cand, "local-series"))
        except (NoPeriodicCandidateError, NotLaurentError) as exc:
            errors.append({"p": str(fam.p), "error": str(exc)})
    if a.claimed is not None and a.claimed.candidate is not None:
        candidates.append(a.claimed.candidate)
    return {
        "candidates": candidates,
        "periodic_errors": errors,
        "elliptic_admissibility": elliptic,
        "claimed_pole_data": _claimed_pole_data(a),
    }


# ---------------------------------------------------------------------------
# claims ledger: one anchor per claim, one check per claim
# ---------------------------------------------------------------------------

def _ledger(checks: dict, subject) -> list:
    """Run each ``claim_id -> (anchor, check)`` of ``checks`` on
    ``subject``; a check returns ``(status, evidence)``."""
    claims = []
    for claim_id, (anchor, check) in checks.items():
        status, evidence = check(subject)
        if status not in ("confirmed", "refuted", "not-applicable"):
            raise ValueError(f"bad claim status {status!r}")
        claims.append({"id": claim_id, "anchor": anchor,
                       "status": status, "evidence": evidence})
    return claims


def _verdict(holds: bool) -> str:
    return "confirmed" if holds else "refuted"


def _simple_pole_family(a: Analysis):
    fam = a.pole_family
    return _verdict(fam.consistent), {
        "consistent": fam.consistent,
        "leading_polynomial": [complex_json(c) for c in fam.leading_poly],
        "cleared_q": str(fam.q),
        "uncleared_q": str(min(_uncleared_exponents(fam, a.poly))),
    }


def _branch_point_order_two(a: Analysis):
    branch = [f for f in a.families if f.consistent and f.branch_order == 2]
    return _verdict(bool(branch)), {
        "consistent_branch_families": [str(f.p) for f in branch],
        "leading_coefficients": [
            complex_json(c) for f in branch for c in f.leading_coeffs
        ],
    }


def _imaginary_free_residue(a: Analysis):
    fam = a.pole_family
    leading_polynomial = [complex_json(c) for c in fam.leading_poly]
    # float cancellation noise is already exactly 0 in the leading polynomial
    if not any(fam.leading_poly):
        return "confirmed", {
            "note": "the p = -1 leading polynomial vanishes identically, so every "
                    "residue, c*i included, solves it; this holds at leading "
                    "order only",
            "leading_polynomial": leading_polynomial,
        }
    if not fam.consistent:
        return "refuted", {
            "note": "the p = -1 leading equation admits only the zero root",
            "leading_polynomial": leading_polynomial,
        }
    return "refuted", {
        "leading_coefficients": [complex_json(c) for c in fam.leading_coeffs],
        "note": "leading coefficients are pinned by the leading equation, not free",
    }


def _pole_coefficient_recursion(a: Analysis):
    if a.omega is None:
        return "not-applicable", {"note": "no frequency parameter bound"}
    table = a.comparison
    if table is None:
        return "not-applicable", {
            "note": "recursion denominators vanish"}
    return _verdict(all(row["match"] for row in table["rows"])), {
        "rows": table["rows"],
        "leading_equation_violated": table["leading_equation_violated"],
    }


def _claimed_unavailable(a: Analysis):
    """Why there is no claimed-pole candidate to judge, or None."""
    if a.omega is None:
        return "no frequency parameter bound"
    if a.claimed is None:
        return "claimed coefficients unavailable"
    return a.claimed.error


def _exact_cot_solution(a: Analysis):
    import merosolve.closedform as closedform

    note = _claimed_unavailable(a)
    if note is not None:
        return "not-applicable", {"note": note}
    cand = a.claimed.candidate
    evidence = {
        "residual_norm": cand["residual_norm"],
        "first_failing_order": cand["first_failing_order"],
        "verified_through_order": closedform.DEFAULT_VERIFY_ORDER,
    }
    if not cand["verified"]:
        evidence["verdict"] = (
            f"refuted at order <= {closedform.DEFAULT_VERIFY_ORDER}")
    return _verdict(cand["verified"]), evidence


def _period_formula(a: Analysis):
    note = _claimed_unavailable(a)
    if note is not None:
        return "not-applicable", {"note": note}
    pf = a.claimed.period_formula
    return _verdict(pf["magnitude_consistent"]), pf


def _no_painleve_property(a: Analysis):
    consistent = [f for f in a.families if f.consistent]
    branching = [f for f in consistent if f.branch_order > 1]
    status = _verdict(bool(branching)) if consistent else "not-applicable"
    return status, {
        "consistent_families": [str(f.p) for f in consistent],
        "branching_families": [str(f.p) for f in branching],
    }


# each claim id maps to (anchor, check), in ledger order
ANALYSIS_CHECKS = {
    "simple-pole-family": (
        "(p, q) = (-1, -3) simple-pole family", _simple_pole_family),
    "branch-point-order-two": (
        "leading-order balance admits a branch point with n = 2",
        _branch_point_order_two),
    "imaginary-free-residue": (
        "principal coefficient a_{-1} = c*i with arbitrary real c",
        _imaginary_free_residue),
    "pole-coefficient-recursion": (
        "a_0 = 0, a_1 = -(2/3) w^2 a_{-1}, a_2, a_3 recursion values",
        _pole_coefficient_recursion),
    "exact-cot-solution": (
        "exact solution a_{-1} (pi/T) cot(pi (t - t_0)/T) + h_0", _exact_cot_solution),
    "period-formula": ("T = pi (a_{-1}/45)^(1/4) / a_3^(1/4)", _period_formula),
    "no-painleve-property": (
        "movable algebraic branching defeats the Painleve property",
        _no_painleve_property),
}

EXACTLAB_CHECKS = {
    "quadratic-form-superposition": (
        "width = sqrt(A u^2 + 2 B u v + C v^2) solves the width equation",
        lambda r: (_verdict(r["pinney"]["max_residual"] < 1e-8),
                   {"max_residual": r["pinney"]["max_residual"],
                    "params": r["pinney"]["params"]})),
    "constraint-sign": (
        "constraint B^2 - A*C = 1/W^2",
        lambda r: (_verdict(r["pinney"]["constraint"]["reversed_sign_holds"]),
                   r["pinney"]["constraint"])),
    "invariant-conservation": (
        "I = ((eta' a - eta a')^2 + (eta/a)^2)/2 is constant",
        lambda r: (_verdict(r["invariant"]["drift"] < r["invariant"]["threshold"]),
                   r["invariant"])),
    "third-order-maximal-symmetry": (
        "x = width^2 satisfies x''' + 4 w^2 x' = 0",
        lambda r: (_verdict(r["third_order"]["max_residual"] < 1e-6),
                   r["third_order"])),
    "riccati-reduction": (
        "Y' + Y^2 + w^2 = 0 with Y_I = 1/width^2 yields the width equation",
        lambda r: (_verdict(r["riccati"]["max_residual"] < 1e-6), r["riccati"])),
}


def _imaginary_axis_confinement(probe_results: list):
    located = [p for p in probe_results if p["kind"] == "zero-of-alpha"]
    if not located:
        return "not-applicable", {
            "note": "no singular approach detected on the probe paths"}
    ts = [complex(*p["t_star"]) for p in located]
    conjugate = any(
        abs(a - b.conjugate()) < 1e-3 for i, a in enumerate(ts) for b in ts[i + 1:]
    )
    return _verdict(all(abs(t.real) < 1e-3 for t in ts)), {
        "t_stars": [p["t_star"] for p in located],
        "conjugate_pair_found": conjugate,
    }


NUMERIC_CHECKS = {"imaginary-axis-confinement": (
    "detected singular times confined to the imaginary axis",
    _imaginary_axis_confinement)}


def analysis_claims(a: Analysis) -> list:
    return _ledger(ANALYSIS_CHECKS, a)


def exactlab_claims(results: dict) -> list:
    return _ledger(EXACTLAB_CHECKS, results)


def numeric_claims(probe_results: list) -> list:
    return _ledger(NUMERIC_CHECKS, probe_results)


# ---------------------------------------------------------------------------
# exact-lab and numeric sections
# ---------------------------------------------------------------------------

# the lab compares each closed form on a uniform grid over LAB_INTERVAL and
# tracks the invariant over DRIFT_INTERVAL
LAB_INTERVAL = (0.0, 5.0)
LAB_GRID = 101
DRIFT_INTERVAL = (0.0, 10.0)
# invariant-conservation holds when the drift stays below this multiple of
# the integrator tolerance; measured drift/tol is at most 19 for omega in
# [0, 10] (and complex omega near 1) over tol 1e-13 .. 1e-6
INVARIANT_DRIFT_PER_TOL = 100


def exactlab_results(omega=1.0, params=(2, 1, 1), tol: float = 1e-10) -> dict:
    omega_c = complex(omega)
    basis = oscillator_basis(omega_c)
    quad = QuadFormParams(*[complex(x) for x in params])
    width = pinney_solution(quad, basis)
    t0, t1 = LAB_INTERVAL
    ts = [t0 + (t1 - t0) * i / (LAB_GRID - 1) for i in range(LAB_GRID)]
    # one basis jet per grid point serves both widths, and one form jet
    # gives all three residuals of the (A, B, C) width
    jets = [basis.jet(complex(t)) for t in ts]
    pinney_residual, third_max, riccati_max = (
        max(map(abs, column))
        for column in zip(*map(width.residuals, ts, jets))
    )

    ode = EpWidthOde(omega_c)
    traj = integrate(ode, (width(t0), width.d1(t0)), [t0, t1], tol=tol)
    numeric_deviation = max(
        abs(value - width(t.real)) for t, value, _ in traj.samples
    )

    # conservation benchmark: eta = sin, alpha constant 1, I = 1/2
    d0, d1 = DRIFT_INTERVAL
    osc = LinearOscillatorOde(omega_c)
    shared = [d0 + 0.25 * k for k in range(1, int((d1 - d0) / 0.25))]
    eta_traj = integrate(osc, (0.0, 1.0), [d0, d1], tol=tol,
                         sample_points=shared, record_samples_only=True)
    alpha_traj = integrate(ode, (1.0, 0.0), [d0, d1], tol=tol,
                           sample_points=shared, record_samples_only=True)
    drift = float(invariant_drift(eta_traj, alpha_traj))

    ic_width, mismatch = width_from_ics(1.0, 0.0, basis)
    ic_residual = max(map(abs, map(ic_width.width_residual, ts, jets)))

    return {
        "omega": complex_json(omega_c),
        "pinney": {
            "params": {
                "A": complex_json(quad.A),
                "B": complex_json(quad.B),
                "C": complex_json(quad.C),
            },
            "max_residual": float(pinney_residual),
            "numeric_deviation": float(numeric_deviation),
            "constraint": _constraint_json(constraint_report(quad, basis)),
        },
        "width_from_ics": {
            "ic": [1.0, 0.0],
            "max_residual": float(ic_residual),
            "normalization_mismatch": bool(mismatch),
        },
        "invariant": {
            "drift": float(drift),
            "threshold": INVARIANT_DRIFT_PER_TOL * tol,
            "initial_value": complex_json(ermakov_invariant(
                *eta_traj.samples[0][1:], *alpha_traj.samples[0][1:])),
        },
        "third_order": {"max_residual": float(third_max)},
        "riccati": {"max_residual": float(riccati_max)},
    }


def _constraint_json(report: dict) -> dict:
    return {
        "ac_minus_b2": complex_json(report["ac_minus_b2"]),
        "b2_minus_ac": complex_json(report["b2_minus_ac"]),
        "inverse_w_squared": complex_json(report["inverse_w_squared"]),
        "ac_convention_holds": report["ac_convention_holds"],
        "reversed_sign_holds": report["reversed_sign_holds"],
    }


def probe_payload(omega, ic, path_points, tol: float = 1e-10) -> dict:
    """Integrate one path, locate the singular approach and fit the local
    exponent; failures to resolve are embedded, not raised."""
    path = (
        path_points
        if isinstance(path_points, ComplexPath)
        else ComplexPath(path_points)
    )
    ode = EpWidthOde(complex(omega))
    traj = integrate(ode, ic, path, tol=tol)
    probe = detect_singularity(traj)
    payload = {
        "path": [complex_json(w) for w in path.waypoints],
        "halted": traj.halted,
        "halt_reason": traj.halt_reason,
        "stats": traj.stats,
        "samples": len(traj.samples),
        "kind": probe.kind,
        "t_star": complex_json(probe.t_star) if probe.t_star is not None else None,
        "fit_residual": (
            float(probe.fit_residual) if probe.fit_residual is not None else None
        ),
        "exponent": None,
    }
    if probe.kind == "zero-of-alpha":
        try:
            fit = fit_local_exponent(traj, probe.t_star)
            payload["exponent"] = {
                "value": float(fit.value),
                "half_width": float(fit.half_width),
                "r_squared": float(fit.r_squared),
                "n_samples": fit.n_samples,
                "window": [float(fit.window[0]), float(fit.window[1])],
            }
        except (ValueError, ExponentUnresolvedError) as exc:
            # a fit that cannot resolve the exponent is reported, not fatal
            payload["exponent"] = {"error": str(exc)}
    return payload


# the report's two numeric probes run from 0 to +-PROBE_REACH * i
PROBE_REACH = 0.999


def numeric_section(omega, ic, tol: float) -> dict:
    probes = [
        probe_payload(omega, ic, [0, complex(0.0, PROBE_REACH)], tol=tol),
        probe_payload(omega, ic, [0, complex(0.0, -PROBE_REACH)], tol=tol),
    ]
    return {"probes": probes}


# ---------------------------------------------------------------------------
# top-level payloads
# ---------------------------------------------------------------------------

ANALYSIS_SECTIONS = {
    "ode": ode_section,
    "balance": balance_section,
    "series": series_section,
    "closed_form": closedform_section,
    "claims": analysis_claims,
}

# the sections each analysis command prints, in output order
COMMAND_SECTIONS = {
    "analyze": tuple(ANALYSIS_SECTIONS),
    "report": tuple(ANALYSIS_SECTIONS),
    "series": ("ode", "series"),
    "closed-form": ("ode", "closed_form"),
}


def analysis_payload(a: Analysis, command: str) -> dict:
    """The payload of ``command``: only the sections it prints are built."""
    payload = {"schema_version": SCHEMA_VERSION, "command": command}
    for key in COMMAND_SECTIONS[command]:
        payload[key] = ANALYSIS_SECTIONS[key](a)
    return payload


def analyze_payload(ode_text: str, env: dict, K: int = 12,
                    n_max: int | None = None, free=None) -> dict:
    return analysis_payload(Analysis(ode_text, env, K, n_max, free), "analyze")


def report_payload(a: Analysis, tol: float, ic) -> dict:
    """The ``report`` payload: the analysis sections of ``a``, the exact lab
    and the numeric probes at ``a``'s omega (1 when it has none), and the
    claims of all three."""
    payload = analysis_payload(a, "report")
    omega = to_complex(a.env.get("omega", 1))
    lab = exactlab_results(omega=omega, tol=tol)
    numeric = numeric_section(omega, ic=ic, tol=tol)
    payload["exact_lab"] = lab
    payload["numeric"] = numeric
    payload["claims"] += exactlab_claims(lab) + numeric_claims(numeric["probes"])
    return payload


# ---------------------------------------------------------------------------
# JSON schema for validation in tests
# ---------------------------------------------------------------------------

CLAIM_SCHEMA = {
    "type": "object",
    "required": ["id", "anchor", "status", "evidence"],
    "properties": {
        "id": {"type": "string"},
        "anchor": {"type": "string", "minLength": 1},
        "status": {"enum": ["confirmed", "refuted", "not-applicable"]},
        "evidence": {"type": "object"},
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "command", "ode", "balance", "series",
                 "closed_form", "claims"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"type": "string"},
        "ode": {"type": "object"},
        "balance": {
            "type": "object",
            "required": ["families"],
            "properties": {"families": {"type": "array"}},
        },
        "series": {"type": "object"},
        "closed_form": {"type": "object"},
        "claims": {"type": "array", "items": CLAIM_SCHEMA},
    },
}
