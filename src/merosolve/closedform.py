"""Exact-solution candidates built from local Laurent data.

Two constructions are available for an autonomous equation whose local
behavior is a pole of order p:

* simply periodic: a linear combination of derivatives of
  ``(pi/T) * cot(pi*tau/T)`` reproducing the principal part, plus an
  additive constant.  The period enters only through ``L = (pi/T)**2``,
  which keeps the matching exact for exact input data.
* rational: principal part plus a polynomial tail read off the data.

Both builders return a candidate verified by substituting its expansion
back into the equation: the verdict is a field of the record, never
assumed.  ``verify_candidate`` measures a residual and changes nothing.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .balance import _numeric_roots
from .errors import NoPeriodicCandidateError, NotLaurentError
from .odemodel import DifferentialPolynomial
from .records import Record
from .scalars import (
    canonical_scalar,
    is_zero,
    mul_frac,
    principal_root,
    scalar_pow,
    to_complex,
)
from .series import LocalSolution, PuiseuxSeries, cot_laurent, substitute

VERIFY_TOLERANCE = 1e-10
DEFAULT_VERIFY_ORDER = 10

KIND_SIMPLY_PERIODIC = "simply-periodic"
KIND_RATIONAL = "rational"


class ClosedFormCandidate(Record):
    """A candidate exact solution with its verification record.  ``pole_part``
    maps k >= 1 to c_{-k}; ``L`` = (pi/T)**2 and ``period`` = pi / sqrt(L),
    principal branch, are simply periodic only, ``tail`` (k -> c_k) rational
    only."""

    __slots__ = ("kind", "pole_part", "h0", "L", "period", "tail", "verified",
                 "residual_norm", "first_failing_order")

    def __init__(self, kind: str, pole_part: dict, h0, L=None,
                 period: complex = None, tail: dict = None,
                 verified: bool = None, residual_norm: float = None,
                 first_failing_order: Fraction = None):
        super().__init__(kind, pole_part, h0, L, period,
                         {} if tail is None else tail, verified,
                         residual_norm, first_failing_order)

    @property
    def pole_order(self) -> int:
        return max(self.pole_part) if self.pole_part else 0

    def expand(self, K: int) -> PuiseuxSeries:
        """Laurent expansion about the pole through index K.  A rational
        candidate is a finite expression, so its expansion is exact at all
        orders regardless of K."""
        if self.kind == KIND_RATIONAL:
            coeffs = {-k: c for k, c in self.pole_part.items()}
            for k, c in self.tail.items():
                coeffs[k] = coeffs.get(k, 0) + c
            return PuiseuxSeries(1, coeffs, math.inf)
        p = self.pole_order
        base = _scaled_cot_series(self.L, K + p)
        total = PuiseuxSeries.zero(1, math.inf)
        for k, c_k in sorted(self.pole_part.items()):
            beta = mul_frac(
                c_k, Fraction((-1) ** (k - 1), math.factorial(k - 1))
            )
            total = total + base.differentiate(k - 1) * beta
        total = total + PuiseuxSeries.monomial(self.h0, 0, n=1)
        return total.truncate(K)


def _scaled_cot_series(L, K: int) -> PuiseuxSeries:
    """Series of (pi/T)*cot(pi*tau/T) in terms of L = (pi/T)**2: the
    coefficient of tau**j is gamma_j * L**((j+1)/2) with gamma the cot
    expansion; only odd j and j = -1 appear."""
    gamma = cot_laurent(K)
    coeffs = {}
    for j, g in gamma.coeffs.items():
        m = (j + 1) // 2
        coeffs[j] = g * scalar_pow(canonical_scalar(L), m) if m else g
    return PuiseuxSeries(1, coeffs, K)


def _require_laurent(local: LocalSolution, message: str):
    if local.series.n != 1:
        raise NotLaurentError(message)


def elliptic_admissible(local: LocalSolution) -> bool:
    """Necessary condition for an elliptic closed form: vanishing residue."""
    _require_laurent(local, "not Laurent; elliptic construction undefined")
    return is_zero(local.series.coeffs.get(-1, 0), 1e-12)


def _period_from_L(L) -> complex:
    Lc = to_complex(L)
    if Lc == 0:
        raise NoPeriodicCandidateError("no periodic candidate: L = 0")
    return complex(math.pi) / cmath.sqrt(Lc)


def build_periodic(local: LocalSolution) -> ClosedFormCandidate:
    """Match a cot-type simply periodic candidate to local Laurent data.

    The scale L and the additive constant are pinned by the lowest two
    non-principal orders; every higher order is left to verification.
    """
    if local.series.n != 1:
        raise NoPeriodicCandidateError(
            f"no periodic candidate at branch order {local.series.n}"
        )
    series = local.series
    v = series.min_index
    if v is None or v >= 0:
        raise NoPeriodicCandidateError("local data has no pole")
    if series.trunc < 1:
        raise NoPeriodicCandidateError(
            "local data too short to pin the period and the constant"
        )
    p = -v
    pole_part = {k: series.coeffs.get(-k, 0) for k in range(1, p + 1)}
    c0 = series.coeffs.get(0, 0)
    c1 = series.coeffs.get(1, 0)

    gamma = cot_laurent(2 * p + 3)
    # order-1 matching equation: sum over odd k of
    #   beta_k * k! * gamma_k * L**((k+1)/2)  =  c1
    lpoly = {}
    for k in range(1, p + 1, 2):
        g = gamma.coeffs.get(k, 0)
        if not g:
            continue
        beta = mul_frac(
            pole_part[k], Fraction((-1) ** (k - 1), math.factorial(k - 1))
        )
        term = mul_frac(beta * g, Fraction(math.factorial(k)))
        if term:
            lpoly[(k + 1) // 2] = lpoly.get((k + 1) // 2, 0) + term
    if not lpoly:
        raise NoPeriodicCandidateError(
            "no periodic candidate: order-1 matching equation is degenerate"
        )
    if list(lpoly) == [1]:
        if not c1:
            raise NoPeriodicCandidateError(
                "no periodic candidate: vanishing first-order coefficient "
                "forces an infinite period"
            )
        candidates_L = [c1 / lpoly[1]]
    else:
        coeffs = [-c1] + [lpoly.get(m, 0) for m in range(1, max(lpoly) + 1)]
        candidates_L = sorted(
            (r for r in _numeric_roots(coeffs) if abs(r) > 1e-14),
            key=lambda z: (z.real, z.imag),
        )
        if not candidates_L:
            raise NoPeriodicCandidateError(
                "no periodic candidate: no finite nonzero scale matches"
            )

    def _h0_for(L):
        acc = c0
        for k in range(2, p + 1, 2):
            g = gamma.coeffs.get(k - 1, 0)
            if not g:
                continue
            beta = mul_frac(
                pole_part[k], Fraction((-1) ** (k - 1), math.factorial(k - 1))
            )
            contrib = beta * g * scalar_pow(canonical_scalar(L), k // 2)
            contrib = mul_frac(contrib, Fraction(math.factorial(k - 1)))
            acc = acc - contrib
        return acc

    best = None
    for L in candidates_L:
        cand = ClosedFormCandidate(
            kind=KIND_SIMPLY_PERIODIC,
            pole_part=dict(pole_part),
            h0=_h0_for(L),
            L=L,
            period=_period_from_L(L),
        )
        top = min(series.trunc, 6) if series.trunc is not math.inf else 6
        score = 0.0
        if top >= 2:
            expansion = cand.expand(int(top))
            for s in range(2, int(top) + 1):
                diff = expansion.coeffs.get(s, 0) - series.coeffs.get(s, 0)
                score += abs(to_complex(diff))
        if best is None or score < best[0] - 1e-15:
            best = (score, cand)
    return _verified(best[1], local.poly)


def build_rational(local: LocalSolution, m: int) -> ClosedFormCandidate:
    """Rational candidate: principal part plus polynomial tail of degree m
    read from the local data."""
    _require_laurent(local, "not Laurent; rational construction undefined")
    if m < 0:
        raise ValueError("tail degree bound must be nonnegative")
    series = local.series
    pole_part = {-j: c for j, c in series.coeffs.items() if j < 0}
    tail = {}
    for k in range(0, m + 1):
        if k > series.trunc:
            break
        c = series.coeffs.get(k, 0)
        if c:
            tail[k] = c
    return _verified(ClosedFormCandidate(
        kind=KIND_RATIONAL,
        pole_part=pole_part,
        h0=tail.get(0, 0),
        tail=tail,
    ), local.poly)


def _verified(
    cand: ClosedFormCandidate,
    poly: DifferentialPolynomial,
    K: int = DEFAULT_VERIFY_ORDER,
) -> ClosedFormCandidate:
    """``cand`` with its verification record: expand it through order K,
    substitute into the equation and take the largest residual coefficient
    magnitude and the first order where one exceeds the tolerance."""
    residual = substitute(poly, cand.expand(K))
    norm = 0.0
    first_failing = None
    for j, c in residual.coeffs.items():
        mag = abs(to_complex(c))
        norm = max(norm, mag)
        if first_failing is None and mag > VERIFY_TOLERANCE:
            first_failing = residual.exponent(j)
    return cand.replace(verified=norm < VERIFY_TOLERANCE, residual_norm=norm,
                        first_failing_order=first_failing)


def verify_candidate(
    cand: ClosedFormCandidate,
    poly: DifferentialPolynomial,
    K: int = DEFAULT_VERIFY_ORDER,
) -> float:
    """The largest residual coefficient magnitude of ``cand`` through
    order K; ``cand`` itself does not change."""
    return _verified(cand, poly, K).residual_norm


def period_from_pole_data(local: LocalSolution):
    """Evaluate the claimed period formula
    ``T = pi * (c_{-1}/45)**(1/4) * (c_3)**(-1/4)``
    on principal branches.  This reports the claim's value; the matched
    period from :func:`build_periodic` is the independent reference.
    """
    _require_laurent(local, "period formula needs Laurent data")
    c_minus1 = local.series.coeffs.get(-1, 0)
    if not c_minus1:
        raise ValueError("period formula needs a nonzero residue")
    c3 = local.series.coeffs.get(3, 0)
    if not c3:
        raise ValueError("period formula needs a nonzero tau^3 coefficient")
    factor1 = principal_root(to_complex(c_minus1) / 45.0, 4)
    factor2 = principal_root(to_complex(c3), 4)
    return math.pi * factor1 / factor2


def period_branch_values(T: complex):
    """All four fourth-root branch combinations of the period formula."""
    return [T * 1j ** k for k in range(4)]
