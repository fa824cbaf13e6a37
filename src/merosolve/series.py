"""Truncated Puiseux/Laurent series arithmetic and local series solving.

A series is a finite map ``j -> c_j`` representing ``sum c_j * tau**(j/n)``
together with a truncation index: coefficients are guaranteed correct for
``j <= trunc`` and unknown beyond it.  ``trunc`` may be ``math.inf`` for
exact finite expressions (monomials, polynomials), in which case arithmetic
never loses precision.

Coefficients follow the scalar modes of :mod:`merosolve.scalars`: exact
Gaussian rationals or plain complex.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .balance import BalanceFamily, linear_response, rational_resonances
from .errors import InternalInconsistencyError, TruncationError
from .odemodel import DifferentialPolynomial
from .scalars import (
    QComplex,
    canonical_scalar,
    is_exact,
    is_zero,
    mul_frac,
    poly_eval,
    to_complex,
)

DEFAULT_TRUNCATION = 12


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


class PuiseuxSeries:
    """Immutable truncated series in fractional powers of tau."""

    __slots__ = ("n", "coeffs", "trunc")

    def __init__(self, n, coeffs, trunc):
        if n < 1:
            raise ValueError("branch order must be positive")
        clean = {}
        for j, c in coeffs.items():
            c = canonical_scalar(c)
            if is_zero(c, 0.0):
                continue
            if j > trunc:
                raise ValueError(f"coefficient index {j} beyond truncation {trunc}")
            clean[int(j)] = c
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxSeries is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n=1, trunc=math.inf):
        return cls(n, {}, trunc)

    @classmethod
    def monomial(cls, coeff, j, n=1, trunc=math.inf):
        return cls(n, {j: coeff}, trunc)

    @classmethod
    def one(cls, n=1):
        return cls(n, {0: QComplex(1)}, math.inf)

    @classmethod
    def from_terms(cls, terms, n=1, trunc=math.inf):
        """Build from ``(index, coefficient)`` pairs."""
        coeffs = {}
        for j, c in terms:
            coeffs[j] = coeffs.get(j, 0) + canonical_scalar(c)
        return cls(n, coeffs, trunc)

    # -- structure ----------------------------------------------------------

    @property
    def is_zero_series(self) -> bool:
        return not self.coeffs

    @property
    def min_index(self):
        """Lowest stored index, or None for a (truncated) zero series."""
        return min(self.coeffs) if self.coeffs else None

    @property
    def is_exact(self) -> bool:
        return all(is_exact(c) for c in self.coeffs.values())

    def _valuation_bound(self):
        # effective valuation used in precision bookkeeping; a zero series
        # may hide terms just beyond its truncation
        if self.coeffs:
            return min(self.coeffs)
        return self.trunc + 1 if self.trunc is not math.inf else math.inf

    def coeff(self, j: int):
        """Coefficient of tau**(j/n); raises if j is beyond the guarantee."""
        if j > self.trunc:
            raise TruncationError(
                f"coefficient {j} requested beyond truncation {self.trunc}",
                required=j,
            )
        return self.coeffs.get(j, 0)

    def exponent(self, j: int) -> Fraction:
        return Fraction(j, self.n)

    def terms(self):
        return sorted(self.coeffs.items())

    # -- ring operations ----------------------------------------------------

    def _with_branch(self, n: int) -> "PuiseuxSeries":
        if n == self.n:
            return self
        if n % self.n:
            raise ValueError("can only refine the branch order")
        f = n // self.n
        trunc = self.trunc * f if self.trunc is not math.inf else math.inf
        return PuiseuxSeries(n, {j * f: c for j, c in self.coeffs.items()}, trunc)

    def _coerce(self, other):
        if isinstance(other, PuiseuxSeries):
            return other
        return PuiseuxSeries.monomial(canonical_scalar(other), 0, n=1)

    def __add__(self, other):
        other = self._coerce(other)
        n = _lcm(self.n, other.n)
        a, b = self._with_branch(n), other._with_branch(n)
        trunc = min(a.trunc, b.trunc)
        coeffs = dict(a.coeffs)
        for j, c in b.coeffs.items():
            coeffs[j] = coeffs.get(j, 0) + c
        coeffs = {j: c for j, c in coeffs.items() if j <= trunc}
        return PuiseuxSeries(n, coeffs, trunc)

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxSeries(
            self.n, {j: -c for j, c in self.coeffs.items()}, self.trunc
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, PuiseuxSeries):
            scalar = canonical_scalar(other)
            if is_zero(scalar, 0.0):
                return PuiseuxSeries.zero(self.n, self.trunc)
            return PuiseuxSeries(
                self.n,
                {j: c * scalar for j, c in self.coeffs.items()},
                self.trunc,
            )
        n = _lcm(self.n, other.n)
        a, b = self._with_branch(n), other._with_branch(n)
        trunc = min(
            a.trunc + b._valuation_bound(), b.trunc + a._valuation_bound()
        )
        coeffs = {}
        for j1, c1 in a.coeffs.items():
            for j2, c2 in b.coeffs.items():
                j = j1 + j2
                if j > trunc:
                    continue
                coeffs[j] = coeffs.get(j, 0) + c1 * c2
        return PuiseuxSeries(n, coeffs, trunc)

    __rmul__ = __mul__

    def scale_frac(self, f: Fraction) -> "PuiseuxSeries":
        return PuiseuxSeries(
            self.n, {j: mul_frac(c, f) for j, c in self.coeffs.items()}, self.trunc
        )

    def shift(self, offset: int) -> "PuiseuxSeries":
        trunc = self.trunc + offset if self.trunc is not math.inf else math.inf
        return PuiseuxSeries(
            self.n, {j + offset: c for j, c in self.coeffs.items()}, trunc
        )

    def inverse(self) -> "PuiseuxSeries":
        """Multiplicative inverse by leading-term division.

        A single-term series inverts exactly.  A multi-term series needs a
        finite truncation, since its inverse has infinitely many terms.
        """
        if self.is_zero_series:
            raise ZeroDivisionError("inversion of zero series")
        v = self.min_index
        lead = self.coeffs[v]
        if len(self.coeffs) == 1:
            trunc = self.trunc - 2 * v if self.trunc is not math.inf else math.inf
            return PuiseuxSeries(self.n, {-v: 1 / lead}, trunc)
        if self.trunc is math.inf:
            raise TruncationError(
                "inverse of a multi-term series has infinitely many terms; "
                "truncate to a finite order first"
            )
        rel_known = self.trunc - v
        u = {j - v: c / lead for j, c in self.coeffs.items() if j != v}
        b = {0: QComplex(1) if is_exact(lead) else complex(1)}
        for m in range(1, rel_known + 1):
            acc = 0
            for k, uk in u.items():
                if 0 < k <= m and (m - k) in b:
                    acc = acc + uk * b[m - k]
            if not is_zero(acc, 0.0):
                b[m] = -acc
        trunc = self.trunc - 2 * v
        coeffs = {mm - v: bb / lead for mm, bb in b.items() if mm - v <= trunc}
        return PuiseuxSeries(self.n, coeffs, trunc)

    def pow(self, e: int) -> "PuiseuxSeries":
        """Integer power; negative exponents invert first."""
        if e == 0:
            return PuiseuxSeries.one(self.n)
        base = self if e > 0 else self.inverse()
        k = abs(e)
        result = None
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    __pow__ = pow

    def differentiate(self, k: int = 1) -> "PuiseuxSeries":
        """Termwise derivative d^k/dtau^k with exact rational exponent
        factors."""
        if k < 0:
            raise ValueError("derivative order must be nonnegative")
        out = self
        for _ in range(k):
            coeffs = {}
            for j, c in out.coeffs.items():
                if j == 0:
                    continue
                coeffs[j - out.n] = mul_frac(c, Fraction(j, out.n))
            trunc = out.trunc - out.n if out.trunc is not math.inf else math.inf
            out = PuiseuxSeries(out.n, coeffs, trunc)
        return out

    def truncate(self, new_trunc) -> "PuiseuxSeries":
        trunc = min(self.trunc, new_trunc)
        return PuiseuxSeries(
            self.n, {j: c for j, c in self.coeffs.items() if j <= trunc}, trunc
        )

    # -- numerics and presentation -------------------------------------------

    def evaluate(self, tau, branch: int = 0) -> complex:
        """Numeric value at tau using the given n-th root branch.

        ``branch=k`` multiplies the principal root of tau**(1/n) by
        ``exp(2*pi*i*k/n)``.
        """
        tau = complex(tau)
        if tau == 0:
            raise ZeroDivisionError("series evaluation at the expansion point")
        zeta = cmath.exp(cmath.log(tau) / self.n)
        if branch % self.n:
            zeta *= cmath.exp(2j * cmath.pi * (branch % self.n) / self.n)
        total = 0j
        for j, c in sorted(self.coeffs.items()):
            total += to_complex(c) * zeta ** j
        return total

    def to_json_terms(self):
        return [
            [j, to_complex(c).real, to_complex(c).imag] for j, c in self.terms()
        ]

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        n = _lcm(self.n, other.n)
        a, b = self._with_branch(n), other._with_branch(n)
        return a.coeffs == b.coeffs and a.trunc == b.trunc

    def __repr__(self):
        body = " + ".join(
            f"({c})*tau^({j}/{self.n})" for j, c in self.terms()
        )
        return f"PuiseuxSeries({body or '0'}; trunc={self.trunc})"


def substitute(
    poly: DifferentialPolynomial, s: PuiseuxSeries, through=None
) -> PuiseuxSeries:
    """Residual series of the differential polynomial applied to s.

    The result's truncation reflects how far the residual is guaranteed;
    passing ``through`` raises :class:`TruncationError` when the input is
    not known deeply enough to certify that order.
    """
    max_order = poly.max_order
    derivs = [s]
    for k in range(1, max_order + 1):
        derivs.append(derivs[-1].differentiate())
    total = PuiseuxSeries.zero(s.n, math.inf)
    for mono in poly.monomials:
        term = PuiseuxSeries.monomial(mono.coeff, 0, n=1)
        for k, d in mono.degrees:
            term = term * derivs[k].pow(d)
        total = total + term
    if through is not None and total.trunc < through:
        deficit = through - total.trunc
        required = s.trunc + deficit if s.trunc is not math.inf else None
        raise TruncationError(
            f"residual certified only through index {total.trunc}, "
            f"need {through}",
            required=required,
        )
    return total


def cot_laurent(K: int) -> PuiseuxSeries:
    """Laurent expansion of cot about 0 through index K, exact rationals.

    Computed by dividing the cosine series by the sine series; the leading
    coefficients run 1, -1/3, -1/45, -2/945, -1/4725, ...
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    m = K + 2
    fact = [Fraction(1)]
    for i in range(1, m + 2):
        fact.append(fact[-1] * i)
    cos_coeffs = {}
    sin_coeffs = {}
    for j in range(0, m + 1):
        if j % 2 == 0:
            cos_coeffs[j] = QComplex(Fraction((-1) ** (j // 2), 1) / fact[j])
        else:
            sin_coeffs[j] = QComplex(Fraction((-1) ** ((j - 1) // 2), 1) / fact[j])
    cos_s = PuiseuxSeries(1, cos_coeffs, m)
    sin_s = PuiseuxSeries(1, sin_coeffs, m)
    return (cos_s * sin_s.inverse()).truncate(K)


@dataclass(frozen=True)
class CompatibilityCheck:
    """Outcome at one resonance order: did the obstruction vanish?"""

    resonance: Fraction
    satisfied: bool
    residual: object


@dataclass(frozen=True)
class LocalSolution:
    """A local Puiseux solution attached to its balance family."""

    family: BalanceFamily
    a: object
    series: PuiseuxSeries
    free_parameters: dict
    compatibility: tuple
    poly: DifferentialPolynomial

    @property
    def residue(self):
        """Coefficient of 1/tau (Laurent data only)."""
        if self.series.n != 1:
            raise ValueError("residue undefined for branched data")
        return self.series.coeffs.get(-1, 0)


def _compat_tolerance(poly: DifferentialPolynomial, a) -> float:
    scale = max(abs(to_complex(m.coeff)) for m in poly.monomials)
    amp = max(1.0, abs(to_complex(a)))
    top = max(m.total_degree for m in poly.monomials)
    return 1e-9 * max(1.0, scale) * amp ** top


def solve_local_series(
    poly: DifferentialPolynomial,
    fam: BalanceFamily,
    a,
    K: int = DEFAULT_TRUNCATION,
    free=None,
    force: bool = False,
) -> LocalSolution:
    """Determine the local series order by order from the vanishing of the
    residual.

    At resonance orders the supplied free value (default 0) is injected and
    the compatibility condition recorded.  With ``force=True`` the leading
    coefficient is accepted even though it violates the leading equation
    (used to realize claimed pole expansions on families that have none);
    the violated orders appear as unsatisfied compatibility entries.
    """
    a = canonical_scalar(a)
    if is_zero(a, 0.0):
        raise ValueError("leading coefficient must be nonzero")
    free = {Fraction(k): canonical_scalar(v) for k, v in (free or {}).items()}
    n = fam.branch_order
    p = fam.p
    j0 = p.numerator * (n // p.denominator)
    q_scaled = fam.q * n
    if q_scaled.denominator != 1:
        raise InternalInconsistencyError("q is not resolvable on the branch lattice")
    q_idx = int(q_scaled)

    lead_val = poly_eval(fam.leading_poly, a)
    if not force and not is_zero(lead_val, 1e-8 * max(1.0, abs(to_complex(a)))):
        raise ValueError(
            "a does not satisfy the leading equation; pass force=True "
            "to inject it anyway"
        )
    resonance_orders = {}
    for r in rational_resonances(poly, fam, a):
        if r > 0:
            scaled = Fraction(r) * n
            if scaled.denominator == 1:
                resonance_orders[int(scaled)] = Fraction(r)
    response = linear_response(poly, fam, a)

    tol = _compat_tolerance(poly, a)
    coeffs = {j0: a}
    compatibility = []
    free_used = {r: free.get(r, canonical_scalar(0)) for r in resonance_orders.values()}
    if force:
        compatibility.append(
            CompatibilityCheck(Fraction(0), is_zero(lead_val, tol), lead_val)
        )

    for rho in range(1, K + 1):
        # the residual at q_idx + rho needs coefficients through j0 + rho
        # only, the unknown one taken as 0; truncating there keeps the
        # products short, and `through` raises if that index is uncertified
        partial = PuiseuxSeries(n, coeffs, j0 + rho)
        residual = substitute(poly, partial, through=q_idx + rho)
        e = residual.coeffs.get(q_idx + rho, 0)
        if rho in resonance_orders:
            r = resonance_orders[rho]
            compatibility.append(CompatibilityCheck(r, is_zero(e, tol), e))
            value = free_used[r]
            if not is_zero(value, 0.0):
                coeffs[j0 + rho] = value
            continue
        lam = poly_eval(response, Fraction(rho, n))
        if is_zero(lam, 1e-13):
            raise InternalInconsistencyError(
                f"singular linear step at non-resonant order {Fraction(rho, n)}"
            )
        c = -(e / lam) if not is_zero(e, 0.0) else 0
        if not is_zero(c, 0.0):
            coeffs[j0 + rho] = c

    series = PuiseuxSeries(n, coeffs, j0 + K)
    return LocalSolution(
        family=fam,
        a=a,
        series=series,
        free_parameters=free_used,
        compatibility=tuple(compatibility),
        poly=poly,
    )


def synthetic_laurent_solution(
    poly: DifferentialPolynomial, coeffs: dict, trunc: int, fam=None
) -> LocalSolution:
    """Wrap externally supplied Laurent coefficients as a LocalSolution so
    the closed-form builders can consume claimed or sampled data."""
    series = PuiseuxSeries(1, coeffs, trunc)
    if series.is_zero_series:
        raise ValueError("synthetic data must be nonzero")
    v = series.min_index
    if fam is None:
        fam = BalanceFamily(
            p=Fraction(v),
            branch_order=1,
            q=Fraction(0),
            dominant=(),
            leading_poly=(),
            leading_coeffs=(),
            consistent=False,
            resonances=(),
            two_term=False,
        )
    return LocalSolution(
        family=fam,
        a=series.coeffs[v],
        series=series,
        free_parameters={},
        compatibility=(),
        poly=poly,
    )
