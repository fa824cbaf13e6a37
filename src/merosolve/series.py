"""Truncated Puiseux/Laurent series arithmetic and local series solving.

A series is a finite map ``j -> c_j`` representing ``sum c_j * tau**(j/n)``
together with a truncation index: coefficients are guaranteed correct for
``j <= trunc`` and unknown beyond it.  ``trunc`` may be ``math.inf`` for
exact finite expressions (monomials, polynomials), in which case arithmetic
never loses precision.

``coeffs`` is stored in ascending index: the constructor sorts it, and every
ring operation builds its result through the constructor.  A product's Cauchy
sum therefore runs over the left factor in ascending index, and the online
solver below reproduces it term for term.

Coefficients follow the scalar modes of :mod:`merosolve.scalars`: exact
Gaussian rationals or plain complex.  Every Cauchy sum -- in products, the
cot recurrence and the online solver -- goes through
:func:`~merosolve.scalars.sum_of_products`: an exact sum accumulates its
Gaussian-integer numerators over one denominator and is normalised once per
coefficient, and a sum with a float factor keeps the ordered left fold, so
float coefficients do not change by a bit.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction

from .balance import (
    BalanceFamily,
    _horner_rounding,
    linear_response,
    rational_resonances,
)
from .errors import InternalInconsistencyError, TruncationError
from .odemodel import DifferentialPolynomial
from .records import Record
from .scalars import (
    QComplex,
    canonical_scalar,
    is_exact,
    is_zero,
    mul_ratio,
    poly_eval,
    sum_of_products,
    to_complex,
)

DEFAULT_TRUNCATION = 12
_ONE = QComplex(1)


def _binary_pow(chain, d: int, mul):
    """base**d for d >= 1 by binary exponentiation, where chain[i] is
    base**2**i (chain[0] = base) and grows by ``mul(top, top)`` as the bits
    of d need it.  Every power of the package folds in this order, so equal
    operands give equal float bits."""
    power, i = None, 0
    while d:
        if d & 1:
            power = chain[i] if power is None else mul(power, chain[i])
        d >>= 1
        i += 1
        if d and i == len(chain):
            chain.append(mul(chain[-1], chain[-1]))
    return power


class PuiseuxSeries:
    """Immutable truncated series in fractional powers of tau."""

    __slots__ = ("n", "coeffs", "trunc")

    def __init__(self, n, coeffs, trunc):
        if n < 1:
            raise ValueError("branch order must be positive")
        clean = {}
        for j in sorted(coeffs):
            c = canonical_scalar(coeffs[j])
            if not c:
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
        return cls(n, {0: _ONE}, math.inf)

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
        return next(iter(self.coeffs)) if self.coeffs else None

    @property
    def is_exact(self) -> bool:
        return all(is_exact(c) for c in self.coeffs.values())

    def _valuation_bound(self):
        # effective valuation used in precision bookkeeping; a zero series
        # may hide terms just beyond its truncation
        if self.coeffs:
            return next(iter(self.coeffs))
        return self.trunc + 1 if self.trunc is not math.inf else math.inf

    def exponent(self, j: int) -> Fraction:
        return Fraction(j, self.n)

    def terms(self):
        return list(self.coeffs.items())

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
        n = math.lcm(self.n, other.n)
        a, b = self._with_branch(n), other._with_branch(n)
        trunc = min(a.trunc, b.trunc)
        coeffs = dict(a.coeffs)
        for j, c in b.coeffs.items():
            coeffs[j] = coeffs.get(j, 0) + c
        coeffs = {j: c for j, c in coeffs.items() if j <= trunc}
        return PuiseuxSeries(n, coeffs, trunc)

    __radd__ = __add__

    def __mul__(self, other):
        """Scalar or Cauchy product.  Each output coefficient sums its pairs
        over the left factor in ascending index with ``sum_of_products``:
        numerators accumulate when the pairs are exact, the left fold from 0
        runs when one is float."""
        if not isinstance(other, PuiseuxSeries):
            scalar = canonical_scalar(other)
            if not scalar:
                return PuiseuxSeries.zero(self.n, self.trunc)
            return PuiseuxSeries(
                self.n,
                {j: c * scalar for j, c in self.coeffs.items()},
                self.trunc,
            )
        n = math.lcm(self.n, other.n)
        a, b = self._with_branch(n), other._with_branch(n)
        trunc = min(
            a.trunc + b._valuation_bound(), b.trunc + a._valuation_bound()
        )
        pairs = {}
        for j1, c1 in a.coeffs.items():
            for j2, c2 in b.coeffs.items():
                j = j1 + j2
                if j > trunc:
                    break
                p = pairs.get(j)
                if p is None:
                    pairs[j] = [(c1, c2)]
                else:
                    p.append((c1, c2))
        return PuiseuxSeries(
            n, {j: sum_of_products(p) for j, p in pairs.items()}, trunc
        )

    __rmul__ = __mul__

    def pow(self, e: int) -> "PuiseuxSeries":
        """Nonnegative integer power by binary exponentiation."""
        if e < 0:
            raise ValueError("negative powers are not supported")
        if e == 0:
            return PuiseuxSeries.one(self.n)
        return _binary_pow([self], e, operator.mul)

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
                coeffs[j - out.n] = mul_ratio(c, j, out.n)
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
        for j, c in self.coeffs.items():
            total += to_complex(c) * zeta ** j
        return total

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        n = math.lcm(self.n, other.n)
        a, b = self._with_branch(n), other._with_branch(n)
        return a.coeffs == b.coeffs and a.trunc == b.trunc

    def __repr__(self):
        body = " + ".join(
            f"({c})*tau^({j}/{self.n})" for j, c in self.terms()
        )
        return f"PuiseuxSeries({body or '0'}; trunc={self.trunc})"


def substitute(poly: DifferentialPolynomial, s: PuiseuxSeries) -> PuiseuxSeries:
    """Residual series of the differential polynomial applied to s.

    Each monomial is the left fold ``monomial(coeff) * f1**d1 * f2**d2``
    over its factors, each power by the binary exponentiation that
    ``PuiseuxSeries.pow`` runs.  The squares it builds are made once per
    call and shared by every monomial, so each product keeps the operands
    and the order of per-monomial ``pow``: the same series, with y**2 built
    once for y**3 * y'' + y**4.  The result's truncation
    reflects how far the residual is guaranteed.
    """
    max_order = poly.max_order
    derivs = [s]
    for k in range(1, max_order + 1):
        derivs.append(derivs[-1].differentiate())
    # squares[k][i] is derivs[k] ** 2**i, built on first use
    squares = [[f] for f in derivs]
    total = PuiseuxSeries.zero(s.n, math.inf)
    for mono in poly.monomials:
        term = PuiseuxSeries.monomial(mono.coeff, 0, n=1)
        for k, d in mono.degrees:
            term = term * _binary_pow(squares[k], d, operator.mul)
        total = total + term
    return total


def cot_laurent(K: int) -> PuiseuxSeries:
    """Laurent expansion of cot about 0 through index K, exact rationals.

    cot solves the Riccati equation y' = -1 - y**2.  With c_{-1} = 1 and the
    even coefficients zero, the coefficients of tau**m give

        (m + 3) * c_{m+1} = -(delta_{m,0} + sum_{i=0..m} c_i * c_{m-i})

    for even m < K, so the coefficients run 1, -1/3, -1/45, -2/945,
    -1/4725, ...
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    c = {-1: _ONE, 1: mul_ratio(_ONE, -1, 3)}
    for m in range(2, K, 2):
        total = sum_of_products([(c[i], c[m - i]) for i in range(1, m, 2)])
        c[m + 1] = mul_ratio(total, -1, m + 3)
    return PuiseuxSeries(1, c, K)


class CompatibilityCheck(Record):
    """Outcome at one resonance order: did the obstruction vanish?"""

    __slots__ = ("resonance", "satisfied", "residual")


class LocalSolution(Record):
    """A local Puiseux solution attached to its balance family; ``family``
    is None for coefficients supplied from outside the solver."""

    __slots__ = ("family", "a", "series", "free_parameters", "compatibility",
                 "poly")


def _moduli(coeffs) -> list:
    return [abs(to_complex(c)) for c in coeffs]


def _compat_tolerance(poly: DifferentialPolynomial, a) -> float:
    scale = max(abs(to_complex(m.coeff)) for m in poly.monomials)
    amp = max(1.0, abs(to_complex(a)))
    top = max(m.total_degree for m in poly.monomials)
    return 1e-9 * max(1.0, scale) * amp ** top


class _PlanNode:
    """One series of the online plan, kept by relative order: ``coef[r]``
    is the coefficient at index ``base + r``, or None where a
    :class:`PuiseuxSeries` would store nothing (an exact zero).  ``stored``
    lists the relative orders of the other entries, ascending."""

    __slots__ = ("base", "coef", "stored")

    def __init__(self, base):
        self.base = base
        self.coef = []
        self.stored = []

    def _entry(self, r):
        """Value of entry r from the factors, 0 when no pair contributes."""
        raise NotImplementedError

    def extend(self):
        """Append the coefficient at the next relative order."""
        self.coef.append(None)
        self.refresh()

    def refresh(self):
        """Recompute the top coefficient from the factors' current tops."""
        r = len(self.coef) - 1
        stored = self.stored
        if stored and stored[-1] == r:
            stored.pop()
        value = self._entry(r)
        if not value:
            self.coef[r] = None
        else:
            self.coef[r] = value
            stored.append(r)


class _Solution(_PlanNode):
    """The series y itself; ``top`` is its coefficient at the order being
    solved, taken as 0 until it is known."""

    __slots__ = ("top",)

    def _entry(self, r):
        return self.top


class _Deriv(_PlanNode):
    """The next derivative of ``left``, termwise as ``differentiate``."""

    __slots__ = ("left", "n")

    def __init__(self, left, n):
        super().__init__(left.base - n)
        self.left = left
        self.n = n

    def _entry(self, r):
        c = self.left.coef[r]
        j = self.left.base + r
        if c is None or j == 0:
            return 0
        return mul_ratio(c, j, self.n)


class _Mul(_PlanNode):
    """``left * right`` as ``PuiseuxSeries.__mul__``: the Cauchy sum runs
    over ``left`` in ascending index through ``sum_of_products``, which
    accumulates exact numerators and keeps the left fold from 0 for float
    factors."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        super().__init__(left.base + right.base)
        self.left = left
        self.right = right

    def _entry(self, r):
        acoef, bcoef = self.left.coef, self.right.coef
        return sum_of_products([
            (acoef[i], c2) for i in self.left.stored
            if (c2 := bcoef[r - i]) is not None
        ])


class _Const:
    """A monomial coefficient: its value at index 0, exact zero elsewhere.
    It heads each term's left fold and stands alone for a monomial without
    y."""

    base = 0
    stored = (0,)

    def __init__(self, coeff):
        self.coef = [coeff]


def _online_plan(poly: DifferentialPolynomial, y: _Solution, n: int):
    """Product plan of ``substitute`` over the series y: every node, y
    first, in dependency order, and one node per monomial.  Powers follow the
    binary exponentiation of ``PuiseuxSeries.pow``, equal products are
    built once, and a term is the left fold ``monomial(coeff) * f1 * f2``."""
    derivs = [y]
    for _ in range(poly.max_order):
        derivs.append(_Deriv(derivs[-1], n))
    nodes = list(derivs)
    products = {}

    def mul(left, right):
        node = products.get((left, right))
        if node is None:
            node = products[left, right] = _Mul(left, right)
            nodes.append(node)
        return node

    terms = []
    for mono in poly.monomials:
        term = _Const(mono.coeff)
        for k, d in mono.degrees:
            term = mul(term, _binary_pow([derivs[k]], d, mul))
        terms.append(term)
    return nodes, terms


def _residual_at(terms, index):
    """Residual coefficient at ``index``, summed over the terms in monomial
    order as ``PuiseuxSeries.__add__`` does (an exact zero restarts at 0)."""
    e = 0
    for term in terms:
        r = index - term.base
        if 0 <= r < len(term.coef):
            c = term.coef[r]
            if c is not None:
                e = e + c
                if not e:
                    e = 0
    return e


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

    The resonances and the linear response are read from the family's
    linearization, which ``find_balances`` built for every family, the
    inconsistent ones that a forced residue solves included.  At the
    family's first leading root the resonances the search stored are
    reused; a forced residue or another root solves its own.

    The solve is online (relaxed), O(K**2) per family.  Every series that
    ``substitute`` would build from y -- its derivatives, the powers of
    those and the monomial terms -- is a plan node that keeps its
    coefficients by relative order.  At order rho each node gains one
    coefficient, a Cauchy sum over the new pairs, with the unknown
    coefficient of y taken as 0; the residual is read off the terms, and
    once the coefficient is known the top of every node is recomputed with
    it.  A node sums over its left factor in ascending index, as
    ``PuiseuxSeries.__mul__`` does, multiplies the monomial coefficient in
    first and skips exact zeros, so float coefficients are bit-identical to
    solving with ``substitute``.  ``substitute`` itself stays the
    independent check.

    Only orders on the solve's lattice are computed.  Its step g is the gcd
    of every term's offset from the balance index and of every resonance
    order up to K that takes a nonzero free value.  By induction over the
    orders and the plan nodes, every stored coefficient sits at a multiple
    of g: y starts at relative order 0, a derivative keeps the order, a
    product adds two, and the residual of a term reads its order minus the
    term's offset.  At an order off the lattice (every order when g = 0) no
    Cauchy pair exists, so every node stores an exact zero without a sum
    and the residual is 0, for exact and float input alike.  The linear
    response is still evaluated there, so a singular non-resonant step
    raises at the same order, and a resonance there records the satisfied
    check with residual 0 that the full sums would give.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    a = canonical_scalar(a)
    if not a:
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
    # an exact value must vanish, a float one may be as large as its rounding
    if not force and lead_val and (
            is_exact(lead_val)
            or not abs(lead_val) <= _horner_rounding(
                _moduli(fam.leading_poly), abs(to_complex(a)))):
        raise ValueError(
            "a does not satisfy the leading equation; pass force=True "
            "to inject it anyway"
        )
    lead = fam.leading_coeffs[0] if fam.leading_coeffs else None
    if not force and fam.resonances and type(a) is type(lead) and a == lead:
        resonances = fam.resonances
    else:
        resonances = rational_resonances(fam, a)
    resonance_orders = {}
    for r in resonances:
        if r > 0:
            scaled = Fraction(r) * n
            if scaled.denominator == 1:
                resonance_orders[int(scaled)] = Fraction(r)
    response = linear_response(fam, a)
    response_sizes = None if all(map(is_exact, response)) else _moduli(response)

    # an exact residual is compared with 0, so the tolerance is computed only
    # once a float enters: |a|**top overflows for a huge exact root
    exact = poly.is_exact and is_exact(a) and all(map(is_exact, free.values()))
    tol = 0.0 if exact else _compat_tolerance(poly, a)
    compatibility = []
    # only the resonances the truncated series reaches take a free value
    free_used = {
        r: free.get(r, canonical_scalar(0))
        for rho, r in resonance_orders.items()
        if rho <= K
    }
    if force:
        compatibility.append(
            CompatibilityCheck(Fraction(0), is_zero(lead_val, tol), lead_val)
        )

    y = _Solution(j0)
    nodes, terms = _online_plan(poly, y, n)
    if K and any(t.base < q_idx for t in terms if not isinstance(t, _Const)):
        # the residual at q_idx + rho would need coefficients of y beyond
        # j0 + rho, which are not solved yet
        raise TruncationError(
            f"a term of the equation sits below the balance index {q_idx}"
        )
    y.top = a
    for node in nodes:
        node.extend()
    # the lattice step g of the docstring; g = 0 leaves order 0 alone
    step = 0
    for term in terms:
        step = math.gcd(step, term.base - q_idx)
    for rho, r in resonance_orders.items():
        if rho <= K and free_used[r]:
            step = math.gcd(step, rho)

    for rho in range(1, K + 1):
        if step and not rho % step:
            y.top = 0
            for node in nodes:
                node.extend()
            e = _residual_at(terms, q_idx + rho)
        else:
            # off the lattice: no Cauchy pair, an exact zero everywhere
            for node in nodes:
                node.coef.append(None)
            e = 0
        if rho in resonance_orders:
            r = resonance_orders[rho]
            compatibility.append(CompatibilityCheck(r, is_zero(e, tol), e))
            value = free_used[r]
        else:
            lam = 0
            for c in reversed(response):
                lam = mul_ratio(lam, rho, n) + c
            if not lam or (response_sizes and abs(lam) <= _horner_rounding(
                    response_sizes, rho / n)):
                raise InternalInconsistencyError(
                    f"singular linear step at non-resonant order {Fraction(rho, n)}"
                )
            value = -(e / lam) if e else 0
        if value:
            y.top = value
            for node in nodes:
                node.refresh()

    coeffs = {j0 + r: c for r, c in enumerate(y.coef) if c is not None}
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
    poly: DifferentialPolynomial, coeffs: dict, trunc: int
) -> LocalSolution:
    """Wrap externally supplied Laurent coefficients as a LocalSolution so
    the closed-form builders can consume claimed or sampled data.  No
    balance family produced them, so ``family`` is None."""
    series = PuiseuxSeries(1, coeffs, trunc)
    if series.is_zero_series:
        raise ValueError("synthetic data must be nonzero")
    v = series.min_index
    return LocalSolution(
        family=None,
        a=series.coeffs[v],
        series=series,
        free_parameters={},
        compatibility=(),
        poly=poly,
    )
