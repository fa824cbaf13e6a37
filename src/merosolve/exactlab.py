"""Closed-form solution laboratory for the width equation
``alpha'' + omega**2 * alpha = alpha**-3`` (units hbar = m = 1).

Provides the classical linear-oscillator basis, quadratic-form (Pinney)
superposition solutions, the superposition built directly from initial
conditions and the zero of that width nearest t = 0 (``pinney_zero``), the
coupled-oscillator invariant, the third-order maximal-symmetry check for
``alpha**2``, and the complex Riccati reduction residual.  Every derivative
is analytic: a time point takes one cos/sin pair for the basis jet
(u, u', v, v'), and the higher derivatives follow from
``eta'' = -omega**2 eta``.  The lab's grid takes one basis jet per point
for both of its widths and one form jet per point of each width.  A width
called for its value alone (``PinneyWidth.__call__``, as the comparison
with a trajectory does at each of its points) builds F = alpha**2 from the
two basis values by the form jet's expression: the same value and domain
error, with no derivative work.
"""

from __future__ import annotations

import cmath
import math

from .errors import EvaluationDomainError
from .records import Record


class LinearOscillation:
    """Solution of ``eta'' + omega**2 * eta = 0`` with given initial value
    and slope; valid for complex omega and complex time."""

    def __init__(self, omega, value0, slope0):
        self.omega = complex(omega)
        self.value0 = complex(value0)
        self.slope0 = complex(slope0)

    def jet(self, t):
        """(eta, eta') at t from one cos/sin pair."""
        w = self.omega
        if w == 0:
            return self.value0 + self.slope0 * t, self.slope0
        return self.trig_jet(cmath.cos(w * t), cmath.sin(w * t))

    def trig_value(self, cos, sin):
        """eta where cos(omega t) = cos and sin(omega t) = sin, omega != 0."""
        return self.value0 * cos + self.slope0 * sin / self.omega

    def trig_jet(self, cos, sin):
        """(eta, eta') where cos(omega t) = cos and sin(omega t) = sin."""
        return (self.trig_value(cos, sin),
                -self.value0 * self.omega * sin + self.slope0 * cos)

    def __call__(self, t):
        return self.jet(t)[0]

    def d1(self, t):
        return self.jet(t)[1]


class OscillatorBasis(Record):
    """Two independent oscillator solutions with their (constant) Wronskian."""

    __slots__ = ("omega", "u", "v", "wronskian")

    def jet(self, t):
        """(u, u', v, v') at t from one cos/sin pair, by the solutions' jets."""
        w = self.omega
        if w == 0:
            return (*self.u.jet(t), *self.v.jet(t))
        cos, sin = cmath.cos(w * t), cmath.sin(w * t)
        return (*self.u.trig_jet(cos, sin), *self.v.trig_jet(cos, sin))

    def values(self, t):
        """(u, v) at t from one cos/sin pair: the values of :meth:`jet`."""
        w = self.omega
        if w == 0:
            return self.u(t), self.v(t)
        cos, sin = cmath.cos(w * t), cmath.sin(w * t)
        return self.u.trig_value(cos, sin), self.v.trig_value(cos, sin)

    def wronskian_at(self, t) -> complex:
        u, du, v, dv = self.jet(t)
        return u * dv - du * v


def oscillator_basis(omega) -> OscillatorBasis:
    """Basis (u, v) of the classical oscillator normalized by u(0)=1,
    u'(0)=0, v(0)=0, v'(0)=1, so its Wronskian is exactly 1."""
    u = LinearOscillation(omega, 1, 0)
    v = LinearOscillation(omega, 0, 1)
    basis = OscillatorBasis(complex(omega), u, v, complex(1))
    for t in (0.0, 0.7, 1.3, 2.9):
        if abs(basis.wronskian_at(t) - 1) > 1e-10:
            raise ValueError("Wronskian drifts; basis construction is broken")
    return basis


class QuadFormParams(Record):
    __slots__ = ("A", "B", "C")


class PinneyWidth:
    """Width solution ``alpha = sqrt(A u^2 + 2 B u v + C v^2)``.

    The quadratic form F = alpha**2 and its derivatives are analytic, so all
    width derivatives are available in closed form.  Real evaluation points
    where the form is not positive raise, naming the offending point.
    """

    def __init__(self, params: QuadFormParams, basis: OscillatorBasis):
        self.params = params
        self.basis = basis
        # each the subexpression the formulas below evaluated first: same bits
        self._a2, self._b2, self._c2 = 2 * params.A, 2 * params.B, 2 * params.C
        self._w2 = basis.omega ** 2
        self._neg_w2 = -self._w2

    def _form(self, u, v):
        """F = A u**2 + 2 B u v + C v**2 from the basis values at a point."""
        A, C = self.params.A, self.params.C
        return A * u ** 2 + self._b2 * u * v + C * v ** 2

    def form_jet(self, t, jet=None):
        """(F, F', F'', F''') of the form F = alpha**2 at t, from the basis
        ``jet`` at t (:meth:`OscillatorBasis.jet`, taken here if None)."""
        u, du, v, dv = self.basis.jet(t) if jet is None else jet
        a2, b2, c2, neg_w2 = self._a2, self._b2, self._c2, self._neg_w2
        ddu, dddu = neg_w2 * u, neg_w2 * du
        ddv, dddv = neg_w2 * v, neg_w2 * dv
        F = self._form(u, v)
        dF = a2 * u * du + b2 * (du * v + u * dv) + c2 * v * dv
        ddF = (
            a2 * (du ** 2 + u * ddu)
            + b2 * (ddu * v + 2 * du * dv + u * ddv)
            + c2 * (dv ** 2 + v * ddv)
        )
        dddF = (
            a2 * (3 * du * ddu + u * dddu)
            + b2 * (dddu * v + 3 * ddu * dv + 3 * du * ddv + u * dddv)
            + c2 * (3 * dv * ddv + v * dddv)
        )
        return F, dF, ddF, dddF

    def derivatives(self, t):
        """(alpha, alpha', alpha'') at t; at a real t where the form is not
        positive this raises, naming the point."""
        return self._jet(complex(t))[:3]

    def residuals(self, t, jet=None):
        """At t, from one form jet (of the basis ``jet``) and with omega the
        basis frequency: the width-equation residual alpha'' + omega**2 alpha
        - alpha**-3, the third-order residual x''' + 4 omega**2 x' of
        x = alpha**2 and the Riccati residual; raises where
        :meth:`derivatives` does."""
        alpha, dalpha, ddalpha, dF, dddF = self._jet(complex(t), jet)
        return (ddalpha + self._w2 * alpha - alpha ** -3,
                dddF + 4 * self._w2 * dF,
                riccati_residual(alpha, dalpha, ddalpha, self.basis.omega))

    def width_residual(self, t, jet=None):
        """The width-equation residual of :meth:`residuals` alone."""
        alpha, _, ddalpha, _, _ = self._jet(complex(t), jet)
        return ddalpha + self._w2 * alpha - alpha ** -3

    def _jet(self, t: complex, jet=None):
        """(alpha, alpha', alpha'', F', F''') at t from one form jet."""
        F, dF, ddF, dddF = self.form_jet(t, jet)
        alpha = _root(F, t)
        return (alpha, dF / (2 * alpha),
                ddF / (2 * alpha) - dF ** 2 / (4 * alpha ** 3), dF, dddF)

    def __call__(self, t) -> complex:
        """alpha at t from the values of the basis solutions alone, with
        the F of :meth:`form_jet`: the value :meth:`derivatives` gives, and
        the same domain error."""
        t = complex(t)
        return _root(self._form(*self.basis.values(t)), t)

    def d1(self, t) -> complex:
        return self._jet(complex(t))[1]

    def d2(self, t) -> complex:
        return self._jet(complex(t))[2]


def _root(F, t: complex) -> complex:
    """alpha = sqrt(F) at t; at a real t where the form F is not positive
    this raises, naming the point."""
    if t.imag == 0 and F.imag == 0 and F.real <= 0:
        raise EvaluationDomainError(
            f"quadratic form vanishes or turns negative at t = {t}", point=t
        )
    return cmath.sqrt(F)


def pinney_solution(params: QuadFormParams, basis: OscillatorBasis) -> PinneyWidth:
    """Superposition width from quadratic-form constants (A, B, C).

    When ``A*C - B**2 == 1/W**2`` the result solves the width equation with
    the basis frequency; the residual oracle checks, never assumes, this.
    """
    return PinneyWidth(params, basis)


def constraint_report(params: QuadFormParams, basis: OscillatorBasis) -> dict:
    """Both sign conventions of the quadratic-form constraint, evaluated.

    The implemented convention is ``A*C - B**2 = 1/W**2``; the opposite sign
    ``B**2 - A*C = 1/W**2`` is also evaluated so inputs can be classified.
    """
    A, B, C = params.A, params.B, params.C
    w2 = basis.wronskian ** 2
    target = 1 / w2
    ac_minus_b2 = A * C - B * B
    b2_minus_ac = -ac_minus_b2
    tol = 1e-10 * max(1.0, abs(target))
    return {
        "ac_minus_b2": ac_minus_b2,
        "b2_minus_ac": b2_minus_ac,
        "inverse_w_squared": target,
        "ac_convention_holds": abs(ac_minus_b2 - target) <= tol,
        "reversed_sign_holds": abs(b2_minus_ac - target) <= tol,
    }


def width_from_ics(alpha0, dalpha0, basis: OscillatorBasis):
    """Width solution pinned by initial data (alpha0, dalpha0).

    With the basis normalization u(0)=1, u'(0)=0, v(0)=0, v'(0)=1 the
    constants A = alpha0**2, B = alpha0 dalpha0, C = dalpha0**2 + alpha0**-2
    give alpha(0) = alpha0 for alpha0 > 0 and alpha'(0) = dalpha0.  Returns
    the width plus a flag recording whether the initial conditions were
    reproduced numerically.
    """
    alpha0 = complex(alpha0)
    dalpha0 = complex(dalpha0)
    if alpha0 == 0:
        raise ValueError("alpha0 must be nonzero")
    A = alpha0 ** 2
    C = dalpha0 ** 2 + 1 / alpha0 ** 2
    B = dalpha0 * alpha0
    width = PinneyWidth(QuadFormParams(A=A, B=B, C=C), basis)
    mismatch = False
    try:
        mismatch = (
            abs(width(0.0) - alpha0) > 1e-8 or abs(width.d1(0.0) - dalpha0) > 1e-8
        )
    except EvaluationDomainError:
        mismatch = True
    return width, mismatch


def pinney_zero(alpha0: float, dalpha0: float, omega: float) -> complex:
    """The zero of the width pinned by real initial data (alpha0, dalpha0)
    at a real omega that lies nearest t = 0.

    alpha**2 is the form of :func:`width_from_ics`, A cos**2 wt +
    2 B cos wt sin wt / w + C sin**2 wt / w**2 with B = alpha0 dalpha0 and
    C = dalpha0**2 + alpha0**-2.  Since A C - B**2 = 1 it vanishes where
    tan wt = w (-B +- i) / C; the nearest zero is one of the principal
    arctangents or a half-period beside it; at omega = 0 it is their limit
    (-B + i) / C, a zero of A + 2 B t + C t**2.  At a zero the width has a
    square-root branch point, the oracle for a complex-time probe.  At the
    equilibrium, dalpha0 = 0 and alpha0**4 = 1 / omega**2, there is no zero
    and ``ValueError`` says so.
    """
    b = alpha0 * dalpha0
    c = dalpha0 ** 2 + alpha0 ** -2
    if omega == 0:
        return complex(-b, 1) / c
    zeros = []
    for sign in (1, -1):
        try:
            base = cmath.atan(omega * complex(-b, sign) / c) / omega
        except ValueError:  # tan wt = +-i: the width is constant
            raise ValueError(
                "the width is at its equilibrium, alpha0**4 = 1/omega**2 "
                "with dalpha0 = 0, and has no zero") from None
        zeros += [base + k * math.pi / omega for k in (-1, 0, 1)]
    return min(zeros, key=abs)


def ermakov_invariant(eta, deta, alpha, dalpha):
    """Coupled-oscillator invariant
    ``I = ((eta' alpha - eta alpha')**2 + (eta/alpha)**2) / 2``."""
    alpha = complex(alpha)
    if alpha == 0:
        raise EvaluationDomainError("invariant undefined at alpha = 0")
    cross = complex(deta) * alpha - complex(eta) * complex(dalpha)
    return (cross ** 2 + (complex(eta) / alpha) ** 2) / 2


def riccati_residual(alpha, dalpha, ddalpha, omega) -> complex:
    """Residual of the complex width Riccati equation.

    With ``Y = alpha'/alpha + i/alpha**2`` the value ``Y' + Y**2 + omega**2``
    equals ``(alpha'' + omega**2 alpha - alpha**-3)/alpha``, so it vanishes
    exactly on width-equation solutions.
    """
    alpha = complex(alpha)
    if alpha == 0:
        raise EvaluationDomainError("Riccati variables undefined at alpha = 0")
    dalpha = complex(dalpha)
    ddalpha = complex(ddalpha)
    y = dalpha / alpha + 1j / alpha ** 2
    dy = (ddalpha * alpha - dalpha ** 2) / alpha ** 2 - 2j * dalpha / alpha ** 3
    return dy + y * y + complex(omega) ** 2
