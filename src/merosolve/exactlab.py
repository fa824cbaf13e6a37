"""Closed-form solution laboratory for the width equation
``alpha'' + omega**2 * alpha = alpha**-3`` (units hbar = m = 1).

Provides the classical linear-oscillator basis, quadratic-form (Pinney)
superposition solutions, the superposition built directly from initial
conditions, the coupled-oscillator invariant, the third-order
maximal-symmetry check for ``alpha**2``, and the complex Riccati reduction
residual.  Every construction exposes analytic derivatives so downstream
checks avoid numeric differentiation where possible.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import EvaluationDomainError

# central-difference steps balancing truncation against roundoff per order;
# higher orders need larger steps because roundoff grows like eps/h**order
_FD_STEPS = {1: 1e-5, 2: 2e-3, 3: 1e-2}


def numeric_derivative(f, t, order: int = 1, h: float = None):
    """Central-difference derivative with one Richardson extrapolation."""
    if order not in (1, 2, 3):
        raise ValueError("numeric derivatives supported for orders 1..3")
    if h is None:
        h = _FD_STEPS[order]

    def stencil(step):
        if order == 1:
            return (f(t + step) - f(t - step)) / (2 * step)
        if order == 2:
            return (f(t + step) - 2 * f(t) + f(t - step)) / step ** 2
        return (
            f(t + 2 * step) - 2 * f(t + step) + 2 * f(t - step) - f(t - 2 * step)
        ) / (2 * step ** 3)

    d1 = stencil(h)
    d2 = stencil(h / 2)
    return (4 * d2 - d1) / 3


class LinearOscillation:
    """Solution of ``eta'' + omega**2 * eta = 0`` with given initial value
    and slope; valid for complex omega and complex time."""

    def __init__(self, omega, value0, slope0):
        self.omega = complex(omega)
        self.value0 = complex(value0)
        self.slope0 = complex(slope0)

    def __call__(self, t):
        w = self.omega
        if w == 0:
            return self.value0 + self.slope0 * t
        return self.value0 * cmath.cos(w * t) + self.slope0 * cmath.sin(w * t) / w

    def d1(self, t):
        w = self.omega
        if w == 0:
            return self.slope0
        return -self.value0 * w * cmath.sin(w * t) + self.slope0 * cmath.cos(w * t)

    def d2(self, t):
        return -self.omega ** 2 * self(t)

    def d3(self, t):
        return -self.omega ** 2 * self.d1(t)


@dataclass(frozen=True)
class OscillatorBasis:
    """Two independent oscillator solutions with their (constant) Wronskian."""

    omega: complex
    u: LinearOscillation
    v: LinearOscillation
    wronskian: complex

    def wronskian_at(self, t) -> complex:
        return self.u(t) * self.v.d1(t) - self.u.d1(t) * self.v(t)


def oscillator_basis(omega, ics=((1, 0), (0, 1))) -> OscillatorBasis:
    """Basis (u, v) of the classical oscillator; the default normalization
    u(0)=1, u'(0)=0, v(0)=0, v'(0)=1 has Wronskian exactly 1."""
    (u0, du0), (v0, dv0) = ics
    w = complex(u0) * complex(dv0) - complex(du0) * complex(v0)
    if w == 0:
        raise ValueError("initial conditions give dependent solutions (W = 0)")
    u = LinearOscillation(omega, u0, du0)
    v = LinearOscillation(omega, v0, dv0)
    basis = OscillatorBasis(complex(omega), u, v, w)
    for t in (0.0, 0.7, 1.3, 2.9):
        if abs(basis.wronskian_at(t) - w) > 1e-10 * max(1.0, abs(w)):
            raise ValueError("Wronskian drifts; basis construction is broken")
    return basis


@dataclass(frozen=True)
class QuadFormParams:
    A: complex
    B: complex
    C: complex


class PinneyWidth:
    """Width solution ``alpha = sqrt(A u^2 + 2 B u v + C v^2)``.

    The quadratic form F = alpha**2 and its derivatives are analytic, so all
    width derivatives are available in closed form.  Real evaluation points
    where the form is not positive raise, naming the offending point.
    """

    def __init__(self, params: QuadFormParams, basis: OscillatorBasis):
        self.params = params
        self.basis = basis

    # quadratic form and derivatives -------------------------------------

    def form(self, t) -> complex:
        u, v = self.basis.u, self.basis.v
        A, B, C = self.params.A, self.params.B, self.params.C
        return A * u(t) ** 2 + 2 * B * u(t) * v(t) + C * v(t) ** 2

    def form_d1(self, t) -> complex:
        u, v = self.basis.u, self.basis.v
        A, B, C = self.params.A, self.params.B, self.params.C
        return (
            2 * A * u(t) * u.d1(t)
            + 2 * B * (u.d1(t) * v(t) + u(t) * v.d1(t))
            + 2 * C * v(t) * v.d1(t)
        )

    def form_d2(self, t) -> complex:
        u, v = self.basis.u, self.basis.v
        A, B, C = self.params.A, self.params.B, self.params.C
        return (
            2 * A * (u.d1(t) ** 2 + u(t) * u.d2(t))
            + 2 * B * (u.d2(t) * v(t) + 2 * u.d1(t) * v.d1(t) + u(t) * v.d2(t))
            + 2 * C * (v.d1(t) ** 2 + v(t) * v.d2(t))
        )

    def form_d3(self, t) -> complex:
        u, v = self.basis.u, self.basis.v
        A, B, C = self.params.A, self.params.B, self.params.C
        return (
            2 * A * (3 * u.d1(t) * u.d2(t) + u(t) * u.d3(t))
            + 2
            * B
            * (
                u.d3(t) * v(t)
                + 3 * u.d2(t) * v.d1(t)
                + 3 * u.d1(t) * v.d2(t)
                + u(t) * v.d3(t)
            )
            + 2 * C * (3 * v.d1(t) * v.d2(t) + v(t) * v.d3(t))
        )

    # width and derivatives ------------------------------------------------

    def _sqrt_form(self, t) -> complex:
        F = self.form(t)
        if isinstance(t, complex) and t.imag != 0:
            return cmath.sqrt(F)
        if F.imag == 0 and F.real <= 0:
            raise EvaluationDomainError(
                f"quadratic form vanishes or turns negative at t = {t}", point=t
            )
        return cmath.sqrt(F)

    def __call__(self, t) -> complex:
        return self._sqrt_form(complex(t))

    def d1(self, t) -> complex:
        t = complex(t)
        return self.form_d1(t) / (2 * self._sqrt_form(t))

    def d2(self, t) -> complex:
        t = complex(t)
        alpha = self._sqrt_form(t)
        return self.form_d2(t) / (2 * alpha) - self.form_d1(t) ** 2 / (4 * alpha ** 3)


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


def width_from_ics(alpha0, dalpha0, basis: OscillatorBasis, sign: int = +1):
    """Width solution pinned by initial data (alpha0, dalpha0).

    Uses eta1 = v, eta2 = u (so eta1(0)=0, eta1'(0)=1, eta2(0)=1,
    eta2'(0)=0), under which alpha(0) = alpha0 holds for alpha0 > 0 and the
    '+' sign reproduces dalpha0.  Returns the width plus a flag recording
    whether the initial conditions were reproduced numerically.
    """
    alpha0 = complex(alpha0)
    dalpha0 = complex(dalpha0)
    if alpha0 == 0:
        raise ValueError("alpha0 must be nonzero")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    A = alpha0 ** 2
    C = dalpha0 ** 2 + 1 / alpha0 ** 2
    B = sign * dalpha0 * alpha0
    width = PinneyWidth(QuadFormParams(A=A, B=B, C=C), basis)
    mismatch = False
    try:
        mismatch = (
            abs(width(0.0) - alpha0) > 1e-8 or abs(width.d1(0.0) - dalpha0) > 1e-8
        )
    except EvaluationDomainError:
        mismatch = True
    return width, mismatch


def ermakov_invariant(eta, deta, alpha, dalpha):
    """Coupled-oscillator invariant
    ``I = ((eta' alpha - eta alpha')**2 + (eta/alpha)**2) / 2``."""
    alpha = complex(alpha)
    if alpha == 0:
        raise EvaluationDomainError("invariant undefined at alpha = 0")
    cross = complex(deta) * alpha - complex(eta) * complex(dalpha)
    return (cross ** 2 + (complex(eta) / alpha) ** 2) / 2


def third_order_residual(x, omega):
    """Residual function of the maximal-symmetry form
    ``x''' + 4 omega**2 x'`` (constant frequency).

    ``x`` may expose analytic ``.d1``/``.d3``; otherwise step-size-controlled
    central differences are used.
    """
    omega2 = complex(omega) ** 2

    def residual(t):
        if hasattr(x, "d3") and hasattr(x, "d1"):
            return x.d3(t) + 4 * omega2 * x.d1(t)
        return numeric_derivative(x, t, 3) + 4 * omega2 * numeric_derivative(x, t, 1)

    return residual


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


def ep_residual(alpha, ddalpha, omega) -> complex:
    """Width-equation residual ``alpha'' + omega**2 alpha - alpha**-3``."""
    alpha = complex(alpha)
    if alpha == 0:
        raise EvaluationDomainError("width equation singular at alpha = 0")
    return complex(ddalpha) + complex(omega) ** 2 * alpha - alpha ** -3


def ep_residual_of(width, omega, t) -> complex:
    """Width-equation residual of a solution object with analytic ``d2``."""
    return ep_residual(width(t), width.d2(t), omega)
