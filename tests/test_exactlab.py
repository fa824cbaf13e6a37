import cmath
import math
import random

import pytest

from merosolve.errors import EvaluationDomainError
from merosolve.exactlab import (
    QuadFormParams,
    constraint_report,
    ep_residual_of,
    ermakov_invariant,
    numeric_derivative,
    oscillator_basis,
    pinney_solution,
    riccati_residual,
    third_order_residual,
    width_from_ics,
)

GRID = [0.05 * k for k in range(101)]  # [0, 5]


# ---------------------------------------------------------------------------
# oscillator basis
# ---------------------------------------------------------------------------

def test_basis_unit_frequency():
    basis = oscillator_basis(1.0)
    for t in (0.0, 0.4, 1.7):
        assert abs(basis.u(t) - math.cos(t)) < 1e-14
        assert abs(basis.v(t) - math.sin(t)) < 1e-14
    assert basis.wronskian == 1


def test_basis_zero_frequency():
    basis = oscillator_basis(0.0)
    assert basis.u(2.3) == 1
    assert abs(basis.v(2.3) - 2.3) < 1e-15
    assert basis.wronskian == 1


def test_basis_frequency_two_normalization():
    basis = oscillator_basis(2.0)
    for t in (0.3, 1.1):
        assert abs(basis.u(t) - math.cos(2 * t)) < 1e-14
        assert abs(basis.v(t) - math.sin(2 * t) / 2) < 1e-14
    assert abs(basis.wronskian_at(0.9) - 1) < 1e-12


def test_basis_rejects_dependent_ics():
    with pytest.raises(ValueError):
        oscillator_basis(1.0, ics=((1, 0), (2, 0)))


# ---------------------------------------------------------------------------
# quadratic-form superposition
# ---------------------------------------------------------------------------

def test_pinney_constant_solution():
    basis = oscillator_basis(1.0)
    width = pinney_solution(QuadFormParams(1, 0, 1), basis)
    for t in GRID[:50]:
        assert abs(width(t) - 1) < 1e-14
        assert abs(ep_residual_of(width, 1.0, t)) < 1e-13


def test_pinney_free_particle_profile():
    basis = oscillator_basis(0.0)
    width = pinney_solution(QuadFormParams(1, 0, 1), basis)
    for t in (0.0, 0.7, 2.0):
        assert abs(width(t) - math.sqrt(1 + t * t)) < 1e-14
        # alpha'' = alpha^-3 for omega = 0
        assert abs(width.d2(t) - width(t) ** -3) < 1e-13


def test_pinney_generic_case_residual():
    basis = oscillator_basis(1.0)
    width = pinney_solution(QuadFormParams(2, 1, 1), basis)
    assert max(abs(ep_residual_of(width, 1.0, t)) for t in GRID) < 1e-8


def test_pinney_domain_error_names_the_point():
    basis = oscillator_basis(0.0)
    width = pinney_solution(QuadFormParams(1, 0, -1), basis)  # 1 - t^2
    with pytest.raises(EvaluationDomainError) as err:
        width(2.0)
    assert err.value.point == complex(2.0)


def test_pinney_constraint_property():
    # A*C - B^2 = 1 keeps the form positive and the residual tiny
    rng = random.Random(5)
    basis = oscillator_basis(1.0)
    for _ in range(10):
        A = rng.uniform(0.5, 3.0)
        B = rng.uniform(-1.5, 1.5)
        C = (1 + B * B) / A
        width = pinney_solution(QuadFormParams(A, B, C), basis)
        worst = max(abs(ep_residual_of(width, 1.0, t)) for t in GRID[:41])
        assert worst < 1e-8


def test_constraint_report_conventions():
    basis = oscillator_basis(1.0)
    report = constraint_report(QuadFormParams(1, 0, 1), basis)
    assert report["ac_convention_holds"]
    assert not report["reversed_sign_holds"]
    assert report["ac_minus_b2"] == 1
    assert report["b2_minus_ac"] == -1


# ---------------------------------------------------------------------------
# width from initial conditions
# ---------------------------------------------------------------------------

def test_width_from_ics_constant():
    basis = oscillator_basis(1.0)
    width, mismatch = width_from_ics(1.0, 0.0, basis)
    assert not mismatch
    for t in (0.0, 1.3, 4.0):
        assert abs(width(t) - 1) < 1e-12


def test_width_from_ics_free_particle():
    basis = oscillator_basis(0.0)
    width, mismatch = width_from_ics(1.0, 0.0, basis)
    assert not mismatch
    for t in (0.5, 2.0):
        assert abs(width(t) - math.sqrt(1 + t * t)) < 1e-12


def test_width_from_ics_reproduces_slope():
    basis = oscillator_basis(1.0)
    width, mismatch = width_from_ics(1.5, 0.75, basis)
    assert not mismatch
    assert abs(width(0.0) - 1.5) < 1e-12
    assert abs(width.d1(0.0) - 0.75) < 1e-12
    assert max(abs(ep_residual_of(width, 1.0, t)) for t in GRID) < 1e-8


def test_width_from_ics_rejects_zero():
    basis = oscillator_basis(1.0)
    with pytest.raises(ValueError):
        width_from_ics(0.0, 1.0, basis)


# ---------------------------------------------------------------------------
# invariant
# ---------------------------------------------------------------------------

def test_invariant_constant_width():
    for t in (0.0, 0.9, 2.2):
        I = ermakov_invariant(math.sin(t), math.cos(t), 1.0, 0.0)
        assert abs(I - 0.5) < 1e-14


def test_invariant_zero_position():
    assert ermakov_invariant(0.0, 0.0, 2.0, 0.3) == 0


def test_invariant_constant_along_pinney_pair():
    basis = oscillator_basis(1.0)
    width = pinney_solution(QuadFormParams(2, 1, 1), basis)
    eta = basis.v
    values = [
        ermakov_invariant(eta(t), eta.d1(t), width(t), width.d1(t))
        for t in (0.0, 1.0, 2.0)
    ]
    for v in values[1:]:
        assert abs(v - values[0]) < 1e-10


def test_invariant_rejects_zero_width():
    with pytest.raises(EvaluationDomainError):
        ermakov_invariant(1.0, 0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# third-order form
# ---------------------------------------------------------------------------

def test_third_order_free_particle_square():
    residual = third_order_residual(lambda t: 1 + t * t, 0.0)
    for t in (0.5, 1.5, 3.0):
        assert abs(residual(t)) < 1e-6  # numeric third derivative of a quadratic


def test_third_order_constant():
    residual = third_order_residual(lambda t: 1.0, 1.0)
    assert abs(residual(1.0)) < 1e-9


def test_third_order_width_square_analytic_and_numeric():
    basis = oscillator_basis(1.0)
    width = pinney_solution(QuadFormParams(2, 1, 1), basis)

    class Analytic:
        def __call__(self, t):
            return width.form(t)

        def d1(self, t):
            return width.form_d1(t)

        def d3(self, t):
            return width.form_d3(t)

    exact = third_order_residual(Analytic(), 1.0)
    assert max(abs(exact(t)) for t in GRID) < 1e-12

    numeric = third_order_residual(lambda t: width.form(t), 1.0)
    assert max(abs(numeric(t)) for t in GRID[::10]) < 1e-6


def test_numeric_derivative_orders():
    f = lambda t: cmath.exp(0.5 * t)
    for order, tol in ((1, 1e-10), (2, 1e-8), (3, 1e-7)):
        approx = numeric_derivative(f, 1.0, order)
        exact = 0.5 ** order * cmath.exp(0.5)
        assert abs(approx - exact) < tol, f"order {order}"


# ---------------------------------------------------------------------------
# Riccati reduction
# ---------------------------------------------------------------------------

def test_riccati_constant_width():
    assert riccati_residual(1.0, 0.0, 0.0, 1.0) == 0


def test_riccati_free_particle_profile():
    t = 1.0
    alpha = math.sqrt(1 + t * t)
    dalpha = t / alpha
    ddalpha = 1 / alpha ** 3
    assert abs(riccati_residual(alpha, dalpha, ddalpha, 0.0)) < 1e-10


def test_riccati_non_solution_has_residual():
    # alpha = t is not a width solution; at t = 2 the residual is visible.
    # (At t = 1 the pointwise combination 0 + 1 - 1 cancels by accident.)
    t = 2.0
    value = riccati_residual(t, 1.0, 0.0, 1.0)
    assert abs(value) > 0.5


def test_riccati_along_verified_solutions():
    basis = oscillator_basis(1.0)
    for params in (QuadFormParams(1, 0, 1), QuadFormParams(2, 1, 1)):
        width = pinney_solution(params, basis)
        worst = max(
            abs(riccati_residual(width(t), width.d1(t), width.d2(t), 1.0))
            for t in GRID
        )
        assert worst < 1e-8


def test_riccati_rejects_zero_width():
    with pytest.raises(EvaluationDomainError):
        riccati_residual(0.0, 1.0, 0.0, 1.0)
