import cmath
import math
import random
import types

import pytest

from merosolve import exactlab
from merosolve.errors import EvaluationDomainError
from merosolve.exactlab import (
    QuadFormParams,
    constraint_report,
    ermakov_invariant,
    oscillator_basis,
    pinney_solution,
    pinney_zero,
    riccati_residual,
    width_from_ics,
)
from merosolve.report import exactlab_results

GRID = [0.05 * k for k in range(101)]  # [0, 5]


def central_difference(f, t, order, h):
    """Central-difference derivative of order 1..3 with one Richardson
    extrapolation step."""
    def stencil(step):
        if order == 1:
            return (f(t + step) - f(t - step)) / (2 * step)
        if order == 2:
            return (f(t + step) - 2 * f(t) + f(t - step)) / step ** 2
        return (
            f(t + 2 * step) - 2 * f(t + step) + 2 * f(t - step) - f(t - 2 * step)
        ) / (2 * step ** 3)

    return (4 * stencil(h / 2) - stencil(h)) / 3


# The formulas below evaluate every derivative on its own, term by term, the
# way the lab did before it read one oscillator jet per point.  The jet must
# reproduce them bit for bit.

def reference_oscillation(omega, value0, slope0, t):
    w, value0, slope0 = complex(omega), complex(value0), complex(slope0)
    if w == 0:
        eta, deta = value0 + slope0 * t, slope0
    else:
        eta = value0 * cmath.cos(w * t) + slope0 * cmath.sin(w * t) / w
        deta = -value0 * w * cmath.sin(w * t) + slope0 * cmath.cos(w * t)
    return eta, deta, -w ** 2 * eta, -w ** 2 * deta


def reference_form_jet(params, omega, t):
    A, B, C = params.A, params.B, params.C
    u, u1, u2, u3 = reference_oscillation(omega, 1, 0, t)
    v, v1, v2, v3 = reference_oscillation(omega, 0, 1, t)
    form = A * u ** 2 + 2 * B * u * v + C * v ** 2
    d1 = 2 * A * u * u1 + 2 * B * (u1 * v + u * v1) + 2 * C * v * v1
    d2 = (
        2 * A * (u1 ** 2 + u * u2)
        + 2 * B * (u2 * v + 2 * u1 * v1 + u * v2)
        + 2 * C * (v1 ** 2 + v * v2)
    )
    d3 = (
        2 * A * (3 * u1 * u2 + u * u3)
        + 2 * B * (u3 * v + 3 * u2 * v1 + 3 * u1 * v2 + u * v3)
        + 2 * C * (3 * v1 * v2 + v * v3)
    )
    return form, d1, d2, d3


def reference_derivatives(params, omega, t):
    t = complex(t)
    form, d1, d2, _ = reference_form_jet(params, omega, t)
    alpha = cmath.sqrt(form)
    return alpha, d1 / (2 * alpha), d2 / (2 * alpha) - d1 ** 2 / (4 * alpha ** 3)


JET_OMEGAS = [0.0, 1.0, 0.8 + 0.2j]
JET_PARAMS = [QuadFormParams(2, 1, 1), QuadFormParams(1.5, 0.5, 1)]
JET_TIMES = [0.0, 0.35, 1.7, 4.2, 0.3 + 0.4j, 1.7 - 0.2j, 2.5j]


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


def test_jet_is_value_and_slope():
    for omega in JET_OMEGAS:
        basis = oscillator_basis(omega)
        for t in JET_TIMES:
            u, du = basis.u.jet(t)
            assert (u, du) == (basis.u(t), basis.u.d1(t))
            assert (u, du) == reference_oscillation(omega, 1, 0, t)[:2]


# ---------------------------------------------------------------------------
# one jet per point: bit identity and derivative checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("omega", JET_OMEGAS)
@pytest.mark.parametrize("params", JET_PARAMS, ids=["2,1,1", "1.5,0.5,1"])
def test_form_jet_and_derivatives_match_reference(omega, params):
    width = pinney_solution(params, oscillator_basis(omega))
    for t in JET_TIMES:
        assert width.form_jet(t) == reference_form_jet(params, omega, t)
        expected = reference_derivatives(params, omega, t)
        assert width.derivatives(t) == expected
        assert (width(t), width.d1(t), width.d2(t)) == expected


def test_numeric_derivative_orders():
    f = lambda t: cmath.exp(0.5 * t)
    for order, h, tol in ((1, 1e-5, 1e-10), (2, 2e-3, 1e-8), (3, 1e-2, 1e-7)):
        approx = central_difference(f, 1.0, order, h)
        exact = 0.5 ** order * cmath.exp(0.5)
        assert abs(approx - exact) < tol, f"order {order}"


def test_form_jet_matches_central_differences():
    for omega in JET_OMEGAS:
        for params in JET_PARAMS:
            width = pinney_solution(params, oscillator_basis(omega))
            form = lambda t: width.form_jet(t)[0]
            for t in (0.35, 1.7, 0.3 + 0.4j):
                _, dF, ddF, dddF = width.form_jet(t)
                assert abs(central_difference(form, t, 1, 1e-5) - dF) < 1e-9
                assert abs(central_difference(form, t, 2, 2e-3) - ddF) < 1e-8
                assert abs(central_difference(form, t, 3, 1e-2) - dddF) < 1e-6


def test_exactlab_reads_one_jet_per_point(monkeypatch):
    calls = {"cos": 0, "sin": 0}

    def counted(name):
        fn = getattr(cmath, name)

        def wrapper(z):
            calls[name] += 1
            return fn(z)

        return wrapper

    monkeypatch.setattr(exactlab, "cmath", types.SimpleNamespace(
        cos=counted("cos"), sin=counted("sin"), sqrt=cmath.sqrt))
    form_jet = exactlab.PinneyWidth.form_jet
    call = exactlab.PinneyWidth.__call__
    jets = {"all": 0, "in_value_calls": 0, "value_calls": 0}

    def counted_form_jet(self, t, jet=None):
        jets["all"] += 1
        return form_jet(self, t, jet)

    def counted_call(self, t):
        before = jets["all"]
        try:
            return call(self, t)
        finally:
            jets["value_calls"] += 1
            jets["in_value_calls"] += jets["all"] - before

    monkeypatch.setattr(exactlab.PinneyWidth, "form_jet", counted_form_jet)
    monkeypatch.setattr(exactlab.PinneyWidth, "__call__", counted_call)
    exactlab_results(omega=1)
    # one form jet per grid point of 101 for each of the two widths, one
    # for the trajectory's initial slope and one for the initial-data
    # check of width_from_ics; the comparison with the trajectory reads
    # the width's value alone at each of its points and builds no jet
    assert jets["all"] == 2 * 101 + 2
    assert jets["value_calls"] > 200 and jets["in_value_calls"] == 0
    # 354 cos calls: one per grid point, shared by both widths (101), one
    # per point of the trajectory comparison (245), four for the basis
    # check and four for the initial values and slopes.  A lab that took
    # two oscillator jets per form jet made 910, one that evaluates the
    # Pinney width once per identity 1,314, the per-derivative evaluation
    # 13,148
    assert 0 < calls["cos"] == calls["sin"] <= 354


def _same_outcome(f, g):
    """f() and g() return values with the same repr, or raise the same
    domain error naming the same point."""
    try:
        want = repr(f())
    except EvaluationDomainError as err:
        with pytest.raises(EvaluationDomainError) as got:
            g()
        assert str(got.value) == str(err) and repr(got.value.point) == repr(
            err.point)
        return False
    assert repr(g()) == want
    return True


@pytest.mark.parametrize("omega, params", [
    (1.0, (2, 1, 1)),
    (1.5, (2, 1, 1)),
    (0.0, (1, 0, 1)),
    (1.0 + 0.3j, (2, 1j, 1 - 0.5j)),
    (0.7j, (1.5, -0.2, 0.9)),
    # 1 - t^2 turns negative inside the grid
    (0.0, (1, 0, -1)),
])
def test_width_value_is_the_jet_value(omega, params):
    width = pinney_solution(QuadFormParams(*map(complex, params)),
                            oscillator_basis(omega))
    points = list(GRID) + [0.3 + 0.4j, -1.2 + 2j, 2.5j, -0.0, 3 - 0j]
    results = [
        _same_outcome(lambda: width._jet(complex(t))[0], lambda: width(t))
        for t in points
    ]
    assert any(results)
    if params == (1, 0, -1):
        assert not all(results)


# ---------------------------------------------------------------------------
# quadratic-form superposition
# ---------------------------------------------------------------------------

def test_pinney_constant_solution():
    basis = oscillator_basis(1.0)
    width = pinney_solution(QuadFormParams(1, 0, 1), basis)
    for t in GRID[:50]:
        assert abs(width(t) - 1) < 1e-14
        assert abs(width.residuals(t)[0]) < 1e-13


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
    assert max(abs(width.residuals(t)[0]) for t in GRID) < 1e-8


def test_pinney_domain_error_names_the_point():
    basis = oscillator_basis(0.0)
    width = pinney_solution(QuadFormParams(1, 0, -1), basis)  # 1 - t^2
    with pytest.raises(EvaluationDomainError) as err:
        width(2.0)
    assert err.value.point == complex(2.0)


@pytest.mark.parametrize("a0, da0, omega", [
    (2.0, 0.0, 1.0), (0.5, 0.0, 1.0), (1.3, -0.6, 0.7), (0.9, 0.8, 1.6),
    (2.4, 0.3, 0.6),
])
def test_pinney_zero_is_the_nearest_zero_of_the_form(a0, da0, omega):
    basis = oscillator_basis(omega)
    width, _ = width_from_ics(a0, da0, basis)
    t_star = pinney_zero(a0, da0, omega)
    assert abs(width.form_jet(t_star)[0]) < 1e-12
    # the zeros of the form repeat with period pi / omega, on two lines
    # mirrored in the real axis; none lies nearer t = 0
    for z in (t_star, t_star.conjugate()):
        for k in (-2, -1, 0, 1, 2):
            assert abs(z + k * math.pi / omega) >= abs(t_star) - 1e-15
    if da0 == 0 and omega * a0 * a0 < 1:
        # tan wt = +-i w alpha0**2 with w alpha0**2 < 1: the zero lies on
        # the imaginary axis
        assert abs(t_star.real) < 1e-15
        assert abs(abs(t_star.imag) - math.atanh(omega * a0 * a0) / omega) < 1e-15


@pytest.mark.parametrize("a0, da0", [(1.0, 0.0), (0.7, 0.4), (2.0, -1.5)])
def test_pinney_zero_at_zero_frequency_is_the_limit(a0, da0):
    # at omega = 0 the form is A + 2 B t + C t**2, zero at (-B +- i) / C;
    # the zero on the +i side continues the one found at small omega
    t_star = pinney_zero(a0, da0, 0.0)
    width, _ = width_from_ics(a0, da0, oscillator_basis(0.0))
    assert abs(width.form_jet(t_star)[0]) < 1e-12
    assert t_star == complex(-a0 * da0, 1) / (da0 ** 2 + a0 ** -2)
    assert abs(t_star - pinney_zero(a0, da0, 1e-7)) < 1e-12
    assert pinney_zero(1.0, 0.0, 0.0) == 1j


@pytest.mark.parametrize("a0, omega", [(1.0, 1.0), (0.5, 4.0), (2.0, 0.25),
                                       (1.0, -1.0)])
def test_pinney_zero_names_the_equilibrium(a0, omega):
    # alpha0**4 = 1 / omega**2 at rest: the width is constant, with no zero
    with pytest.raises(ValueError, match="equilibrium"):
        pinney_zero(a0, 0.0, omega)


def test_pinney_constraint_property():
    # A*C - B^2 = 1 keeps the form positive and the residual tiny
    rng = random.Random(5)
    basis = oscillator_basis(1.0)
    for _ in range(10):
        A = rng.uniform(0.5, 3.0)
        B = rng.uniform(-1.5, 1.5)
        C = (1 + B * B) / A
        width = pinney_solution(QuadFormParams(A, B, C), basis)
        worst = max(abs(width.residuals(t)[0]) for t in GRID[:41])
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
    assert max(abs(width.residuals(t)[0]) for t in GRID) < 1e-8


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
    # A = C = 1, B = 0 with the free basis (1, t) gives width**2 = 1 + t**2.
    width = pinney_solution(QuadFormParams(1, 0, 1), oscillator_basis(0.0))
    for t in (0.5, 1.5, 3.0):
        assert width.form_jet(t)[0] == 1 + t * t
        assert abs(width.residuals(t)[1]) < 1e-6
        numeric = central_difference(lambda s: 1 + s * s, t, 3, 1e-2)
        assert abs(numeric) < 1e-6  # numeric third derivative of a quadratic


def test_third_order_constant():
    # A = C = 1, B = 0 with the unit-frequency basis gives width**2 = 1.
    width = pinney_solution(QuadFormParams(1, 0, 1), oscillator_basis(1.0))
    assert abs(width.form_jet(1.0)[0] - 1) < 1e-15
    assert abs(width.residuals(1.0)[1]) < 1e-9


def test_third_order_width_square_analytic_and_numeric():
    basis = oscillator_basis(1.0)
    width = pinney_solution(QuadFormParams(2, 1, 1), basis)
    assert max(abs(width.residuals(t)[1]) for t in GRID) < 1e-12

    form = lambda t: width.form_jet(t)[0]
    numeric = [
        central_difference(form, t, 3, 1e-2)
        + 4 * central_difference(form, t, 1, 1e-5)
        for t in GRID[::10]
    ]
    assert max(abs(r) for r in numeric) < 1e-6


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
