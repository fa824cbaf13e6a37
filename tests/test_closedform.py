import cmath
import math
import random
from fractions import Fraction

import pytest

from merosolve.closedform import (
    KIND_RATIONAL,
    KIND_SIMPLY_PERIODIC,
    build_periodic,
    build_rational,
    elliptic_admissible,
    period_branch_values,
    period_from_pole_data,
    verify_candidate,
)
from merosolve.errors import NoPeriodicCandidateError, NotLaurentError
from merosolve.odemodel import normalize, parse_ode
from merosolve.scalars import QComplex
from merosolve.series import (
    cot_laurent,
    solve_local_series,
    synthetic_laurent_solution,
)


def cot_local(cot_poly, cot_family, K=12):
    return solve_local_series(cot_poly, cot_family, 1, K=K)


def scaled_cot_data(poly, T, h0=0.0, trunc=9):
    """Local data of (pi/T) * cot(pi*tau/T) + h0."""
    gamma = cot_laurent(trunc)
    scale = math.pi / T
    coeffs = {j: complex(c) * scale ** (j + 1) for j, c in gamma.coeffs.items()}
    coeffs[0] = coeffs.get(0, 0) + h0
    return synthetic_laurent_solution(poly, coeffs, trunc=trunc)


# ---------------------------------------------------------------------------
# elliptic admissibility
# ---------------------------------------------------------------------------

def test_elliptic_inadmissible_with_residue(w3_poly, w3_family):
    local = solve_local_series(w3_poly, w3_family, 1, K=8)
    assert elliptic_admissible(local) is False


def test_elliptic_admissible_zero_residue(w3_poly):
    local = synthetic_laurent_solution(w3_poly, {-2: 1, 0: 3}, trunc=4)
    assert elliptic_admissible(local) is True


def test_elliptic_rejects_branched_data(ep_poly, ep_branch_family):
    local = solve_local_series(ep_poly, ep_branch_family, QComplex(1, 1), K=8)
    with pytest.raises(NotLaurentError):
        elliptic_admissible(local)


# ---------------------------------------------------------------------------
# simply periodic candidates
# ---------------------------------------------------------------------------

def test_periodic_recovers_cot(cot_poly, cot_family):
    local = cot_local(cot_poly, cot_family)
    cand = build_periodic(local)
    assert cand.kind == KIND_SIMPLY_PERIODIC
    assert cand.L == 1
    assert cand.h0 == 0
    assert cand.period == complex(math.pi)
    assert cand.verified
    assert cand.residual_norm == 0.0


def test_periodic_rejects_branch_data(ep_poly, ep_branch_family):
    local = solve_local_series(ep_poly, ep_branch_family, QComplex(1, 1), K=8)
    with pytest.raises(NoPeriodicCandidateError) as err:
        build_periodic(local)
    assert "branch order 2" in str(err.value)


def test_periodic_recovers_doubled_frequency(cot_poly):
    # data of 2*cot(2*tau): residue 1, scale L = 4, period pi/2
    gamma = cot_laurent(9)
    coeffs = {j: 2 * c * QComplex(2) ** j for j, c in gamma.coeffs.items()}
    local = synthetic_laurent_solution(cot_poly, coeffs, trunc=9)
    cand = build_periodic(local)
    assert cand.L == 4
    assert abs(cand.period - math.pi / 2) < 1e-15
    assert cand.h0 == 0


def test_periodic_picks_scale_among_quadratic_roots(cot_poly):
    # data of h0 + b1*g + b3*g'' with g = s*cot(s*tau): a pole of order 3,
    # so the order-1 matching equation is quadratic in L,
    #   b1*g1*L + 6*b3*g3*L**2 = c_1,
    # with the roots L = s**2 and -b1*g1/(6*b3*g3) - s**2 = -19/4
    s, h0, b1, b3 = Fraction(3, 2), Fraction(1, 2), 1, 1
    g = {j: c * s ** (j + 1) for j, c in cot_laurent(10).coeffs.items()}
    coeffs = {0: QComplex(h0)}
    for j, c in g.items():
        if j <= 8:
            coeffs[j] = coeffs.get(j, 0) + b1 * c
        if j not in (0, 1):
            coeffs[j - 2] = coeffs.get(j - 2, 0) + b3 * j * (j - 1) * c
    local = synthetic_laurent_solution(cot_poly, coeffs, trunc=8)
    assert local.series.min_index == -3
    cand = build_periodic(local)
    assert abs(cand.L - s * s) <= 1e-15 * s * s
    assert abs(cand.period - math.pi / s) <= 1e-15 * math.pi
    assert cand.h0 == h0
    assert cand.pole_part == {1: b1, 2: 0, 3: 2 * b3}
    expansion = cand.expand(6)
    for j in range(-3, 7):
        assert abs(complex(expansion.coeffs.get(j, 0) - coeffs.get(j, 0))) < 1e-13


def test_periodic_requires_pole(cot_poly):
    local = synthetic_laurent_solution(cot_poly, {0: 1, 1: 2}, trunc=4)
    with pytest.raises(NoPeriodicCandidateError):
        build_periodic(local)


def test_periodic_rejects_vanishing_first_order(cot_poly):
    local = synthetic_laurent_solution(cot_poly, {-1: 1, 0: 2}, trunc=4)
    with pytest.raises(NoPeriodicCandidateError):
        build_periodic(local)


def test_periodic_parameter_recovery_property(cot_poly):
    rng = random.Random(31)
    for _ in range(25):
        T = rng.uniform(1.0, 10.0)
        h0 = rng.uniform(-2.0, 2.0)
        local = scaled_cot_data(cot_poly, T, h0)
        cand = build_periodic(local)
        assert abs(cand.period - T) <= 1e-10 * T
        assert abs(complex(cand.h0) - h0) <= 1e-10


def test_verified_candidate_reproduces_local_series(cot_poly, cot_family):
    local = cot_local(cot_poly, cot_family)
    cand = build_periodic(local)
    assert cand.verified
    expansion = cand.expand(12)
    for j, c in local.series.coeffs.items():
        assert expansion.coeffs.get(j, 0) == c


# ---------------------------------------------------------------------------
# rational candidates
# ---------------------------------------------------------------------------

def test_rational_cubic(w3_poly, w3_family):
    local = solve_local_series(w3_poly, w3_family, 1, K=10)
    cand = build_rational(local, m=4)
    assert cand.kind == KIND_RATIONAL
    assert cand.pole_part == {1: QComplex(1)}
    assert cand.tail == {}
    assert cand.verified
    assert cand.residual_norm == 0.0


def test_rational_first_order_textbook():
    poly = normalize(parse_ode("y' + y^2"), {})
    from merosolve.balance import find_balances

    fam = next(f for f in find_balances(poly) if f.consistent)
    local = solve_local_series(poly, fam, 1, K=8)
    cand = build_rational(local, m=3)
    assert cand.pole_part == {1: QComplex(1)}
    assert cand.verified


def test_rational_forced_width_data_fails_verification(ep_poly):
    from merosolve.balance import find_balances

    fam = next(f for f in find_balances(ep_poly) if f.p == Fraction(-1))
    local = solve_local_series(ep_poly, fam, QComplex(0, 1), K=6, force=True)
    cand = build_rational(local, m=3)
    assert not cand.verified
    assert cand.residual_norm > 1e-10


def test_rational_rejects_branched_data(ep_poly, ep_branch_family):
    local = solve_local_series(ep_poly, ep_branch_family, QComplex(1, 1), K=8)
    with pytest.raises(NotLaurentError):
        build_rational(local, m=2)


def test_rational_rejects_negative_tail_bound(w3_poly, w3_family):
    local = solve_local_series(w3_poly, w3_family, 1, K=8)
    with pytest.raises(ValueError):
        build_rational(local, m=-1)


# ---------------------------------------------------------------------------
# period formula evaluation
# ---------------------------------------------------------------------------

def test_period_formula_on_cot_data(cot_poly, cot_family):
    local = cot_local(cot_poly, cot_family)
    T = period_from_pole_data(local)
    # hand value: pi * (1/45)^(1/4) * (-1/45)^(-1/4) = pi * exp(-i pi/4)
    expected = math.pi * cmath.exp(-1j * math.pi / 4)
    assert abs(T - expected) < 1e-13
    assert abs(abs(T) - math.pi) < 1e-13
    branches = period_branch_values(T)
    assert len(branches) == 4
    assert all(abs(abs(b) - math.pi) < 1e-12 for b in branches)


def test_period_formula_on_doubled_data(cot_poly):
    gamma = cot_laurent(9)
    coeffs = {j: 2 * c * QComplex(2) ** j for j, c in gamma.coeffs.items()}
    local = synthetic_laurent_solution(cot_poly, coeffs, trunc=9)
    T = period_from_pole_data(local)
    assert abs(abs(T) - math.pi / 2) < 1e-13


def test_period_formula_requires_residue(cot_poly):
    local = synthetic_laurent_solution(cot_poly, {-2: 1, 3: 1}, trunc=4)
    with pytest.raises(ValueError):
        period_from_pole_data(local)


def test_period_formula_requires_cubic_coefficient(cot_poly):
    local = synthetic_laurent_solution(cot_poly, {-1: 1, 1: 2}, trunc=4)
    with pytest.raises(ValueError):
        period_from_pole_data(local)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_exact_candidates(cot_poly, cot_family, w3_poly, w3_family):
    cot_cand = build_periodic(cot_local(cot_poly, cot_family))
    assert verify_candidate(cot_cand, cot_poly, 10) == 0.0

    w3_local = solve_local_series(w3_poly, w3_family, 1, K=8)
    w3_cand = build_rational(w3_local, m=2)
    assert verify_candidate(w3_cand, w3_poly, 10) == 0.0
    assert w3_cand.first_failing_order is None


def test_verify_claimed_width_candidate_fails(ep_poly):
    from merosolve.report import claimed_pole_coefficients

    claimed = claimed_pole_coefficients(QComplex(1), QComplex(0, 1))
    local = synthetic_laurent_solution(ep_poly, dict(claimed), trunc=3)
    cand = build_periodic(local)
    residual = verify_candidate(cand, ep_poly, 10)
    assert residual > 1e-10
    assert not cand.verified
    assert cand.first_failing_order is not None
    assert cand.first_failing_order <= 10
