import cmath
import math
import random
from fractions import Fraction

import pytest

from merosolve import numeric
from merosolve.errors import ExponentUnresolvedError
from merosolve.exactlab import QuadFormParams, oscillator_basis, pinney_solution
from merosolve.numeric import (
    TOL_MAX,
    TOL_MIN,
    ComplexPath,
    ComplexTrajectory,
    EpWidthOde,
    LinearOscillatorOde,
    TrajectoryPoint,
    detect_singularity,
    fit_local_exponent,
    integrate,
    invariant_drift,
)
from merosolve.scalars import QComplex
from merosolve.series import solve_local_series


def synthetic_ray_trajectory(func, t_star, radii, direction=1.0):
    pts = [
        TrajectoryPoint(t_star + direction * r, func(direction * r), 0j)
        for r in sorted(radii, reverse=True)
    ]
    return ComplexTrajectory(
        points=pts, ode_name="synthetic", omega=0j, tol=1e-12,
        singular_near_zero=True,
    )


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def test_path_validation():
    with pytest.raises(ValueError):
        ComplexPath([0])
    with pytest.raises(ValueError):
        ComplexPath([0, 0])
    path = ComplexPath([0, 1, 1 + 1j])
    assert abs(path.length - 2) < 1e-15
    assert path.point_at(1.5) == 1 + 0.5j


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_integrate_constant_width_solution():
    traj = integrate(EpWidthOde(1.0), (1.0, 0.0), [0, 10], tol=1e-10)
    assert not traj.halted
    assert max(abs(p.value - 1) for p in traj.points) < 1e-8


def test_integrate_free_particle_profile():
    traj = integrate(EpWidthOde(0.0), (1.0, 0.0), [0, 3], tol=1e-10)
    worst = max(
        abs(p.value - cmath.sqrt(1 + p.t ** 2)) for p in traj.points
    )
    assert worst < 1e-7


def test_integrate_linear_oscillator_quarter_period():
    traj = integrate(LinearOscillatorOde(1.0), (0.0, 1.0), [0, math.pi / 2],
                     tol=1e-10)
    assert abs(traj.end.value - 1.0) < 1e-8


def test_integrate_validates_tolerance():
    with pytest.raises(ValueError):
        integrate(EpWidthOde(1.0), (1.0, 0.0), [0, 1], tol=1e-3)
    with pytest.raises(ValueError):
        integrate(EpWidthOde(1.0), (1.0, 0.0), [0, 1], tol=1e-14)


def test_integrate_rejects_zero_initial_width():
    with pytest.raises(ValueError):
        integrate(EpWidthOde(1.0), (0.0, 1.0), [0, 1])


def test_integrate_halts_near_singular_manifold():
    # path driving straight at the zero of 1 + t^2: with the local error of
    # each step held at tol the steps shrink in proportion to the distance
    # to the branch point, so a few hundred steps reach the 10*sqrt(tol)
    # manifold guard
    traj = integrate(EpWidthOde(0.0), (1.0, 0.0), [0, 1.0000001j], tol=1e-10)
    assert traj.halted
    assert traj.halt_reason == (
        "approaching the singular manifold: |value| < 1.000e-04"
    )
    assert traj.stats["accepted"] + traj.stats["rejected"] <= 1000


def test_integrate_shared_sample_grid():
    shared = [0.5, 1.0, 1.5]
    a = integrate(EpWidthOde(1.0), (1.0, 0.0), [0, 2], tol=1e-10,
                  sample_points=shared, record_samples_only=True)
    b = integrate(LinearOscillatorOde(1.0), (0.0, 1.0), [0, 2], tol=1e-10,
                  sample_points=shared, record_samples_only=True)
    assert [p.t for p in a.points] == [p.t for p in b.points]
    assert len(a.points) == 5  # start + 3 samples + end


def test_order_of_accuracy_under_halving():
    # max deviation from the closed form shrinks by roughly the expected
    # factor of two per tolerance halving (allow 2x slack either way)
    basis = oscillator_basis(1.0)
    width = pinney_solution(QuadFormParams(2, 1, 1), basis)
    ode = EpWidthOde(1.0)
    ic = (width(0.0), width.d1(0.0))

    def worst(tol):
        traj = integrate(ode, ic, [0, 5], tol=tol)
        return max(abs(p.value - width(p.t.real)) for p in traj.points)

    tols = [1e-6, 5e-7, 2.5e-7, 1.25e-7, 6.25e-8, 3.125e-8]
    errs = [worst(t) for t in tols]
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    for r in ratios:
        assert 1.0 <= r <= 4.0
    geo = math.prod(ratios) ** (1 / len(ratios))
    assert 1.5 <= geo <= 3.2


def test_path_independence_in_regular_region():
    tol = 1e-10
    direct = integrate(EpWidthOde(0.0), (1.0, 0.0), [0, 0.5 + 0.5j], tol=tol)
    bent = integrate(EpWidthOde(0.0), (1.0, 0.0), [0, 0.5, 0.5 + 0.5j], tol=tol)
    assert abs(direct.end.value - bent.end.value) <= 10 * tol


def test_integrate_exhausts_step_budget(monkeypatch):
    # the budget is read from the module at call time
    monkeypatch.setattr(numeric, "MAX_STEPS", 2000)
    traj = integrate(EpWidthOde(1.0), (2.0, 0.0), [0, 1000], tol=1e-10)
    assert traj.halted
    assert traj.halt_reason == "step budget exhausted"
    assert traj.stats["accepted"] + traj.stats["rejected"] == 2000
    # six evaluations per attempted step, plus the first stage of the path's
    # one segment
    assert traj.stats["rhs_evals"] == 6 * 2000 + 1


def test_integrate_halts_on_step_underflow():
    # omega**2 overflows, so every step fails and is halved until it falls
    # below h_min without a single accepted step
    traj = integrate(EpWidthOde(1e200), (1.0, 0.0), [0, 1], tol=1e-10)
    assert traj.halted
    assert traj.halt_reason == "step size underflow near a singular point"
    assert traj.stats["accepted"] == 0
    assert traj.stats["rejected"] == 40
    assert len(traj.points) == 1


def test_integrate_long_path_within_step_budget():
    # about 160 periods at the smallest tolerance stay inside MAX_STEPS
    # (about 151k steps) and keep the global error within 1e-8
    basis = oscillator_basis(1.0)
    width = pinney_solution(QuadFormParams(4, 0, 0.25), basis)
    traj = integrate(EpWidthOde(1.0), (2.0, 0.0), [0, 1000], tol=1e-12)
    assert not traj.halted
    assert abs(traj.end.value - width(1000.0)) <= 1e-8


def test_integrate_halts_on_singular_manifold_guard():
    traj = integrate(EpWidthOde(0.0), (1.0, 0.0), [0, 2j], tol=1e-6)
    assert traj.halted
    assert traj.halt_reason == (
        "approaching the singular manifold: |value| < 1.000e-02"
    )
    assert abs(traj.end.value) < 1e-2


def test_integrate_initial_value_inside_guard():
    traj = integrate(EpWidthOde(1.0), (1e-7, 0.0), [0, 1], tol=1e-10)
    assert traj.halted
    assert traj.halt_reason == (
        "initial value already inside the singular-manifold guard"
    )
    assert len(traj.points) == 1
    assert traj.stats == {"accepted": 0, "rejected": 0, "rhs_evals": 0,
                          "min_step": math.inf, "max_step": 0.0}


# ---------------------------------------------------------------------------
# bit-identity of the unrolled step against the generic tableau loop
# ---------------------------------------------------------------------------

_REF_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_REF_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_REF_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_REF_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
           187 / 2100, 1 / 40)
_REF_E = tuple(b5 - b4 for b5, b4 in zip(_REF_B5, _REF_B4))


def _reference_rhs(ode, t, y):
    if isinstance(ode, EpWidthOde):
        return (y[1], -ode.omega ** 2 * y[0] + y[0] ** -3)
    return (y[1], -ode.omega ** 2 * y[0])


def _reference_rhs_along(ode, base_t, direction, s_local, y):
    f = _reference_rhs(ode, base_t + direction * s_local, y)
    return tuple(direction * fi for fi in f)


def _reference_integrate(ode, ic, path, tol, sample_points=None,
                         record_samples_only=False):
    """Generic DP5 tableau loop over a tuple state, first stage same as
    last: the reference for the unrolled step in ``integrate``."""
    path = ComplexPath(path)
    y = (complex(ic[0]), complex(ic[1]))
    halt_radius = 10.0 * math.sqrt(tol) if ode.singular_near_zero else 0.0
    events = set(path.cums[1:])
    if sample_points:
        for s in sample_points:
            s = float(s)
            if 0.0 < s < path.length:
                events.add(s)
    events = sorted(events)
    points = [TrajectoryPoint(path.waypoints[0], y[0], y[1])]
    traj = ComplexTrajectory(points=points, ode_name=ode.name,
                             omega=ode.omega, tol=tol,
                             singular_near_zero=ode.singular_near_zero)
    stats = {"accepted": 0, "rejected": 0, "rhs_evals": 0,
             "min_step": math.inf, "max_step": 0.0}
    traj.stats = stats
    if halt_radius and abs(y[0]) < halt_radius:
        traj.halted = True
        traj.halt_reason = "initial value already inside the singular-manifold guard"
        return traj
    h = min(path.length / 100.0, 0.05)
    h_min = 1e-14 * max(1.0, path.length)
    s_cur = 0.0
    halted = False
    k_direction = k_first = None
    for target in events:
        if halted:
            break
        seg = path.segment_of((s_cur + target) / 2.0)
        base_t = path.waypoints[seg]
        base_s = path.cums[seg]
        direction = path.direction(seg)
        if direction != k_direction:
            k_direction, k_first = direction, None
        while s_cur < target - 1e-13 * max(1.0, path.length):
            if stats["accepted"] + stats["rejected"] >= numeric.MAX_STEPS:
                traj.halted = True
                traj.halt_reason = "step budget exhausted"
                halted = True
                break
            h_try = min(h, target - s_cur)
            try:
                if k_first is None:
                    k_first = _reference_rhs_along(ode, base_t, direction,
                                                   s_cur - base_s, y)
                    stats["rhs_evals"] += 1
                k = [k_first]
                for i in range(1, 6):
                    acc = list(y)
                    for j, a in enumerate(_REF_A[i]):
                        if a:
                            for m in range(len(acc)):
                                acc[m] += h_try * a * k[j][m]
                    k.append(_reference_rhs_along(
                        ode, base_t, direction,
                        s_cur - base_s + _REF_C[i] * h_try, tuple(acc),
                    ))
                y5 = tuple(
                    y[m] + h_try * sum(_REF_B5[i] * k[i][m]
                                       for i in range(6) if _REF_B5[i])
                    for m in range(len(y))
                )
                # row 7 of A is B5, so the last stage sits at y5 and is the
                # first stage of the next step (first same as last)
                k.append(_reference_rhs_along(
                    ode, base_t, direction, s_cur - base_s + h_try, y5))
                stats["rhs_evals"] += 6
                errs = [
                    abs(h_try * sum(_REF_E[i] * k[i][m]
                                    for i in range(7) if _REF_E[i]))
                    / max(1.0, abs(y[m]), abs(y5[m]))
                    for m in range(len(y))
                ]
                if any(math.isnan(e) for e in errs):
                    err = math.inf
                else:
                    err = max(0.0, *errs)
            except (ZeroDivisionError, OverflowError):
                err = math.inf
                y5 = None
            if err <= tol:
                s_cur += h_try
                if abs(s_cur - target) <= 1e-12 * max(1.0, path.length):
                    s_cur = target
                y = y5
                k_first = k[6]
                stats["accepted"] += 1
                stats["min_step"] = min(stats["min_step"], h_try)
                stats["max_step"] = max(stats["max_step"], h_try)
                if not record_samples_only or s_cur == target:
                    points.append(TrajectoryPoint(
                        base_t + direction * (s_cur - base_s), y[0], y[1]))
                if err == 0.0:
                    factor = 5.0
                else:
                    factor = min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
                h = h_try * factor
                if halt_radius and abs(y[0]) < halt_radius:
                    traj.halted = True
                    traj.halt_reason = (
                        "approaching the singular manifold: |value| < "
                        f"{halt_radius:.3e}"
                    )
                    halted = True
                    break
            else:
                stats["rejected"] += 1
                if err == math.inf:
                    h = h_try / 2.0
                else:
                    h = h_try * min(1.0, max(0.1, 0.9 * (tol / err) ** 0.2))
                if h < h_min:
                    traj.halted = True
                    traj.halt_reason = "step size underflow near a singular point"
                    halted = True
                    break
    return traj


def _analytic_zero(omega, alpha0):
    # with ic (alpha0, 0) the Pinney form alpha0^2 cos^2(wt) +
    # sin^2(wt) / (w alpha0)^2 vanishes at t* = (pi/2 + i atanh(r)) / w,
    # r = 1 / (w alpha0^2)
    return (math.pi / 2 + 1j * math.atanh(1.0 / (omega * alpha0 ** 2))) / omega


_REFERENCE_CASES = {
    "straight-to-pinney-zero": (
        EpWidthOde(1.0), (2.0, 0.0), [0, _analytic_zero(1.0, 2.0)], 1e-10,
        None, False,
    ),
    "complex-waypoints-with-samples": (
        EpWidthOde(1.0 + 0.2j), (1.5, 0.3), [0, 1 + 0.5j, 2 - 0.3j, 3 + 0.1j],
        1e-9, [0.3, 0.9, 1.7, 2.6, 3.2], False,
    ),
    "record-samples-only": (
        EpWidthOde(0.8), (1.2, -0.4), [0, 2 + 1j, 4], 1e-10,
        [0.25 * k for k in range(1, 20)], True,
    ),
    "linear-oscillator": (
        LinearOscillatorOde(1.0), (0.0, 1.0), [0, 5 + 1j], 1e-10, None, False,
    ),
    "tol-min": (
        EpWidthOde(1.0), (2.0, 0.0), [0, 1.2 + 0.2j], TOL_MIN, None, False,
    ),
    "tol-max": (
        EpWidthOde(0.0), (1.0, 0.0), [0, 2j], TOL_MAX, None, False,
    ),
    # alpha = 1 is the equilibrium at omega = 1: every stage is exactly 0,
    # so each step has err == 0.0 and grows fivefold
    "zero-error-equilibrium": (
        EpWidthOde(1.0), (1.0, 0.0), [0, 2], 1e-10, None, False,
    ),
    # the sample point lies exactly one proposed step past the second
    # accepted point, so the remainder to it equals the proposed step
    "remainder-equals-step": (
        EpWidthOde(1.0), (2.0, 0.0), [0, 3], 1e-8, [0.10825316095467102],
        False,
    ),
    # omega**2 overflows, so every stage raises and every step is rejected
    "overflowing-omega": (
        EpWidthOde(1e200), (1.0, 0.0), [0, 1], 1e-10, None, False,
    ),
    # the first two segments share a direction, so the last stage of the
    # first carries over and only the turn evaluates a first stage afresh
    "collinear-waypoints-with-samples": (
        EpWidthOde(1.0), (1.5, 0.2), [0, 1, 2.5, 2.5 + 1j], 1e-10,
        [0.4, 1.8, 3.0], False,
    ),
    # |value| grows like exp(1000 t) until the stages overflow to inf and
    # inf - inf makes the error estimate NaN, which must fail the step
    "nan-error-estimate": (
        EpWidthOde(1000j), (2.0, 0.0), [0, 1], 1e-8, None, False,
    ),
}


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_unrolled_step_matches_generic_reference(case):
    ode, ic, path, tol, samples, samples_only = _REFERENCE_CASES[case]
    got = integrate(ode, ic, path, tol=tol, sample_points=samples,
                    record_samples_only=samples_only)
    want = _reference_integrate(ode, ic, path, tol, sample_points=samples,
                                record_samples_only=samples_only)
    assert len(got.points) == len(want.points)
    for g, w in zip(got.points, want.points):
        assert g.t == w.t and g.value == w.value and g.slope == w.slope
        # repr also tells the signed zeros apart, which JSON output shows
        assert repr(g) == repr(w)
    assert got.stats == want.stats
    assert got.halted == want.halted
    assert got.halt_reason == want.halt_reason


def test_tableau_is_first_same_as_last():
    # row 7 of A is the fifth-order weights and c_7 = 1: the last stage is
    # the derivative at the new state, i.e. the next step's first stage
    assert _REF_A[6] == _REF_B5[:6] and _REF_B5[6] == 0.0 and _REF_C[6] == 1.0
    assert numeric._DP_A == _REF_A[1:6]
    assert numeric._DP_B5 == _REF_B5[:6]
    assert numeric._DP_E == _REF_E


@pytest.mark.parametrize("case, segments", [
    ("straight-to-pinney-zero", 1),
    ("complex-waypoints-with-samples", 3),
    ("collinear-waypoints-with-samples", 2),
])
def test_rhs_evals_six_per_step_plus_one_per_direction(case, segments):
    ode, ic, path, tol, samples, samples_only = _REFERENCE_CASES[case]
    traj = integrate(ode, ic, path, tol=tol, sample_points=samples,
                     record_samples_only=samples_only)
    stats = traj.stats
    attempted = stats["accepted"] + stats["rejected"]
    assert stats["rhs_evals"] == 6 * attempted + segments


@pytest.mark.parametrize("ode", [EpWidthOde(1000j), LinearOscillatorOde(1000j)],
                         ids=["width", "linear"])
def test_nan_error_estimate_halts_with_finite_points(ode):
    # the solution overflows near t = 0.355 (width) or 0.7 (linear); a NaN
    # estimate is rejected like an overflow, the step shrinks until it
    # underflows, and no point past the blow-up is recorded
    traj = integrate(ode, (2.0, 0.0), [0, 1], tol=1e-8)
    assert traj.halted
    assert traj.halt_reason == "step size underflow near a singular point"
    assert all(
        math.isfinite(x)
        for p in traj.points
        for z in p
        for x in (z.real, z.imag)
    )
    assert traj.end.t.real < 1.0
    # the magnitude grows toward the halt: no zero of the width is there
    assert detect_singularity(traj).kind == "none"


# ---------------------------------------------------------------------------
# singularity detection
# ---------------------------------------------------------------------------

def test_detect_zero_of_width_near_i():
    traj = integrate(EpWidthOde(0.0), (1.0, 0.0), [0, 0.999j], tol=1e-10)
    probe = detect_singularity(traj)
    assert probe.kind == "zero-of-alpha"
    assert abs(probe.t_star - 1j) < 1e-3


def test_probe_to_pinney_zero_stops_on_manifold_guard():
    # straight at the analytic zero: the probe halts on the guard after a
    # short approach that still resolves t* and the exponent 1/2
    t_star = _analytic_zero(1.0, 2.0)
    traj = integrate(EpWidthOde(1.0), (2.0, 0.0), [0, t_star], tol=1e-10)
    assert traj.halt_reason.startswith("approaching the singular manifold")
    assert traj.stats["accepted"] + traj.stats["rejected"] <= 1000
    probe = detect_singularity(traj)
    assert probe.kind == "zero-of-alpha"
    assert abs(probe.t_star - t_star) <= 1e-9
    fit = fit_local_exponent(traj, probe.t_star)
    assert abs(fit.value - 0.5) <= 1e-6


def test_detect_nothing_on_constant_solution():
    traj = integrate(EpWidthOde(1.0), (1.0, 0.0), [0, 10], tol=1e-10)
    assert detect_singularity(traj).kind == "none"


def test_detect_nothing_on_linear_oscillator():
    # |eta| shrinks toward the zero of sin at pi, but a linear equation has
    # no singular manifold, so no detection is attempted
    traj = integrate(LinearOscillatorOde(1.0), (0.0, 1.0), [0, 3.14], tol=1e-10)
    assert detect_singularity(traj).kind == "none"


# ---------------------------------------------------------------------------
# exponent fitting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "exponent",
    [Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(2)],
)
def test_fit_exponent_synthetic_power_laws(exponent):
    t_star = 0.3 + 0.7j
    radii = [0.001 * 1.3 ** k for k in range(25)]
    nu = float(exponent)
    traj = synthetic_ray_trajectory(
        lambda tau: tau ** nu if nu >= 0 else (1 / tau ** -nu), t_star, radii
    )
    fit = fit_local_exponent(traj, t_star)
    assert abs(fit.value - nu) < 0.02
    assert fit.r_squared > 0.99


def test_fit_exponent_cot_behaves_like_simple_pole():
    t_star = 0.2j
    radii = [0.0005 * 1.25 ** k for k in range(30)]
    traj = synthetic_ray_trajectory(
        lambda tau: 1 / cmath.tan(tau), t_star, radii
    )
    fit = fit_local_exponent(traj, t_star)
    assert abs(fit.value + 1.0) < 0.02


def test_fit_exponent_width_branch_point():
    traj = integrate(EpWidthOde(0.0), (1.0, 0.0), [0, 0.999j], tol=1e-10)
    probe = detect_singularity(traj)
    fit = fit_local_exponent(traj, probe.t_star)
    assert abs(fit.value - 0.5) <= 0.02
    assert fit.half_width < 0.02
    assert fit.r_squared > 0.99


def test_fit_exponent_rejects_noise():
    rng = random.Random(3)
    t_star = 0.0j
    radii = [0.001 * 1.5 ** k for k in range(20)]
    traj = synthetic_ray_trajectory(
        lambda tau: 1.0 + rng.uniform(0.5, 3.0), t_star, radii
    )
    with pytest.raises((ExponentUnresolvedError, ValueError)):
        fit_local_exponent(traj, t_star)


def test_fit_exponent_needs_enough_samples():
    traj = synthetic_ray_trajectory(lambda tau: tau, 0j, [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        fit_local_exponent(traj, 0j)


# ---------------------------------------------------------------------------
# invariant drift
# ---------------------------------------------------------------------------

def shared_grid_pair(tol):
    shared = [0.25 * k for k in range(1, 40)]
    eta = integrate(LinearOscillatorOde(1.0), (0.0, 1.0), [0, 10], tol=tol,
                    sample_points=shared, record_samples_only=True)
    alpha = integrate(EpWidthOde(1.0), (1.0, 0.0), [0, 10], tol=tol,
                      sample_points=shared, record_samples_only=True)
    return eta, alpha


def test_invariant_drift_benchmark():
    eta, alpha = shared_grid_pair(1e-10)
    drift = invariant_drift(eta, alpha)
    assert drift < 1e-8
    from merosolve.exactlab import ermakov_invariant

    base = ermakov_invariant(
        eta.points[0].value, eta.points[0].slope,
        alpha.points[0].value, alpha.points[0].slope,
    )
    assert abs(base - 0.5) < 1e-12


def test_invariant_drift_scales_with_tolerance():
    drifts = [invariant_drift(*shared_grid_pair(tol))
              for tol in (1e-8, 1e-10, 1e-12)]
    assert drifts[0] > drifts[1] > drifts[2]
    # roughly linear scaling in tol: two decades of tol give between one
    # and four decades of drift reduction
    for hi, lo in zip(drifts, drifts[1:]):
        assert 1e1 <= hi / lo <= 1e4


def test_invariant_drift_zero_position():
    shared = [0.5, 1.0]
    eta = integrate(LinearOscillatorOde(1.0), (0.0, 0.0), [0, 2], tol=1e-10,
                    sample_points=shared, record_samples_only=True)
    alpha = integrate(EpWidthOde(1.0), (1.0, 0.0), [0, 2], tol=1e-10,
                      sample_points=shared, record_samples_only=True)
    assert invariant_drift(eta, alpha) == 0


def test_invariant_drift_rejects_mismatched_grids():
    eta = integrate(LinearOscillatorOde(1.0), (0.0, 1.0), [0, 2], tol=1e-10)
    alpha = integrate(EpWidthOde(1.0), (1.0, 0.0), [0, 3], tol=1e-10)
    with pytest.raises(ValueError):
        invariant_drift(eta, alpha)


# ---------------------------------------------------------------------------
# local series seeds a probe
# ---------------------------------------------------------------------------

def test_detect_singularity_finds_series_expansion_point(ep_poly, ep_branch_family):
    # start on the local series of a branch point and integrate toward it:
    # the probe recovers the expansion point as the singular time
    t0 = 0.4j
    seed = solve_local_series(ep_poly, ep_branch_family, QComplex(1, 1), K=16)
    tau0 = 0.2
    ic = (seed.series.evaluate(tau0), seed.series.differentiate().evaluate(tau0))
    inward = integrate(EpWidthOde(1.0), ic, [t0 + tau0, t0 + 1e-4], tol=1e-10)
    probe = detect_singularity(inward)
    assert probe.kind == "zero-of-alpha"
    assert abs(probe.t_star - t0) < 1e-6
