import cmath
import math
import random
import sys
from fractions import Fraction

import pytest

from merosolve import numeric
from merosolve.errors import ExponentUnresolvedError
from merosolve.exactlab import (
    QuadFormParams,
    oscillator_basis,
    pinney_solution,
    pinney_zero,
)
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
    return ComplexTrajectory(samples=pts, singular_near_zero=True)


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
    assert traj.halted and traj.halt_kind == "manifold"
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
    assert traj.halted and traj.halt_kind == "budget"
    assert traj.halt_reason == "step budget exhausted"
    assert traj.stats["accepted"] + traj.stats["rejected"] == 2000
    # six evaluations per attempted step, plus the first stage of the path's
    # one segment
    assert traj.stats["rhs_evals"] == 6 * 2000 + 1


def test_integrate_halts_on_step_underflow():
    # omega**2 overflows, so every step fails and is halved until it falls
    # below h_min without a single accepted step
    traj = integrate(EpWidthOde(1e200), (1.0, 0.0), [0, 1], tol=1e-10)
    assert traj.halted and traj.halt_kind == "underflow"
    assert traj.halt_reason == (
        "step size underflow: the step shrank below its floor, "
        "last failing by a stage raising or an error above tol")
    assert traj.stats["accepted"] == 0
    assert traj.stats["rejected"] == 40
    assert len(traj.points) == 1


def test_integrate_long_path_within_step_budget():
    # about 160 periods at the smallest tolerance stay inside MAX_STEPS
    # (about 151k steps) and keep the global error within 1e-8
    basis = oscillator_basis(1.0)
    width = pinney_solution(QuadFormParams(4, 0, 0.25), basis)
    traj = integrate(EpWidthOde(1.0), (2.0, 0.0), [0, 1000], tol=1e-12)
    assert not traj.halted and traj.halt_kind is None
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
    assert traj.halted and traj.halt_kind == "manifold"
    assert traj.halt_reason == (
        "initial value already inside the singular-manifold guard"
    )
    assert len(traj.points) == 1
    assert traj.stats == {"accepted": 0, "rejected": 0, "rhs_evals": 0}


# ---------------------------------------------------------------------------
# bit-identity of the unrolled step against the generic tableau loop
# ---------------------------------------------------------------------------

_Q = Fraction
# Dormand-Prince 5(4), stages 0 to 6, as a full lower-triangular A: row 6 is
# the fifth-order weights (first same as last)
_REF_A = tuple(row + (_Q(0),) * (7 - len(row)) for row in (
    (),
    (_Q(1, 5),),
    (_Q(3, 40), _Q(9, 40)),
    (_Q(44, 45), _Q(-56, 15), _Q(32, 9)),
    (_Q(19372, 6561), _Q(-25360, 2187), _Q(64448, 6561), _Q(-212, 729)),
    (_Q(9017, 3168), _Q(-355, 33), _Q(46732, 5247), _Q(49, 176),
     _Q(-5103, 18656)),
    (_Q(35, 384), _Q(0), _Q(500, 1113), _Q(125, 192), _Q(-2187, 6784),
     _Q(11, 84)),
))
_REF_C = tuple(sum(row) for row in _REF_A)
_REF_B5 = _REF_A[6]
_REF_B4 = (_Q(5179, 57600), _Q(0), _Q(7571, 16695), _Q(393, 640),
           _Q(-92097, 339200), _Q(187, 2100), _Q(1, 40))
_REF_E = tuple(b5 - b4 for b5, b4 in zip(_REF_B5, _REF_B4))


def _times_a(w):
    """The row vector w*A."""
    return tuple(sum(w[l] * _REF_A[l][m] for l in range(7)) for m in range(7))


def _floats(row):
    return tuple(float(x) for x in row)


# Nystrom form: abar = A*A row by row, bA = b*A, eA = e*A.  The error
# weights e are the difference of the rounded weight rows.
_NY_C = _floats(_REF_C)
_NY_ABAR = tuple(_floats(_times_a(row)) for row in _REF_A)
_NY_BA = _floats(_times_a(_REF_B5))
_NY_B = _floats(_REF_B5)
_NY_EA = _floats(_times_a(_REF_E))
_NY_E = tuple(float(b5) - float(b4) for b5, b4 in zip(_REF_B5, _REF_B4))

_HALT_REASONS = {
    "budget": "step budget exhausted",
    "underflow": "step size underflow: the step shrank below its floor, "
                 "last failing by a stage raising or an error above tol",
    "overflow": "solution overflows to a non-finite state",
}


def _reference_accel(ode, u):
    if isinstance(ode, EpWidthOde):
        return -ode.omega ** 2 * u + u ** -3
    return -ode.omega ** 2 * u


def _weighted(coeffs, fs):
    """sum of coeffs[m] * fs[m] in ascending m, zero weights skipped,
    starting from the first term (None when every weight is zero)."""
    acc = None
    for a, f in zip(coeffs, fs):
        if a:
            acc = a * f if acc is None else acc + a * f
    return acc


def _shifted(y0, c, hv, h2, total):
    """y0 + c * hv + h2 * total, without the product for c = 1 and without
    the last term when there is no sum."""
    out = y0 + (hv if c == 1 else c * hv)
    return out if total is None else out + h2 * total


class _NystromStep:
    """Generic Nystrom DP5 tableau loop on the complex step H = h * d: the
    reference that the unrolled step in ``integrate`` matches bit for bit.
    The first stage accel(value) carries across steps and corners."""

    def __init__(self, ode):
        self.accel = lambda u: _reference_accel(ode, u)
        self.f0 = self.f_last = None

    def attempt(self, y, h, d, stats):
        """(error, new state, stall kind if the step fails)."""
        accel = self.accel
        if self.f0 is None:
            self.f0 = accel(y[0])
            stats["rhs_evals"] += 1
        big_h = h * d
        hv = big_h * y[1]
        h2 = big_h * big_h
        f = [self.f0]
        for j in range(1, 6):
            f.append(accel(_shifted(y[0], _NY_C[j], hv, h2,
                                    _weighted(_NY_ABAR[j], f))))
        z = (_shifted(y[0], 1, hv, h2, _weighted(_NY_BA, f)),
             y[1] + big_h * _weighted(_NY_B, f))
        self.f_last = accel(z[0])
        f.append(self.f_last)
        stats["rhs_evals"] += 6
        errs = [
            abs(h2 * _weighted(_NY_EA, f)) / max(1.0, abs(y[0]), abs(z[0])),
            abs(big_h * _weighted(_NY_E, f)) / max(1.0, abs(y[1]), abs(z[1])),
        ]
        if all(x < math.inf for x in errs + [abs(z[0]), abs(z[1])]):
            return max(errs), z, "underflow"
        return math.inf, z, "overflow"

    def accept(self):
        self.f0 = self.f_last


class _ClassicStep:
    """The first-order DP5 step on (value, slope) along direction d, first
    same as last, with the first stage evaluated afresh per direction: an
    oracle for the Nystrom form that shares none of its arithmetic."""

    _A = tuple(_floats(row) for row in _REF_A)
    _B5 = _floats(_REF_B5)
    _E = tuple(float(b5) - float(b4) for b5, b4 in zip(_REF_B5, _REF_B4))

    def __init__(self, ode):
        self.ode = ode
        self.d = self.k0 = self.k_last = None

    def attempt(self, y, h, d, stats):
        if d != self.d:
            self.d, self.k0 = d, None

        def rhs(v):
            return (d * v[1], d * _reference_accel(self.ode, v[0]))

        if self.k0 is None:
            self.k0 = rhs(y)
            stats["rhs_evals"] += 1
        k = [self.k0]
        for i in range(1, 6):
            acc = list(y)
            for j, a in enumerate(self._A[i]):
                if a:
                    for m in range(2):
                        acc[m] += h * a * k[j][m]
            k.append(rhs(acc))
        y5 = tuple(
            y[m] + h * sum(self._B5[i] * k[i][m] for i in range(6)
                           if self._B5[i])
            for m in range(2)
        )
        self.k_last = rhs(y5)
        k.append(self.k_last)
        stats["rhs_evals"] += 6
        errs = [
            abs(h * sum(self._E[i] * k[i][m] for i in range(7) if self._E[i]))
            / max(1.0, abs(y[m]), abs(y5[m]))
            for m in range(2)
        ]
        # a state that overflows makes inf / inf in the slope estimate
        if any(math.isnan(e) for e in errs):
            return math.inf, y5, "overflow"
        return max(0.0, *errs), y5, "underflow"

    def accept(self):
        self.k0 = self.k_last


def _drive(step, ode, ic, path, tol, sample_points=None,
           record_samples_only=False):
    """Step-size control, events and halts around ``step``."""
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
    stats = {"accepted": 0, "rejected": 0, "rhs_evals": 0}

    def finish(kind=None, reason=None):
        if kind:
            reason = reason or _HALT_REASONS[kind]
        return ComplexTrajectory(points, ode.singular_near_zero, reason, kind,
                                 stats)

    if halt_radius and abs(y[0]) < halt_radius:
        return finish(
            "manifold",
            "initial value already inside the singular-manifold guard")
    h = min(path.length / 100.0, 0.05)
    h_min = 1e-14 * max(1.0, path.length)
    s_cur = 0.0
    for target in events:
        seg = path.segment_of((s_cur + target) / 2.0)
        base_t = path.waypoints[seg]
        base_s = path.cums[seg]
        direction = path.direction(seg)
        while s_cur < target - 1e-13 * max(1.0, path.length):
            if stats["accepted"] + stats["rejected"] >= numeric.MAX_STEPS:
                return finish("budget")
            h_try = min(h, target - s_cur)
            try:
                err, y_new, stall = step.attempt(y, h_try, direction, stats)
            except (ZeroDivisionError, OverflowError):
                err, stall = math.inf, "underflow"
            if err <= tol:
                s_cur += h_try
                if abs(s_cur - target) <= 1e-12 * max(1.0, path.length):
                    s_cur = target
                y = y_new
                step.accept()
                stats["accepted"] += 1
                if not record_samples_only or s_cur == target:
                    points.append(TrajectoryPoint(
                        base_t + direction * (s_cur - base_s), y[0], y[1]))
                if err == 0.0:
                    factor = 5.0
                else:
                    factor = min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
                h = h_try * factor
                if halt_radius and abs(y[0]) < halt_radius:
                    return finish("manifold", (
                        "approaching the singular manifold: |value| < "
                        f"{halt_radius:.3e}"
                    ))
            else:
                stats["rejected"] += 1
                if err == math.inf:
                    h = h_try / 2.0
                else:
                    h = h_try * min(1.0, max(0.1, 0.9 * (tol / err) ** 0.2))
                if h < h_min:
                    return finish(stall)
    return finish()


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
    # the first two segments share a direction and the third turns: the
    # first stage carries across both corners (the first-order step
    # evaluates it afresh at the turn)
    "collinear-waypoints-with-samples": (
        EpWidthOde(1.0), (1.5, 0.2), [0, 1, 2.5, 2.5 + 1j], 1e-10,
        [0.4, 1.8, 3.0], False,
    ),
    # |value| grows like exp(1000 t) until the stages overflow to inf and
    # the new state or the error estimate (inf - inf) is not finite, which
    # must fail the step
    "nan-error-estimate": (
        EpWidthOde(1000j), (2.0, 0.0), [0, 1], 1e-8, None, False,
    ),
    # a real path in the negative direction, d = -1 + 0j, with a negative
    # zero slope: the signed zeros of every point are pinned by repr
    "negative-real-direction": (
        EpWidthOde(1.0), (2.0, -0.0), [0, -3], 1e-10, None, False,
    ),
    # real data on an imaginary path toward the zero at i atanh(4/9)
    "imaginary-path-from-real-data": (
        EpWidthOde(1.0), (1.5, 0.0), [0, 0.9j], 1e-10, None, False,
    ),
    # the rows below are real problems, which step in floats: the reference
    # steps them in complex arithmetic
    # u * u overflows, so complex u ** -3 is NaN: every step is rejected
    # and the integration halts at t = 0 on overflow
    "width-square-overflows": (
        EpWidthOde(1.0), (1e200, 0.0), [0, 1], 1e-10, None, False,
    ),
    # u**3 overflows and u ** -3 is 0: the integration reaches t = 1
    "width-cube-overflows": (
        EpWidthOde(1.0), (1e120, 0.0), [0, 1], 1e-10, None, False,
    ),
    # every stage is a signed zero, so every sign is pinned
    "all-zero-linear-state": (
        LinearOscillatorOde(0.0), (-0.0, 0.0), [0, 2], 1e-10, None, False,
    ),
    # -omega**2 = 1 is real, and the second segment runs backwards
    "imaginary-omega-real-line": (
        EpWidthOde(1j), (1.5, 0.3), [0, 2, 0.5], 1e-10, None, False,
    ),
    # the shape of the exact lab's shared eta/alpha grid
    "real-record-samples-only": (
        LinearOscillatorOde(1.0), (0.0, 1.0), [0, 4], 1e-10,
        [0.25 * k for k in range(1, 16)], True,
    ),
}


def _run_case(case, step=None):
    ode, ic, path, tol, samples, samples_only = _REFERENCE_CASES[case]
    if step is None:
        return integrate(ode, ic, path, tol=tol, sample_points=samples,
                         record_samples_only=samples_only)
    return _drive(step(ode), ode, ic, path, tol, sample_points=samples,
                  record_samples_only=samples_only)


def _assert_same_trajectory(got, want):
    # the rows first: a float run reads them from its float samples, before
    # its points are built; repr tells the signed zeros apart
    assert repr(got.to_rows()) == repr([
        (p.t.real, p.t.imag, p.value.real, p.value.imag, p.slope.real,
         p.slope.imag) for p in want.points
    ])
    assert len(got.points) == len(want.points)
    for g, w in zip(got.points, want.points):
        assert g.t == w.t and g.value == w.value and g.slope == w.slope
        # repr also tells the signed zeros apart, which JSON output shows
        assert repr(g) == repr(w)
    assert got.stats == want.stats
    assert got.halted == want.halted
    assert got.halt_reason == want.halt_reason
    assert got.halt_kind == want.halt_kind


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_unrolled_step_matches_generic_reference(case):
    _assert_same_trajectory(_run_case(case), _run_case(case, _NystromStep))


def test_float_kernel_matches_complex_reference_on_random_real_problems():
    # real problems step in floats; the reference steps them in complex
    # arithmetic, and the real parts must agree bit for bit
    rng = random.Random(20261020)

    def value():
        # mostly moderate, sometimes a signed zero or an extreme magnitude
        moderate = rng.uniform(0.2, 2.5)
        return rng.choice((-1, 1)) * rng.choice((
            moderate, moderate, moderate, 0.0, 1e-100, 1e120, 1e160))

    for _ in range(50):
        ode = rng.choice((EpWidthOde, LinearOscillatorOde))(rng.choice((
            rng.uniform(-2.0, 2.0), 1j * rng.uniform(-1.5, 1.5),
            0.0, -0.0, 1e-170)))
        ic = (value(), value())
        if ode.singular_near_zero and ic[0] == 0:
            ic = (1.0, ic[1])
        path = [rng.uniform(-1.0, 1.0)]
        for _ in range(rng.randint(1, 3)):
            path.append(path[-1]
                        + rng.choice((-1, 1)) * rng.uniform(0.1, 12.0))
        tol = rng.choice((1e-8, 1e-10, 1e-12, TOL_MIN))
        length = sum(abs(b - a) for a, b in zip(path, path[1:]))
        samples = sorted(rng.uniform(0.0, length) for _ in range(4))
        only = rng.random() < 0.5
        got = integrate(ode, ic, path, tol=tol, sample_points=samples,
                        record_samples_only=only)
        want = _drive(_NystromStep(ode), ode, ic, path, tol,
                      sample_points=samples, record_samples_only=only)
        _assert_same_trajectory(got, want)


class _CountingWidthOde(EpWidthOde):
    """The width equation, counting the calls to its complex ``accel``."""

    calls = 0

    def accel(self, u):
        self.calls += 1
        return super().accel(u)


@pytest.mark.parametrize("omega, ic, path, steps_in_complex", [
    (1.0, (1.5, 0.3), [0, 2, 0.5], False),
    (1j, (1.5, -0.3), [0, -2], False),
    (1.0, (1.5, 0.3), [0, 1 + 0.5j], True),
    (0.8 + 0.2j, (1.5, 0.3), [0, 2], True),
    (1.0, (1.5 + 0.1j, 0.3), [0, 2], True),
    # a -0.0 imaginary part of an initial value can last into the complex
    # kernel's points, so it keeps that kernel
    (1.0, (complex(1.5, -0.0), 0.3), [0, 2], True),
], ids=["real", "real-reversed", "complex-path", "complex-omega",
        "complex-ic", "negative-zero-imaginary-ic"])
def test_real_problems_step_in_floats(omega, ic, path, steps_in_complex):
    ode = _CountingWidthOde(omega)
    traj = integrate(ode, ic, path, tol=1e-10)
    assert (ode.calls > 0) == steps_in_complex
    # either kernel builds complex points from its samples on each read
    rows = traj.to_rows()
    assert len(traj.points) > 1
    assert all(type(p) is TrajectoryPoint for p in traj.points)
    assert all(type(x) is complex for p in traj.points for x in p)
    assert traj.to_rows() == rows


@pytest.mark.xfail(strict=True, reason=(
    "complex u ** -3 is NaN once u * u overflows (|u| >= 2**512): its "
    "square and multiply takes inf times the zero imaginary part, so every "
    "step is rejected and the integration halts at t = 0 on overflow"))
def test_integrate_width_from_a_huge_initial_value():
    # the solution is alpha = sqrt(1e400 cos(t)**2 + 1e-400 sin(t)**2),
    # finite on [0, 1]
    traj = integrate(EpWidthOde(1.0), (1e200, 0.0), [0, 1])
    assert not traj.halted
    assert traj.end.t == 1
    assert abs(traj.end.value / 1e200 - math.cos(1.0)) <= 1e-8


def _outcome(fn, *args):
    """The repr of what ``fn(*args)`` returns or raises."""
    try:
        return repr(fn(*args))
    except (ValueError, ExponentUnresolvedError) as exc:
        return repr((exc, vars(exc)))


@pytest.mark.parametrize("ode, ic, path, real", [
    # |value| falls from 2 to 0.5, so the singularity fit runs on floats
    (EpWidthOde(1.0), (2.0, 0.0), [0, 1.5], True),
    (LinearOscillatorOde(1.0), (0.0, 1.0), [0, 4], True),
    (EpWidthOde(1.0), (2.0, 0.0), [0, _analytic_zero(1.0, 2.0)], False),
    (LinearOscillatorOde(0.8 + 0.2j), (0.0, 1.0), [0, 2], False),
], ids=["width-real", "linear-real", "width-probe", "linear-complex"])
def test_both_kernels_record_samples_and_build_points_lazily(
        ode, ic, path, real):
    traj = integrate(ode, ic, path, tol=1e-10)
    samples = traj.samples
    assert all(type(s) is tuple and len(s) == 3 for s in samples)
    assert all(type(s[0]) is complex for s in samples)
    # after the initial values, a float run holds floats
    kind = float if real else complex
    assert all(type(x) is kind for s in samples[1:] for x in s[1:])
    rows = traj.to_rows()
    probe_before = detect_singularity(traj)
    t_star = probe_before.t_star or 0.5 + 2j
    fit_before = _outcome(fit_local_exponent, traj, t_star)
    points = traj.points
    assert points == [
        TrajectoryPoint(t, complex(value), complex(slope))
        for t, value, slope in samples
    ]
    assert traj.end == points[-1] and traj.samples is samples
    # reading the points changes none of the bits the readers give
    assert repr(traj.to_rows()) == repr(rows)
    assert _outcome(fit_local_exponent, traj, t_star) == fit_before
    assert repr(detect_singularity(traj)) == repr(probe_before)


class _CalledWidthOde(EpWidthOde):
    """The width equation with its acceleration called at each stage, as
    for any ``accel`` but ``EpWidthOde.accel`` itself."""

    def accel(self, u):
        return super().accel(u)


def _accel_calls(ode, ic, path, tol):
    """The trajectory and the number of calls to ``EpWidthOde.accel``."""
    code = EpWidthOde.accel.__code__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(profile)
    try:
        traj = integrate(ode, ic, path, tol=tol)
    finally:
        sys.setprofile(None)
    return traj, calls


# the smallest width whose complex u ** -3 is finite: a stage just below it
# raises OverflowError
_EDGE_OF_CUBE = 1.7718548704178435e-103


def _guard_off(ode):
    ode.singular_near_zero = False
    return ode


@pytest.mark.parametrize("make, ic, path, halt_kind", [
    (lambda cls: cls(0.7), (1.3, 0.4), [0, pinney_zero(1.3, 0.4, 0.7)],
     "manifold"),
    # without the guard the width starts at the edge of u ** -3 and heads
    # into its zero: every stage 1 raises, and the step underflows
    (lambda cls: _guard_off(cls(1.0)), (_EDGE_OF_CUBE, 1j * _EDGE_OF_CUBE),
     [0, 1j], "underflow"),
    # the width-square-overflows row, kept in complex arithmetic by the -0.0
    (lambda cls: cls(1.0), (complex(1e200, -0.0), 0.0), [0, 1], "overflow"),
], ids=["probe-to-pinney-zero", "underflow-at-a-zero",
        "width-square-overflows"])
def test_inline_width_acceleration_matches_the_called_one(
        make, ic, path, halt_kind):
    # the edge the underflow case relies on
    assert complex(_EDGE_OF_CUBE) ** -3
    with pytest.raises(OverflowError):
        complex(math.nextafter(_EDGE_OF_CUBE, 0.0)) ** -3
    inline, inline_calls = _accel_calls(make(EpWidthOde), ic, path, 1e-10)
    called, calls = _accel_calls(make(_CalledWidthOde), ic, path, 1e-10)
    # the inline step calls accel for the integration's first stage alone
    assert inline_calls == 1 and calls > 1
    assert repr(inline.samples) == repr(called.samples)
    assert inline.stats == called.stats
    assert inline.halt_kind == called.halt_kind == halt_kind
    assert inline.halt_reason == called.halt_reason


# the largest relative difference measured over the reference cases is
# 5.7e-8, on tol-min
_CLASSIC_REL_BOUND = 1e-6


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_nystrom_step_agrees_with_first_order_step(case):
    # the same method evaluated in another order: the step-size decisions
    # coincide and the points differ only by rounding
    got = _run_case(case)
    want = _run_case(case, _ClassicStep)
    for key in ("accepted", "rejected"):
        assert got.stats[key] == want.stats[key]
    assert got.halt_reason == want.halt_reason
    assert got.halt_kind == want.halt_kind
    assert len(got.points) == len(want.points)
    for g, w in zip(got.points, want.points):
        for a, b in zip(g, w):
            assert abs(a - b) <= _CLASSIC_REL_BOUND * max(1.0, abs(b))


def test_nystrom_coefficients():
    # the Nystrom form leaves the slope out of the value sums only because
    # the weights sum to one and the error weights to zero
    assert sum(_REF_B5) == 1 and sum(_REF_E) == 0
    assert _REF_C[6] == 1
    # row j of abar = A*A reaches only the accelerations up to F_{j-2}
    for j, row in enumerate(_REF_A):
        assert not any(_times_a(row)[max(j - 1, 0):])
    assert numeric._DP_A == tuple(row[:j] for j, row in enumerate(_REF_A)
                                  if j)
    assert numeric._DP_B4 == _REF_B4
    # the module's floats are the correctly rounded exact coefficients
    assert numeric._NY_C == _NY_C[1:6]
    assert numeric._NY_ABAR == tuple(
        row[:j - 1] for j, row in enumerate(_NY_ABAR) if 2 <= j <= 5)
    assert numeric._NY_BA == _NY_BA[:5] and not any(_NY_BA[5:])
    assert numeric._NY_B == _NY_B[:6] and _NY_B[6] == 0
    assert numeric._NY_EA == _NY_EA[:6] and _NY_EA[6] == 0
    assert numeric._NY_ABAR[0] == (float(_Q(9, 200)),)
    assert _times_a(_REF_B5)[:5] == (
        _Q(35, 384), 0, _Q(50, 159), _Q(25, 192), _Q(-243, 6784))
    assert _times_a(_REF_E)[:6] == (
        _Q(611, 230400), 0, _Q(-514, 83475), _Q(391, 38400),
        _Q(-4617, 1356800), _Q(-11, 3360))
    # e is the difference of the rounded weight rows, computed exactly:
    # each pair of weights lies within a factor of two (Sterbenz)
    assert numeric._NY_E == _NY_E
    for e, b5, b4 in zip(numeric._NY_E, _REF_B5, _REF_B4):
        assert _Q(e.real) == _Q(float(b5)) - _Q(float(b4))
    # the step multiplies by complex constants: each is its float with
    # imaginary part +0.0, the value CPython promotes a float factor to
    rows = {
        "c": (numeric._NY_C, _NY_C[1:6]),
        "bA": (numeric._NY_BA, _NY_BA), "b": (numeric._NY_B, _NY_B),
        "eA": (numeric._NY_EA, _NY_EA), "e": (numeric._NY_E, _NY_E),
    }
    for j, row in enumerate(numeric._NY_ABAR, start=2):
        rows[f"abar_{j}"] = (row, _NY_ABAR[j])
    for name, (got, floats) in rows.items():
        for z, x in zip(got, floats):
            assert type(z) is complex, name
            assert z.real == x and repr(z.real) == repr(x), name
            assert z.imag == 0.0 and math.copysign(1.0, z.imag) == 1.0, name
    # the float kernel multiplies by the real parts of the same constants
    def flat(rows):
        c, abar, *rest = rows
        return (c, *abar, *rest)

    assert numeric._NY_COMPLEXES == (
        numeric._NY_C, numeric._NY_ABAR, numeric._NY_BA, numeric._NY_B,
        numeric._NY_EA, numeric._NY_E)
    for got, consts in zip(flat(numeric._NY_FLOATS),
                           flat(numeric._NY_COMPLEXES), strict=True):
        assert all(type(x) is float for x in got)
        assert [repr(x) for x in got] == [repr(z.real) for z in consts]


def test_tableau_is_first_same_as_last():
    # row 6 of A is the fifth-order weights and c_6 = 1: the last stage is
    # the derivative at the new state, i.e. the next step's first stage
    assert _REF_A[6] == _REF_B5 and _REF_B5[6] == 0 and _REF_C[6] == 1
    assert numeric._DP_B == _REF_B5[:6]
    assert numeric._DP_E == _REF_E


@pytest.mark.parametrize("case", [
    "straight-to-pinney-zero",
    "complex-waypoints-with-samples",
    "collinear-waypoints-with-samples",
])
def test_rhs_evals_six_per_step_plus_one_per_integration(case):
    # accel(value) does not depend on the direction, so the first stage
    # carries across corners: one first-stage evaluation per integration
    stats = _run_case(case).stats
    attempted = stats["accepted"] + stats["rejected"]
    assert stats["rhs_evals"] == 6 * attempted + 1


@pytest.mark.parametrize("ode, ic", [
    (EpWidthOde(1000j), (2.0, 0.0)),
    (LinearOscillatorOde(1000j), (2.0, 0.0)),
    # the slope starts at the edge of the float range: the new slope
    # overflows while both error estimates stay finite (the slope's is
    # divided by |inf|), so only the state check rejects the step
    (LinearOscillatorOde(1j), (1.0, 1.79e308)),
], ids=["width", "linear", "linear-slope-overflow"])
def test_nan_error_estimate_halts_with_finite_points(ode, ic):
    # the solution overflows near t = 0.355 (width), 0.7 (linear) or 0.09
    # (from the large slope); a state or estimate that is not finite is
    # rejected like an overflow, the step shrinks until it underflows, the
    # halt says that the solution overflowed, and no point past the blow-up
    # is recorded
    traj = integrate(ode, ic, [0, 1], tol=1e-8)
    assert traj.halted
    assert traj.halt_kind == "overflow"
    assert traj.halt_reason == "solution overflows to a non-finite state"
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


@pytest.mark.parametrize("kind, found", [
    ("manifold", "zero-of-alpha"), ("underflow", "zero-of-alpha"),
    ("overflow", "none"), ("budget", "none"),
])
def test_detect_reads_the_halt_kind(kind, found):
    # a square-root approach whose magnitude rises once, by 1e-8, so it does
    # not fall monotonically: only a halt near a zero lets the fit run
    t_star = 0.3 + 0.7j
    radii = [1e-3 * 1.2 ** k for k in range(30)]
    traj = synthetic_ray_trajectory(lambda tau: tau ** 0.5, t_star, radii)
    t, value, slope = traj.samples[-2]
    traj.samples.insert(-1, TrajectoryPoint(t, value * (1 + 1e-8), slope))
    traj = traj.replace(halt_kind=kind, halt_reason="any text")
    probe = detect_singularity(traj)
    assert probe.kind == found
    if found != "none":
        assert abs(probe.t_star - t_star) < 1e-4


def test_detect_nothing_on_constant_solution():
    traj = integrate(EpWidthOde(1.0), (1.0, 0.0), [0, 10], tol=1e-10)
    assert detect_singularity(traj).kind == "none"


def test_detect_nothing_on_linear_oscillator():
    # |eta| shrinks toward the zero of sin at pi, but a linear equation has
    # no singular manifold, so no detection is attempted
    traj = integrate(LinearOscillatorOde(1.0), (0.0, 1.0), [0, 3.14], tol=1e-10)
    assert detect_singularity(traj).kind == "none"


def random_quadratic_window(rng, noise):
    """Arc positions on [0, span] and k (s - r1) (s - r2), each value
    perturbed by a relative ``noise``; spans run from 1e-8 to 10 and the
    values lie near 1e-8, 1 or 1e4.  The roots sit about a span away on
    either side, where they are well conditioned."""
    n = rng.randint(6, 120)
    span = 10 ** rng.uniform(-8, 1)
    size = 10 ** rng.choice([-8, 0, 4]) * rng.uniform(0.5, 2.0)
    s = [0.0]
    for _ in range(n - 1):
        s.append(s[-1] + rng.uniform(0.2, 1.0))
    s = [x * span / s[-1] for x in s]
    r1 = span * complex(rng.uniform(1.0, 2.0), rng.uniform(-0.5, 0.5))
    r2 = span * complex(rng.uniform(-2.0, -1.0), rng.uniform(-1.0, 1.0))
    k = size / span ** 2 * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
    values = [
        k * (x - r1) * (x - r2)
        * (1 + noise * complex(rng.gauss(0, 1), rng.gauss(0, 1)))
        for x in s
    ]
    return s, values, (r1, r2)


def by_real_part(roots):
    return sorted((complex(r) for r in roots), key=lambda z: z.real)


@pytest.mark.parametrize("seed", range(6))
def test_quadratic_fit_agrees_with_numpy(seed):
    # numpy's least-squares fit and companion-matrix roots are the oracle:
    # the fitted values agree to 1e-12 of the largest value, the roots to
    # 1e-10 relative (the worst of 400 such windows reads 2e-15 and 1e-14)
    np = pytest.importorskip("numpy")
    rng = random.Random(seed)
    for _ in range(40):
        s, values, _ = random_quadratic_window(rng, noise=1e-6)
        fitted, roots = numeric._quadratic_fit(s, values)
        coeffs = np.polyfit(np.array(s), np.array(values), 2)
        expected = np.polyval(coeffs, np.array(s))
        scale = max(map(abs, values))
        assert max(abs(f - e) for f, e in zip(fitted, expected)) <= 1e-12 * scale
        assert len(roots) == 2
        for mine, ref in zip(by_real_part(roots), by_real_part(np.roots(coeffs))):
            assert abs(mine - ref) <= 1e-10 * abs(ref)


def test_quadratic_fit_recovers_exact_roots():
    rng = random.Random(11)
    for _ in range(40):
        s, values, true_roots = random_quadratic_window(rng, noise=0.0)
        fitted, roots = numeric._quadratic_fit(s, values)
        scale = max(map(abs, values))
        assert max(abs(f - v) for f, v in zip(fitted, values)) <= 1e-13 * scale
        for mine, exact in zip(by_real_part(roots), by_real_part(true_roots)):
            assert abs(mine - exact) <= 1e-12 * abs(exact)


def test_quadratic_fit_degenerate_windows_have_no_root():
    s = [0.1 * k for k in range(8)]
    for value in (0j, 2.5 - 1j):
        fitted, roots = numeric._quadratic_fit(s, [value] * 8)
        assert fitted == [value] * 8
        assert roots == []


def test_quadratic_roots_without_cancellation():
    # b**2 >> 4ac: the textbook formula loses the small root entirely
    large, small = numeric._quadratic_roots(1.0, -1e9, 1.0)
    assert abs(large - 1e9) <= 1e-15 * 1e9
    assert abs(small - 1e-9) <= 1e-15 * 1e-9
    assert numeric._quadratic_roots(0.0, 2.0, -4.0) == [2.0]
    assert numeric._quadratic_roots(0.0, 0.0, 1.0) == []
    assert numeric._quadratic_roots(3.0, 0.0, 0.0) == [0j]


def test_detect_nothing_on_all_zero_window():
    # a manifold halt with every value 0: the fit is 0 everywhere and has
    # no root to report
    traj = synthetic_ray_trajectory(
        lambda tau: 0j, 0.5j, [0.01 * k for k in range(1, 20)]
    ).replace(halt_kind="manifold")
    assert detect_singularity(traj).kind == "none"


def test_detect_nothing_when_the_squares_overflow():
    # |value| falls from 1e200 toward a zero, but its square is not a float
    traj = synthetic_ray_trajectory(
        lambda tau: 1e200 * tau ** 0.5, 0.3 + 0.7j, [1e-3 * 1.2 ** k for k in range(30)]
    )
    probe = detect_singularity(traj)
    assert probe.kind == "none"
    assert probe.t_star is None


def test_detect_is_unchanged_by_the_size_of_the_values():
    # the fit's power-of-two scaling changes no bit: a window scaled by a
    # power of two finds the same t* and residual, also near the top of
    # the float range where the unscaled sums would overflow
    def window(size):
        return synthetic_ray_trajectory(
            lambda tau: size * (tau + 0.3 * tau ** 2) ** 0.5, 0.3 + 0.7j,
            [1e-3 * 1.2 ** k for k in range(30)],
        )

    base = detect_singularity(window(1.0))
    assert base.kind == "zero-of-alpha"
    for size in (2.0 ** -400, 2.0 ** 60, 2.0 ** 510):
        probe = detect_singularity(window(size))
        assert probe.t_star == base.t_star
        assert probe.fit_residual == base.fit_residual


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
