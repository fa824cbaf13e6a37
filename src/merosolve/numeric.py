"""Complex-time integration of the width equation and the linear oscillator,
singularity probing and invariant drift monitoring.

Integration runs an embedded Dormand-Prince 5(4) pair directly on complex
state along piecewise-straight paths, with the local error of each step held
at or below the requested tolerance (standard per-step control, Hairer,
Norsett & Wanner I, section II.4).  Near the singular manifold of the width
equation (a zero of the solution) the integrator halts with a diagnostic
instead of stepping into the blow-up: at a square-root branch point the
steps shrink in proportion to the distance left, so the approach reaches the
10*sqrt(tol) guard in a few hundred steps.

Both equations are autonomous and second order, u'' = accel(u), so the state
is the pair (value, slope) and an ODE class supplies ``accel`` and its real
form ``accel_real`` (below).  A step of arc length h along a segment with
unit direction d is a step of the complex size H = h * d in t.

The step is the Nystrom form of the Dormand-Prince method for u'' = f(u)
(Hairer, Norsett & Wanner I, section II.14): the same tableau, with the
slope stages summed into the value stages in exact arithmetic.  With
Hv = H * slope, H2 = H * H and F_j = accel(Y_j),

    Y_j = value + c_j Hv + H2 sum_m abar_jm F_m      (j = 1..5, Y_0 = value)
    value' = value + Hv + H2 sum_m (bA)_m F_m,  slope' = slope + H sum_j b_j F_j

where abar = A*A, bA = b*A and eA = e*A are derived from the exact tableau
at import (``_times_a``); row j of abar stops at F_{j-2}, so stage j does
not wait for the acceleration just before it.  The value error is
|H2 sum_m (eA)_m F_m| and the slope error |H sum_j e_j F_j|, each divided by
max(1, |old|, |new|) of its component; sum(b) = 1 and sum(e) = 0 exactly,
so no slope term enters them.  The error of a step is the larger of the two.

The pair is used first same as last (Dormand & Prince 1980; Hairer, Norsett
& Wanner I, section II.5): row 6 of A equals b, so the last stage
F_6 = accel(value') is the derivative at the new state.  A step evaluates it
for the error estimate and an accepted step hands it on as the next step's
F_0.  F_0 does not depend on d, so it carries across corners too: a step
costs six acceleration evaluations, a rejected step keeps its F_0, and an
integration evaluates one first stage in all.

A step fails, and is halved, when a stage raises ``ZeroDivisionError`` or
``OverflowError``, or when the error estimate or the new state is not
finite (inf - inf in a stage gives NaN).  ``ComplexTrajectory.halt_kind``
names why an integration stopped: ``manifold`` (the guard), ``budget``
(``MAX_STEPS``), or, once failures shrink the step below its floor,
``overflow`` if the last failure was a non-finite state or estimate and
``underflow`` otherwise: a stage raised, or the error stayed above tol.  An
``underflow`` halt does not locate a zero of the width.  With the manifold
guard on, no stage comes near the 1.8e-103 below which ``u ** -3`` raises,
since the guard stops at |value| < 10*sqrt(tol); a stage raises there for
another reason, such as an omega**2 beyond the float range or a start at
the edge of ``u ** -3``'s range.

The step is unrolled into straight-line code whose floating-point
evaluation order is that of the generic Nystrom tableau loop, so
trajectories are bit-identical to it
(``test_unrolled_step_matches_generic_reference`` pins this with ``==``):

- each sum over accelerations starts from its first nonzero term and adds
  ``coefficient * F_m`` in ascending m, skipping the zero weights (bA_1,
  b_1, eA_1, e_1); a stage then adds ``c_j * Hv`` and ``H2 * sum`` onto the
  value in that order, with no multiplication for c_5 = 1, and the new
  value adds ``Hv`` and ``H2 * sum`` likewise;
- every ``min`` or ``max`` of the generic loop is written as comparisons
  (``m = a`` then ``if b > m: m = b``) that select the same operand: the
  builtins keep their first argument and replace the running value only
  when a later one compares strictly greater (``max``) or strictly less
  (``min``), so ties resolve to the same float.

The coefficients that multiply stage values are held as complex constants
``complex(x, 0.0)``.  On CPython 3.10 to 3.13 a product ``float * complex``
first fails in ``float.__mul__``; the complex type then promotes the float
to exactly ``complex(x, 0.0)`` and multiplies as ``complex * complex`` does.
A complex constant skips that dispatch and gives the same bits, signed
zeros included.  Likewise, where ``ode.accel`` is ``EpWidthOde.accel``
itself, the complex kernel writes each stage as that method's expression,
``nw2 * u + u ** -3`` with nw2 = ``ode._neg_w2``: the same bits and the same
``ZeroDivisionError`` and ``OverflowError``, without six Python calls per
step.  Every other acceleration is called: the linear oscillator's, an
override in a subclass, an instance's own ``accel`` and ``accel_real``.
Nearby rewrites that look alike are not bit-identical, so the step does not
make them: ``1 / (u * (u * u))`` for ``u ** -3`` flips signed zeros and
turns the ``OverflowError`` at tiny u (an ``underflow`` halt) into a silent
inf (an ``overflow`` halt), and the operand order of ``h_try * d`` and of
every stage sum is kept.

A problem on the real line steps in float arithmetic, with the same
unrolled step.  ``integrate`` picks the float kernel once per call when the
ODE has an ``accel_real`` (-omega**2 is real), every waypoint has imaginary
part 0 (either sign) and both initial values have imaginary part +0.0 (a
-0.0 there can last into the complex kernel's points).  The kernel then
multiplies by the float constants, holds value and slope as floats, steps
along d.real and calls ``accel_real``; everything else, every probe
included, runs the complex kernel, which stays the reference.  The floats
are the complex kernel's real parts bit for bit.  With zero imaginary
parts, each complex sum is the float sum in its real part, and the real
part of each complex product is the float product minus a product of two
zeros: exact, and able to change only the sign of a zero result.  The
stage values' imaginary parts stay +0.0, so ``accel_real`` subtracts the
zero that -omega**2 contributes; the all-zero reference row and the random
sweep in ``test_numeric`` pin the signs of zeros.  abs is
hypot(x, 0) = |x|.  FMA contraction in the C library cannot change a
product whose imaginary parts are zero, since the fused term is a zero.
``accel_real`` of the width equation emulates what complex ``u ** -3``
does on the real line: ``ZeroDivisionError`` where u * (u * u) is 0,
``OverflowError`` where its reciprocal overflows, and NaN where u * u
overflows, because the square and multiply of ``c_powu`` then multiplies
inf by the zero imaginary part.

Both kernels record each accepted step as the plain tuple (t, value,
slope), value and slope floats in the float kernel; ``ComplexTrajectory``
keeps these samples and builds its points from them on each read.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction

from .errors import ExponentUnresolvedError
from .exactlab import ermakov_invariant
from .records import Record

TOL_MIN, TOL_MAX = 1e-13, 1e-6
MAX_STEPS = 500_000  # accepted plus rejected steps per integration
_FIT_MAX_POINTS = 120  # the singularity fit thins a longer tail to this many

# Dormand-Prince 5(4) tableau, exact, stages numbered 0 to 6: rows 1 to 6 of
# A (stage 0 has none), whose last row is the fifth-order weights b (first
# same as last; b_6 = 0 is left out), and the fourth-order weights.
_DP_A = tuple(tuple(map(Fraction, row.split())) for row in (
    "1/5",
    "3/40 9/40",
    "44/45 -56/15 32/9",
    "19372/6561 -25360/2187 64448/6561 -212/729",
    "9017/3168 -355/33 46732/5247 49/176 -5103/18656",
    "35/384 0 500/1113 125/192 -2187/6784 11/84",
))
_DP_B = _DP_A[-1]
_DP_B4 = tuple(map(Fraction, (
    "5179/57600 0 7571/16695 393/640 -92097/339200 187/2100 1/40".split()
)))
_DP_E = tuple(b - b4 for b, b4 in zip(_DP_B + (0,), _DP_B4))


def _times_a(w):
    """The row vector w*A for weights w on stages 0 to n - 1: entry m is
    the sum of w_l a_lm over l > m.  No stage before n - 1 reads stage
    n - 1, so the result has n - 1 entries."""
    return tuple(
        sum((w[l] * _DP_A[l - 1][m] for l in range(m + 1, len(w))),
            Fraction(0))
        for m in range(len(w) - 1)
    )


def _floats(row):
    """The correctly rounded floats of ``row``."""
    return tuple(float(x) for x in row)


def _complexes(row):
    """The floats of ``row`` as complex constants with imaginary part +0.0
    (see the module docstring)."""
    return tuple(complex(x) for x in row)


# the Nystrom coefficients, in the order the step unpacks them: the nodes
# c_1..c_5 (row sums of A), the rows of abar = A*A for stages 2 to 5 (stage
# 1's is empty), bA, b, eA and e.  e is the difference of the rounded weight
# rows; each subtraction is exact (Sterbenz: every pair lies within a factor
# of two).  The float kernel multiplies by these floats, the complex kernel
# by the same values as complex constants
_NY_FLOATS = (
    _floats(sum(row) for row in _DP_A[:5]),
    tuple(_floats(_times_a(row)) for row in _DP_A[1:5]),
    _floats(_times_a(_DP_B)),
    _floats(_DP_B),
    _floats(_times_a(_DP_E)),
    tuple(float(b) - float(b4) for b, b4 in zip(_DP_B + (0,), _DP_B4)),
)
_NY_C, _NY_ABAR, _NY_BA, _NY_B, _NY_EA, _NY_E = _NY_COMPLEXES = (
    _complexes(_NY_FLOATS[0]),
    tuple(map(_complexes, _NY_FLOATS[1])),
    *map(_complexes, _NY_FLOATS[2:]),
)

_INF = math.inf
_NAN = math.nan

_HALT_REASONS = {
    "budget": "step budget exhausted",
    "underflow": "step size underflow: the step shrank below its floor, "
                 "last failing by a stage raising or an error above tol",
    "overflow": "solution overflows to a non-finite state",
}


def _omega_squared_overflows(u):
    raise OverflowError("omega**2 overflows")


class _OscillatorOde:
    """u'' = accel(u) with a restoring term -omega**2 u.

    ``accel_real`` is the real part of ``accel`` on the real line, in float
    arithmetic, where -omega**2 is real (and then finite: the power raises
    ``OverflowError`` otherwise); elsewhere it is None.  With
    -omega**2 = a + ai j, ai a signed zero, the real part of
    (a + ai j) * (u + 0j) is a * u - ai.
    """

    def __init__(self, omega):
        self.omega = complex(omega)
        try:
            self._neg_w2 = -self.omega ** 2
        except OverflowError:
            # every step fails and the integrator halts on step underflow
            self.accel = _omega_squared_overflows
            self.accel_real = None
            return
        self._neg_w2_real = self._neg_w2.real
        self._neg_w2_imag = self._neg_w2.imag
        if self._neg_w2_imag != 0:
            self.accel_real = None


class EpWidthOde(_OscillatorOde):
    """``alpha'' = accel(alpha) = -omega**2 alpha + alpha**-3``."""

    name = "ermakov-pinney"
    singular_near_zero = True

    def accel(self, u):
        return self._neg_w2 * u + u ** -3

    def accel_real(self, u):
        # complex u ** -3 on the real line: NaN where u * u overflows (its
        # square and multiply takes inf times the zero imaginary part),
        # ZeroDivisionError where u * (u * u) is 0, OverflowError where the
        # reciprocal overflows, and 1 / (u * (u * u)) otherwise
        uu = u * u
        if uu == _INF:
            return _NAN
        q = 1.0 / (u * uu)
        if q == _INF or q == -_INF:
            raise OverflowError("u ** -3 overflows")
        return self._neg_w2_real * u - self._neg_w2_imag + q


class LinearOscillatorOde(_OscillatorOde):
    """``eta'' = accel(eta) = -omega**2 eta``."""

    name = "linear-oscillator"
    singular_near_zero = False

    def accel(self, u):
        return self._neg_w2 * u

    def accel_real(self, u):
        return self._neg_w2_real * u - self._neg_w2_imag


class ComplexPath:
    """Piecewise-straight path through complex time, arc-length
    parametrized."""

    def __init__(self, waypoints):
        pts = tuple(complex(w) for w in waypoints)
        if len(pts) < 2:
            raise ValueError("a path needs at least two waypoints")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ValueError("consecutive waypoints must be distinct")
        self.waypoints = pts
        cums = [0.0]
        for a, b in zip(pts, pts[1:]):
            cums.append(cums[-1] + abs(b - a))
        self.cums = tuple(cums)
        self.length = cums[-1]

    def segment_of(self, s: float) -> int:
        """Index of the segment containing arc position s (left-closed)."""
        for i in range(len(self.waypoints) - 1):
            if s < self.cums[i + 1] or i == len(self.waypoints) - 2:
                if s >= self.cums[i] - 1e-12:
                    return i
        return len(self.waypoints) - 2

    def direction(self, seg: int) -> complex:
        a, b = self.waypoints[seg], self.waypoints[seg + 1]
        return (b - a) / abs(b - a)


TrajectoryPoint = namedtuple("TrajectoryPoint", "t value slope")


class ComplexTrajectory(Record):
    """The samples of an integration and why it stopped.

    ``samples`` are the (t, value, slope) tuples an integration recorded
    (floats where it stepped in floats); ``points`` and ``end`` build
    ``TrajectoryPoint(t, complex(value), complex(slope))`` from them on each
    read.
    """

    __slots__ = ("samples", "singular_near_zero", "halt_reason", "halt_kind",
                 "stats")

    def __init__(self, samples: list, singular_near_zero: bool,
                 halt_reason: str = None, halt_kind: str = None,
                 stats: dict = None):
        super().__init__(samples, singular_near_zero, halt_reason, halt_kind,
                         {} if stats is None else stats)

    @property
    def points(self) -> list:
        return [TrajectoryPoint(t, complex(value), complex(slope))
                for t, value, slope in self.samples]

    @property
    def halted(self) -> bool:
        return self.halt_kind is not None

    @property
    def end(self) -> TrajectoryPoint:
        t, value, slope = self.samples[-1]
        return TrajectoryPoint(t, complex(value), complex(slope))

    def to_rows(self):
        """One (re t, im t, re value, im value, re slope, im slope) tuple
        per sample.  A float's ``real`` and ``imag`` are those of its
        ``complex(x)``, so both kernels print the same bytes."""
        return [
            (t.real, t.imag, value.real, value.imag, slope.real, slope.imag)
            for t, value, slope in self.samples
        ]


def integrate(
    ode,
    ic,
    path,
    tol: float = 1e-10,
    sample_points=None,
    record_samples_only: bool = False,
) -> ComplexTrajectory:
    """Adaptive Dormand-Prince 5(4) integration along a complex path.

    ``ode`` supplies ``accel`` and ``accel_real`` (see the module
    docstring) and ``ic`` is (value, slope) at the path start.  Extra arc
    positions in ``sample_points`` become exact step boundaries so several
    trajectories can share a grid; with ``record_samples_only`` the output
    contains just those shared points (plus start and waypoints), which
    makes grids from different equations comparable.  The local error of
    each step is kept at or below ``tol``; integration halts near the
    singular manifold, on step underflow, on overflow or after
    ``MAX_STEPS`` steps, and records the reason and its ``halt_kind``.
    """
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}]")
    if not isinstance(path, ComplexPath):
        path = ComplexPath(path)
    y0, y1 = complex(ic[0]), complex(ic[1])
    if ode.singular_near_zero and y0 == 0:
        raise ValueError("initial value must be nonzero for the width equation")

    halt_radius = 10.0 * math.sqrt(tol) if ode.singular_near_zero else 0.0
    events = set(path.cums[1:])
    if sample_points:
        for s in sample_points:
            s = float(s)
            if 0.0 < s < path.length:
                events.add(s)
    events = sorted(events)

    samples = [(path.waypoints[0], y0, y1)]
    halt_kind = halt_reason = None
    if halt_radius and abs(y0) < halt_radius:
        halt_kind = "manifold"
        halt_reason = "initial value already inside the singular-manifold guard"

    # a problem on the real line steps in floats (see the module docstring)
    real = (ode.accel_real is not None
            and all(z.imag == 0 and math.copysign(1.0, z.imag) > 0
                    for z in (y0, y1))
            and all(w.imag == 0 for w in path.waypoints))
    if real:
        accel = ode.accel_real
        y0, y1 = y0.real, y1.real
        rows = _NY_FLOATS
    else:
        accel = ode.accel
        rows = _NY_COMPLEXES
    # the width equation's own accel is written into the complex step
    inline = getattr(accel, "__func__", None) is EpWidthOde.accel
    nw2 = ode._neg_w2 if inline else None
    append = samples.append
    max_steps = MAX_STEPS
    inf = math.inf
    c_row, abar_rows, ba_row, b_row, ea_row, e_row = rows
    c1, c2, c3, c4, _ = c_row
    (g20,), (g30, g31), (g40, g41, g42), (g50, g51, g52, g53) = abar_rows
    ba0, _, ba2, ba3, ba4 = ba_row
    b0, _, b2, b3, b4, b5 = b_row
    ea0, _, ea2, ea3, ea4, ea5 = ea_row
    e0, _, e2, e3, e4, e5, e6 = e_row
    accepted = rejected = rhs_evals = 0

    h = min(path.length / 100.0, 0.05)
    h_min = 1e-14 * max(1.0, path.length)
    end_slack = 1e-13 * max(1.0, path.length)
    snap = 1e-12 * max(1.0, path.length)
    s_cur = 0.0
    f0 = None
    # |value| and |slope|, carried over from the step that made them
    ay0 = abs(y0)
    ay1 = abs(y1)

    for target in events:
        if halt_kind:
            break
        seg = path.segment_of((s_cur + target) / 2.0)
        base_t = path.waypoints[seg]
        base_s = path.cums[seg]
        d = path.direction(seg)
        # the step's direction; the times of points keep the complex d
        d_step = d.real if real else d
        while s_cur < target - end_slack:
            if accepted + rejected >= max_steps:
                halt_kind = "budget"
                break
            h_try = target - s_cur
            if not h_try < h:
                h_try = h
            try:
                if f0 is None:
                    f0 = accel(y0)
                    rhs_evals += 1
                hc = h_try * d_step
                hv = hc * y1
                h2 = hc * hc
                # the last stage sits at the new state: the next first
                # stage.  EpWidthOde.accel(u) is nw2 * u + u ** -3
                if inline:
                    f1 = nw2 * (u := y0 + c1 * hv) + u ** -3
                    f2 = nw2 * (u := y0 + c2 * hv + h2 * (g20 * f0)) + u ** -3
                    f3 = nw2 * (u := y0 + c3 * hv + h2 * (
                        g30 * f0 + g31 * f1)) + u ** -3
                    f4 = nw2 * (u := y0 + c4 * hv + h2 * (
                        g40 * f0 + g41 * f1 + g42 * f2)) + u ** -3
                    f5 = nw2 * (u := y0 + hv + h2 * (
                        g50 * f0 + g51 * f1 + g52 * f2 + g53 * f3)) + u ** -3
                    z0 = y0 + hv + h2 * (ba0 * f0 + ba2 * f2 + ba3 * f3
                                         + ba4 * f4)
                    f6 = nw2 * z0 + z0 ** -3
                else:
                    f1 = accel(y0 + c1 * hv)
                    f2 = accel(y0 + c2 * hv + h2 * (g20 * f0))
                    f3 = accel(y0 + c3 * hv + h2 * (g30 * f0 + g31 * f1))
                    f4 = accel(y0 + c4 * hv + h2 * (g40 * f0 + g41 * f1
                                                    + g42 * f2))
                    f5 = accel(y0 + hv + h2 * (g50 * f0 + g51 * f1
                                               + g52 * f2 + g53 * f3))
                    z0 = y0 + hv + h2 * (ba0 * f0 + ba2 * f2 + ba3 * f3
                                         + ba4 * f4)
                    f6 = accel(z0)
                z1 = y1 + hc * (b0 * f0 + b2 * f2 + b3 * f3 + b4 * f4
                                + b5 * f5)
                rhs_evals += 6
                az0 = abs(z0)
                az1 = abs(z1)
                scale = 1.0
                if ay0 > scale:
                    scale = ay0
                if az0 > scale:
                    scale = az0
                err = abs(h2 * (ea0 * f0 + ea2 * f2 + ea3 * f3 + ea4 * f4
                                + ea5 * f5)) / scale
                scale = 1.0
                if ay1 > scale:
                    scale = ay1
                if az1 > scale:
                    scale = az1
                m = abs(hc * (e0 * f0 + e2 * f2 + e3 * f3 + e4 * f4
                              + e5 * f5 + e6 * f6)) / scale
                if m > err:
                    err = m
                if not (err < inf and m < inf and az0 < inf and az1 < inf):
                    # a new state or an estimate that is not finite (inf -
                    # inf in a stage makes a NaN) fails like an overflow
                    err = inf
                    stall = "overflow"
            except (ZeroDivisionError, OverflowError):
                err = inf
                stall = "underflow"

            if err <= tol:
                s_cur += h_try
                if abs(s_cur - target) <= snap:
                    s_cur = target
                y0, y1 = z0, z1
                ay0, ay1 = az0, az1
                f0 = f6
                accepted += 1
                if not record_samples_only or s_cur == target:
                    t = base_t + d * (s_cur - base_s)
                    append((t, y0, y1))
                if err == 0.0:
                    factor = 5.0
                else:
                    # min(5.0, max(0.2, f))
                    factor = 0.9 * (tol / err) ** 0.2
                    if not factor > 0.2:
                        factor = 0.2
                    if not factor < 5.0:
                        factor = 5.0
                h = h_try * factor
                if halt_radius and ay0 < halt_radius:
                    halt_kind = "manifold"
                    halt_reason = (
                        "approaching the singular manifold: |value| < "
                        f"{halt_radius:.3e}"
                    )
                    break
            else:
                rejected += 1
                if err == inf:
                    h = h_try / 2.0
                else:
                    stall = "underflow"
                    # min(1.0, max(0.1, f))
                    factor = 0.9 * (tol / err) ** 0.2
                    if not factor > 0.1:
                        factor = 0.1
                    if not factor < 1.0:
                        factor = 1.0
                    h = h_try * factor
                if h < h_min:
                    # named after the failure that shrank the step last
                    halt_kind = stall
                    break
    if halt_reason is None and halt_kind:
        halt_reason = _HALT_REASONS[halt_kind]
    return ComplexTrajectory(
        samples, ode.singular_near_zero, halt_reason, halt_kind,
        {"accepted": accepted, "rejected": rejected, "rhs_evals": rhs_evals},
    )


class SingularityProbe(Record):
    # kind: "zero-of-alpha" | "none"
    __slots__ = ("t_star", "kind", "fit_residual")

    def __init__(self, t_star: complex, kind: str, fit_residual: float = None):
        super().__init__(t_star, kind, fit_residual)


class ExponentFit(Record):
    __slots__ = ("value", "half_width", "r_squared", "n_samples", "window")


def _fsum_complex(terms):
    """Correctly rounded sum of complex terms, real and imaginary parts
    apart (``math.fsum``)."""
    terms = list(terms)
    return complex(math.fsum(z.real for z in terms),
                   math.fsum(z.imag for z in terms))


def _quadratic_roots(a, b, c):
    """Roots of a u**2 + b u + c, without cancellation.

    q = -(b + sign * sqrt(b**2 - 4ac)) / 2 takes the sign that makes |q|
    largest, and the roots are q / a and c / q (Press et al., Numerical
    Recipes, section 5.6).  With a = 0 the root is linear, and with a and b
    both 0 there is none: an all-zero fit has no root.
    """
    if a == 0:
        return [-c / b] if b != 0 else []
    root = cmath.sqrt(b * b - 4.0 * a * c)
    plus, minus = b + root, b - root
    q = -0.5 * (plus if abs(plus) >= abs(minus) else minus)
    # q = 0 only where b = 0 and the discriminant is 0: a double root at 0
    return [q / a, c / q] if q != 0 else [0j]


def _quadratic_fit(s_vals, values):
    """Least-squares quadratic through the points (s, value).

    The abscissae are centred and scaled, u = (s - mid) / half, and the fit
    is expanded in the polynomials orthogonal on them (Forsythe's
    three-term recurrence): q0 = 1, q1 = u - mean(u), q2 = (u - alpha) q1 -
    beta, with alpha = sum(u q1**2) / sum(q1**2) and beta = sum(q1**2) / n.
    Each coefficient is then a projection, value . q_k / q_k . q_k, with no
    normal equations to solve.  Returns the fitted values and the roots of
    the fit in s.  A constant window is its own fit and has no root.
    """
    first = values[0]
    if all(v == first for v in values):
        return list(values), []
    n = len(s_vals)
    mid = (s_vals[0] + s_vals[-1]) / 2.0
    half = (s_vals[-1] - s_vals[0]) / 2.0
    us = [(s - mid) / half for s in s_vals]
    u_mean = math.fsum(us) / n
    q1 = [u - u_mean for u in us]
    norm1 = math.fsum(p * p for p in q1)
    alpha = math.fsum(u * p * p for u, p in zip(us, q1)) / norm1
    beta = norm1 / n
    q2 = [(u - alpha) * p - beta for u, p in zip(us, q1)]
    norm2 = math.fsum(p * p for p in q2)
    c0 = _fsum_complex(values) / n
    c1 = _fsum_complex(v * p for v, p in zip(values, q1)) / norm1
    c2 = _fsum_complex(v * p for v, p in zip(values, q2)) / norm2
    fitted = [c0 + c1 * p1 + c2 * p2 for p1, p2 in zip(q1, q2)]
    # c0 + c1 q1 + c2 q2 = a u**2 + b u + c
    a = c2
    b = c1 - c2 * (alpha + u_mean)
    c = c0 - c1 * u_mean + c2 * (alpha * u_mean - beta)
    return fitted, [mid + half * r for r in _quadratic_roots(a, b, c)]


def detect_singularity(traj: ComplexTrajectory) -> SingularityProbe:
    """Extrapolate the zero of value**2 from the trajectory tail.

    The square of the solution is analytic through a square-root branch
    point, so a local quadratic fit of value**2 against arc length locates
    the singular time cleanly.  The fit window grows backwards from the end
    until the magnitude has dropped by a factor of two, so the approach is
    genuinely resolved.  The fit is a least-squares quadratic in an
    orthogonal basis, summed with ``math.fsum`` (``_quadratic_fit``); a
    relative residual above 1e-3 or a fit without a root reads kind 'none',
    and so does a window whose squares are not finite.  Linear equations
    have no singular manifold, so their trajectories always report kind
    'none'.
    """
    if not traj.singular_near_zero:
        return SingularityProbe(t_star=None, kind="none")
    pts = traj.samples
    if len(pts) < 6:
        return SingularityProbe(t_star=None, kind="none")
    _, end_value, _ = pts[-1]
    end_mag = abs(end_value)
    start = len(pts) - 1
    while start > 0:
        _, value, _ = pts[start - 1]
        if abs(value) >= 2.0 * end_mag and len(pts) - start >= 5:
            start -= 1
            break
        start -= 1
    w = pts[start:]
    if len(w) < 6:
        return SingularityProbe(t_star=None, kind="none")
    if len(w) > _FIT_MAX_POINTS:
        stride = (len(w) - 1) / (_FIT_MAX_POINTS - 1)
        w = [w[round(i * stride)] for i in range(_FIT_MAX_POINTS - 1)] + [w[-1]]
    ts = [t for t, _, _ in w]
    ys = [value for _, value, _ in w]
    mags = [abs(y) for y in ys]
    # a halt counts only where the magnitude fell by the window's factor of
    # two: an underflow can also come from a state too large for ``abs``,
    # which is no approach to a zero
    halted_singular = (
        traj.halt_kind in ("manifold", "underflow")
        and mags[0] >= 2.0 * mags[-1]
    )
    decreasing = all(
        mags[i + 1] <= mags[i] * (1 + 1e-9) for i in range(len(mags) - 1)
    ) and mags[-1] < 0.7 * mags[0]
    if not (halted_singular or decreasing):
        return SingularityProbe(t_star=None, kind="none")

    s_vals = [0.0]
    for a, b in zip(ts, ts[1:]):
        s_vals.append(s_vals[-1] + abs(b - a))
    # y * y, not y ** 2: the power raises OverflowError where the product
    # overflows to inf, and squares that are not finite have no fit
    values = [y * y for y in ys]
    if not all(map(cmath.isfinite, values)):
        return SingularityProbe(t_star=None, kind="none")
    # the power of two that brings every part within 1 keeps the sums of
    # the fit in range and changes no bit of the roots or of the residual
    peak = max(max(abs(v.real), abs(v.imag)) for v in values)
    unit = math.ldexp(1.0, -math.frexp(peak)[1])
    values = [v * unit for v in values]
    fitted, roots = _quadratic_fit(s_vals, values)
    scale = max(1e-300, max(map(abs, values)))
    fit_residual = max(abs(f - v) for f, v in zip(fitted, values)) / scale
    if fit_residual > 1e-3:
        return SingularityProbe(t_star=None, kind="none", fit_residual=fit_residual)
    if not roots:
        return SingularityProbe(t_star=None, kind="none", fit_residual=fit_residual)
    s_end = s_vals[-1]
    root = min(roots, key=lambda z: abs(z - s_end))
    direction = (ts[-1] - ts[-2]) / abs(ts[-1] - ts[-2])
    t_star = ts[-1] + direction * (root - s_end)
    return SingularityProbe(
        t_star=complex(t_star),
        kind="zero-of-alpha",
        fit_residual=fit_residual,
    )


def fit_local_exponent(traj: ComplexTrajectory, t_star: complex) -> ExponentFit:
    """Least-squares slope of log|value| against log|t - t_star|.

    Logarithms come from ``math.log`` and every sum from ``math.fsum``.
    The window spans a decade of distances starting at the closest
    sample; a fit with R^2 at or below 0.99 raises
    :class:`ExponentUnresolvedError`.
    """
    t_star = complex(t_star)
    samples = traj.samples
    # a sample at t* (distance 0) or with a value whose modulus is not > 0
    # takes no part; the moduli are taken only where the window reaches
    rs = [abs(t - t_star) for t, _, _ in samples]
    r_lo, r_max = min(rs, default=0.0), max(rs, default=0.0)
    if not (r_lo > 0 and abs(samples[rs.index(r_lo)][1]) > 0
            and abs(samples[rs.index(r_max)][1]) > 0):
        usable = [r for r, (_, value, _) in zip(rs, samples)
                  if r > 0 and abs(value) > 0]
        if not usable:
            raise ValueError("trajectory has no usable samples")
        r_lo, r_max = min(usable), max(usable)

    def window(r_hi):
        return [(r, m) for r, (_, value, _) in zip(rs, samples)
                if r_lo <= r <= r_hi and (m := abs(value)) > 0]

    r_hi = min(r_max, 10.0 * r_lo)
    selected = window(r_hi)
    while len(selected) < 8 and r_hi < r_max:
        r_hi = min(r_max, r_hi * 2.0)
        selected = window(r_hi)
    if len(selected) < 8:
        raise ValueError(
            f"need at least 8 samples inside the fit annulus, got {len(selected)}"
        )
    x = [math.log(r) for r, _ in selected]
    yv = [math.log(m) for _, m in selected]
    n = len(x)
    x_mean = math.fsum(x) / n
    y_mean = math.fsum(yv) / n
    dx = [a - x_mean for a in x]
    dy = [b - y_mean for b in yv]
    sxx = math.fsum(d * d for d in dx)
    if sxx == 0.0:
        raise ValueError("degenerate fit window: all radii equal")
    slope = math.fsum(a * b for a, b in zip(dx, dy)) / sxx
    intercept = y_mean - slope * x_mean
    ss_res = math.fsum(
        (b - (slope * a + intercept)) ** 2 for a, b in zip(x, yv)
    )
    ss_tot = math.fsum(d * d for d in dy)
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if r_squared <= 0.99:
        raise ExponentUnresolvedError(
            f"exponent unresolved: fit R^2 = {r_squared:.4f}", r_squared=r_squared
        )
    stderr = math.sqrt(ss_res / max(1, n - 2) / sxx)
    return ExponentFit(
        value=slope,
        half_width=2.0 * stderr,
        r_squared=r_squared,
        n_samples=n,
        window=(r_lo, r_hi),
    )


def invariant_drift(eta_traj: ComplexTrajectory, alpha_traj: ComplexTrajectory):
    """Largest deviation of the coupled-oscillator invariant along two
    trajectories sharing a sample grid."""
    if len(eta_traj.samples) != len(alpha_traj.samples):
        raise ValueError("mismatched grids: different sample counts")
    values = []
    for (te, eta, deta), (ta, alpha, dalpha) in zip(eta_traj.samples,
                                                    alpha_traj.samples):
        if abs(te - ta) > 1e-9 * (1.0 + abs(te)):
            raise ValueError(f"mismatched grids at t = {te} vs {ta}")
        values.append(ermakov_invariant(eta, deta, alpha, dalpha))
    base = values[0]
    return max(abs(v - base) for v in values)
