"""Seeded inputs, operations and output checks for the merosolve benchmark.

A workload turns a seed into a fixed list of inputs.  The benchmark cycles
through that list, so every input repeats and its output bytes can be
compared across repeats.  ``run`` is the timed operation and returns the
deterministic JSON body; ``check`` inspects that body and returns a list of
``Problem`` records, empty when the output is right.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from merosolve import cli, report
from merosolve.scalars import parse_complex_literal

WIDTH_ODE = "y'' + omega^2*y - y^-3"


@dataclass(frozen=True)
class Input:
    key: str    # identifies the input; repeats of one key must give identical bytes
    kind: str   # selects the output check
    args: tuple


@dataclass(frozen=True)
class Problem:
    message: str
    # True when the mismatch is a defect recorded in ROADMAP.md; such an
    # operation is counted apart from the failed ones and does not make the
    # run incorrect.
    known_defect: bool = False


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _consistent(payload) -> list:
    return [f for f in payload["balance"]["families"] if f["consistent"]]


def _family_ps(payload) -> set:
    """The exponents p of consistent families, from whichever section the
    command printed."""
    if "balance" in payload:
        return {f["p"] for f in _consistent(payload)}
    if "series" in payload:
        return {s["p"] for s in payload["series"]["solutions"]}
    return {e["p"] for e in payload["closed_form"]["elliptic_admissibility"]}


def _check_family(payload, p: Fraction, resonances) -> list:
    """One consistent family with exponent p; with a balance section, its
    resonances must be exactly ``resonances``."""
    want = _frac_str(p)
    if want not in _family_ps(payload):
        return [Problem(f"no consistent family with p = {want}")]
    if "balance" not in payload:
        return []
    fam = next(f for f in _consistent(payload) if f["p"] == want)
    got = set(fam["resonances"])
    expected = {_frac_str(r) for r in resonances}
    if got == expected:
        return []
    missing = [r for r in resonances if _frac_str(r) not in got]
    # ROADMAP item 4: roots whose denominator does not divide 360 are
    # snapped away by the resonance rationalizer.
    known = bool(missing) and got < expected and all(
        360 % r.denominator for r in missing
    )
    return [Problem(f"p = {want}: resonances {sorted(got)} != {sorted(expected)}",
                    known_defect=known)]


def _check_claims(payload, expected: dict) -> list:
    statuses = {c["id"]: c["status"] for c in payload["claims"]}
    return [
        Problem(f"claim {cid}: {statuses.get(cid)!r} != {status!r}")
        for cid, status in expected.items()
        if statuses.get(cid) != status
    ]


# ---------------------------------------------------------------------------
# width-deep: one deep exact analysis of the width equation per operation
# ---------------------------------------------------------------------------

WIDTH_DEEP_ORDER = 48
WIDTH_DEEP_OMEGAS = ("1", "2", "3", "1/2", "1/3", "3/2", "2/3", "3/4", "4/3")


class WidthDeep:
    name = "width-deep"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.inputs = [
            Input(f"omega={w}", "width-deep", (w,))
            for w in rng.sample(WIDTH_DEEP_OMEGAS, 2)
        ]

    def run(self, inp: Input) -> str:
        env = {"omega": parse_complex_literal(inp.args[0])}
        payload = report.analyze_payload(WIDTH_ODE, env, K=WIDTH_DEEP_ORDER)
        return report.to_json(payload)

    def check(self, inp: Input, body: str) -> list:
        payload = json.loads(body)
        problems = []
        fams = _consistent(payload)
        if len(fams) != 1:
            return [Problem(f"{len(fams)} consistent families, expected 1")]
        fam = fams[0]
        if fam["p"] != "1/2" or fam["branch_order"] != 2:
            problems.append(Problem(
                f"family p = {fam['p']}, branch order {fam['branch_order']}"))
        roots = [complex(*a) for a in fam["leading_coefficients"]]
        if len(roots) != 4 or any(abs(a ** 4 + 4) > 1e-12 for a in roots):
            problems.append(Problem(f"leading coefficients {roots} do not "
                                    "satisfy a^4 = -4"))
        problems += _check_claims(payload, {
            "simple-pole-family": "refuted",
            "exact-cot-solution": "refuted",
        })
        return problems


# ---------------------------------------------------------------------------
# cli-mix: a session of in-process CLI commands, every symbolic layer shallow
# ---------------------------------------------------------------------------

CLI_EXACT_OMEGAS = ("1", "2", "1/2", "3/2")
CLI_FLOAT_OMEGAS = ("0.5", "0.75", "1.5", "2.5")
CLI_POWERS = range(2, 9)
CLI_INTEGRATE = ("integrate", "--ic", "2,0", "--path", "0:50", "--tol", "1e-10")


def _is_power(n: int, k: int) -> bool:
    root = round(n ** (1.0 / k))
    return any((root + d) ** k == n for d in (-1, 0, 1))


def _power_coefficient(m: int, rational_root: bool, rng) -> Fraction:
    """A rational c for y'' = c*y^m.  Its leading coefficient solves
    a^(m-1) = p(p-1)/c with p = -2/(m-1); ``rational_root`` says whether
    that a is rational."""
    p = Fraction(-2, m - 1)
    if rational_root:
        a = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        return p * (p - 1) / a ** (m - 1)
    while True:
        c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        x = p * (p - 1) / c
        if not (_is_power(x.numerator, m - 1) and _is_power(x.denominator, m - 1)):
            return c


def _pinney_width(t: float) -> float:
    """Exact width for omega = 1 and initial data (2, 0)."""
    return math.sqrt(4.0 * math.cos(t) ** 2 + 0.25 * math.sin(t) ** 2)


class CliMix:
    name = "cli-mix"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        analysis = ("analyze", "series", "closed-form")
        inputs = []

        def add(kind, argv, *extra):
            inputs.append(Input(" ".join(argv), kind, (tuple(argv), *extra)))

        w = rng.choice(CLI_EXACT_OMEGAS)
        add("width", [rng.choice(analysis), "--ode", WIDTH_ODE, "--param", f"omega={w}"])
        w = rng.choice(CLI_FLOAT_OMEGAS)
        add("width", [rng.choice(analysis), "--ode", WIDTH_ODE, "--param", f"omega={w}"])
        # the cot check reads the closed_form section, which `series` omits
        add("cot", [rng.choice(("analyze", "closed-form")), "--ode", "y' + 1 + y^2"])
        # Resonances are only printed by `analyze`.  Each m gets one c with a
        # rational leading coefficient (exact series) and one with an
        # irrational one (float series), so every session has the same
        # share of both paths; y'' = c*y^2 only has the first kind.
        for m in CLI_POWERS:
            for rational_root in (True, m == 2):
                c = _power_coefficient(m, rational_root, rng)
                branch_max = m - 1 + rng.randint(0, 1)
                add("power", ["analyze", "--ode", f"y'' - c*y^{m}", "--param",
                              f"c={_frac_str(c)}", "--branch-max", str(branch_max)], m)
        add("kdv", [rng.choice(analysis), "--ode", "y''' - 12*y*y'"])
        add("duffing", [rng.choice(analysis), "--ode", "y'' + y - y^3"])
        add("report", ["report"])
        add("verify-exact", ["verify-exact"])
        add("integrate", list(CLI_INTEGRATE))
        rng.shuffle(inputs)
        self.inputs = inputs

    def run(self, inp: Input) -> str:
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(inp.args[0]))
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def check(self, inp: Input, body: str) -> list:
        payload = json.loads(body)
        argv = inp.args[0]
        if payload.get("command") != argv[0]:
            return [Problem(f"command {payload.get('command')!r} != {argv[0]!r}")]
        kind = inp.kind
        if kind == "width":
            return _check_family(payload, Fraction(1, 2), (-1, 1))
        if kind == "power":
            m = inp.args[1]
            return _check_family(payload, Fraction(-2, m - 1),
                                 (Fraction(-1), Fraction(2 * (m + 1), m - 1)))
        if kind == "kdv":
            return _check_family(payload, Fraction(-2), (Fraction(-1), Fraction(4), Fraction(6)))
        if kind == "duffing":
            return _check_family(payload, Fraction(-1), (Fraction(-1), Fraction(4)))
        if kind == "cot":
            ok = any(
                c["kind"] == "simply-periodic" and c["verified"]
                and c["residual_norm"] == 0.0
                and abs(complex(*c["period"]) - math.pi) < 1e-12
                for c in payload["closed_form"]["candidates"]
            )
            return [] if ok else [Problem("no verified cot candidate with period pi "
                                          "and residual 0")]
        if kind == "report":
            return _check_claims(payload, {
                "simple-pole-family": "refuted",
                "exact-cot-solution": "refuted",
                "quadratic-form-superposition": "confirmed",
                "invariant-conservation": "confirmed",
            })
        if kind == "verify-exact":
            return _check_claims(payload, {
                "quadratic-form-superposition": "confirmed",
                "constraint-sign": "refuted",
                "invariant-conservation": "confirmed",
                "third-order-maximal-symmetry": "confirmed",
                "riccati-reduction": "confirmed",
            })
        if kind == "integrate":
            if payload["halted"]:
                return [Problem(f"integration halted: {payload['halt_reason']}")]
            t, _, re_a, im_a = payload["samples"][-1][:4]
            err = abs(complex(re_a, im_a) - _pinney_width(t))
            if t != 50 or err > 1e-6:
                return [Problem(f"endpoint t = {t}: |alpha - exact| = {err:.3e}")]
            return []
        raise ValueError(f"unknown input kind {kind!r}")


# ---------------------------------------------------------------------------
# probe-atlas: complex-time probes aimed at analytic zeros of the width
# ---------------------------------------------------------------------------

PROBE_COUNT = 8
PROBE_RANGES = ((0.8, 2.5), (-0.8, 0.8), (0.6, 1.6))  # alpha0, alpha0', omega
PROBE_TOL = 1e-10
T_STAR_TOL = 1e-8
EXPONENT_TOL = 1e-4


def analytic_t_star(a0: float, da0: float, omega: float) -> complex:
    """Zero of the Pinney quadratic form nearest t = 0.

    alpha^2 = a0^2 cos^2 wt + 2 B cos wt sin wt / w + C sin^2 wt / w^2 with
    B = a0 a0' and C = a0'^2 + a0^-2 vanishes where tan wt = w(-B +- i)/C.
    """
    b = a0 * da0
    c = da0 ** 2 + a0 ** -2
    zeros = []
    for sign in (1, -1):
        base = cmath.atan(omega * complex(-b, sign) / c) / omega
        zeros += [base + k * math.pi / omega for k in (-1, 0, 1)]
    return min(zeros, key=abs)


class ProbeAtlas:
    name = "probe-atlas"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        # Latin hypercube: each coordinate is spread over PROBE_COUNT strata,
        # so every seed covers the parameter box evenly.
        columns = []
        for lo, hi in PROBE_RANGES:
            strata = list(range(PROBE_COUNT))
            rng.shuffle(strata)
            width = (hi - lo) / PROBE_COUNT
            columns.append([round(lo + (s + rng.random()) * width, 6) for s in strata])
        self.inputs = []
        for a0, da0, omega in zip(*columns):
            t_star = analytic_t_star(a0, da0, omega)
            self.inputs.append(Input(f"ic=({a0},{da0}) omega={omega}", "probe",
                                     (a0, da0, omega, t_star)))

    def run(self, inp: Input) -> str:
        a0, da0, omega, t_star = inp.args
        payload = report.probe_payload(omega, (a0, da0), [0, t_star], tol=PROBE_TOL)
        return report.to_json(payload)

    def check(self, inp: Input, body: str) -> list:
        payload = json.loads(body)
        t_star = inp.args[3]
        if payload["kind"] != "zero-of-alpha" or payload["t_star"] is None:
            return [Problem(f"no singular approach detected: {payload['halt_reason']}")]
        problems = []
        err = abs(complex(*payload["t_star"]) - t_star)
        if err > T_STAR_TOL:
            problems.append(Problem(f"|t* - analytic| = {err:.3e}"))
        exponent = payload["exponent"] or {}
        value = exponent.get("value")
        if value is None or abs(value - 0.5) > EXPONENT_TOL:
            problems.append(Problem(f"fitted exponent {exponent}"))
        return problems


WORKLOADS = {w.name: w for w in (WidthDeep, CliMix, ProbeAtlas)}


def make(name: str, seed: int):
    return WORKLOADS[name](seed)
