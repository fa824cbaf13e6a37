"""Span recorder and counters for the traced benchmark run.

The tracer wraps, from outside, the public functions of each merosolve layer
module and rebinds every module-level name that refers to them, so calls
made through ``from .series import substitute`` are seen as well as calls
through the defining module's own globals.  Nothing under ``src/`` changes,
and ``uninstall`` puts every original back.

A span is ``[name, layer, start, end, parent, op]``; the benchmark opens one
``bench.op`` span per operation, so every layer span of an operation hangs
below it.  A recursive call (``report.to_json``) records one span, for the
outermost call.  ``QComplex`` and ``PuiseuxSeries`` arithmetic is counted
only, never spanned: it runs far too often.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# Layers that get spans; ``scalars`` is counted through QComplex instead.
SPANNED_LAYERS = ("odemodel", "balance", "series", "closedform", "exactlab",
                  "numeric", "report", "cli")
OP_SPAN = "bench.op"

NAME, LAYER, START, END, PARENT, OP = range(6)

HALT_KINDS = (("budget", "step budget"), ("underflow", "underflow"),
              ("manifold", "singular manifold"))


def _coeff_bits(series) -> int:
    bits = 0
    for c in series.coeffs.values():
        for part in (getattr(c, "re", None), getattr(c, "im", None)):
            if part is not None:
                bits = max(bits, part.numerator.bit_length(),
                           part.denominator.bit_length())
    return bits


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_counts = {}     # op id -> Counter of that operation's counts
        self._counts = Counter()
        self._stack = []
        self._restore = []
        self._observers = {
            "balance.find_balances": self._on_find_balances,
            "series.solve_local_series": self._on_solve,
            "closedform.build_periodic": self._on_build,
            "closedform.build_rational": self._on_build,
            "numeric.integrate": self._on_integrate,
            "report.to_json": self._on_to_json,
        }

    # -- installation -----------------------------------------------------

    def install(self):
        wrappers = {}
        for layer in SPANNED_LAYERS:
            mod = importlib.import_module(f"merosolve.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._span_wrapper(layer, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "merosolve" and not modname.startswith("merosolve."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._rebind(mod, attr, wrappers[value])

        from merosolve.scalars import QComplex
        from merosolve.series import PuiseuxSeries
        for attr in ("__mul__", "__rmul__"):
            self._count_method(QComplex, attr, "scalars.mul")
            self._count_method(PuiseuxSeries, attr, "series.mul")
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__"):
            self._count_method(QComplex, attr, "scalars.add")
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count_method(self, cls, attr, key):
        original = cls.__dict__[attr]

        def counted(a, b):
            self._counts[key] += 1
            return original(a, b)

        self._rebind(cls, attr, counted)

    def _span_wrapper(self, layer, fn):
        name = f"{layer}.{fn.__name__}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = self._observers.get(name)

        def wrapper(*args, **kwargs):
            if not stack or spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            span = [name, layer, clock(), None, stack[-1], spans[stack[-1]][OP]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # -- operations -------------------------------------------------------

    def begin_op(self, op_id: int):
        self._counts = self.op_counts[op_id] = Counter()
        self._stack.append(len(self.spans))
        self.spans.append([OP_SPAN, "bench", time.perf_counter(), None, None, op_id])

    def end_op(self):
        self.spans[self._stack.pop()][END] = time.perf_counter()

    # -- observers (run after the wrapped call returns) -------------------

    def _on_find_balances(self, args, families):
        self._counts["balance.consistent_families"] += sum(f.consistent for f in families)

    def _on_solve(self, args, local):
        if args[0].is_exact and not local.series.is_exact:
            self._counts["series.float_solves_on_exact_input"] += 1
        bits = self._counts["series.max_coeff_bits"]
        self._counts["series.max_coeff_bits"] = max(bits, _coeff_bits(local.series))

    def _on_build(self, args, cand):
        self._counts["closedform.built"] += 1
        self._counts["closedform.verified"] += bool(cand.verified)

    def _on_integrate(self, args, traj):
        for key in ("accepted", "rejected", "rhs_evals"):
            self._counts[f"numeric.{key}"] += traj.stats.get(key, 0)
        reason = traj.halt_reason or ""
        for kind, marker in HALT_KINDS:
            if marker in reason:
                self._counts[f"numeric.halts_{kind}"] += 1

    def _on_to_json(self, args, text):
        self._counts["report.json_bytes"] += len(text)

    # -- output -----------------------------------------------------------

    def write_spans(self, path, t0: float):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START] - t0,
                    "end": s[END] - t0, "parent": s[PARENT], "op": s[OP],
                }) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: dict, untraced_p50: float,
                  traced_p50: float) -> tuple:
    """Per-layer metrics over the traced operations in ``ops``, which maps
    each operation id to the factor that rescales its times to reference
    speed.

    Times and counts are per operation; ``*_frac`` and ``*_per_*`` are
    ratios of totals, and ``series.max_coeff_bits`` is a maximum.  Returns
    ``(metrics, layer_self_s)``.
    """
    spans = tracer.spans
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    self_by_name = defaultdict(float)
    calls_by_name = Counter()
    dur_by_name = defaultdict(float)
    self_by_layer = defaultdict(float)
    calls_by_layer = Counter()
    coverage = []
    for i, s in enumerate(spans):
        if s[OP] not in ops:
            continue
        scale = ops[s[OP]]
        dur = (s[END] - s[START]) * scale
        own = dur - child_time[i] * scale
        if s[NAME] == OP_SPAN:
            coverage.append(_ratio(child_time[i] * scale, dur))
            continue
        self_by_name[s[NAME]] += own
        dur_by_name[s[NAME]] += dur
        calls_by_name[s[NAME]] += 1
        self_by_layer[s[LAYER]] += own
        calls_by_layer[s[LAYER]] += 1
    n = max(1, len(ops))
    c = Counter()
    for op in ops:
        c.update(tracer.op_counts.get(op, {}))
    max_bits = max((tracer.op_counts.get(op, {}).get("series.max_coeff_bits", 0)
                    for op in ops), default=0)

    def per_op(x):
        return x / n

    accepted, rejected = c["numeric.accepted"], c["numeric.rejected"]
    m = {
        "odemodel.parse_s": per_op(self_by_name["odemodel.parse_ode"]),
        "odemodel.normalize_s": per_op(self_by_name["odemodel.normalize"]),
        "odemodel.calls": per_op(calls_by_layer["odemodel"]),
        "balance.find_balances_s": per_op(self_by_name["balance.find_balances"]),
        "balance.compute_resonances_s": per_op(self_by_name["balance.compute_resonances"]),
        "balance.linear_response_s": per_op(self_by_name["balance.linear_response"]),
        "balance.linear_response_calls": per_op(calls_by_name["balance.linear_response"]),
        "series.solve_s": per_op(self_by_name["series.solve_local_series"]),
        "series.solve_calls": per_op(calls_by_name["series.solve_local_series"]),
        "series.substitute_s": per_op(self_by_name["series.substitute"]),
        "series.substitute_calls": per_op(calls_by_name["series.substitute"]),
        "series.mul_calls": per_op(c["series.mul"]),
        "series.cot_laurent_s": per_op(self_by_name["series.cot_laurent"]),
        "series.max_coeff_bits": float(max_bits),
        "series.solves_per_family": _ratio(calls_by_name["series.solve_local_series"],
                                           c["balance.consistent_families"]),
        "series.float_solves_on_exact_input": per_op(c["series.float_solves_on_exact_input"]),
        "scalars.mul_calls": per_op(c["scalars.mul"]),
        "scalars.add_calls": per_op(c["scalars.add"]),
        "closedform.build_s": per_op(self_by_name["closedform.build_periodic"]
                                     + self_by_name["closedform.build_rational"]),
        "closedform.verify_s": per_op(self_by_name["closedform.verify_candidate"]),
        "closedform.calls": per_op(calls_by_layer["closedform"]),
        "closedform.verified_frac": _ratio(c["closedform.verified"], c["closedform.built"]),
        "exactlab.s": per_op(self_by_layer["exactlab"]),
        "exactlab.calls": per_op(calls_by_layer["exactlab"]),
        "numeric.integrate_s": per_op(self_by_name["numeric.integrate"]),
        "numeric.accepted_steps": per_op(accepted),
        "numeric.rejected_steps": per_op(rejected),
        "numeric.rhs_evals": per_op(c["numeric.rhs_evals"]),
        "numeric.steps_per_s": _ratio(accepted, dur_by_name["numeric.integrate"]),
        "numeric.accept_frac": _ratio(accepted, accepted + rejected),
        "numeric.detect_s": per_op(self_by_name["numeric.detect_singularity"]),
        "numeric.fit_s": per_op(self_by_name["numeric.fit_local_exponent"]),
        "numeric.halts_budget": per_op(c["numeric.halts_budget"]),
        "numeric.halts_underflow": per_op(c["numeric.halts_underflow"]),
        "numeric.halts_manifold": per_op(c["numeric.halts_manifold"]),
        "report.self_s": per_op(self_by_layer["report"] - self_by_name["report.to_json"]),
        "report.to_json_s": per_op(self_by_name["report.to_json"]),
        "report.json_bytes": per_op(c["report.json_bytes"]),
        "cli.self_s": per_op(self_by_layer["cli"]),
        "trace.overhead_frac": _ratio(traced_p50, untraced_p50) - 1.0,
        "trace.coverage": statistics.median(coverage) if coverage else 0.0,
    }
    # exactlab, report and cli already have a layer self-time metric above
    for layer in ("odemodel", "balance", "series", "closedform", "numeric"):
        m[f"{layer}.self_s"] = per_op(self_by_layer[layer])
    layer_self = {layer: per_op(self_by_layer[layer]) for layer in SPANNED_LAYERS}
    return m, layer_self
