"""Command-line front end.

Subcommands cover the full pipeline: ``analyze`` (balance + series +
closed-form + claims), ``series``, ``closed-form``, ``integrate``,
``probe``, ``verify-exact`` and ``report`` (everything, including the
exact-solution lab and numeric probes).  Output is deterministic JSON by
default; ``--format text`` gives a summary, and ``integrate`` also offers
CSV.  Exit codes: 0 success, 2 input error, 3 internal inconsistency.
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction
from pathlib import Path

from . import report as rpt
from .errors import (
    DegenerateFamilyError,
    InternalInconsistencyError,
    MerosolveError,
)
from .numeric import ComplexPath, EpWidthOde, LinearOscillatorOde, integrate
from .scalars import parse_complex_literal


def _at_least(low):
    """An argparse ``type``: an integer of at least ``low``, so a bad value
    is reported against its flag and not by the layer that reads it."""
    def convert(text):
        import argparse

        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return convert


def _add_ode_options(p):
    p.add_argument("--ode", default=None,
                   help="ODE text, or @file to read it from a file "
                        f"(default: {rpt.DEFAULT_ODE_TEXT!r})")
    p.add_argument("--param", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="bind a parameter (repeatable); integer/fraction "
                        "values stay exact")
    p.add_argument("--order", type=_at_least(0), default=12, metavar="K",
                   help="series truncation order (default 12)")
    p.add_argument("--branch-max", type=_at_least(1), default=None,
                   metavar="N",
                   help="largest branch order searched (default: no cap)")
    p.add_argument("--free", action="append", default=[], metavar="R=VALUE",
                   help="free-parameter value injected at resonance R "
                        "(repeatable)")


def _add_output_options(p, formats=("json", "text")):
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--out", default=None, help="output file (default stdout)")


@functools.cache
def _build_parser():
    """The command table: each subparser carries its handler as ``run``.
    Built on the first :func:`main` call and reused by every later one, so
    only a process that parses arguments loads argparse."""
    import argparse

    class _SubcommandParser(argparse.ArgumentParser):
        """A subcommand's parser reports the arguments it does not know
        itself, with its own usage line, instead of leaving them to the top
        level."""

        def parse_known_args(self, args=None, namespace=None):
            namespace, extras = super().parse_known_args(args, namespace)
            if extras:
                self.error(f"unrecognized arguments: {' '.join(extras)}")
            return namespace, extras

    parser = argparse.ArgumentParser(
        prog="merosolve",
        description="Movable-singularity analysis and exact-solution "
                    "verification for autonomous nonlinear ODEs.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_SubcommandParser)

    for name, doc in (
        ("analyze", "balance families, series, candidates and claims"),
        ("series", "local series per family"),
        ("closed-form", "closed-form candidates and the period formula"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_ode_options(p)
        _add_output_options(p)
        p.set_defaults(run=_cmd_analysis)

    p = sub.add_parser("integrate", help="integrate along a complex path")
    p.add_argument("--system", choices=("ep", "linear"), default="ep")
    p.add_argument("--omega", default="1")
    p.add_argument("--ic", default="1,0", metavar="VALUE,SLOPE")
    p.add_argument("--path", default="0:10", metavar="A:B[:C...]")
    p.add_argument("--tol", type=float, default=1e-10)
    _add_output_options(p, formats=("json", "csv", "text"))
    p.set_defaults(run=_cmd_integrate)

    p = sub.add_parser("probe", help="locate a singular time and fit the "
                                     "local exponent")
    p.add_argument("--omega", default="1")
    p.add_argument("--ic", default="0.5,0", metavar="VALUE,SLOPE")
    p.add_argument("--path", default="0:0.999i", metavar="A:B[:C...]")
    p.add_argument("--tol", type=float, default=1e-10)
    _add_output_options(p)
    p.set_defaults(run=_cmd_probe)

    p = sub.add_parser("verify-exact", help="closed-form laboratory checks")
    p.add_argument("--case",
                   choices=("pinney", "from-ic", "invariant", "third-order",
                            "riccati", "all"),
                   default="all")
    p.add_argument("--A", default="2")
    p.add_argument("--B", default="1")
    p.add_argument("--C", default="1")
    p.add_argument("--omega", default="1")
    p.add_argument("--tol", type=float, default=1e-10)
    _add_output_options(p)
    p.set_defaults(run=_cmd_verify_exact)

    p = sub.add_parser("report", help="full pipeline report")
    _add_ode_options(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--ic", default="1,0", metavar="VALUE,SLOPE",
                   help="initial data for the numeric probes")
    _add_output_options(p)
    p.set_defaults(run=_cmd_report)
    return parser


def _refused(flag, given, exc):
    """The input error for a value that ``flag`` refuses: it names the flag
    and ``given``, the argument as given.  An overflow is not refused here
    and keeps its own message."""
    reason = "division by zero" if isinstance(exc, ZeroDivisionError) else exc
    return ValueError(f"{flag} {given!r}: {reason}")


def _literal(flag, text):
    """The complex literal ``text`` given to ``flag``."""
    try:
        return parse_complex_literal(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _refused(flag, text, exc) from None


def _parse_pairs(pairs, flag, form, key):
    """``{key(NAME): value}`` from repeated ``flag NAME=VALUE``; ``form``
    names that shape in the error text for a pair without '='."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"{flag} needs {form}, got {pair!r}")
        name, _, value = pair.partition("=")
        try:
            out[key(name.strip())] = parse_complex_literal(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise _refused(flag, pair, exc) from None
    return out


def _parse_ic(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--ic needs VALUE,SLOPE, got {text!r}")
    return tuple(complex(_literal("--ic", part)) for part in parts)


def _parse_path(text):
    parts = [p for p in text.split(":") if p.strip()]
    if len(parts) < 2:
        raise ValueError(f"--path needs at least two waypoints, got {text!r}")
    return ComplexPath([complex(_literal("--path", p)) for p in parts])


def _emit(args, text):
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _render(payload, fmt):
    if fmt == "json":
        return rpt.to_json(payload) + "\n"
    return render_text(payload) + "\n"


def render_text(payload) -> str:
    """Plain-text summary of any payload section."""
    lines = []

    def walk(obj, key, depth):
        prefix = "  " * depth
        if isinstance(obj, dict):
            if key is not None:
                lines.append(f"{prefix}{key}:")
            for k, v in obj.items():
                walk(v, k, depth + (0 if key is None else 1))
        elif isinstance(obj, list):
            if not obj:
                lines.append(f"{prefix}{key}: []")
                return
            lines.append(f"{prefix}{key}:")
            for item in obj:
                if isinstance(item, (dict, list)):
                    walk(item, "-", depth + 1)
                else:
                    lines.append(f"{prefix}  - {item}")
        else:
            lines.append(f"{prefix}{key}: {obj}")

    walk(payload, None, 0)
    return "\n".join(lines)


def _analysis(args):
    """The :class:`~merosolve.report.Analysis` of the ODE options."""
    ode_text = args.ode
    env = _parse_pairs(args.param, "--param", "NAME=VALUE", str)
    if ode_text is None:
        ode_text = rpt.DEFAULT_ODE_TEXT
        env.setdefault("omega", parse_complex_literal("1"))
    elif ode_text.startswith("@"):
        ode_text = Path(ode_text[1:]).read_text(encoding="utf-8").strip()
    return rpt.Analysis(
        ode_text, env, K=args.order, n_max=args.branch_max,
        free=_parse_pairs(args.free, "--free", "R=VALUE", Fraction),
    )


def _cmd_analysis(args):
    return rpt.analysis_payload(_analysis(args), args.command)


# one template for every sample row; "%.17g" prints what format(v, ".17g")
# prints, signed zeros, subnormals, inf and nan included
_CSV_ROW = ",".join(["%.17g"] * 6)


def _cmd_integrate(args):
    omega = complex(_literal("--omega", args.omega))
    ode = EpWidthOde(omega) if args.system == "ep" else LinearOscillatorOde(omega)
    traj = integrate(ode, _parse_ic(args.ic), _parse_path(args.path),
                     tol=args.tol)
    rows = traj.to_rows()
    if args.format == "csv":
        lines = ["re_t,im_t,re_value,im_value,re_slope,im_slope"]
        lines += [_CSV_ROW % row for row in rows]
        return "\n".join(lines) + "\n"
    payload = {
        "schema_version": rpt.SCHEMA_VERSION,
        "command": "integrate",
        "system": ode.name,
        "omega": rpt.complex_json(omega),
        "tol": args.tol,
        "halted": traj.halted,
        "halt_reason": traj.halt_reason,
        "stats": traj.stats,
        "samples": rows,
    }
    return payload


def _cmd_probe(args):
    omega = complex(_literal("--omega", args.omega))
    payload = rpt.probe_payload(
        omega, _parse_ic(args.ic), _parse_path(args.path), tol=args.tol,
    )
    return {
        "schema_version": rpt.SCHEMA_VERSION,
        "command": "probe",
        "omega": rpt.complex_json(omega),
        **payload,
    }


def _cmd_verify_exact(args):
    results = rpt.exactlab_results(
        omega=complex(_literal("--omega", args.omega)),
        params=(
            complex(_literal("--A", args.A)),
            complex(_literal("--B", args.B)),
            complex(_literal("--C", args.C)),
        ),
        tol=args.tol,
    )
    claims = rpt.exactlab_claims(results)
    case_map = {
        "pinney": ("pinney",),
        "from-ic": ("width_from_ics",),
        "invariant": ("invariant",),
        "third-order": ("third_order",),
        "riccati": ("riccati",),
    }
    if args.case != "all":
        keys = ("omega",) + case_map[args.case]
        results = {k: results[k] for k in keys}
    return {
        "schema_version": rpt.SCHEMA_VERSION,
        "command": "verify-exact",
        "case": args.case,
        "results": results,
        "claims": claims,
    }


def _cmd_report(args):
    return rpt.report_payload(_analysis(args), tol=args.tol,
                              ic=_parse_ic(args.ic))


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # a handler returns a payload for --format, or finished text (csv)
        out = args.run(args)
        _emit(args, out if isinstance(out, str) else _render(out, args.format))
        return 0
    except (InternalInconsistencyError, DegenerateFamilyError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"error: {args.command}: input overflows floating point ({exc})",
              file=sys.stderr)
        return 2
    except (MerosolveError, ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
