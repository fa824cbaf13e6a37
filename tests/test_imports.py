"""What a merosolve process loads.  No run imports numpy: importing the
package, exact analyses, a complex-time probe with its singularity and
exponent fits (called and as a command), the default report, a
float-coefficient analysis (its balances and the whole command) and a closed
form whose scale polynomial has degree two all leave it out.  numpy is
loaded afterwards, as the oracle for the float roots.  Importing the package
loads none of its layers, and a probe, an integration and the exact lab
load none of the symbolic ones."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def run_child(code, *flags):
    """The JSON that ``code`` prints in a fresh interpreter run with
    ``flags``, merosolve's sources first on its path."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          timeout=120, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)

CHILD = r"""
import json, sys
import merosolve, merosolve.cli, merosolve.report
seen = {"import": "numpy" in sys.modules}

from merosolve.report import analyze_payload, to_json
from merosolve.scalars import QComplex
to_json(analyze_payload("y'' + omega^2*y - y^-3", {"omega": QComplex(3, 2)}, K=12))
to_json(analyze_payload("y'' - 2*y^3", {}, K=12))
seen["exact"] = "numpy" in sys.modules

import contextlib, io
from merosolve.cli import main
from merosolve.report import probe_payload
probe = probe_payload(0, (1, 0), [0, 0.999j])
seen["probe_kind"] = probe["kind"]
seen["probe_t_star"] = probe["t_star"]
seen["probe_exponent"] = probe["exponent"]["value"]
with contextlib.redirect_stdout(io.StringIO()):
    seen["probe_exit"] = main(["probe", "--omega", "0", "--ic", "1,0",
                               "--path", "0:0.999i"])
seen["probe"] = "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    main(["report"])
seen["report"] = "numpy" in sys.modules

from merosolve.balance import find_balances
from merosolve.odemodel import normalize, parse_ode
fam = next(f for f in find_balances(normalize(parse_ode("y'' - 1.5*y^3"), {}))
           if f.consistent)
seen["float"] = "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    seen["float_cli_exit"] = main(["analyze", "--ode", "y'' - 1.5*y^3"])
seen["float_cli"] = "numpy" in sys.modules

out = io.StringIO()
with contextlib.redirect_stdout(out):
    seen["closed_form_exit"] = main(["closed-form", "--ode", "y''' - 6*y^2"])
seen["closed_form_errors"] = [e["error"] for e in
                              json.loads(out.getvalue())["closed_form"]["periodic_errors"]]
seen["closed_form"] = "numpy" in sys.modules

import numpy as np
core = list(fam.leading_poly)
while core[-1] == 0:
    core.pop()
while core[0] == 0:
    core.pop(0)
expected = sorted((complex(z) for z in np.roots([complex(c) for c in reversed(core)])),
                  key=lambda z: (z.real, z.imag))
seen["float_roots"] = [[z.real, z.imag] for z in fam.leading_coeffs]
seen["numpy_roots"] = [[z.real, z.imag] for z in expected]
print(json.dumps(seen))
"""


def test_no_merosolve_run_imports_numpy():
    seen = run_child(CHILD)
    assert seen["import"] is False
    assert seen["exact"] is False
    # the probe detects the zero of the width at t* = i and fits the
    # exponent 1/2 there, all without numpy
    assert seen["probe_kind"] == "zero-of-alpha"
    assert abs(complex(*seen["probe_t_star"]) - 1j) < 1e-9
    assert abs(seen["probe_exponent"] - 0.5) < 1e-2
    assert seen["probe_exit"] == 0
    assert seen["probe"] is False
    assert seen["report"] is False
    assert seen["float"] is False
    assert seen["float_cli_exit"] == 0
    assert seen["float_cli"] is False
    assert seen["closed_form_exit"] == 0
    # c_1 = 0 and only c_-3 enters, so the scale polynomial is c * L**2:
    # its roots are the double root 0, which matches no period
    assert seen["closed_form_errors"] == [
        "no periodic candidate: no finite nonzero scale matches"]
    assert seen["closed_form"] is False
    # the float roots agree with numpy.roots by value
    mine = [complex(*z) for z in seen["float_roots"]]
    ref = [complex(*z) for z in seen["numpy_roots"]]
    assert len(mine) == len(ref) == 2
    for z, w in zip(mine, ref):
        assert abs(z - w) <= 1e-12 * abs(w)


RECORDS_CHILD = r"""
import contextlib, io, json, sys
import merosolve, merosolve.cli
from merosolve.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["analyze"])
print(json.dumps({"code": code,
                  "loaded": [m for m in ("dataclasses", "inspect")
                             if m in sys.modules]}))
"""


def test_no_generated_records_at_import():
    # the records are plain slots classes: neither merosolve nor a fresh
    # analyze loads dataclasses or the inspect module it brings in.  -S
    # keeps the site hooks of the environment from loading them first
    assert run_child(RECORDS_CHILD, "-S") == {"code": 0, "loaded": []}


SYMBOLIC = ["merosolve.odemodel", "merosolve.balance", "merosolve.series",
            "merosolve.closedform"]

PROBE_CHILD = r"""
import contextlib, io, json, sys
import merosolve
bare = sorted(m for m in sys.modules if m.startswith("merosolve."))
import merosolve.cli as cli, merosolve.report as report
report.to_json(report.probe_payload(0, (1, 0), [0, 0.999j]))
after_probe = [m for m in %r + ["argparse"] if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["probe", "--omega", "0", "--ic", "1,0", "--path", "0:0.999i"]),
             cli.main(["integrate", "--ic", "2,0", "--path", "0:3", "--tol", "1e-8"]),
             cli.main(["verify-exact"])]
after_cli = [m for m in %r if m in sys.modules]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["analyze"])
print(json.dumps({"bare": bare, "after_probe": after_probe, "codes": codes,
                  "after_cli": after_cli, "code": code,
                  "analyze": out.getvalue()}))
""" % (SYMBOLIC, SYMBOLIC)


def test_probe_loads_no_symbolic_layer():
    # the package alone loads no layer; a probe and its JSON need numeric,
    # exactlab and the writer, never the four symbolic layers or argparse.
    # The probe, integrate and verify-exact commands do without them too.
    # The analysis that follows loads them on first use, output unchanged
    seen = run_child(PROBE_CHILD, "-S")
    assert seen["bare"] == []
    assert seen["after_probe"] == []
    assert seen["codes"] == [0, 0, 0]
    assert seen["after_cli"] == []
    assert seen["code"] == 0
    expected = (GOLDEN_DIR / "analyze-default.json").read_text(encoding="utf-8")
    assert seen["analyze"] == expected


def test_package_exports_resolve_lazily():
    import merosolve

    assert len(merosolve.__all__) == 38
    assert merosolve.__all__ == sorted(merosolve.__all__)
    for name in merosolve.__all__:
        value = getattr(merosolve, name)
        # the very object that its defining layer module holds
        assert value.__module__.startswith("merosolve.")
        assert value is getattr(importlib.import_module(value.__module__), name)
    assert set(merosolve.__all__) <= set(dir(merosolve))
    namespace = {}
    exec("from merosolve import *", namespace)
    assert all(namespace[name] is getattr(merosolve, name)
               for name in merosolve.__all__)
    with pytest.raises(AttributeError) as info:
        merosolve.nope
    assert str(info.value) == "module 'merosolve' has no attribute 'nope'"


SUBMODULE_CHILD = r"""
import json, sys
import merosolve
before = "merosolve.cli" in sys.modules
from merosolve import cli
print(json.dumps({"before": before,
                  "is_module": cli is sys.modules["merosolve.cli"],
                  "main": cli.main.__module__}))
"""


def test_from_package_import_still_loads_a_submodule():
    assert run_child(SUBMODULE_CHILD, "-S") == {
        "before": False, "is_module": True, "main": "merosolve.cli"}
