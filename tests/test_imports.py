"""No merosolve run imports numpy: importing the package, exact analyses, a
complex-time probe with its singularity and exponent fits, the default
report, a float-coefficient analysis and a closed form whose scale
polynomial has degree two all leave it out.  numpy is loaded afterwards, as
the oracle for the float roots."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

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
seen["probe"] = "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    main(["report"])
seen["report"] = "numpy" in sys.modules

from merosolve.balance import find_balances
from merosolve.odemodel import normalize, parse_ode
fam = next(f for f in find_balances(normalize(parse_ode("y'' - 1.5*y^3"), {}))
           if f.consistent)
seen["float"] = "numpy" in sys.modules

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
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, "-c", CHILD], env=env, timeout=120,
                          capture_output=True, text=True, check=True)
    seen = json.loads(done.stdout)
    assert seen["import"] is False
    assert seen["exact"] is False
    # the probe detects the zero of the width at t* = i and fits the
    # exponent 1/2 there, all without numpy
    assert seen["probe_kind"] == "zero-of-alpha"
    assert abs(complex(*seen["probe_t_star"]) - 1j) < 1e-9
    assert abs(seen["probe_exponent"] - 0.5) < 1e-2
    assert seen["probe"] is False
    assert seen["report"] is False
    assert seen["float"] is False
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
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, "-S", "-c", RECORDS_CHILD], env=env,
                          timeout=120, capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == {"code": 0, "loaded": []}
