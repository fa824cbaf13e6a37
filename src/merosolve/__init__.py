"""Movable-singularity analysis and meromorphic-solution construction for
autonomous nonlinear ODEs, specialized to the width equation
``alpha'' + omega**2 alpha = alpha**-3`` of the driven Gaussian wave packet.

The pipeline: parse an ODE from a small DSL, clear it to differential-
polynomial form, find dominant-balance families with their resonances,
solve local Puiseux series, construct and verify cot-type and rational
closed-form candidates, cross-check against a library of exact solutions,
and probe singularities by complex-time integration.  Every published
formula the pipeline touches is re-derived or verified numerically, and the
verdicts land in a claims ledger inside the JSON report.

Importing the package loads none of its layers.  Each public name resolves
on first use: the layer module that defines it is imported then, and the
value is kept in the package namespace for later lookups.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names, by the layer module that defines them
_EXPORTS = {
    "balance": ("BalanceFamily", "compute_resonances", "find_balances",
                "monomial_exponent"),
    "closedform": ("ClosedFormCandidate", "build_periodic", "build_rational",
                   "elliptic_admissible", "period_from_pole_data",
                   "verify_candidate"),
    "errors": ("MerosolveError",),
    "exactlab": ("OscillatorBasis", "QuadFormParams", "ermakov_invariant",
                 "oscillator_basis", "pinney_solution", "riccati_residual",
                 "width_from_ics"),
    "numeric": ("ComplexPath", "ComplexTrajectory", "EpWidthOde",
                "LinearOscillatorOde", "detect_singularity",
                "fit_local_exponent", "integrate", "invariant_drift"),
    "odemodel": ("DifferentialPolynomial", "DiffMonomial", "normalize",
                 "parse_ode", "unique_highest_degree_term", "unparse"),
    "scalars": ("QComplex",),
    "series": ("LocalSolution", "PuiseuxSeries", "cot_laurent",
               "solve_local_series", "substitute"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    # an unknown name raises AttributeError, so ``from merosolve import cli``
    # falls through to importing the submodule
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
