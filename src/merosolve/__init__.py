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
"""

from .balance import BalanceFamily, compute_resonances, find_balances, monomial_exponent
from .closedform import (
    ClosedFormCandidate,
    build_periodic,
    build_rational,
    elliptic_admissible,
    period_from_pole_data,
    verify_candidate,
)
from .errors import MerosolveError
from .exactlab import (
    OscillatorBasis,
    QuadFormParams,
    ermakov_invariant,
    oscillator_basis,
    pinney_solution,
    riccati_residual,
    width_from_ics,
)
from .numeric import (
    ComplexPath,
    ComplexTrajectory,
    EpWidthOde,
    LinearOscillatorOde,
    detect_singularity,
    fit_local_exponent,
    integrate,
    invariant_drift,
)
from .odemodel import (
    DifferentialPolynomial,
    DiffMonomial,
    normalize,
    parse_ode,
    unique_highest_degree_term,
    unparse,
)
from .scalars import QComplex
from .series import (
    LocalSolution,
    PuiseuxSeries,
    cot_laurent,
    solve_local_series,
    substitute,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceFamily",
    "ClosedFormCandidate",
    "ComplexPath",
    "ComplexTrajectory",
    "DiffMonomial",
    "DifferentialPolynomial",
    "EpWidthOde",
    "LinearOscillatorOde",
    "LocalSolution",
    "MerosolveError",
    "OscillatorBasis",
    "PuiseuxSeries",
    "QComplex",
    "QuadFormParams",
    "build_periodic",
    "build_rational",
    "compute_resonances",
    "cot_laurent",
    "detect_singularity",
    "elliptic_admissible",
    "ermakov_invariant",
    "find_balances",
    "fit_local_exponent",
    "integrate",
    "invariant_drift",
    "monomial_exponent",
    "normalize",
    "oscillator_basis",
    "parse_ode",
    "period_from_pole_data",
    "pinney_solution",
    "riccati_residual",
    "solve_local_series",
    "substitute",
    "unique_highest_degree_term",
    "unparse",
    "verify_candidate",
    "width_from_ics",
]
