"""Critically finite real polynomial maps with prescribed combinatorics.

Given an integer sequence recording how critical and postcritical points
permute (with optional local degrees), this package validates the data
against its piecewise-linear model and runs the Thurston pull-back
iteration in multiprecision arithmetic to produce the unique real
polynomial in unit-interval normal form realizing the combinatorics,
detecting and simplifying the degenerate (non-expansive) cases along the
way.
"""

from .combinatorics import (
    Combinatorics,
    CombinatoricsError,
    MappingPattern,
    ParseError,
    ValidationReport,
    expansiveness,
    lap_of,
    laps,
    mapping_pattern,
    parse,
    render,
    simplify,
    validate,
)
from .critvals import (
    InversionResult,
    NewtonStalled,
    PhiProblem,
    RealizationError,
    RealizedMap,
    SingularJacobian,
    centered_points,
    chebyshev_init,
    invert_phi,
    phi,
    phi_jacobian,
    realize_critical_values,
)
from .mpnum import (
    Polynomial,
    PrecisionContext,
    RootBracketError,
    solve_monotone,
)
from .pullback import (
    CollapseEvent,
    InvalidCombinatorics,
    MarkedConfiguration,
    PullbackError,
    RunOptions,
    RunResult,
    StepRecord,
    detect_collapse,
    fit_error,
    init_configuration,
    mapmake,
    normalize,
    pullback_step,
    run,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
