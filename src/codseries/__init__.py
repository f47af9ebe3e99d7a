"""Series solvers built on cyclic decompositions of linear operators.

The library splits a linear operator into an invertible part G and a
remainder V, seeds a series with a generating function annihilated by G,
and accumulates corrections by repeatedly applying the cycle map G^-1 V.
A scheme is the generating function and the actions of G, G^-1 and V;
the engine derives the cycle map and the defect G - V.  Solvers are wired
for the variable-frequency oscillator, the exponential-potential and
periodic stationary problems, a time-dependent short-step propagator, and
the dispersive wave equation; each ships with an independent numerical
oracle for validation.
"""

from .engine import (
    CONVERGED,
    DIVERGENCE_DETECTED,
    MAX_TERMS,
    CodScheme,
    SeriesBlowUpError,
    SeriesRun,
    StopPolicy,
    convergence_report,
    defect,
    run_cod,
    run_cod_with_source,
)
from .grids import Grid, GridFunction, cumulative_integral, wavenumbers
from .oscillator import OscillatorProblem, PowerSeriesSolution
from .tdse import PropagatorStep, TdseSetup
from .wave import WaveProblem

__version__ = "0.1.0"

__all__ = [
    "CONVERGED",
    "DIVERGENCE_DETECTED",
    "MAX_TERMS",
    "CodScheme",
    "Grid",
    "GridFunction",
    "OscillatorProblem",
    "PowerSeriesSolution",
    "PropagatorStep",
    "SeriesBlowUpError",
    "SeriesRun",
    "StopPolicy",
    "TdseSetup",
    "WaveProblem",
    "convergence_report",
    "cumulative_integral",
    "defect",
    "run_cod",
    "run_cod_with_source",
    "wavenumbers",
]
