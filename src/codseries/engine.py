"""Series accumulation engine for cyclic operator decompositions.

A scheme packages the operator actions needed to run and check one
decomposition: the cycle map (inverse part composed with the remainder
part), the generating function the series acts on, and the defect
operator for residual checks.  ``run_cod`` accumulates partial sums with
the term recurrence term[n+1] = cycle_map(term[n]) and stops per a
``StopPolicy``: convergence needs two consecutive terms below tolerance
(a single small term can be accidental in an alternating series),
divergence is flagged when term norms grow monotonically by a set factor
across a window, and non-finite terms abort loudly.

Every value the engine handles is a :class:`~codseries.grids.GridFunction`
(1D grid functions, periodic boxes and space-time fields alike).  Terms
are added to the partial sum in place; a real partial sum is promoted to
complex once, at the first complex term, so a series on real data stays
real.  A term is non-finite exactly when its sup norm is, since ``max|.|``
propagates nan and inf.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grids import GridFunction

__all__ = [
    "CONVERGED",
    "DIVERGENCE_DETECTED",
    "MAX_TERMS",
    "CodScheme",
    "SeriesBlowUpError",
    "SeriesRun",
    "StopPolicy",
    "convergence_report",
    "defect",
    "run_cod",
    "run_cod_with_source",
    "v_apply",
]

Operator = Callable[[GridFunction], GridFunction]

CONVERGED = "converged"
MAX_TERMS = "max_terms"
DIVERGENCE_DETECTED = "divergence_detected"


class SeriesBlowUpError(RuntimeError):
    """Raised when a series term contains non-finite values."""


def _sup(value) -> float:
    return float(np.max(np.abs(value.values)))


@dataclass
class StopPolicy:
    """Termination policy for a series run.

    tol is relative to 1 + sup|partial sum|; max_terms caps the number of
    accumulated correction terms; divergence fires when term norms grow
    monotonically by at least divergence_factor across divergence_window
    consecutive terms.
    """

    tol: float
    max_terms: int
    divergence_window: int = 5
    divergence_factor: float = 10.0

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be at least 1, got {self.max_terms}")
        if self.divergence_window < 1:
            raise ValueError("divergence_window must be at least 1")
        if not self.divergence_factor > 1:  # also rejects nan
            raise ValueError("divergence_factor must exceed 1")


@dataclass
class CodScheme:
    """One concrete decomposition: cycle map, generating function, checks.

    Attributes:
        cycle_map: action of the composed operator applied once per term.
        generating: seed function; must be annihilated by the invertible
            part of the decomposition (validated through ``g_op``).
        defect_op: action of the full decomposed operator, for residuals.
        g_op: action of the invertible part alone.  Optional; enables the
            construction-time check on ``generating`` and ``v_apply``.
        g_inverse: action of the inverse of the invertible part; required
            for source-driven runs.
        label: free-form tag carried into reports.
        gen_tol: sup-norm tolerance accepted for g_op(generating).
    """

    cycle_map: Operator
    generating: GridFunction
    defect_op: Operator
    g_op: Optional[Operator] = None
    g_inverse: Optional[Operator] = None
    label: str = ""
    gen_tol: Optional[float] = None

    def __post_init__(self):
        if self.g_op is not None and self.gen_tol is not None:
            residual = _sup(self.g_op(self.generating))
            if residual > self.gen_tol:
                raise ValueError(
                    "generating function is not annihilated by the invertible part: "
                    f"residual sup-norm {residual:g} exceeds tolerance {self.gen_tol:g}"
                )


@dataclass
class SeriesRun:
    """Outcome of one series accumulation.

    term_sup_norms lists the sup norm of every accumulated term starting
    with the generating term, so its length is terms_used + 1.
    """

    partial_sum: GridFunction
    last_term: GridFunction
    term_sup_norms: list = field(default_factory=list)
    terms_used: int = 0
    stop_reason: str = CONVERGED


def _iterate(scheme: CodScheme, seed, policy: StopPolicy) -> SeriesRun:
    term = seed
    total = seed.with_values(seed.values.copy())
    norms_hist = [_sup(seed)]
    last = seed
    used = 0
    small_streak = 0
    reason = MAX_TERMS
    window = policy.divergence_window
    for n in range(1, 2 * policy.max_terms + window + 4):
        cand = scheme.cycle_map(term)
        cn = _sup(cand)
        if not math.isfinite(cn):
            raise SeriesBlowUpError(f"series blow-up at term {n}")
        if cn == 0.0:
            # exactly terminated series: nothing further can contribute
            small_streak += 1
            if small_streak >= 2:
                reason = CONVERGED
                break
            term = cand
            continue
        if np.iscomplexobj(cand.values) and not np.iscomplexobj(total.values):
            total = total.with_values(total.values.astype(complex))
        total.values += cand.values
        norms_hist.append(cn)
        used += 1
        last = cand
        term = cand
        if cn <= policy.tol * (1.0 + _sup(total)):
            small_streak += 1
            if small_streak >= 2:
                reason = CONVERGED
                break
        else:
            small_streak = 0
        if len(norms_hist) >= window + 1:
            recent = norms_hist[-(window + 1):]
            growing = all(b >= a for a, b in zip(recent, recent[1:]))
            if growing and recent[-1] >= policy.divergence_factor * recent[0]:
                reason = DIVERGENCE_DETECTED
                break
        if used >= policy.max_terms:
            reason = MAX_TERMS
            break
    return SeriesRun(
        partial_sum=total,
        last_term=last,
        term_sup_norms=norms_hist,
        terms_used=used,
        stop_reason=reason,
    )


def run_cod(scheme: CodScheme, policy: StopPolicy) -> SeriesRun:
    """Accumulate the decomposition series seeded by the generating function."""
    return _iterate(scheme, scheme.generating, policy)


def run_cod_with_source(scheme: CodScheme, source, policy: StopPolicy) -> SeriesRun:
    """Accumulate the series for a driven problem.

    The seed becomes generating + g_inverse(source); with a zero generating
    function this realizes the series form of the inverse operator applied
    to the source.
    """
    if scheme.g_inverse is None:
        raise ValueError("source-driven run requires the scheme to provide g_inverse")
    lifted = scheme.g_inverse(source)
    seed = scheme.generating.with_values(scheme.generating.values + lifted.values)
    return _iterate(scheme, seed, policy)


def defect(scheme: CodScheme, run: SeriesRun, source=None):
    """Residual of the accumulated partial sum under the full operator.

    For source-driven runs pass the source to subtract it from the
    residual.  By the telescoping identity the result equals the remainder
    part applied to the last term, negated, up to discretization error.
    """
    d = scheme.defect_op(run.partial_sum)
    if source is not None:
        d = d.with_values(d.values - source.values)
    return d


def v_apply(scheme: CodScheme, value):
    """Action of the remainder part, recovered as g_op - defect_op."""
    if scheme.g_op is None:
        raise ValueError("scheme has no g_op; cannot isolate the remainder part")
    g = scheme.g_op(value)
    d = scheme.defect_op(value)
    return g.with_values(g.values - d.values)


def convergence_report(scheme: CodScheme, run: SeriesRun, source=None) -> dict:
    """JSON-ready summary of a run (label, counts, norms, residual)."""
    return {
        "label": scheme.label,
        "terms_used": run.terms_used,
        "stop_reason": run.stop_reason,
        "term_sup_norms": [float(v) for v in run.term_sup_norms],
        "defect_sup_norm": _sup(defect(scheme, run, source=source)),
    }
