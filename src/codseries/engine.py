"""Series accumulation engine for cyclic operator decompositions.

A scheme is one split L = G - V of a linear operator, given as the
generating function psi_g (annihilated by G) and the actions of G, its
inverse and V.  The engine derives the two composites from them: the
cycle map G^-1 V and the defect operator G - V.  ``run_cod`` accumulates
partial sums of psi = [I + sum_n (G^-1 V)^n] psi_g with the term
recurrence term[n+1] = cycle_map(term[n]) and stops per a
``StopPolicy``: convergence needs two consecutive terms below tolerance
(a single small term can be accidental in an alternating series),
divergence is flagged when term norms grow monotonically by a set factor
across a window, and non-finite terms abort loudly.  A term within 64 ulps of
the previous term's sup norm is the round-off of an exactly ended series:
it is not added, and the run stops as converged.

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
]

Operator = Callable[[GridFunction], GridFunction]

CONVERGED = "converged"
MAX_TERMS = "max_terms"
DIVERGENCE_DETECTED = "divergence_detected"


class SeriesBlowUpError(RuntimeError):
    """Raised when a series term contains non-finite values."""


# a term at most this fraction of the previous term's sup norm ends the
# series: where the map cancels its input exactly in exact arithmetic, it
# leaves round-off instead of zeros (the FFT of a constant is exact at some
# sizes only), up to 25 ulps of its input for the laplace variant at E = -1.5
_ENDED_BELOW = 64.0 * float(np.finfo(float).eps)


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
    """One decomposition L = G - V: generating function, G, G^-1 and V.

    Attributes:
        generating: seed function psi_g; must be annihilated by G
            (checked through ``g_op`` when ``gen_tol`` is set).
        g_op: action of the invertible part G.
        g_inverse: action of G^-1; it also lifts a source into the seed of
            a driven run.
        v_op: action of the remainder part V.
        label: free-form tag carried into reports.
        gen_tol: sup-norm tolerance accepted for g_op(generating).
        cycle_map: G^-1 V, applied once per term; derived, not passed.
        defect_op: G - V, for residuals; derived, not passed.
    """

    generating: GridFunction
    g_op: Operator
    g_inverse: Operator
    v_op: Operator
    label: str = ""
    gen_tol: Optional[float] = None
    cycle_map: Operator = field(init=False, repr=False, compare=False)
    defect_op: Operator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g_op, g_inverse, v_op = self.g_op, self.g_inverse, self.v_op

        def g_minus_v(f: GridFunction) -> GridFunction:
            g = g_op(f)
            return g.with_values(g.values - v_op(f).values)

        self.cycle_map = lambda f: g_inverse(v_op(f))
        self.defect_op = g_minus_v
        if self.gen_tol is not None:
            residual = g_op(self.generating).sup_norm()
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
    norms_hist = [seed.sup_norm()]
    small_streak = 0
    reason = MAX_TERMS
    window = policy.divergence_window
    for n in range(1, policy.max_terms + 1):
        cand = scheme.cycle_map(term)
        cn = cand.sup_norm()
        if not math.isfinite(cn):
            raise SeriesBlowUpError(f"series blow-up at term {n}")
        if cn <= _ENDED_BELOW * norms_hist[-1]:
            # the map annihilated its input up to round-off: the series has
            # ended exactly, and every later term is the map of this noise
            reason = CONVERGED
            break
        if np.iscomplexobj(cand.values) and not np.iscomplexobj(total.values):
            total = total.with_values(total.values.astype(complex))
        total.values += cand.values
        norms_hist.append(cn)
        term = cand
        if cn <= policy.tol * (1.0 + total.sup_norm()):
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
    return SeriesRun(
        partial_sum=total,
        last_term=term,
        term_sup_norms=norms_hist,
        terms_used=len(norms_hist) - 1,
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


def convergence_report(scheme: CodScheme, run: SeriesRun, source=None) -> dict:
    """JSON-ready summary of a run (label, counts, norms, residual)."""
    return {
        "label": scheme.label,
        "terms_used": run.terms_used,
        "stop_reason": run.stop_reason,
        "term_sup_norms": [float(v) for v in run.term_sup_norms],
        "defect_sup_norm": defect(scheme, run, source=source).sup_norm(),
    }
