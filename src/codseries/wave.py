"""Decomposition series for the dispersive 1D wave equation.

For d/dt(eps(x) dA/dt) - d^2A/dx^2 = 0 with A(0) = S and dA/dt(0) = R the
invertible part G is the double time derivative weighted by eps, inverted
by two cumulative time integrals with 1/eps applied between them, and the
remainder part V is the spatial second derivative (applied spectrally on
the periodic x grid); the engine derives the cycle map G^-1 V from them.
The generating field is S(x) + t * R(x)/eps(x); its t = 0 row reproduces
S exactly and its time derivative is R/eps, which coincides with R for
eps == 1.

G^-1 acts on t alone (with a pointwise 1/eps in x) and V on x alone, so
term n of the series is (JJ)^n 1 (x) (E D2)^n S + (JJ)^n t (x) (E D2)^n R/eps,
with J the trapezoid integral from t = 0, E the factor 1/eps and D2 the
spectral d^2/dx^2.  The generating field and every term are carried as
these t (x) x factors (rank 2, or 1 when R = 0): a term costs one Nx-point
FFT pair and two Nt-point integrals per factor, and its dense space-time
values are formed once, when first read.  The partial sum stays dense.
Both axes are capped at 2048 samples.  Real eps, S and R give a real
field: the series then runs in real arithmetic (real-input FFTs along x)
and the written imaginary parts are exactly 0.

Practical grid note: term n of the series scales like
(k^2 t^2 / eps)^n / (2n)! per spatial mode, which decays only after the
factorial catches up.  Round-off noise seeded at the highest grid mode
rides the same hump, so keep k_max * t_max / sqrt(min eps) moderate (a
few tens at most) or the transient growth swamps the answer and the run
stops with divergence detected.
"""

import json
from dataclasses import dataclass

import numpy as np

from .engine import CodScheme, SeriesRun, StopPolicy, run_cod
from .grids import (Grid, GridFunction, cumtrapz_from, second_diff, second_diff_roundoff,
                    spectral_apply, wavenumbers, write_csv)

__all__ = [
    "WaveProblem",
    "build_wave_scheme",
    "solve_wave",
    "write_field_csv",
]

MAX_AXIS_SAMPLES = 2048


@dataclass
class WaveProblem:
    """Permittivity profile and initial data, all sampled on one x grid.

    eps must be real and strictly positive; S is the initial field and R
    the intended initial time derivative (realized as R/eps for eps != 1,
    see the module docstring).
    """

    epsilon: GridFunction
    S: GridFunction
    R: GridFunction

    def __post_init__(self):
        if self.S.grid != self.epsilon.grid or self.R.grid != self.epsilon.grid:
            raise ValueError("mismatched grids")
        eps = self.epsilon.values
        if np.max(np.abs(eps.imag)) > 0:
            raise ValueError("permittivity must be real")
        if np.min(eps.real) <= 0:
            raise ValueError("permittivity must be strictly positive everywhere")


class _Factored(GridFunction):
    """Space-time field sum_i t_factors[i] (x) x_factors[i], from an (r, Nt)
    and an (r, Nx) stack; its dense values are formed on first read."""

    def __init__(self, grid: tuple, t_factors: np.ndarray, x_factors: np.ndarray):
        self.grid, self.t_factors, self.x_factors = grid, t_factors, x_factors
        self._values = None

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = np.multiply.outer(self.t_factors[0], self.x_factors[0])
            for t_factor, x_factor in zip(self.t_factors[1:], self.x_factors[1:]):
                self._values += np.multiply.outer(t_factor, x_factor)
        return self._values


def build_wave_scheme(problem: WaveProblem, x_grid: Grid, t_grid: Grid) -> CodScheme:
    """Wire a wave problem into a scheme over space-time fields.

    The fields are GridFunctions on ``(t_grid, x_grid)``; the x grid is read
    periodically (endpoint excluded) and the t grid must start at 0.
    G = eps d^2/dt^2; G^-1 integrates twice in time (inner plain, 1/eps
    between, outer plain), both integrals from t = 0; V is the spectral
    d^2/dx^2.  The generating field is factored, and G^-1 and V keep a
    factored input factored; any other field takes the dense branch.
    """
    if problem.epsilon.grid != x_grid:
        raise ValueError("problem data must be sampled on the given x grid")
    if t_grid.start != 0.0:
        raise ValueError("time grid must start at 0")
    if t_grid.count > MAX_AXIS_SAMPLES or x_grid.count > MAX_AXIS_SAMPLES:
        raise ValueError(f"axis sample counts are capped at {MAX_AXIS_SAMPLES}")
    eps = problem.epsilon.values.real
    inv_eps = 1.0 / eps
    minus_ksq = -wavenumbers(x_grid) ** 2
    dt = t_grid.step

    def g_op(f: GridFunction) -> GridFunction:
        # time-independent eps: d/dt(eps d/dt .) == eps * d^2/dt^2, and the
        # single second-difference stencil stays second order at the time
        # boundaries where two chained first differences would drop to O(dt)
        return f.with_values(eps[None, :] * second_diff(f.values, dt, axis=0))

    def g_inverse(f: GridFunction) -> GridFunction:
        if isinstance(f, _Factored):
            inner = cumtrapz_from(f.t_factors, dt, 0, axis=1)
            return _Factored(f.grid, cumtrapz_from(inner, dt, 0, axis=1), inv_eps * f.x_factors)
        inner = cumtrapz_from(f.values, dt, 0, axis=0)
        # in the cycle map f is the engine's temporary V image; dropping it
        # before the outer integral keeps one field fewer alive per term
        del f
        outer = cumtrapz_from(inv_eps[None, :] * inner, dt, 0, axis=0)
        return GridFunction((t_grid, x_grid), outer)

    def v_op(f: GridFunction) -> GridFunction:
        if isinstance(f, _Factored):
            return _Factored(f.grid, f.t_factors, spectral_apply(f.x_factors, minus_ksq, (1,)))
        return f.with_values(spectral_apply(f.values, minus_ksq, (1,)))

    # S + t R/eps as 1 (x) S, plus t (x) R/eps where R/eps is not all zero
    r_scaled = inv_eps * problem.R.values
    t_factors, x_factors = [np.ones(t_grid.count)], [problem.S.values]
    if np.any(r_scaled):
        t_factors.append(t_grid.points())
        x_factors.append(r_scaled)
    generating = _Factored((t_grid, x_grid), np.array(t_factors), np.array(x_factors))
    sup = generating.sup_norm()
    return CodScheme(
        generating=generating,
        g_op=g_op,
        g_inverse=g_inverse,
        v_op=v_op,
        label="wave-dispersive",
        gen_tol=1e-8 * (1.0 + sup) + second_diff_roundoff(float(np.max(eps)) * sup, dt),
    )


def solve_wave(problem: WaveProblem, x_grid: Grid, t_grid: Grid,
               policy: StopPolicy) -> tuple[GridFunction, SeriesRun]:
    """Accumulate the space-time series and return (field, run diagnostics).

    A divergent run (time window too long for max(1/eps) * k_max^2) is
    reported through run.stop_reason; shrinking the time window restores
    convergence.
    """
    scheme = build_wave_scheme(problem, x_grid, t_grid)
    run = run_cod(scheme, policy)
    return run.partial_sum, run


def write_field_csv(field: GridFunction, path, meta_path):
    """Write the (t, x) field with :func:`grids.write_csv` (one time row per
    line, re,im pairs per x sample) and a JSON sidecar with both grids."""
    write_csv(field, path)
    t_grid, x_grid = field.grid
    meta = {
        "t_start": t_grid.start,
        "t_step": t_grid.step,
        "t_count": t_grid.count,
        "x_start": x_grid.start,
        "x_step": x_grid.step,
        "x_count": x_grid.count,
        "layout": "row-major re,im pairs, one time row per line",
    }
    with open(meta_path, "w", encoding="ascii") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
