"""Decomposition series for the dispersive 1D wave equation.

For d/dt(eps(x) dA/dt) - d^2A/dx^2 = 0 with A(0) = S and dA/dt(0) = R the
invertible part is the double time derivative weighted by eps, inverted by
two cumulative time integrals with 1/eps applied between them, and the
remainder part is the spatial second derivative (applied spectrally on the
periodic x grid).  The generating field is S(x) + t * R(x)/eps(x); its
t = 0 row reproduces S exactly and its time derivative is R/eps, which
coincides with R for eps == 1.

The whole space-time field is stored densely because the cycle map is
global in time; both axes are capped at 2048 samples.  Real eps, S and R
give a real field: the series then runs in real arithmetic (real-input
FFTs along x) and the written imaginary parts are exactly 0.

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
from .grids import (Grid, GridFunction, cumtrapz_from, second_diff, spectral_apply, wavenumbers,
                    write_csv)

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


def build_wave_scheme(problem: WaveProblem, x_grid: Grid, t_grid: Grid,
                      gen_tol: float | None = None) -> CodScheme:
    """Wire a wave problem into a scheme over space-time fields.

    The fields are GridFunctions on ``(t_grid, x_grid)``; the x grid is read
    periodically (endpoint excluded) and the t grid must start at 0.
    cycle_map(F) integrates the spectral d^2/dx^2 of F twice in time
    (inner plain, 1/eps between, outer plain), both integrals from t = 0.
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
    t_col = t_grid.points()[:, None]

    def d2x(values: np.ndarray) -> np.ndarray:
        return spectral_apply(values, minus_ksq, (1,))

    def cycle(f: GridFunction) -> GridFunction:
        inner = cumtrapz_from(d2x(f.values), dt, 0, axis=0)
        outer = cumtrapz_from(inv_eps[None, :] * inner, dt, 0, axis=0)
        return f.with_values(outer)

    def g_op(f: GridFunction) -> GridFunction:
        # time-independent eps: d/dt(eps d/dt .) == eps * d^2/dt^2, and the
        # single second-difference stencil stays second order at the time
        # boundaries where two chained first differences would drop to O(dt)
        return f.with_values(eps[None, :] * second_diff(f.values, dt, axis=0))

    def defect_op(f: GridFunction) -> GridFunction:
        return f.with_values(g_op(f).values - d2x(f.values))

    def g_inverse(f: GridFunction) -> GridFunction:
        inner = cumtrapz_from(f.values, dt, 0, axis=0)
        return f.with_values(cumtrapz_from(inv_eps[None, :] * inner, dt, 0, axis=0))

    generating = GridFunction(
        (t_grid, x_grid),
        problem.S.values[None, :] + t_col * (inv_eps * problem.R.values)[None, :],
    )
    if gen_tol is None:
        gen_tol = 1e-8 * (1.0 + generating.sup_norm())

    return CodScheme(
        cycle_map=cycle,
        generating=generating,
        defect_op=defect_op,
        g_op=g_op,
        g_inverse=g_inverse,
        label="wave-dispersive",
        gen_tol=gen_tol,
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
