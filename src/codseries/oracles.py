"""Independent reference solvers used only to validate the series solvers.

None of these share discretization code with the decomposition runs beyond
the grid containers: the oscillator oracle is classic RK4 on the
first-order system, the time-dependent oracle is dense-matrix
Crank-Nicolson (its Hamiltonian matrix is rebuilt here from scratch), and
the wave oracle is explicit leapfrog with a finite-difference Laplacian on
a spectrally upsampled grid.  Every oracle reports a step-halving
Richardson error estimate; trust it, not the nominal order.

The RK4 oracle calls its profile ``omega_sq`` with arrays of times, a block
at a time, so the profile must be vectorized; a scalar return is broadcast.
An RK4 step of the linear system is a 2x2 matrix, so the oracle marches a
block as the prefix products of its step matrices, formed by a log-depth
doubling scan in numpy; only the order of evaluation differs from a
step-by-step loop.
"""

import numpy as np
from dataclasses import dataclass, field
from typing import Any, Callable

from .grids import Grid, GridFunction
from .tdse import TdseSetup
from .wave import WaveProblem

__all__ = [
    "OracleResult",
    "crank_nicolson",
    "leapfrog_wave",
    "rk4_oscillator",
]


@dataclass
class OracleResult:
    solution: GridFunction
    method: str
    step_used: float
    error_estimate: float
    diagnostics: dict = field(default_factory=dict)


# RK4 steps per chunk: one omega_sq call and one scan each, so the chunk
# bounds the scan's (2, 2, steps) arrays while amortizing the call
_RK4_CHUNK_STEPS = 2048
# Richardson target of the RK4 oracle and its cap on substep doublings
_RK4_TARGET_ESTIMATE = 1e-9
_RK4_MAX_REFINEMENTS = 12


def _rk4_step_offsets(omega_sq, grid: Grid, lo: int, hi: int, substeps: int,
                      h: float) -> np.ndarray:
    """M - I for the 2x2 matrix M of every RK4 step of grid intervals ending
    at points lo..hi-1, as an array d[row, column, step].

    w2 is sampled at t, t + h/2 and t + h at bit-for-bit the times a scalar
    loop visits: each interval starts at ``grid.start + (i - 1) * grid.step``
    (the first one at ``grid.start`` itself) and advances by repeated
    ``t += h``.  Column j is the stage formulas run from the unit vector
    e_j, so the result is real for real w2.  Keeping M - I instead of M
    keeps its O(h) entries to full relative precision; the rounded
    1 + O(h^2) diagonal of M would repeat one rounding error per step for
    constant w2, and that error grows linearly with the step count.
    """
    t = np.full((hi - lo, substeps), h)
    t[:, 0] = grid.start + np.arange(lo - 1, hi - 1) * grid.step
    if lo == 1:
        t[0, 0] = grid.start
    t = np.cumsum(t, axis=1).ravel()  # sequential, so each entry is exactly t += h
    times = np.stack((t, t + 0.5 * h, t + h))
    w0, wm, w1 = np.broadcast_to(np.asarray(omega_sq(times)), times.shape)
    y1 = np.array([[1.0], [0.0]])  # rows: the stages started from e_1 and e_2
    y2 = y1[::-1]
    k1a = y2
    k1b = -w0 * y1
    k2a = y2 + 0.5 * h * k1b
    k2b = -wm * (y1 + 0.5 * h * k1a)
    k3a = y2 + 0.5 * h * k2b
    k3b = -wm * (y1 + 0.5 * h * k2a)
    k4a = y2 + h * k3b
    k4b = -w1 * (y1 + h * k3a)
    return np.stack(((h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a),
                     (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)))


def _rk4_run(omega_sq: Callable[[np.ndarray], Any], a: complex, b: complex,
             grid: Grid, substeps: int) -> np.ndarray:
    h = grid.step / substeps
    f = np.empty(grid.count, dtype=complex)
    y = np.array([a, b], dtype=complex)
    f[0] = y[0]
    chunk = max(1, _RK4_CHUNK_STEPS // substeps)
    for lo in range(1, grid.count, chunk):
        hi = min(lo + chunk, grid.count)
        d = _rk4_step_offsets(omega_sq, grid, lo, hi, substeps, h)
        # Hillis-Steele scan: after the pass with shift s, I + d[..., j] is
        # the product of steps max(0, j - 2s + 1)..j, the later one on the
        # left; (I + A)(I + B) = I + A + B + AB
        shift = 1
        while shift < d.shape[2]:
            later, earlier = d[:, :, shift:], d[:, :, :-shift]
            d[:, :, shift:] = (later + earlier + later[:, 0, None] * earlier[None, 0]
                               + later[:, 1, None] * earlier[None, 1])
            shift *= 2
        ends = d[:, :, substeps - 1::substeps]
        f[lo:hi] = y[0] + ends[0, 0] * y[0] + ends[0, 1] * y[1]
        y = y + d[:, :, -1] @ y
    return f


def rk4_oscillator(omega_sq: Callable[[np.ndarray], Any], a: complex, b: complex,
                   t0: float, grid: Grid) -> OracleResult:
    """RK4 reference for f'' + w2(t) f = 0, f(t0) = a, f'(t0) = b.

    Both conditions sit at t0 (standard initial-value form), which must be
    the grid start.  The substep count doubles until the Richardson
    estimate drops below ``_RK4_TARGET_ESTIMATE``.

    ``omega_sq`` is called with arrays of times and returns w2, real or
    complex, at each of them; a scalar return is broadcast to every time.
    """
    if abs(t0 - grid.start) > 1e-12 * max(1.0, abs(grid.start)):
        raise ValueError("oracle expects t0 at the grid start")
    substeps = 1
    prev = _rk4_run(omega_sq, a, b, grid, substeps)
    estimate = np.inf
    for _ in range(_RK4_MAX_REFINEMENTS):
        substeps *= 2
        cur = _rk4_run(omega_sq, a, b, grid, substeps)
        estimate = float(np.max(np.abs(cur - prev)) / 15.0)
        prev = cur
        if estimate <= _RK4_TARGET_ESTIMATE:
            break
    return OracleResult(GridFunction(grid, prev), "rk4", grid.step / substeps, estimate,
                        {"substeps": substeps})


def _dense_hamiltonian(setup: TdseSetup, t: float) -> np.ndarray:
    # own spectral kinetic matrix; shares no code with the propagator path
    n = setup.grid.count
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=setup.grid.step)
    a = setup.vector_potential(t) if callable(setup.vector_potential) else setup.vector_potential
    spectra = np.fft.fft(np.eye(n), axis=0)
    kinetic = np.fft.ifft((0.5 * (k - a) ** 2)[:, None] * spectra, axis=0)
    u = (setup.potential(setup.grid.points(), t) if callable(setup.potential)
         else setup.potential)
    return kinetic + np.diag(np.asarray(u, dtype=complex))


def _cn_run(setup: TdseSetup, dt: float, n_steps: int, time_dependent: bool):
    n = setup.grid.count
    eye = np.eye(n)
    psi = setup.psi0.values.copy()
    if not time_dependent:
        h = _dense_hamiltonian(setup, 0.0)
        stepper = np.linalg.solve(eye + 0.5j * dt * h, eye - 0.5j * dt * h)
        for _ in range(n_steps):
            psi = stepper @ psi
    else:
        for i in range(n_steps):
            h = _dense_hamiltonian(setup, (i + 0.5) * dt)
            rhs = (eye - 0.5j * dt * h) @ psi
            psi = np.linalg.solve(eye + 0.5j * dt * h, rhs)
    return psi


def crank_nicolson(setup: TdseSetup, dt: float, t_final: float,
                   time_dependent: bool = False, validate: bool = True) -> OracleResult:
    """Unitary-to-round-off Crank-Nicolson reference on the periodic grid.

    ``time_dependent=False`` factors the step matrix once (midpoint
    evaluation per step otherwise).  ``validate`` reruns at dt/2 and
    reports the Richardson estimate; the returned state is the dt/2 run.
    """
    ratio = t_final / dt
    n_steps = round(ratio)
    if n_steps < 1 or abs(ratio - n_steps) > 1e-9 * max(1.0, abs(ratio)):
        raise ValueError("t_final must be a positive multiple of dt")
    psi = _cn_run(setup, dt, n_steps, time_dependent)
    estimate = float("nan")
    step_used = dt
    if validate:
        psi_half = _cn_run(setup, 0.5 * dt, 2 * n_steps, time_dependent)
        estimate = float(np.max(np.abs(psi_half - psi)) / 3.0)
        psi = psi_half
        step_used = 0.5 * dt
    return OracleResult(GridFunction(setup.grid, psi), "crank-nicolson",
                        step_used, estimate)


def _spectral_upsample(values: np.ndarray, factor: int) -> np.ndarray:
    """Trigonometric interpolation onto a grid refined by an integer factor."""
    v = np.asarray(values, dtype=complex)
    if factor == 1:
        return v.copy()
    n = v.size
    half = n // 2
    spectrum = np.fft.fft(v)
    padded = np.zeros(n * factor, dtype=complex)
    padded[:half] = spectrum[:half]
    padded[-(half - 1):] = spectrum[half + 1:]
    padded[half] = 0.5 * spectrum[half]
    padded[n * factor - half] += 0.5 * spectrum[half]
    return np.fft.ifft(padded) * factor


def _leapfrog_run(problem: WaveProblem, x_grid: Grid, t_grid: Grid,
                  space_refine: int, substeps: int):
    nx = x_grid.count * space_refine
    dx = x_grid.period / nx
    dt = t_grid.step / substeps
    eps = _spectral_upsample(problem.epsilon.values, space_refine).real
    eps_min = float(np.min(eps))
    if dt > dx * np.sqrt(eps_min):
        raise ValueError(
            f"CFL violation: dt {dt:g} exceeds dx*sqrt(eps_min) {dx * np.sqrt(eps_min):g}"
        )
    a_prev = _spectral_upsample(problem.S.values, space_refine)
    velocity0 = _spectral_upsample(problem.R.values, space_refine) / eps
    inv_eps = 1.0 / eps
    dx2 = dx * dx

    def lap(v):
        return (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / dx2

    rows = np.empty((t_grid.count, x_grid.count), dtype=complex)
    rows[0] = a_prev[::space_refine]
    a_cur = a_prev + dt * velocity0 + (0.5 * dt * dt) * inv_eps * lap(a_prev)

    # exactly conserved staggered energy of the scheme, for self-validation
    def energy(prev, cur):
        vel = (cur - prev) / dt
        kinetic = 0.5 * np.sum(eps * np.abs(vel) ** 2) * dx
        potential = -0.5 * np.sum(np.real(np.conj(cur) * lap(prev))) * dx
        return kinetic + potential

    e0 = energy(a_prev, a_cur)
    e_extreme = e0
    step_index = 1
    for row in range(1, t_grid.count):
        target = row * substeps
        while step_index < target:
            a_prev, a_cur = a_cur, (
                2.0 * a_cur - a_prev + (dt * dt) * inv_eps * lap(a_cur)
            )
            step_index += 1
            e = energy(a_prev, a_cur)
            if abs(e - e0) > abs(e_extreme - e0):
                e_extreme = e
        rows[row] = a_cur[::space_refine]
    drift = abs(e_extreme - e0) / abs(e0) if e0 != 0 else 0.0
    return rows, drift, dt


def leapfrog_wave(problem: WaveProblem, x_grid: Grid, t_grid: Grid,
                  space_refine: int = 4, substeps: int = 2,
                  richardson: bool = True) -> OracleResult:
    """Explicit leapfrog reference for d/dt(eps dA/dt) = d^2A/dx^2.

    Initial data are upsampled spectrally by ``space_refine`` and marched
    with ``substeps`` interior steps per output step; the initial velocity
    is R/eps to match the generating-field construction.  With
    ``richardson`` a half-resolution run provides the error estimate.
    """
    if problem.epsilon.grid != x_grid:
        raise ValueError("problem data must be sampled on the given x grid")
    rows, drift, dt_used = _leapfrog_run(problem, x_grid, t_grid, space_refine, substeps)
    estimate = float("nan")
    if richardson:
        if space_refine % 2 or substeps % 2:
            raise ValueError("richardson validation needs even space_refine and substeps")
        coarse, _, _ = _leapfrog_run(problem, x_grid, t_grid,
                                     space_refine // 2, substeps // 2)
        estimate = float(np.max(np.abs(rows - coarse)) / 3.0)
    solution = GridFunction((t_grid, x_grid), rows)
    return OracleResult(solution, "leapfrog", dt_used, estimate,
                        {"energy_drift": drift})
