"""Short-step series propagator for the time-dependent problem.

One step of length dt accumulates the iterated-integral series

    psi(t+dt) = sum_n term_n(t+dt),
    term_0 = psi(t),
    term_{n+1}(t') = -i * integral_t^{t'} H(tau) term_n(tau) dtau.

No time ordering is introduced: for a time-independent Hamiltonian the
N-term step is exactly the degree-N Taylor polynomial of the evolution
operator, which pins the per-step accuracy at order N+1.

A step takes one of three paths, chosen from the form of the data.  With U
an array, A a number and nodes >= n_terms, the iterated integrals have the
closed form term_n = (-i dt / n) H term_{n-1}, so the step is one fixed
matrix, the degree-N Taylor polynomial P of the evolution operator.  A
:func:`propagate` run on at most 256 grid points that takes at least as
many steps as there are points assembles D = P - I once and steps as
psi + D @ psi, one matvec; other such steps run the recurrence on the
state, 2N FFT calls.  At 256 points the per-call overhead of those FFTs
makes a step cost about 4x the matvec and the assembly about 50-80 steps;
at 768 points the matvec is the slower one.  Every other setup (a callable
U or A, or fewer sub-nodes than terms) carries each term on
Chebyshev-Lobatto sub-nodes inside the step and evaluates the in-step
cumulative integrals with a polynomial collocation rule.  The rule
integrates polynomial integrands of degree < nodes exactly, so with nodes
>= n_terms all three paths give the Taylor polynomial to round-off (a
trapezoid rule on the sub-nodes would cap every step at second order
regardless of the term count).

The Hamiltonian 0.5*(i d/dx + A(t))^2 + U(x, t) is applied spectrally on a
periodic grid; the vector potential is spatially uniform so the kinetic
part stays diagonal per mode, where i d/dx acts on exp(i k x) as -k.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import numpy.polynomial.chebyshev as ncheb

from .grids import Grid, GridFunction, wavenumbers

# Largest grid on which a long Taylor-form run assembles D = P - I; the
# n x n matvec grows like n^2 and, on one BLAS thread, costs as much as the
# FFT step near 512 points.
_MATRIX_MAX_SIZE = 256
# Complex values per block of identity rows while D is assembled.
_BLOCK_VALUES = 1 << 13

__all__ = [
    "NonFiniteDataError",
    "PropagationReport",
    "PropagatorStep",
    "TdseSetup",
    "cod_step",
    "hamiltonian_apply",
    "normalize",
    "propagate",
]


class NonFiniteDataError(ValueError):
    """U or A is not finite at a time where the propagator samples it."""


def normalize(psi: GridFunction) -> GridFunction:
    """Scale to unit L2 norm (grid convention sqrt(step * sum |psi|^2))."""
    n = psi.l2_norm()
    if n == 0.0:
        raise ValueError("cannot normalize the zero function")
    return psi.with_values(psi.values / n)


@dataclass
class TdseSetup:
    """Grid, interaction data and the initial state.

    ``potential`` is either a callable mapping (x_array, t) to real values
    or, for a U(x) without t, a real finite array of the grid's shape.
    ``vector_potential`` is either a callable mapping t to the spatially
    uniform A(t) or, for a constant A, a real finite number.  Callables are
    evaluated at every sub-node of every step.  Array and number data are
    sampled once: with both, :func:`cod_step` takes the Taylor path, and a
    mixed setup reuses them at every sub-node.  The initial state must be
    L2-normalized to 1 within 1e-12, and U and A finite at t = 0; a
    callable that is not finite at a later sub-node raises
    :class:`NonFiniteDataError` from that step.  ``x``
    and ``k`` hold the grid points and wavenumbers; ``kinetic`` holds
    0.5*(k - A)^2 for a number A and is None for a callable one;
    ``spectral_radius`` is the crude bound max_k 0.5*(|k|+|A|)^2 + max|U|
    at t = 0 that :func:`propagate` checks dt against.  ``_step_matrix``
    holds ((dt, n_terms), D) once :func:`propagate` has assembled the Taylor
    step's D = P - I for that step, else None; one matrix at a time.
    """

    grid: Grid
    potential: np.ndarray | Callable[[np.ndarray, float], np.ndarray]
    vector_potential: float | Callable[[float], float]
    psi0: GridFunction
    x: np.ndarray = field(init=False, repr=False, compare=False)
    k: np.ndarray = field(init=False, repr=False, compare=False)
    kinetic: Optional[np.ndarray] = field(init=False, repr=False, compare=False)
    spectral_radius: float = field(init=False, repr=False, compare=False)
    _step_matrix: Optional[tuple] = field(default=None, init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        if self.psi0.grid != self.grid:
            raise ValueError("psi0 lives on a different grid")
        drift = abs(self.psi0.l2_norm() - 1.0)
        if not drift <= 1e-12:
            raise ValueError(f"psi0 must be L2-normalized to 1, off by {drift:g}")
        if not callable(self.potential):
            u = np.asarray(self.potential)
            if u.shape != (self.grid.count,):
                raise ValueError(f"potential array must have shape ({self.grid.count},), "
                                 f"got {u.shape}")
            if np.iscomplexobj(u):
                raise ValueError("potential array must be real")
            self.potential = u.astype(float)
        if not callable(self.vector_potential):
            if np.iscomplexobj(self.vector_potential):
                raise ValueError("vector potential must be real")
            self.vector_potential = float(self.vector_potential)
        self.x = self.grid.points()
        self.k = wavenumbers(self.grid)
        u0, a0 = _node_samples(self, np.array([0.0]))
        k_max = float(np.max(np.abs(self.k)))
        self.spectral_radius = (0.5 * (k_max + abs(float(a0[0]))) ** 2
                                + float(np.max(np.abs(u0))))
        self.kinetic = (None if callable(self.vector_potential)
                        else 0.5 * (self.k - self.vector_potential) ** 2)


@dataclass
class PropagatorStep:
    """Step configuration: dt, series term count, sub-node count.

    nodes >= n_terms keeps the in-step integrals exact on the polynomial
    integrands a time-independent Hamiltonian produces, and lets t-free
    array/number data take the Taylor path of :func:`cod_step`.
    quadrature_nodes defaults to n_terms + 1, one above that minimum; the
    recorded outputs of t-dependent runs use that default.  dt times the
    spectral radius of the Hamiltonian should stay below 1; larger values
    are reported as a warning by :func:`propagate`.
    """

    dt: float
    n_terms: int
    quadrature_nodes: Optional[int] = None
    _rule: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_terms < 1:
            raise ValueError(f"n_terms must be at least 1, got {self.n_terms}")
        if self.quadrature_nodes is not None and self.quadrature_nodes < 2:
            raise ValueError("quadrature_nodes must be at least 2")

    @property
    def nodes(self) -> int:
        if self.quadrature_nodes is not None:
            return self.quadrature_nodes
        return max(2, self.n_terms + 1)

    def steps_to(self, t_final: float) -> int:
        """The step count to t_final, or ValueError when t_final is not a
        positive multiple of dt."""
        ratio = t_final / self.dt
        n_steps = round(ratio)
        if n_steps < 1 or abs(ratio - n_steps) > 1e-9 * max(1.0, abs(ratio)):
            raise ValueError("t_final must be a positive multiple of dt")
        return n_steps

    def integration_rule(self):
        """Sub-node offsets in [0, dt] and the cumulative integration matrix.

        Q[i, j] is the integral from 0 to node i of the Lagrange basis
        polynomial of node j, so (Q @ f_samples) gives the cumulative
        integral of the degree-(nodes-1) interpolant at every node.
        """
        if self._rule is None:
            m = self.nodes
            s = -np.cos(np.pi * np.arange(m) / (m - 1))  # Chebyshev-Lobatto on [-1, 1]
            vander = ncheb.chebvander(s, m - 1)
            to_coeffs = np.linalg.inv(vander)
            q = np.empty((m, m))
            for j in range(m):
                antider = ncheb.chebint(to_coeffs[:, j], lbnd=-1.0)
                q[:, j] = ncheb.chebval(s, antider)
            taus = (s + 1.0) * (0.5 * self.dt)
            self._rule = (taus, 0.5 * self.dt * q)
        return self._rule


def _node_samples(setup: TdseSetup, times: np.ndarray):
    """U and A at ``times``: an (m, n) and an (m,) stack of samples.

    Array and number data give one row of each instead, with no call and
    no copy; it broadcasts against the m rows of every stack it meets.
    Non-finite samples raise :class:`NonFiniteDataError` naming the first
    time they occur at; the callables run with numpy's floating-point
    warnings silenced, since that error reports the fault.
    """
    with np.errstate(all="ignore"):
        if callable(setup.potential):
            n = setup.x.size
            u = np.stack([np.broadcast_to(np.asarray(setup.potential(setup.x, t)), (n,))
                          for t in times])
        else:
            u = setup.potential[None, :]
        if callable(setup.vector_potential):
            a = np.array([setup.vector_potential(t) for t in times])
        else:
            a = np.array([setup.vector_potential])
    bad_u = ~np.isfinite(u).all(axis=1)
    if bad_u.any():
        raise NonFiniteDataError(
            f"potential must be finite on the grid at t = {times[bad_u.argmax()]:g}")
    bad_a = ~np.isfinite(a)
    if bad_a.any():
        i = bad_a.argmax()
        raise NonFiniteDataError(f"vector potential must be finite at t = {times[i]:g}, "
                                 f"got {a[i]}")
    return u, a


def hamiltonian_apply(setup: TdseSetup, psi: GridFunction, t: float) -> GridFunction:
    """Apply 0.5*(i d/dx + A(t))^2 + U(., t): spectral kinetic part plus
    pointwise potential."""
    u, a = _node_samples(setup, np.array([t]))
    kinetic = np.fft.ifft(0.5 * (setup.k - a[0]) ** 2 * np.fft.fft(psi.values))
    return psi.with_values(kinetic + u[0] * psi.values)


def _taylor_form(setup: TdseSetup, step: PropagatorStep) -> bool:
    """Whether the step is the Taylor recurrence: array U, number A and
    nodes >= n_terms."""
    return (not callable(setup.potential) and setup.kinetic is not None
            and step.nodes >= step.n_terms)


def _add_taylor_terms(setup: TdseSetup, step: PropagatorStep, term: np.ndarray,
                      total: np.ndarray) -> np.ndarray:
    """Add term_1 .. term_N of term_n = (-i dt / n) H term_{n-1} to total.

    ``term`` is term_0, complex; the recurrence runs along its last axis, so
    each row of a 2D stack is a state of its own.
    """
    for n in range(1, step.n_terms + 1):
        term = (-1j * step.dt / n) * (np.fft.ifft(setup.kinetic * np.fft.fft(term))
                                      + setup.potential * term)
        total += term
    return total


def _assemble_step_matrix(setup: TdseSetup, step: PropagatorStep) -> np.ndarray:
    """D = P - I for the Taylor step P, a block of identity rows at a time.

    Row j of a block is e_j, so the recurrence turns it into column j of
    P - I; a block holds about _BLOCK_VALUES values, which bounds the
    temporaries of the build to a few times that.
    """
    n = setup.x.size
    block = max(1, _BLOCK_VALUES // n)
    matrix = np.empty((n, n), dtype=complex)
    for start in range(0, n, block):
        stop = min(start + block, n)
        rows = np.zeros((stop - start, n), dtype=complex)
        rows[np.arange(stop - start), np.arange(start, stop)] = 1.0
        matrix[:, start:stop] = _add_taylor_terms(setup, step, rows, np.zeros_like(rows)).T
    return matrix


def cod_step(setup: TdseSetup, step: PropagatorStep, psi: GridFunction,
             t: float) -> GridFunction:
    """Advance psi from t to t + dt with the n_terms-term series.

    Uses the setup's assembled D = P - I when it was built for this dt and
    n_terms.  A step that overflows raises ValueError, without numpy
    floating-point warnings.
    """
    with np.errstate(all="ignore"):
        if not _taylor_form(setup, step):
            total = _sub_node_step(setup, step, psi, t)
        elif (setup._step_matrix is not None
              and setup._step_matrix[0] == (step.dt, step.n_terms)):
            total = setup._step_matrix[1] @ psi.values
            total += psi.values
        else:
            term = psi.values.astype(complex)
            total = _add_taylor_terms(setup, step, term, term.copy())
    if not np.isfinite(total).all():
        raise ValueError("non-finite values in propagation step")
    return psi.with_values(total)


def _sub_node_step(setup: TdseSetup, step: PropagatorStep, psi: GridFunction,
                   t: float) -> np.ndarray:
    """The series with every term carried on the step's sub-nodes."""
    taus, q = step.integration_rule()
    u_nodes, a_nodes = _node_samples(setup, t + taus)
    kinetic_factor = 0.5 * (setup.k[None, :] - a_nodes[:, None]) ** 2

    terms = np.empty((taus.size, setup.x.size), dtype=complex)
    terms[:] = psi.values
    total = psi.values.astype(complex)
    for _ in range(step.n_terms):
        h_terms = (
            np.fft.ifft(kinetic_factor * np.fft.fft(terms, axis=1), axis=1)
            + u_nodes * terms
        )
        terms = -1j * (q @ h_terms)
        total = total + terms[-1]
    return total


@dataclass
class PropagationReport:
    """Per-step records {step, t, norm, drift} and warnings."""

    records: list
    warnings: list


def propagate(setup: TdseSetup, step: PropagatorStep,
              t_final: float) -> tuple[GridFunction, PropagationReport]:
    """Iterate :func:`cod_step` to t_final (a positive multiple of dt).

    Taylor-form data on at most _MATRIX_MAX_SIZE points, stepped at least
    as many times as there are points, first has D = P - I assembled on the
    setup: an n^2 * 16-byte matrix that replaces any held before.  The
    truncated series is not unitary; the report records the norm drift
    |norm - 1| per step and the run aborts once it exceeds 0.1.  An
    overflowing run ends on that check or on a non-finite step, without
    numpy floating-point warnings.
    """
    n_steps = step.steps_to(t_final)
    warnings = []
    if step.dt * setup.spectral_radius >= 1.0:
        warnings.append(
            f"dt * spectral radius estimate = {step.dt * setup.spectral_radius:.3g} >= 1; "
            "the truncated step may lose accuracy or amplify high modes"
        )

    records = []
    psi = setup.psi0
    n = setup.x.size
    with np.errstate(all="ignore"):
        if _taylor_form(setup, step) and n <= _MATRIX_MAX_SIZE and n_steps >= n:
            setup._step_matrix = ((step.dt, step.n_terms), _assemble_step_matrix(setup, step))
        for i in range(1, n_steps + 1):
            psi = cod_step(setup, step, psi, (i - 1) * step.dt)
            norm = psi.l2_norm()
            drift = abs(norm - 1.0)
            records.append({"step": i, "t": i * step.dt, "norm": norm, "drift": drift})
            if drift > 0.1:
                raise RuntimeError(
                    f"propagation unstable: norm drift {drift:.3g} at step {i}"
                )
    return psi, PropagationReport(records=records, warnings=warnings)
