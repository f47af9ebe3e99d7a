"""Short-step series propagator for the time-dependent problem.

One step of length dt accumulates the iterated-integral series

    psi(t+dt) = sum_n term_n(t+dt),
    term_0 = psi(t),
    term_{n+1}(t') = -i * integral_t^{t'} H(tau) term_n(tau) dtau.

No time ordering is introduced: for a time-independent Hamiltonian the
N-term step is exactly the degree-N Taylor polynomial of the evolution
operator, which pins the per-step accuracy at order N+1.

A step takes one of two paths, chosen from the form of the data.  With U
an array, A a number and nodes >= n_terms, term_n = (-i dt / n) H term_{n-1}
in closed form, so the step is the Taylor polynomial P = p(-i dt H), run as
a recurrence on the state with 2N FFT calls.  Every other setup carries
each term on Chebyshev-Lobatto sub-nodes inside the step and integrates it
with a polynomial collocation rule, exact on integrands of degree < nodes:
with nodes >= n_terms both paths give P to round-off (a trapezoid rule
would cap every step at second order whatever the term count).

A :func:`propagate` run of Taylor form with dt * spectral_radius < 1, on at
most 1024 points and of at least n * max(1, n // 512) steps (n // 256 when
A != 0 makes H complex), takes no steps: one eigh of the dense H gives step
k as W p(-i dt lam)^k W^H psi0.  On two cores that eigh costs 0.2-0.9 FFT
steps per point up to 1024 points for a real H, and 0.6, 1.3 and 3.4 at
256, 512 and 1024 points for a complex one.  It holds about five n x n
arrays (H, eigh's copy, workspace and W): 2.5 MB at 256 real points, 40 MB
at 1024, twice that when complex.

The Hamiltonian 0.5*(i d/dx + A(t))^2 + U(x, t) is applied spectrally on a
periodic grid; the vector potential is spatially uniform so the kinetic
part stays diagonal per mode, where i d/dx acts on exp(i k x) as -k.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import numpy.polynomial.chebyshev as ncheb

from .grids import Grid, GridFunction, wavenumbers

# Largest grid a long Taylor-form run is stepped in H's eigenbasis on.
_EIGEN_MAX_SIZE = 1024
# Values per block of the (steps x modes) gains while the norms are formed.
_NORM_BLOCK_VALUES = 1 << 14

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
    :class:`NonFiniteDataError` from that step.  ``x`` and ``k`` hold the
    grid points and wavenumbers; ``kinetic`` holds 0.5*(k - A)^2 for a
    number A and is None for a callable one;
    ``spectral_radius`` is the crude bound max_k 0.5*(|k|+|A|)^2 + max|U|
    at t = 0 that :func:`propagate` checks dt against.
    """

    grid: Grid
    potential: np.ndarray | Callable[[np.ndarray, float], np.ndarray]
    vector_potential: float | Callable[[float], float]
    psi0: GridFunction
    x: np.ndarray = field(init=False, repr=False, compare=False)
    k: np.ndarray = field(init=False, repr=False, compare=False)
    kinetic: Optional[np.ndarray] = field(init=False, repr=False, compare=False)
    spectral_radius: float = field(init=False, repr=False, compare=False)

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


def cod_step(setup: TdseSetup, step: PropagatorStep, psi: GridFunction,
             t: float) -> GridFunction:
    """Advance psi from t to t + dt with the n_terms-term series.

    A step that overflows raises ValueError, without numpy floating-point
    warnings.
    """
    with np.errstate(all="ignore"):
        if not _taylor_form(setup, step):
            total = _sub_node_step(setup, step, psi, t)
        else:  # term_n = (-i dt / n) H term_{n-1}
            term = psi.values.astype(complex)
            total = term.copy()
            for n in range(1, step.n_terms + 1):
                term = (-1j * step.dt / n) * (np.fft.ifft(setup.kinetic * np.fft.fft(term))
                                              + setup.potential * term)
                total += term
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


def _by_parts(apply, values: np.ndarray) -> np.ndarray:
    """Real-linear ``apply`` on each part of complex values: no complex copy."""
    if not np.iscomplexobj(values):
        return apply(values)
    return apply(values.real) + 1j * apply(values.imag)


def _eigen_propagate(setup: TdseSetup, step: PropagatorStep, n_steps: int):
    """The run's final state and norms from H = W diag(lam) W^H, p = 1 + q:
    norm_k^2 = |psi0|^2 sum w e^(k g) with weights w ~ |W^H psi0|^2 summing
    to 1 and gains g = log1p(2 Re q + |q|^2), exact where |p|^(2k) is not."""
    n = setup.x.size
    # the circulant C[j, l] = column[(j - l) % n] has row j = window n - 1 - j
    # of the column reversed and wrapped; A = 0 makes it real (k^2 is even)
    column = (np.fft.irfft(setup.kinetic[: n // 2 + 1], n) if setup.vector_potential == 0.0
              else np.fft.ifft(setup.kinetic))
    wrapped = np.concatenate((column[::-1], column[:0:-1]))
    h = np.lib.stride_tricks.sliding_window_view(wrapped, n)[::-1].copy()
    h.reshape(-1)[:: n + 1] += setup.potential
    lam, w = np.linalg.eigh(h)
    del h

    coeffs = _by_parts(lambda v: (v @ w).conj(), setup.psi0.values)
    q = 0.0
    for order in range(step.n_terms, 0, -1):  # Horner: q = z + z^2/2 + ... + z^N/N!
        q = -1j * step.dt * lam / order * (1.0 + q)
    gain = np.log1p(2.0 * q.real + np.abs(q) ** 2)
    final = _by_parts(lambda v: w @ v,
                      coeffs * np.exp(n_steps * (0.5 * gain + 1j * np.angle(1.0 + q))))
    del w

    weights = np.abs(coeffs) ** 2
    weights /= weights.sum()
    block = max(1, _NORM_BLOCK_VALUES // n)
    norms = np.empty(n_steps)
    for start in range(0, n_steps, block):
        ks = np.arange(start + 1, min(start + block, n_steps) + 1)
        norms[start:start + ks.size] = np.exp(np.multiply.outer(ks, gain)) @ weights
    return setup.psi0.with_values(final), (setup.psi0.l2_norm() * np.sqrt(norms)).tolist()


def propagate(setup: TdseSetup, step: PropagatorStep,
              t_final: float) -> tuple[GridFunction, PropagationReport]:
    """Iterate :func:`cod_step` to t_final (a positive multiple of dt), or run
    in H's eigenbasis where the module docstring's rule allows.  The report
    records the norm drift |norm - 1| per step and the run aborts once it
    exceeds 0.1; an overflowing run ends on that check or on a non-finite
    step, without numpy floating-point warnings."""
    n_steps = step.steps_to(t_final)
    stable = step.dt * setup.spectral_radius < 1.0
    warnings = [] if stable else [
        f"dt * spectral radius estimate = {step.dt * setup.spectral_radius:.3g} >= 1; "
        "the truncated step may lose accuracy or amplify high modes"]
    n = setup.x.size
    # the steps an eigh pays for, with the margin the module docstring's
    # crossovers leave; a complex H (A != 0) costs 2-5x a real one
    eigen_steps = n * max(1, n // (512 if setup.vector_potential == 0.0 else 256))
    with np.errstate(all="ignore"):
        if (stable and _taylor_form(setup, step) and n <= _EIGEN_MAX_SIZE
                and n_steps >= eigen_steps):
            psi, norms = _eigen_propagate(setup, step, n_steps)
        else:
            psi, norms = setup.psi0, []
            for i in range(n_steps):
                psi = cod_step(setup, step, psi, i * step.dt)
                norms.append(psi.l2_norm())
                if abs(norms[-1] - 1.0) > 0.1:
                    break
    records = []
    for i, norm in enumerate(norms, 1):
        drift = abs(norm - 1.0)
        records.append({"step": i, "t": i * step.dt, "norm": norm, "drift": drift})
        if drift > 0.1:
            raise RuntimeError(f"propagation unstable: norm drift {drift:.3g} at step {i}")
    return psi, PropagationReport(records=records, warnings=warnings)
