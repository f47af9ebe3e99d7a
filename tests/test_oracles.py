import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codseries import oracles
from codseries.grids import Grid, GridFunction
from codseries.oracles import _rk4_run, crank_nicolson, leapfrog_wave, rk4_oscillator
from codseries.oscillator import power_series_solution
from codseries.tdse import TdseSetup, normalize
from codseries.wave import WaveProblem

TWO_PI = 2.0 * np.pi


def scalar_rk4_run(omega_sq, a, b, grid, substeps, num=complex):
    """Reference: RK4 with one scalar omega_sq call per stage, in the
    arithmetic of ``num``; the times always advance in float64."""
    step = grid.step / substeps
    h = num(step)
    y1, y2 = num(a), num(b)
    f = [y1]
    t = grid.start
    for i in range(1, grid.count):
        for _ in range(substeps):
            k1a = y2
            k1b = -num(omega_sq(t)) * y1
            k2a = y2 + 0.5 * h * k1b
            k2b = -num(omega_sq(t + 0.5 * step)) * (y1 + 0.5 * h * k1a)
            k3a = y2 + 0.5 * h * k2b
            k3b = -num(omega_sq(t + 0.5 * step)) * (y1 + 0.5 * h * k2a)
            k4a = y2 + h * k3b
            k4b = -num(omega_sq(t + step)) * (y1 + h * k3a)
            y1 = y1 + (h / 6) * (k1a + 2 * k2a + 2 * k3a + k4a)
            y2 = y2 + (h / 6) * (k1b + 2 * k2b + 2 * k3b + k4b)
            t += step
        t = grid.start + i * grid.step
        f.append(y1)
    return f


class Recorder:
    """Wraps a profile and keeps every time it is called with."""

    def __init__(self, omega_sq):
        self.omega_sq = omega_sq
        self.calls = []

    def __call__(self, t):
        self.calls.append(np.array(t, copy=True))
        return self.omega_sq(t)


PROFILES = {
    "real": lambda t: 1.0 + 0.3 * t * t - 0.1 * t,
    "complex": lambda t: (1.0 + 0.5j) - 0.2 * t,
    "growing": lambda t: -1.0 + 0.0 * t,
}


class TestRk4:
    @pytest.mark.parametrize("count, substeps", [(3000, 1), (3000, 3), (10, 700)])
    @pytest.mark.parametrize("omega_sq", [PROFILES["real"], PROFILES["complex"]])
    def test_matches_scalar_reference_loop(self, omega_sq, count, substeps):
        # the blocks must sample w2 at the very same times as a scalar loop,
        # bit for bit, across block boundaries; the values differ from the
        # loop's by the reordered round-off only
        grid = Grid.from_interval(-0.3, 0.4, count)
        scalar = Recorder(omega_sq)
        expected = np.array(scalar_rk4_run(scalar, 1.0, 0.5j, grid, substeps))
        stages = np.array(scalar.calls).reshape(-1, 4)
        assert np.array_equal(stages[:, 1], stages[:, 2])
        blocks = Recorder(omega_sq)
        got = _rk4_run(blocks, 1.0, 0.5j, grid, substeps)
        assert len(blocks.calls) > 1
        times = np.concatenate([block.reshape(3, -1).T for block in blocks.calls])
        assert np.array_equal(times, stages[:, [0, 1, 3]])
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("count, substeps, t_max", [(3000, 1, 0.4), (700, 3, 4.0)])
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_matches_high_precision_recurrence(self, profile, count, substeps, t_max):
        # the same recurrence on the same float64 samples in 40-digit
        # arithmetic: what remains is the round-off of the scan
        grid = Grid.from_interval(-0.3, t_max, count)
        omega_sq = PROFILES[profile]
        got = _rk4_run(omega_sq, 1.0, 0.5j, grid, substeps)
        with mpmath.workdps(40):
            exact = np.array([complex(v) for v in scalar_rk4_run(
                omega_sq, 1.0, 0.5j, grid, substeps, num=mpmath.mpc)])
        assert np.max(np.abs(got - exact)) <= 1e-11 * np.max(np.abs(exact))

    @settings(max_examples=40, deadline=None)
    @given(a=st.complex_numbers(max_magnitude=1e3),
           b=st.complex_numbers(max_magnitude=1e3),
           c0=st.floats(-2.0, 2.0), c1=st.floats(-2.0, 2.0),
           complex_profile=st.booleans(),
           count=st.integers(2, 2500), substeps=st.integers(1, 4))
    def test_linear_in_the_initial_data(self, a, b, c0, c1, complex_profile,
                                        count, substeps):
        c1 = c1 * 1j if complex_profile else c1
        omega_sq = lambda t: c0 + c1 * np.sin(3.0 * t)
        grid = Grid.from_interval(0.0, 2.0, count)
        f1 = _rk4_run(omega_sq, 1.0, 0.0, grid, substeps)
        f2 = _rk4_run(omega_sq, 0.0, 1.0, grid, substeps)
        got = _rk4_run(omega_sq, a, b, grid, substeps)
        scale = abs(a) * np.max(np.abs(f1)) + abs(b) * np.max(np.abs(f2))
        assert np.max(np.abs(got - (a * f1 + b * f2))) <= 1e-13 * scale

    def test_no_per_step_python_loop(self):
        # timing-free guard: a Python loop over the RK4 steps would run at
        # least one line of oracles.py per step
        grid = Grid.from_interval(0.0, 1.0, 10001)
        lines = 0

        def tracer(frame, event, arg):
            nonlocal lines
            if frame.f_code.co_filename != oracles.__file__:
                return None
            lines += event == "line"
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            result = rk4_oscillator(lambda t: 1.0 - 0.5 * np.sin(t), 1.0, 0.0, 0.0, grid)
        finally:
            sys.settrace(previous)
        substeps = result.diagnostics["substeps"]
        assert substeps == 2
        # the Richardson loop marches with 1, 2, 4, ..., substeps substeps
        steps = (grid.count - 1) * (2 * substeps - 1)
        assert lines < steps / 10

    def test_constant_frequency_cosine(self):
        grid = Grid.from_interval(0.0, 1.0, 201)
        result = rk4_oscillator(lambda t: 1.0, 1.0, 0.0, 0.0, grid)
        assert result.error_estimate <= 1e-9
        assert np.max(np.abs(result.solution.values - np.cos(grid.points()))) <= 1e-9

    def test_negative_frequency_cosh(self):
        grid = Grid.from_interval(0.0, 1.0, 201)
        result = rk4_oscillator(lambda t: -1.0, 1.0, 0.0, 0.0, grid)
        assert np.max(np.abs(result.solution.values - np.cosh(grid.points()))) <= 1e-9

    def test_agrees_with_monomial_series(self):
        grid = Grid.from_interval(0.0, 1.0, 501)
        result = rk4_oscillator(lambda t: -t, 1.0, 0.0, 0.0, grid)
        series = power_series_solution(1.0, 25)
        assert np.max(np.abs(result.solution.values.real
                             - series.evaluate(grid.points()))) <= 1e-7

    def test_requires_start_at_t0(self):
        grid = Grid.from_interval(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="grid start"):
            rk4_oscillator(lambda t: 1.0, 1.0, 0.0, 0.5, grid)

    def test_fourth_order_self_check(self):
        grid = Grid.from_interval(0.0, 1.0, 6)
        truth = np.cos(grid.points())
        err1 = np.max(np.abs(_rk4_run(lambda t: 1.0, 1.0, 0.0, grid, 1) - truth))
        err2 = np.max(np.abs(_rk4_run(lambda t: 1.0, 1.0, 0.0, grid, 2) - truth))
        assert 10.0 < err1 / err2 < 24.0


class TestCrankNicolson:
    def free_setup(self, n=32, length=8.0 * np.pi):
        grid = Grid.periodic(0.0, length, n)
        x = grid.points()
        psi = normalize(GridFunction(grid, np.exp(-(x - length / 2) ** 2 / 2.0)))
        return TdseSetup(grid, lambda xv, t: np.zeros_like(xv), lambda t: 0.0, psi)

    def test_free_packet_matches_analytic_dispersion(self):
        setup = self.free_setup()
        t_final = 0.05
        result = crank_nicolson(setup, 1e-4, t_final, validate=False)
        k = 2.0 * np.pi * np.fft.fftfreq(setup.grid.count, d=setup.grid.step)
        analytic = np.fft.ifft(np.fft.fft(setup.psi0.values)
                               * np.exp(-0.5j * k ** 2 * t_final))
        assert np.max(np.abs(result.solution.values - analytic)) <= 1e-6

    def test_norm_conserved_over_thousand_steps(self):
        setup = self.free_setup(n=16)
        result = crank_nicolson(setup, 1e-2, 10.0, validate=False)
        assert abs(result.solution.l2_norm() - 1.0) <= 1e-12

    def test_second_order_self_check(self):
        setup = self.free_setup(n=16)
        fine = crank_nicolson(setup, 1e-3, 0.2, validate=False).solution.values
        err1 = np.max(np.abs(
            crank_nicolson(setup, 4e-2, 0.2, validate=False).solution.values - fine))
        err2 = np.max(np.abs(
            crank_nicolson(setup, 2e-2, 0.2, validate=False).solution.values - fine))
        assert 2.8 < err1 / err2 < 5.5

    def test_validation_estimate_reported(self):
        setup = self.free_setup(n=16)
        result = crank_nicolson(setup, 1e-2, 0.1, validate=True)
        assert np.isfinite(result.error_estimate)
        assert result.error_estimate < 1e-4

    def test_harmonic_revival_period(self):
        # harmonic spectrum is equally spaced, so |psi| revives at 2 pi; the
        # coherent state's center and mean momentum trace (2 cos t, -2 sin t),
        # so their phase at t = pi and at t = 2 pi measures the period
        length, n = 20.0, 64
        grid = Grid.periodic(-10.0, length, n)
        x = grid.points()
        k = TWO_PI * np.fft.fftfreq(n, d=grid.step)
        setup = TdseSetup(grid, lambda xv, t: 0.5 * xv ** 2, lambda t: 0.0,
                          normalize(GridFunction(grid, np.exp(-(x - 2.0) ** 2 / 2.0))))
        dt = 2.0 * np.pi / 2048
        for t_final in (np.pi, 2.0 * np.pi):
            final = crank_nicolson(setup, dt, t_final, validate=False).solution.values
            center = float(np.sum(x * np.abs(final) ** 2) * grid.step)
            spectrum = np.abs(np.fft.fft(final)) ** 2
            momentum = float(np.sum(k * spectrum) / np.sum(spectrum))
            # the phase t_final * 2 pi / period, unwrapped around t_final
            phase = t_final + np.angle(complex(center, -momentum) * np.exp(-1j * t_final))
            period = TWO_PI * t_final / phase
            assert abs(period - 2.0 * np.pi) <= 0.005 * 2.0 * np.pi
        assert np.max(np.abs(np.abs(final) - np.abs(setup.psi0.values))) <= 5e-3

    def test_t_final_must_be_multiple(self):
        setup = self.free_setup(n=16)
        with pytest.raises(ValueError, match="multiple"):
            crank_nicolson(setup, 1e-2, 0.015)


class TestLeapfrog:
    def make_problem(self, nx=16, eps_fn=np.ones_like):
        x_grid = Grid.periodic(0.0, TWO_PI, nx)
        x = x_grid.points()
        return x_grid, WaveProblem(
            GridFunction(x_grid, eps_fn(x)),
            GridFunction(x_grid, np.sin(x)),
            GridFunction(x_grid, np.zeros(nx)),
        )

    def test_standing_wave(self):
        x_grid, problem = self.make_problem()
        t_grid = Grid.from_interval(0.0, np.pi, 401)
        result = leapfrog_wave(problem, x_grid, t_grid, space_refine=64, substeps=4)
        x, t = x_grid.points(), t_grid.points()
        expected = np.sin(x)[None, :] * np.cos(t)[:, None]
        assert np.max(np.abs(result.solution.values - expected)) <= 1e-5
        assert result.error_estimate <= 1e-5

    def test_energy_drift_tiny(self):
        x_grid, problem = self.make_problem(eps_fn=lambda x: 1.0 + 0.5 * np.cos(x))
        t_grid = Grid.from_interval(0.0, 1.0, 201)
        result = leapfrog_wave(problem, x_grid, t_grid, space_refine=8, substeps=2)
        assert result.diagnostics["energy_drift"] <= 1e-6

    def test_zero_data(self):
        x_grid = Grid.periodic(0.0, TWO_PI, 8)
        problem = WaveProblem(GridFunction(x_grid, np.ones(8)),
                              GridFunction(x_grid, np.zeros(8)),
                              GridFunction(x_grid, np.zeros(8)))
        t_grid = Grid.from_interval(0.0, 1.0, 11)
        result = leapfrog_wave(problem, x_grid, t_grid, space_refine=2, substeps=2)
        assert np.max(np.abs(result.solution.values)) == 0.0

    def test_cfl_violation(self):
        x_grid, problem = self.make_problem(nx=64)
        t_grid = Grid.from_interval(0.0, 1.0, 3)  # dt = 0.5 >> dx
        with pytest.raises(ValueError, match="CFL"):
            leapfrog_wave(problem, x_grid, t_grid, space_refine=1, substeps=1,
                          richardson=False)

    def test_richardson_needs_even_refinements(self):
        x_grid, problem = self.make_problem()
        t_grid = Grid.from_interval(0.0, 1.0, 101)
        with pytest.raises(ValueError, match="even"):
            leapfrog_wave(problem, x_grid, t_grid, space_refine=3, substeps=2)

    def test_second_order_self_check(self):
        # error against the separable solution must drop ~4x when both the
        # spatial refinement and the substep count are doubled
        x_grid, problem = self.make_problem()
        t_grid = Grid.from_interval(0.0, np.pi, 201)
        x, t = x_grid.points(), t_grid.points()
        expected = np.sin(x)[None, :] * np.cos(t)[:, None]

        def error(refine, substeps):
            result = leapfrog_wave(problem, x_grid, t_grid, space_refine=refine,
                                   substeps=substeps, richardson=False)
            return np.max(np.abs(result.solution.values - expected))

        ratio = error(4, 2) / error(8, 4)
        assert 3.0 < ratio < 5.5
