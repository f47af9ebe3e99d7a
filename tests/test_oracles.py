import numpy as np
import pytest

from codseries.grids import Grid, GridFunction
from codseries.oracles import _rk4_run, crank_nicolson, leapfrog_wave, rk4_oscillator
from codseries.oscillator import power_series_solution
from codseries.tdse import TdseSetup, normalize
from codseries.wave import WaveProblem

TWO_PI = 2.0 * np.pi


def scalar_rk4_run(omega_sq, a, b, grid, substeps):
    """Reference: RK4 with one scalar omega_sq call per stage."""
    h = grid.step / substeps
    f = np.empty(grid.count, dtype=complex)
    y1, y2 = complex(a), complex(b)
    f[0] = y1
    t = grid.start
    for i in range(1, grid.count):
        for _ in range(substeps):
            k1a = y2
            k1b = -omega_sq(t) * y1
            k2a = y2 + 0.5 * h * k1b
            k2b = -omega_sq(t + 0.5 * h) * (y1 + 0.5 * h * k1a)
            k3a = y2 + 0.5 * h * k2b
            k3b = -omega_sq(t + 0.5 * h) * (y1 + 0.5 * h * k2a)
            k4a = y2 + h * k3b
            k4b = -omega_sq(t + h) * (y1 + h * k3a)
            y1 = y1 + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
            y2 = y2 + (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
            t += h
        t = grid.start + i * grid.step
        f[i] = y1
    return f


class TestRk4:
    @pytest.mark.parametrize("count, substeps", [(3000, 1), (3000, 3), (10, 700)])
    @pytest.mark.parametrize("omega_sq", [
        lambda t: 1.0 + 0.3 * t * t - 0.1 * t,
        lambda t: (1.0 + 0.5j) - 0.2 * t,
    ])
    def test_matches_scalar_reference_loop(self, omega_sq, count, substeps):
        # sampling w2 in blocks must visit the very same times and
        # reproduce the scalar loop bit for bit, across block boundaries
        grid = Grid.from_interval(-0.3, 0.4, count)
        got = _rk4_run(omega_sq, 1.0, 0.5j, grid, substeps)
        assert np.array_equal(got, scalar_rk4_run(omega_sq, 1.0, 0.5j, grid, substeps))

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
