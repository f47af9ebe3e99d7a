import math
from fractions import Fraction

import numpy as np
import pytest

from codseries.engine import StopPolicy, run_cod
from codseries.grids import Grid, GridFunction
from codseries.oracles import rk4_oscillator
from codseries.oscillator import (
    OscillatorProblem,
    asymptotic_exponent,
    build_scheme,
    log_series_value,
    power_series_solution,
    term_bound,
    upper_estimate,
)


def make_problem(omega_of_t, count=1001, t_max=1.0, a=1.0, b=0.0):
    grid = Grid.from_interval(0.0, t_max, count)
    return OscillatorProblem(GridFunction(grid, omega_of_t(grid.points())),
                             0.0, 0.0, a, b)


class TestScheme:
    def test_zero_frequency_keeps_generating_function(self):
        problem = make_problem(lambda t: np.zeros_like(t), count=101, a=2.0, b=-1.0)
        run = run_cod(build_scheme(problem), StopPolicy(tol=1e-12, max_terms=5))
        t = problem.omega_sq.grid.points()
        assert np.allclose(run.partial_sum.values, 2.0 - t, atol=1e-14)

    def test_first_term_is_minus_half_t_squared(self):
        problem = make_problem(lambda t: np.ones_like(t), count=101)
        scheme = build_scheme(problem)
        term1 = scheme.cycle_map(scheme.generating)
        t = problem.omega_sq.grid.points()
        assert np.allclose(term1.values, -t ** 2 / 2.0, atol=1e-14)

    def test_condition_points_must_be_on_grid(self):
        grid = Grid.from_interval(0.0, 1.0, 101)
        w2 = GridFunction(grid, np.ones(101))
        with pytest.raises(ValueError, match="limit not on grid"):
            OscillatorProblem(w2, 0.005, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="limit not on grid"):
            OscillatorProblem(w2, 0.0, 1.0005, 1.0, 0.0)

    def test_mixed_condition_points_run(self):
        # t_a != t_b is accepted; the generating function carries the data
        grid = Grid.from_interval(0.0, 1.0, 101)
        problem = OscillatorProblem(GridFunction(grid, np.zeros(101)),
                                    0.0, 0.5, 1.0, 2.0)
        run = run_cod(build_scheme(problem), StopPolicy(tol=1e-12, max_terms=5))
        assert np.allclose(run.partial_sum.values, 1.0 + 2.0 * grid.points(),
                           atol=1e-14)

    def test_mixed_condition_points_meet_both_conditions(self):
        # f'' + f = 0, f(0) = 1, f'(0.5) = 0.3: f = cos t + B sin t
        b_coef = (0.3 + math.sin(0.5)) / math.cos(0.5)
        derivative_errors = []
        for count in (1001, 2001):
            grid = Grid.from_interval(0.0, 1.0, count)
            t = grid.points()
            problem = OscillatorProblem(GridFunction(grid, np.ones(count)),
                                        0.0, 0.5, 1.0, 0.3)
            run = run_cod(build_scheme(problem), StopPolicy(tol=1e-10, max_terms=40))
            assert run.stop_reason == "converged"
            f = run.partial_sum.values
            assert abs(f[0] - 1.0) <= 1e-14
            i = grid.index_of(0.5)
            derivative_errors.append(abs((f[i + 1] - f[i - 1]) / (2.0 * grid.step) - 0.3))
            closed_form = np.cos(t) + b_coef * np.sin(t)
            assert np.max(np.abs(f - closed_form)) <= 5e-8 * (1000.0 / (count - 1)) ** 2
        assert derivative_errors[0] <= 1e-7
        # both conditions hold to O(h^2): halving the step quarters the error
        assert 3.5 <= derivative_errors[0] / derivative_errors[1] <= 4.5


class TestTermBound:
    def test_reference_values(self):
        assert term_bound(1, 1.0, 1.0, 1.0) == pytest.approx(0.5)
        assert term_bound(3, 1.0, 1.5, 1.0) == pytest.approx(1.5 ** 3 / math.factorial(6))
        assert term_bound(4, 2.0, 0.0, 1.0) == 0.0
        assert term_bound(4, 2.0, 3.0, 0.0) == 0.0

    def test_large_order_stays_finite(self):
        value = term_bound(300, 1.0, 2.0, 10.0)
        assert value == 0.0 or math.isfinite(value)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            term_bound(0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            term_bound(1, 1.0, -1.0, 1.0)

    def test_terms_obey_running_maximum_bound(self):
        problem = make_problem(lambda t: 1.0 - 0.5 * np.sin(t))
        scheme = build_scheme(problem)
        grid = problem.omega_sq.grid
        t = grid.points()
        running_max = np.maximum.accumulate(np.abs(problem.omega_sq.values))
        slack = 10.0 * grid.step ** 2
        term = scheme.generating
        for n in range(1, 7):
            term = scheme.cycle_map(term)
            bound = np.array([term_bound(n, 1.0, running_max[i], t[i]) if t[i] > 0 else 0.0
                              for i in range(grid.count)])
            assert np.all(np.abs(term.values) <= bound + slack)


class TestOracleAgreement:
    @pytest.mark.parametrize("omega_fn", [
        lambda t: 1.0 - 0.5 * np.sin(t),
        lambda t: 1.0 + t,
        lambda t: np.cos(3.0 * t),
    ])
    def test_converged_run_matches_rk4(self, omega_fn):
        problem = make_problem(lambda t: omega_fn(t) * np.ones_like(t), count=1001)
        run = run_cod(build_scheme(problem), StopPolicy(tol=1e-12, max_terms=40))
        grid = problem.omega_sq.grid
        oracle = rk4_oscillator(omega_fn, 1.0, 0.0, 0.0, grid)
        scale = max(1e-6, 10.0 * grid.step ** 2 * run.partial_sum.sup_norm())
        assert np.max(np.abs(run.partial_sum.values - oracle.solution.values)) <= scale


class TestAlternatingEstimate:
    def test_partial_sums_bracket_the_limit(self):
        # increasing positive frequency-squared gives a decreasing
        # alternating series; consecutive partial sums bracket the limit
        # and the truncation error is below the first omitted term
        problem = make_problem(lambda t: 1.0 + t)
        scheme = build_scheme(problem)
        converged = run_cod(scheme, StopPolicy(tol=1e-13, max_terms=30)).partial_sum.values
        term = scheme.generating
        partial = term.values.copy()
        slack = 1e-9
        for n in range(6):
            next_term = scheme.cycle_map(term)
            residual = converged - partial
            sign = -1.0 if n % 2 == 0 else 1.0
            assert np.all(sign * residual.real >= -slack)
            assert np.all(np.abs(residual) <= np.abs(next_term.values) + slack)
            term = next_term
            partial = partial + term.values


class TestPowerSeries:
    def test_alpha_zero_is_cosh(self):
        series = power_series_solution(0.0, 25)
        assert series.evaluate(1.0) == pytest.approx(np.cosh(1.0), abs=1e-12)

    def test_printed_coefficients_alpha_half(self):
        alpha = Fraction(1, 2)
        c1 = Fraction(1) / ((alpha + 1) * (alpha + 2))
        c2 = c1 / ((2 * alpha + 3) * (2 * alpha + 4))
        series = power_series_solution(0.5, 2)
        assert math.isclose(series.coefficients[1], float(c1), rel_tol=1e-14)
        assert math.isclose(series.coefficients[2], float(c2), rel_tol=1e-14)

    def test_exponent_spacing(self):
        series = power_series_solution(1.0, 4)
        assert np.allclose(series.exponents, [0.0, 3.0, 6.0, 9.0, 12.0])

    def test_coefficients_positive_decreasing(self):
        series = power_series_solution(0.5, 20)
        assert np.all(series.coefficients > 0)
        assert np.all(np.diff(series.coefficients) < 0)

    def test_alpha_one_matches_rk4_on_long_interval(self):
        grid = Grid.from_interval(0.0, 2.0, 2001)
        oracle = rk4_oscillator(lambda t: -t, 1.0, 0.0, 0.0, grid)
        assert oracle.error_estimate <= 1e-9
        series = power_series_solution(1.0, 25)
        assert np.max(np.abs(series.evaluate(grid.points())
                             - oracle.solution.values.real)) <= 1e-7

    def test_matches_numeric_series_run(self):
        grid = Grid.from_interval(0.0, 1.0, 2001)
        t = grid.points()
        problem = OscillatorProblem(GridFunction(grid, -(t ** 1.0)), 0.0, 0.0, 1.0, 0.0)
        run = run_cod(build_scheme(problem), StopPolicy(tol=1e-12, max_terms=30))
        closed = power_series_solution(1.0, 30).evaluate(t)
        assert np.max(np.abs(run.partial_sum.values - closed)) <= 1e-6

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            power_series_solution(-1.0, 5)
        with pytest.raises(ValueError):
            power_series_solution(-1.5, 5)
        with pytest.raises(ValueError):
            power_series_solution(1.0, 0)


class TestEstimates:
    def test_upper_estimate_value(self):
        assert upper_estimate(0.0, 1.0) == pytest.approx(1.0 + 0.5 * math.e, rel=1e-12)

    def test_exponent_alpha_zero_is_t(self):
        for t in (0.5, 1.0, 4.0):
            assert asymptotic_exponent(0.0, t) == pytest.approx(t)

    def test_series_below_upper_estimate(self):
        ts = np.arange(1, 81) * 0.05
        for alpha in (0.0, 0.5, 1.0, 2.0):
            series = power_series_solution(alpha, 60)
            values = series.evaluate(ts)
            uppers = np.array([upper_estimate(alpha, float(t)) for t in ts])
            assert np.all(values < uppers)

    def test_log_value_against_cosh(self):
        direct = math.log(math.cosh(30.0))
        assert log_series_value(0.0, 30.0, 400) == pytest.approx(direct, rel=1e-12)

    def test_log_value_beyond_float_range(self):
        # coefficients underflow doubles long before the series stops
        # mattering here; the log-space path must still be finite
        value = log_series_value(2.0, 30.0, 600)
        assert math.isfinite(value)
        assert value > 400.0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            upper_estimate(0.0, 0.0)
        with pytest.raises(ValueError):
            asymptotic_exponent(-2.0, 1.0)
        with pytest.raises(ValueError):
            log_series_value(0.0, -1.0, 10)
