import math

import numpy as np
import pytest

from codseries.exp_potential import (
    ExpPotentialProblem,
    general_solution,
    particular_solution,
    resolvent_ratio,
)
from codseries.grids import Grid, second_diff


class TestResolventRatio:
    def test_generating_mode_neighbor(self):
        for m in (0.5, 1.0, 2.0):
            assert resolvent_ratio(m, 1.0 + 1j * m) == pytest.approx(1.0 / (1.0 + 2j * m))

    def test_general_shifted_mode(self):
        m = 1.3
        for n in (1, 2, 5):
            expected = 1.0 / (n * n + 2j * m * n)
            assert resolvent_ratio(m, n + 1j * m) == pytest.approx(expected)

    def test_zero_mass(self):
        assert resolvent_ratio(0.0, 1.0) == pytest.approx(1.0)

    def test_pole_rejected(self):
        with pytest.raises(ValueError, match="on-shell pole"):
            resolvent_ratio(1.0, 1j)


class TestProductCoefficients:
    def test_first_product(self):
        sol = particular_solution(ExpPotentialProblem(1.0, 1.0), 5)
        assert sol.product_coeffs[0] == pytest.approx(0.2 - 0.4j)

    def test_strictly_decreasing_and_factorial_bounded(self):
        sol = particular_solution(ExpPotentialProblem(0.7, 1.0), 20)
        mags = np.abs(sol.product_coeffs)
        assert np.all(np.diff(mags) < 0)
        for n, mag in enumerate(mags, start=1):
            assert mag <= 1.0 / math.factorial(n) ** 2 + 1e-300

    def test_zero_mass_degenerate(self):
        with pytest.raises(ValueError, match="zero-energy degenerate"):
            particular_solution(ExpPotentialProblem(0.0, 1.0), 5)

    def test_term_count_validated(self):
        with pytest.raises(ValueError):
            particular_solution(ExpPotentialProblem(1.0, 1.0), 0)


class TestEvaluation:
    def test_zero_amplitude_plane_wave(self):
        sol = particular_solution(ExpPotentialProblem(1.5, 0.0), 10)
        x = np.linspace(-3.0, 1.0, 41)
        assert np.allclose(sol.evaluate(x), np.exp(1.5j * x), atol=1e-15)

    def test_matches_symbolic_monomial_iteration(self):
        # iterate the cycle map on exponential monomials: multiply by the
        # potential (shift the integer exponent) then divide by the
        # resolvent factor; an independent composition of the same algebra
        m, amp, n_terms = 1.0, 1.0, 12
        modes = {0: 1.0 + 0.0j}
        total = {0: 1.0 + 0.0j}
        for _ in range(n_terms):
            new = {}
            for n, coeff in modes.items():
                shifted = n + 1
                new[shifted] = coeff * amp * resolvent_ratio(m, shifted + 1j * m)
            modes = new
            for n, coeff in modes.items():
                total[n] = total.get(n, 0.0) + coeff
        for x in (0.0, -1.0, 0.5):
            direct = sum(c * np.exp((n + 1j * m) * x) for n, c in total.items())
            series = particular_solution(ExpPotentialProblem(m, amp), n_terms)
            assert series.evaluate(x) == pytest.approx(direct, abs=1e-12)

    def test_conjugate_series(self):
        # general_solution's conjugate series is the m -> -m particular solution
        x = np.linspace(-2.0, 1.0, 31)
        sol = particular_solution(ExpPotentialProblem(1.0, 1.0), 15)
        conj = particular_solution(ExpPotentialProblem(-1.0, 1.0), 15)
        assert np.array_equal(conj.product_coeffs, np.conj(sol.product_coeffs))
        assert np.allclose(conj.evaluate(x), np.conj(sol.evaluate(x)), atol=1e-14)
        only_c2 = general_solution(ExpPotentialProblem(1.0, 1.0, c1=0.0, c2=1.0), 15)
        assert np.array_equal(only_c2(x), conj.evaluate(x))

    def test_tail_bounded_by_factorial_envelope(self):
        problem = ExpPotentialProblem(1.0, 1.0)
        x = np.linspace(-2.0, 1.0, 31)
        short = particular_solution(problem, 8).evaluate(x)
        long = particular_solution(problem, 24).evaluate(x)
        growth = np.exp(x)
        envelope = sum(growth ** n / math.factorial(n) ** 2 for n in range(9, 25))
        assert np.all(np.abs(long - short) <= envelope + 1e-14)


class TestGeneralSolution:
    def test_c2_zero_is_particular(self):
        problem = ExpPotentialProblem(1.0, 1.0, c1=1.0, c2=0.0)
        sol = particular_solution(problem, 10)
        full = general_solution(problem, 10)
        x = np.linspace(-1.0, 1.0, 21)
        assert np.allclose(full(x), sol.evaluate(x), atol=1e-15)

    def test_zero_amplitude_cosine_combination(self):
        m = 2.0
        problem = ExpPotentialProblem(m, 0.0, c1=0.5, c2=0.5)
        full = general_solution(problem, 5)
        x = np.linspace(-2.0, 2.0, 41)
        assert np.allclose(full(x), np.cos(m * x), atol=1e-14)

    def test_discrete_residual_small(self):
        problem = ExpPotentialProblem(1.0, 1.0, c1=1.0, c2=0.0)
        grid = Grid.from_interval(-5.0, 1.0, 3001)
        x = grid.points()
        psi = general_solution(problem, 30)(x)
        residual = second_diff(psi, grid.step) + (1.0 - np.exp(x)) * psi
        assert np.max(np.abs(residual)) <= 1e-4

    def test_geometric_ratio_converges_for_all_real_m(self):
        # the nested-series ratio has modulus m^2/(1+m^2) < 1
        for m in (0.1, 1.0, 5.0, 50.0):
            ratio = -m * m / (1.0 + 1j * m) ** 2
            assert abs(ratio) < 1.0

    def test_residual_decays_with_term_count_until_grid_floor(self):
        problem = ExpPotentialProblem(1.0, 1.0, c1=1.0, c2=0.0)
        grid = Grid.from_interval(-5.0, 1.0, 3001)
        x = grid.points()

        def residual_sup(n_terms):
            psi = general_solution(problem, n_terms)(x)
            residual = second_diff(psi, grid.step) + (1.0 - np.exp(x)) * psi
            return np.max(np.abs(residual))

        r5, r10, r30 = residual_sup(5), residual_sup(10), residual_sup(30)
        assert r5 > 10.0 * r10
        assert r10 >= r30
        assert r30 <= 1e-4  # the second-difference floor at this step
