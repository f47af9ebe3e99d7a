import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codseries.cli import main
from codseries.engine import StopPolicy, run_cod
from codseries.grids import Grid, GridFunction, first_diff
from codseries.wave import (WaveProblem, _Factored, build_wave_scheme, solve_wave,
                            write_field_csv)

TWO_PI = 2.0 * np.pi
EPS = np.finfo(float).eps


def make_problem(nx, eps_fn, s_fn, r_fn, length=TWO_PI):
    x_grid = Grid.periodic(0.0, length, nx)
    x = x_grid.points()
    return x_grid, WaveProblem(
        GridFunction(x_grid, eps_fn(x)),
        GridFunction(x_grid, s_fn(x)),
        GridFunction(x_grid, r_fn(x)),
    )


class TestValidation:
    def test_time_grid_must_start_at_zero(self):
        x_grid, problem = make_problem(8, np.ones_like, np.sin, np.zeros_like, length=1.0)
        with pytest.raises(ValueError, match="start at 0"):
            build_wave_scheme(problem, x_grid, Grid.from_interval(0.5, 1.0, 11))

    def test_fine_time_grid_accepts_linear_data_and_refuses_curved_data(self):
        # at t step 1.25e-4 the second difference of S + t R rounds to 1e-7,
        # which a tolerance of 1e-8 * (1 + sup) once refused
        x_grid, problem = make_problem(16, np.ones_like, np.sin, np.sin)
        t_grid = Grid.from_interval(0.0, 0.05, 401)
        scheme = build_wave_scheme(problem, x_grid, t_grid)
        t = t_grid.points()[:, None]
        curved = scheme.generating.with_values(scheme.generating.values + 1e-3 * t ** 2)
        with pytest.raises(ValueError, match="not annihilated"):
            dataclasses.replace(scheme, generating=curved)

    def test_axis_caps(self):
        x_grid, problem = make_problem(8, np.ones_like, np.sin, np.zeros_like, length=1.0)
        with pytest.raises(ValueError, match="capped"):
            build_wave_scheme(problem, x_grid, Grid.from_interval(0.0, 1.0, 4097))
        x_wide, wide = make_problem(4096, np.ones_like, np.sin, np.zeros_like)
        with pytest.raises(ValueError, match="capped"):
            build_wave_scheme(wide, x_wide, Grid.from_interval(0.0, 1.0, 11))

    def test_permittivity_must_be_positive(self):
        x_grid = Grid.periodic(0.0, TWO_PI, 8)
        x = x_grid.points()
        with pytest.raises(ValueError, match="positive"):
            WaveProblem(GridFunction(x_grid, np.cos(x)),
                        GridFunction(x_grid, np.zeros(8)),
                        GridFunction(x_grid, np.zeros(8)))

    def test_permittivity_must_be_real(self):
        x_grid = Grid.periodic(0.0, TWO_PI, 8)
        with pytest.raises(ValueError, match="real"):
            WaveProblem(GridFunction(x_grid, np.full(8, 1.0 + 0.1j)),
                        GridFunction(x_grid, np.zeros(8)),
                        GridFunction(x_grid, np.zeros(8)))

    def test_row_extraction(self, tmp_path):
        # the CLI snapshot at t = 0.5 is time row 2 of the written field
        assert main(["wave", "--x-size", "8", "--t-max", "1", "--t-size", "5",
                     "--snapshot", "0.5", "--out-dir", str(tmp_path)]) == 0
        field = np.loadtxt(tmp_path / "wave_field.csv", delimiter=",", ndmin=2)
        snapshot = np.loadtxt(tmp_path / "wave_snapshot.csv", delimiter=",", skiprows=1)
        assert np.array_equal(snapshot[:, 0], Grid.periodic(0.0, 2.0 * np.pi, 8).points())
        assert np.array_equal(snapshot[:, 1:].ravel(), field[2])


class TestClosedForms:
    def test_first_term_standing_mode(self):
        x_grid, problem = make_problem(16, np.ones_like, np.sin, np.zeros_like)
        t_grid = Grid.from_interval(0.0, 1.0, 101)
        scheme = build_wave_scheme(problem, x_grid, t_grid)
        term1 = scheme.cycle_map(scheme.generating)
        t = t_grid.points()
        x = x_grid.points()
        expected = -(t ** 2 / 2.0)[:, None] * np.sin(x)[None, :]
        assert np.max(np.abs(term1.values - expected)) <= 1e-12

    def test_standing_wave(self):
        x_grid, problem = make_problem(16, np.ones_like, np.sin, np.zeros_like)
        t_grid = Grid.from_interval(0.0, np.pi, 801)
        field, run = solve_wave(problem, x_grid, t_grid, StopPolicy(tol=1e-6, max_terms=30))
        assert run.stop_reason == "converged"
        x, t = x_grid.points(), t_grid.points()
        assert np.max(np.abs(field.values - np.sin(x)[None, :] * np.cos(t)[:, None])) <= 1e-5

    def test_constant_profile_terminates(self):
        x_grid, problem = make_problem(8, np.ones_like,
                                       lambda x: np.full_like(x, 2.0), np.zeros_like)
        t_grid = Grid.from_interval(0.0, 1.0, 51)
        field, run = solve_wave(problem, x_grid, t_grid, StopPolicy(tol=1e-10, max_terms=10))
        assert run.terms_used == 0
        assert np.allclose(field.values, 2.0, atol=0.0)

    def test_quadrupled_permittivity_halves_the_frequency(self):
        x_grid, problem = make_problem(16, lambda x: np.full_like(x, 4.0),
                                       np.sin, np.zeros_like)
        t_grid = Grid.from_interval(0.0, np.pi, 801)
        field, _ = solve_wave(problem, x_grid, t_grid, StopPolicy(tol=1e-8, max_terms=30))
        x, t = x_grid.points(), t_grid.points()
        expected = np.sin(x)[None, :] * np.cos(t / 2.0)[:, None]
        assert np.max(np.abs(field.values - expected)) <= 1e-5

    def test_velocity_initial_data(self):
        x_grid, problem = make_problem(16, np.ones_like, np.zeros_like, np.sin)
        t_grid = Grid.from_interval(0.0, np.pi, 801)
        field, _ = solve_wave(problem, x_grid, t_grid, StopPolicy(tol=1e-6, max_terms=30))
        x, t = x_grid.points(), t_grid.points()
        expected = np.sin(x)[None, :] * np.sin(t)[:, None]
        assert np.max(np.abs(field.values - expected)) <= 1e-5

    def test_zero_data_zero_field(self):
        x_grid, problem = make_problem(8, np.ones_like, np.zeros_like, np.zeros_like)
        t_grid = Grid.from_interval(0.0, 1.0, 21)
        field, run = solve_wave(problem, x_grid, t_grid, StopPolicy(tol=1e-10, max_terms=5))
        assert np.array_equal(field.values, np.zeros((21, 8)))
        assert run.terms_used == 0


class TestInitialData:
    def test_first_row_is_exactly_s(self):
        x_grid, problem = make_problem(16, lambda x: 1.0 + 0.25 * np.cos(x),
                                       np.sin, np.cos)
        t_grid = Grid.from_interval(0.0, 0.5, 201)
        field, _ = solve_wave(problem, x_grid, t_grid, StopPolicy(tol=1e-9, max_terms=30))
        assert np.array_equal(field.values[0], problem.S.values)

    def test_initial_rate_matches_scaled_velocity(self):
        # the generating field realizes dA/dt(0) = R/eps, which equals R
        # for unit permittivity
        x_grid, problem = make_problem(16, np.ones_like, np.zeros_like, np.sin)
        t_grid = Grid.from_interval(0.0, 1.0, 401)
        field, _ = solve_wave(problem, x_grid, t_grid, StopPolicy(tol=1e-9, max_terms=30))
        rate = first_diff(field.values, t_grid.step, axis=0)[0]
        assert np.max(np.abs(rate - problem.R.values)) <= 10.0 * t_grid.step ** 2

        x_grid2, problem2 = make_problem(16, lambda x: np.full_like(x, 2.0),
                                         np.zeros_like, np.sin)
        field2, _ = solve_wave(problem2, x_grid2, t_grid, StopPolicy(tol=1e-9, max_terms=30))
        rate2 = first_diff(field2.values, t_grid.step, axis=0)[0]
        assert np.max(np.abs(rate2 - problem2.R.values / 2.0)) <= 10.0 * t_grid.step ** 2


class TestSeriesStructure:
    def test_term_norm_factorial_bound(self):
        x_grid, problem = make_problem(16, np.ones_like, np.sin, np.zeros_like)
        t_grid = Grid.from_interval(0.0, np.pi, 401)
        scheme = build_wave_scheme(problem, x_grid, t_grid)
        t_max = t_grid.end
        k1 = 1.0
        term = scheme.generating
        import math
        for n in range(1, 8):
            term = scheme.cycle_map(term)
            bound = (k1 ** (2 * n)) * t_max ** (2 * n) / math.factorial(2 * n)
            # quadrature overshoot grows with the number of integrations
            slack = 1.0 + 10.0 * (n * t_grid.step) ** 2
            assert term.sup_norm() <= bound * slack + 1e-10

    def test_telescoping(self):
        x_grid, problem = make_problem(16, lambda x: 1.0 + 0.5 * np.cos(x),
                                       np.sin, np.zeros_like)
        t_grid = Grid.from_interval(0.0, 1.0, 401)
        scheme = build_wave_scheme(problem, x_grid, t_grid)
        term = scheme.generating
        total = term.values.copy()
        norm_sum = term.sup_norm()
        for n in (1, 2):
            term = scheme.cycle_map(term)
            total = total + term.values
            norm_sum += term.sup_norm()
            lhs = scheme.defect_op(term.with_values(total)).values
            rhs = -scheme.v_op(term).values
            assert np.max(np.abs(lhs - rhs)) <= 10.0 * t_grid.step ** 2 * norm_sum

    def test_permittivity_rescale_is_time_rescale(self):
        # eps -> 4 eps with R = 0 slows the clock by 2: compare the scaled
        # run on a doubled time step against the base run row by row
        base_grid, base = make_problem(16, np.ones_like, np.sin, np.zeros_like)
        scaled_grid, scaled = make_problem(16, lambda x: np.full_like(x, 4.0),
                                           np.sin, np.zeros_like)
        nt = 251
        base_t = Grid.from_interval(0.0, 0.5, nt)
        scaled_t = Grid.from_interval(0.0, 1.0, nt)
        policy = StopPolicy(tol=1e-10, max_terms=30)
        f_base, _ = solve_wave(base, base_grid, base_t, policy)
        f_scaled, _ = solve_wave(scaled, scaled_grid, scaled_t, policy)
        assert np.max(np.abs(f_scaled.values - f_base.values)) <= 1e-4

    def test_long_window_reports_divergence(self):
        # k_max * t large: the factorial hump amplifies the highest modes
        # before decay, which the windowed detector reports
        x_grid, problem = make_problem(32, np.ones_like, np.sin, np.zeros_like)
        t_grid = Grid.from_interval(0.0, 3.0, 601)
        field, run = solve_wave(problem, x_grid, t_grid, StopPolicy(tol=1e-10, max_terms=60))
        assert run.stop_reason == "divergence_detected"


@st.composite
def factored_cases(draw):
    """A wave problem on even Nx in [4, 64] and Nt in [3, 401] with generated
    positive eps, real or complex S and zero or generated R; the window T
    puts the cycle map's gain g = T^2/2 * max(1/eps) * k_max^2 in [0.05, 0.5].
    """
    nx = 2 * draw(st.integers(2, 32))
    nt = draw(st.integers(3, 401))
    samples = lambda lo, hi: np.array(draw(st.lists(st.floats(lo, hi), min_size=nx,
                                                    max_size=nx)))
    eps = samples(0.25, 4.0)
    s = samples(-1.0, 1.0)
    if draw(st.booleans()):
        s = s + 1j * samples(-1.0, 1.0)
    r = samples(-1.0, 1.0) if draw(st.booleans()) else np.zeros(nx)
    gain = draw(st.floats(0.05, 0.5))
    x_grid = Grid.periodic(0.0, TWO_PI, nx)
    k_max = nx / 2.0
    t_max = np.sqrt(2.0 * gain * float(np.min(eps))) / k_max
    return x_grid, Grid.from_interval(0.0, t_max, nt), eps, s, r


def _scheme(x_grid, t_grid, eps, s, r):
    problem = WaveProblem(GridFunction(x_grid, eps), GridFunction(x_grid, s),
                          GridFunction(x_grid, r))
    return build_wave_scheme(problem, x_grid, t_grid)


def _roundoff(x_grid, t_grid):
    """Relative round-off of one cycle map on one path: a DFT sums Nx
    products and each of the two cumulative trapezoid sums Nt steps, each
    rounding with relative error at most eps."""
    return (x_grid.count + 2 * t_grid.count) * EPS


class TestFactoredTerms:
    """Terms carried as t (x) x factors against the dense branch of the same
    operators.  Bounds use the map's gain g <= 1/2 in the norm max_t of the
    l2 norm over x, which bounds the sup norm and is within sqrt(Nx) of it."""

    POLICY = StopPolicy(tol=1e-12, max_terms=60)

    @settings(max_examples=60, deadline=None)
    @given(case=factored_cases())
    def test_terms_match_the_dense_map(self, case):
        x_grid, t_grid, eps, s, r = case
        scheme = _scheme(x_grid, t_grid, eps, s, r)
        term = scheme.generating
        assert isinstance(term, _Factored)
        assert len(term.t_factors) == (2 if np.any(r) else 1)
        # both paths round within _roundoff of the image, whose sup is at
        # most sqrt(Nx) * sup|term| (gain <= 1)
        for _ in range(4):
            dense = scheme.g_inverse(scheme.v_op(GridFunction(term.grid, term.values.copy())))
            term = scheme.cycle_map(term)
            assert isinstance(term, _Factored)
            bound = 2.0 * _roundoff(x_grid, t_grid) * np.sqrt(x_grid.count) * (
                np.max(np.abs(dense.values)) + EPS)
            assert np.max(np.abs(term.values - dense.values)) <= bound

    @settings(max_examples=40, deadline=None)
    @given(case=factored_cases())
    def test_run_matches_a_dense_generating_field(self, case):
        x_grid, t_grid, eps, s, r = case
        scheme = _scheme(x_grid, t_grid, eps, s, r)
        plain = GridFunction(scheme.generating.grid, scheme.generating.values.copy())
        factored_run = run_cod(scheme, self.POLICY)
        dense_run = run_cod(dataclasses.replace(scheme, generating=plain), self.POLICY)
        assert factored_run.terms_used == dense_run.terms_used
        assert factored_run.stop_reason == dense_run.stop_reason == "converged"
        # per-term round-off, carried by a map of gain <= 1/2: the errors of
        # all terms sum to at most twice sqrt(Nx) * sup|psi_g| per path
        bound = 4.0 * _roundoff(x_grid, t_grid) * x_grid.count * plain.sup_norm()
        gap = factored_run.partial_sum.values - dense_run.partial_sum.values
        assert np.max(np.abs(gap)) <= bound

    @settings(max_examples=40, deadline=None)
    @given(case=factored_cases(), other=factored_cases(),
           alpha=st.floats(-2.0, 2.0), beta=st.floats(-2.0, 2.0))
    def test_run_is_linear_in_the_initial_data(self, case, other, alpha, beta):
        x_grid, t_grid, eps, s, r = case
        nx = x_grid.count
        # the second data set is resampled onto the first one's x grid
        s2, r2 = (np.resize(v, nx) for v in other[3:])
        runs = [run_cod(_scheme(x_grid, t_grid, eps, s_, r_), self.POLICY).partial_sum
                for s_, r_ in ((s, r), (s2, r2), (alpha * s + beta * s2, alpha * r + beta * r2))]
        combo = alpha * runs[0].values + beta * runs[1].values
        scale = 1.0 + max(abs(alpha), abs(beta)) * sum(run.sup_norm() for run in runs[:2])
        # each run stops once two terms are below tol * (1 + sup), and the
        # tail it drops shrinks by g <= 1/2 per term, so it is at most twice
        # sqrt(Nx) * tol * scale; round-off as in the dense comparison
        bound = (2.0 * np.sqrt(nx) * self.POLICY.tol
                 + 8.0 * _roundoff(x_grid, t_grid) * nx) * scale
        assert np.max(np.abs(runs[2].values - combo)) <= bound


class TestCsv:
    def test_write_with_metadata(self, tmp_path):
        x_grid = Grid.periodic(0.0, 1.0, 8)
        t_grid = Grid.from_interval(0.0, 1.0, 5)
        field = GridFunction((t_grid, x_grid), np.arange(40.0).reshape(5, 8))
        data, meta = tmp_path / "w.csv", tmp_path / "w.json"
        write_field_csv(field, data, meta)
        lines = data.read_text().splitlines()
        assert len(lines) == 5
        assert len(lines[0].split(",")) == 16
        meta_obj = json.loads(meta.read_text())
        assert meta_obj["t_count"] == 5 and meta_obj["x_count"] == 8
