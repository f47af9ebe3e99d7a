import json

import numpy as np
import pytest

from codseries.engine import (
    CodScheme,
    SeriesBlowUpError,
    StopPolicy,
    convergence_report,
    defect,
    run_cod,
    run_cod_with_source,
)
from codseries.grids import Grid, GridFunction
from codseries.oscillator import OscillatorProblem, build_scheme

TINY = 1e-300  # forces max_terms to be the binding stop


def constant_omega_problem(value, count=1001, a=1.0, b=0.0):
    grid = Grid.from_interval(0.0, 1.0, count)
    return OscillatorProblem(GridFunction(grid, np.full(count, value, dtype=complex)),
                             0.0, 0.0, a, b)


def toy_scheme(generating, v_op, label=""):
    """Toy scheme with G = G^-1 = identity, so its cycle map is ``v_op``."""
    identity = lambda f: f
    return CodScheme(generating=generating, g_op=identity, g_inverse=identity, v_op=v_op,
                     label=label)


def identity_scheme(grid, factor):
    """Toy scheme whose cycle map multiplies by a scalar factor."""
    return toy_scheme(GridFunction(grid, np.ones(grid.count)),
                      lambda f: f.with_values(factor * f.values), label="toy")


class TestRunCod:
    def test_zero_cycle_map_terminates_immediately(self):
        problem = constant_omega_problem(0.0, count=101)
        run = run_cod(build_scheme(problem), StopPolicy(tol=1e-10, max_terms=10))
        assert run.stop_reason == "converged"
        assert run.terms_used == 0
        assert run.term_sup_norms == [1.0]
        assert np.array_equal(run.partial_sum.values, np.ones(101))
        assert run.last_term is run.partial_sum or np.array_equal(
            run.last_term.values, np.ones(101))

    def test_constant_frequency_reaches_cosine(self):
        grid = Grid.from_interval(0.0, 1.0, 10001)
        problem = OscillatorProblem(GridFunction(grid, np.ones(10001)), 0.0, 0.0, 1.0, 0.0)
        run = run_cod(build_scheme(problem), StopPolicy(tol=1e-10, max_terms=20))
        assert run.stop_reason == "converged"
        assert run.terms_used <= 12
        assert np.max(np.abs(run.partial_sum.values - np.cos(grid.points()))) <= 1e-8

    def test_two_term_truncation_matches_formula(self):
        grid = Grid.from_interval(0.0, 1.0, 1001)
        t = grid.points()
        problem = OscillatorProblem(GridFunction(grid, 1.0 - 0.5 * np.sin(t)),
                                    0.0, 0.0, 1.0, 0.0)
        run = run_cod(build_scheme(problem), StopPolicy(tol=TINY, max_terms=1))
        assert run.stop_reason == "max_terms"
        expected = 1.0 - 0.5 * (t ** 2 - t + np.sin(t))
        assert np.max(np.abs(run.partial_sum.values - expected)) < 1e-6

    def test_term_sup_norms_length(self):
        problem = constant_omega_problem(1.0, count=201)
        run = run_cod(build_scheme(problem), StopPolicy(tol=1e-8, max_terms=15))
        assert len(run.term_sup_norms) == run.terms_used + 1

    def test_linearity_in_generating_function(self):
        c = 0.7 + 1.3j
        policy = StopPolicy(tol=TINY, max_terms=6)
        run1 = run_cod(build_scheme(constant_omega_problem(1.0, count=301)), policy)
        run2 = run_cod(build_scheme(constant_omega_problem(1.0, count=301, a=c)), policy)
        assert np.allclose(run2.partial_sum.values, c * run1.partial_sum.values,
                           rtol=1e-12, atol=0.0)

    def test_term_recurrence_matches_external_iteration(self):
        scheme = build_scheme(constant_omega_problem(1.0, count=301))
        policy = StopPolicy(tol=TINY, max_terms=5)
        run = run_cod(scheme, policy)
        term = scheme.generating
        norms = [term.sup_norm()]
        for _ in range(5):
            term = scheme.cycle_map(term)
            norms.append(term.sup_norm())
        assert np.array_equal(run.last_term.values, term.values)
        assert run.term_sup_norms == norms


class TestStopping:
    def test_divergence_detected_on_growing_terms(self):
        grid = Grid.from_interval(0.0, 1.0, 16)
        run = run_cod(identity_scheme(grid, 3.0), StopPolicy(tol=1e-10, max_terms=50))
        assert run.stop_reason == "divergence_detected"

    def test_humped_sequence_survives_wider_window(self):
        # norms rise then fall; a window wider than the hump never sees
        # monotone growth by the full factor
        factors = iter([4.0, 4.0, 4.0, 0.01, 0.01, 1e-9, 1e-9, 1e-9])
        grid = Grid.from_interval(0.0, 1.0, 16)
        scheme = toy_scheme(GridFunction(grid, np.ones(16)),
                            lambda f: f.with_values(next(factors) * f.values))
        run = run_cod(scheme, StopPolicy(tol=1e-6, max_terms=30, divergence_window=6))
        assert run.stop_reason == "converged"

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blow_up_raises(self):
        grid = Grid.from_interval(0.0, 1.0, 8)
        scheme = identity_scheme(grid, 1e200)
        with pytest.raises(SeriesBlowUpError, match="series blow-up at term 2"):
            run_cod(scheme, StopPolicy(tol=1e-10, max_terms=10))

    @pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.nan), np.inf, complex(1.0, -np.inf)])
    def test_non_finite_entry_raises_at_its_term(self, bad):
        grid = Grid.from_interval(0.0, 1.0, 8)
        calls = []

        def cycle(f):
            calls.append(f)
            values = 0.5 * f.values
            if len(calls) == 3:
                values[4] = bad
            return f.with_values(values)

        # a complex entry needs a complex series: a real array cannot hold it
        seed = np.ones(8, dtype=complex if np.iscomplexobj(bad) else float)
        scheme = toy_scheme(GridFunction(grid, seed), cycle)
        with pytest.raises(SeriesBlowUpError, match="series blow-up at term 3"):
            run_cod(scheme, StopPolicy(tol=1e-10, max_terms=10))

    def test_complex_term_promotes_a_real_partial_sum(self):
        grid = Grid.from_interval(0.0, 1.0, 8)
        calls = []

        def cycle(f):
            calls.append(f.values.dtype)
            factor = 0.5j if len(calls) == 2 else 0.5
            return f.with_values(factor * f.values)

        scheme = toy_scheme(GridFunction(grid, np.ones(8)), cycle)
        run = run_cod(scheme, StopPolicy(tol=1e-10, max_terms=3))
        assert calls == [np.float64, np.float64, np.complex128]
        assert run.partial_sum.values.dtype == np.complex128
        assert np.array_equal(run.partial_sum.values, np.full(8, 1.5 + 0.375j))
        assert scheme.generating.values.dtype == np.float64

    def test_real_series_keeps_a_real_partial_sum(self):
        run = run_cod(identity_scheme(Grid.from_interval(0.0, 1.0, 8), 0.5),
                      StopPolicy(tol=1e-10, max_terms=3))
        assert run.partial_sum.values.dtype == np.float64
        assert np.array_equal(run.partial_sum.values, np.full(8, 1.875))

    def test_max_terms_reported(self):
        grid = Grid.from_interval(0.0, 1.0, 8)
        run = run_cod(identity_scheme(grid, 1.001),
                      StopPolicy(tol=1e-10, max_terms=3))
        assert run.stop_reason == "max_terms"
        assert run.terms_used == 3

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            StopPolicy(tol=0.0, max_terms=5)
        with pytest.raises(ValueError):
            StopPolicy(tol=1e-8, max_terms=0)
        for tol in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tol"):
                StopPolicy(tol=tol, max_terms=5)
        with pytest.raises(ValueError, match="divergence_factor"):
            StopPolicy(tol=1e-8, max_terms=5, divergence_factor=float("nan"))

    def test_converged_final_terms_are_small(self):
        scheme = build_scheme(constant_omega_problem(1.0))
        policy = StopPolicy(tol=1e-8, max_terms=30)
        run = run_cod(scheme, policy)
        assert run.stop_reason == "converged"
        threshold = 2.0 * policy.tol * (1.0 + run.partial_sum.sup_norm())
        assert run.term_sup_norms[-1] <= threshold
        assert run.term_sup_norms[-2] <= threshold


class TestSource:
    def test_zero_source_equals_plain_run(self):
        scheme = build_scheme(constant_omega_problem(1.0, count=501))
        policy = StopPolicy(tol=1e-10, max_terms=20)
        zero = GridFunction(scheme.generating.grid, np.zeros(501))
        plain = run_cod(scheme, policy)
        driven = run_cod_with_source(scheme, zero, policy)
        assert np.allclose(driven.partial_sum.values, plain.partial_sum.values,
                           atol=1e-14)

    def test_double_antiderivative_of_unit_source(self):
        problem = constant_omega_problem(0.0, count=101, a=0.0)
        scheme = build_scheme(problem)
        ones = GridFunction(scheme.generating.grid, np.ones(101))
        run = run_cod_with_source(scheme, ones, StopPolicy(tol=1e-12, max_terms=10))
        t = scheme.generating.grid.points()
        assert np.allclose(run.partial_sum.values, t ** 2 / 2.0, atol=1e-14)

    def test_driven_oscillator(self):
        problem = constant_omega_problem(1.0, count=1001, a=0.0)
        scheme = build_scheme(problem)
        ones = GridFunction(scheme.generating.grid, np.ones(1001))
        run = run_cod_with_source(scheme, ones, StopPolicy(tol=1e-12, max_terms=30))
        t = scheme.generating.grid.points()
        assert np.max(np.abs(run.partial_sum.values - (1.0 - np.cos(t)))) <= 1e-6

    def test_missing_g_inverse(self):
        # G^-1 lifts the source, so a scheme cannot be built without it
        grid = Grid.from_interval(0.0, 1.0, 8)
        with pytest.raises(TypeError, match="g_inverse"):
            CodScheme(generating=GridFunction(grid, np.ones(8)), g_op=lambda f: f,
                      v_op=lambda f: f)


class TestSeedIsolation:
    """Terms are summed in place, so the sum must never share the seed's memory."""

    @pytest.mark.parametrize("omega", [1.0, 0.0])
    def test_generating_unchanged_by_runs(self, omega):
        scheme = build_scheme(constant_omega_problem(omega, count=201))
        before = scheme.generating.values.copy()
        policy = StopPolicy(tol=1e-10, max_terms=20)
        plain = run_cod(scheme, policy)
        assert np.array_equal(scheme.generating.values, before)
        assert not np.shares_memory(plain.partial_sum.values, scheme.generating.values)
        ones = GridFunction(scheme.generating.grid, np.ones(201))
        driven = run_cod_with_source(scheme, ones, policy)
        assert np.array_equal(scheme.generating.values, before)
        assert np.array_equal(ones.values, np.ones(201))
        assert not np.shares_memory(driven.partial_sum.values, scheme.generating.values)


class TestDefect:
    def test_zero_remainder_part(self):
        scheme = build_scheme(constant_omega_problem(0.0, count=101))
        run = run_cod(scheme, StopPolicy(tol=1e-10, max_terms=5))
        assert defect(scheme, run).sup_norm() <= 1e-8

    def test_converged_defect_small(self):
        scheme = build_scheme(constant_omega_problem(1.0))
        run = run_cod(scheme, StopPolicy(tol=1e-10, max_terms=30))
        assert defect(scheme, run).sup_norm() <= 1e-5

    def test_one_term_truncation_defect(self):
        scheme = build_scheme(constant_omega_problem(1.0))
        run = run_cod(scheme, StopPolicy(tol=TINY, max_terms=1))
        d = defect(scheme, run)
        # partial sum 1 - t^2/2 leaves residual -t^2/2, sup 0.5 at t=1
        assert abs(d.sup_norm() - 0.5) < 1e-3
        assert d.values[-1].real == pytest.approx(-0.5, abs=1e-3)

    def test_monotone_stop_bound(self):
        scheme = build_scheme(constant_omega_problem(1.0))
        policy = StopPolicy(tol=1e-10, max_terms=30)
        run = run_cod(scheme, policy)
        assert run.stop_reason == "converged"
        term = scheme.generating
        v_norm_est = 0.0
        for _ in range(run.terms_used):
            image = scheme.v_op(term)
            v_norm_est = max(v_norm_est, image.sup_norm() / term.sup_norm())
            term = scheme.cycle_map(term)
        scale = 1.0 + run.partial_sum.sup_norm()
        step = scheme.generating.grid.step
        bound = 5.0 * v_norm_est * policy.tol * scale + 10.0 * step ** 2 * scale
        assert defect(scheme, run).sup_norm() <= bound

    def test_telescoping_identity(self):
        grid = Grid.from_interval(0.0, 1.0, 1001)
        t = grid.points()
        problem = OscillatorProblem(GridFunction(grid, 1.0 - 0.5 * np.sin(t)),
                                    0.0, 0.0, 1.0, 0.0)
        scheme = build_scheme(problem)
        term = scheme.generating
        total = term.values.copy()
        norm_sum = term.sup_norm()
        for n in (1, 2, 3):
            term = scheme.cycle_map(term)
            total = total + term.values
            norm_sum += term.sup_norm()
            lhs = scheme.defect_op(term.with_values(total)).values
            rhs = -scheme.v_op(term).values
            assert np.max(np.abs(lhs - rhs)) <= 10.0 * grid.step ** 2 * norm_sum


class TestSchemeAndReport:
    def test_generating_validation(self):
        grid = Grid.from_interval(0.0, 1.0, 101)
        bad = GridFunction(grid, grid.points() ** 2)  # not annihilated by d2/dt2
        with pytest.raises(ValueError, match="not annihilated"):
            CodScheme(
                generating=bad,
                g_op=lambda f: f.with_values(np.full(101, 2.0)),
                g_inverse=lambda f: f,
                v_op=lambda f: f,
                gen_tol=1e-6,
            )

    def test_cycle_map_and_defect_are_derived_from_g_and_v(self):
        grid = Grid.from_interval(0.0, 1.0, 8)
        f = GridFunction(grid, np.arange(8.0))
        scheme = CodScheme(generating=f, g_op=lambda h: h.with_values(3.0 * h.values),
                           g_inverse=lambda h: h.with_values(h.values / 4.0),
                           v_op=lambda h: h.with_values(h.values + 1.0))
        assert np.array_equal(scheme.cycle_map(f).values, (f.values + 1.0) / 4.0)
        assert np.array_equal(scheme.defect_op(f).values, 3.0 * f.values - (f.values + 1.0))
        for composite in ("cycle_map", "defect_op"):
            with pytest.raises(TypeError, match=composite):
                CodScheme(generating=f, g_op=scheme.g_op, g_inverse=scheme.g_inverse,
                          v_op=scheme.v_op, **{composite: scheme.v_op})

    def test_report_fields(self):
        scheme = build_scheme(constant_omega_problem(1.0, count=201))
        run = run_cod(scheme, StopPolicy(tol=1e-8, max_terms=20))
        report = convergence_report(scheme, run)
        assert set(report) == {"label", "terms_used", "stop_reason",
                               "term_sup_norms", "defect_sup_norm"}
        encoded = json.dumps(report)
        assert json.loads(encoded)["stop_reason"] == "converged"
