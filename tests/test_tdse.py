import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codseries import tdse
from codseries.grids import Grid, GridFunction
from codseries.oracles import _dense_hamiltonian, crank_nicolson
from codseries.tdse import (
    NonFiniteDataError,
    PropagatorStep,
    TdseSetup,
    cod_step,
    hamiltonian_apply,
    normalize,
    propagate,
)

ZERO_POTENTIAL = lambda x, t: np.zeros_like(x)
ZERO_FIELD = lambda t: 0.0


def plane_wave_setup(n=32, length=8.0 * np.pi, mode=2, potential=ZERO_POTENTIAL,
                     vector_potential=ZERO_FIELD):
    grid = Grid.periodic(0.0, length, n)
    k1 = 2.0 * np.pi / length
    psi = normalize(GridFunction(grid, np.exp(1j * mode * k1 * grid.points())))
    return TdseSetup(grid, potential, vector_potential, psi), mode * k1


class TestHamiltonian:
    def test_kinetic_eigenfunction(self):
        setup, k = plane_wave_setup()
        out = hamiltonian_apply(setup, setup.psi0, 0.0)
        assert np.allclose(out.values, 0.5 * k * k * setup.psi0.values, atol=1e-12)

    def test_uniform_vector_potential_shifts_momentum(self):
        a0 = 0.7
        setup, k = plane_wave_setup(vector_potential=lambda t: a0)
        out = hamiltonian_apply(setup, setup.psi0, 0.0)
        assert np.allclose(out.values, 0.5 * (k - a0) ** 2 * setup.psi0.values,
                           atol=1e-12)

    def test_constant_potential_adds(self):
        u0 = 1.3
        setup, k = plane_wave_setup(potential=lambda x, t: np.full_like(x, u0))
        out = hamiltonian_apply(setup, setup.psi0, 0.0)
        expected = (0.5 * k * k + u0) * setup.psi0.values
        assert np.allclose(out.values, expected, atol=1e-12)


class TestSetupValidation:
    def test_requires_normalized_state(self):
        grid = Grid.periodic(0.0, 2.0 * np.pi, 16)
        for value in (1.0, np.nan):
            with pytest.raises(ValueError, match="normalized"):
                TdseSetup(grid, ZERO_POTENTIAL, ZERO_FIELD,
                          GridFunction(grid, np.full(16, value)))

    def test_requires_matching_grid(self):
        grid = Grid.periodic(0.0, 2.0 * np.pi, 16)
        other = Grid.periodic(0.0, 4.0 * np.pi, 16)
        psi = normalize(GridFunction(other, np.ones(16)))
        with pytest.raises(ValueError, match="different grid"):
            TdseSetup(grid, ZERO_POTENTIAL, ZERO_FIELD, psi)

    @pytest.mark.parametrize("potential, match", [
        (np.zeros(15), "shape"),
        (np.zeros((16, 1)), "shape"),
        (np.zeros(16, dtype=complex), "real"),
        (np.where(np.arange(16) == 3, np.inf, 0.0), "finite"),
        (np.where(np.arange(16) == 3, np.nan, 0.0), "finite"),
    ])
    def test_rejects_bad_potential_array(self, potential, match):
        grid = Grid.periodic(0.0, 2.0 * np.pi, 16)
        psi = normalize(GridFunction(grid, np.ones(16)))
        with pytest.raises(ValueError, match=match):
            TdseSetup(grid, potential, 0.0, psi)

    @pytest.mark.parametrize("a, match", [
        (0.5j, "real"), (np.complex128(1.0), "real"), (math.inf, "finite"), (math.nan, "finite"),
    ])
    def test_rejects_bad_vector_potential_number(self, a, match):
        grid = Grid.periodic(0.0, 2.0 * np.pi, 16)
        psi = normalize(GridFunction(grid, np.ones(16)))
        with pytest.raises(ValueError, match=match):
            TdseSetup(grid, ZERO_POTENTIAL, a, psi)

    @pytest.mark.filterwarnings("ignore:divide by zero", "ignore:invalid value")
    @pytest.mark.parametrize("potential, vector_potential, match", [
        (lambda xv, t: t / xv, ZERO_FIELD, "potential must be finite"),
        (ZERO_POTENTIAL, lambda t: np.float64(1.0) / t, "vector potential must be finite"),
        (ZERO_POTENTIAL, lambda t: math.nan, "vector potential must be finite"),
    ], ids=["u-t/x", "a-1/t", "a-nan"])
    def test_rejects_callables_non_finite_at_t0(self, potential, vector_potential, match):
        grid = Grid.periodic(-np.pi, 2.0 * np.pi, 16)  # x = 0 is a grid point
        psi = normalize(GridFunction(grid, np.ones(16)))
        with pytest.raises(ValueError, match=match):
            TdseSetup(grid, potential, vector_potential, psi)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("potential, vector_potential, match", [
        (lambda xv, t: 0.0 * np.cos(xv) / (t - 0.05), ZERO_FIELD,
         "potential must be finite on the grid at t = 0.05"),
        (ZERO_POTENTIAL, lambda t: 0.0 * (np.float64(1.0) / (t - 0.05)),
         "vector potential must be finite at t = 0.05"),
    ], ids=["u", "a"])
    def test_rejects_callables_non_finite_after_t0(self, potential, vector_potential, match):
        # the pole at t = 0.05 is the last sub-node of the fifth step
        grid = Grid.periodic(0.0, 2.0 * np.pi, 16)
        setup = TdseSetup(grid, potential, vector_potential,
                          normalize(GridFunction(grid, np.ones(16))))
        with pytest.raises(NonFiniteDataError, match=match):
            propagate(setup, PropagatorStep(dt=0.01, n_terms=4), 0.1)

    def test_spectral_radius_is_the_t0_bound(self):
        grid = Grid.periodic(0.0, 2.0 * np.pi, 16)
        psi = normalize(GridFunction(grid, np.ones(16)))
        setup = TdseSetup(grid, lambda xv, t: np.cos(xv) - 2.0 * (1.0 + t), lambda t: 0.5 - t, psi)
        assert setup.spectral_radius == 0.5 * (8.0 + 0.5) ** 2 + 3.0

    def test_step_validation(self):
        with pytest.raises(ValueError):
            PropagatorStep(dt=0.0, n_terms=2)
        with pytest.raises(ValueError):
            PropagatorStep(dt=0.1, n_terms=0)
        with pytest.raises(ValueError):
            PropagatorStep(dt=0.1, n_terms=2, quadrature_nodes=1)
        assert PropagatorStep(dt=0.1, n_terms=3).nodes == 4


def _assert_runs_agree(run_a, run_b, tol):
    (final_a, report_a), (final_b, report_b) = run_a, run_b
    assert np.max(np.abs(final_a.values - final_b.values)) <= tol
    assert len(report_a.records) == len(report_b.records)
    for ra, rb in zip(report_a.records, report_b.records):
        assert (ra["step"], ra["t"]) == (rb["step"], rb["t"])
        assert abs(ra["norm"] - rb["norm"]) <= tol
        assert abs(ra["drift"] - rb["drift"]) <= tol
    assert report_a.warnings == report_b.warnings


class TestStaticData:
    """Array and number data against the equivalent callables.

    With both U and A static and nodes >= n_terms, cod_step takes the Taylor
    path, which agrees with the callables' sub-node path to round-off.  Every
    setup that stays on the sub-node path must reproduce them bit for bit.
    """

    CASES = [  # (n, length, n_terms, quadrature_nodes)
        (16, 2.0 * np.pi, 1, None),
        (32, 20.0, 4, None),
        (32, 20.0, 3, 7),
        (64, 8.0 * np.pi, 2, 2),
        (48, 10.0, 5, None),
        (32, 20.0, 4, 3),   # nodes < n_terms: sub-node path
        (48, 10.0, 5, 2),
    ]

    @staticmethod
    def _pair(n, length, a0=0.3):
        grid = Grid.periodic(-length / 2.0, length, n)
        x = grid.points()
        psi = normalize(GridFunction(grid, np.exp(-(x - 0.5) ** 2 + 1j * x)))
        u_of_x = lambda xv: 0.4 * xv ** 2 + 0.3 * np.cos(xv)
        dynamic = TdseSetup(grid, lambda xv, t: u_of_x(xv), lambda t: a0, psi)
        static = TdseSetup(grid, u_of_x(x), a0, psi)
        return dynamic, static

    @staticmethod
    def _tolerance(n_terms, nodes):
        """Round-off on the Taylor path, bit for bit on the sub-node path."""
        return 0.0 if nodes is not None and nodes < n_terms else 1e-13

    @pytest.mark.parametrize("n, length, n_terms, nodes", CASES)
    def test_step_matches_callables(self, n, length, n_terms, nodes):
        dynamic, static = self._pair(n, length)
        step = PropagatorStep(dt=1e-3, n_terms=n_terms, quadrature_nodes=nodes)
        for t in (0.0, 0.37):
            a = cod_step(dynamic, step, dynamic.psi0, t)
            b = cod_step(static, step, static.psi0, t)
            assert np.max(np.abs(a.values - b.values)) <= self._tolerance(n_terms, nodes)

    @pytest.mark.parametrize("n, length, n_terms, nodes", CASES)
    def test_propagate_matches_callables(self, n, length, n_terms, nodes):
        dynamic, static = self._pair(n, length)
        step = PropagatorStep(dt=1e-3, n_terms=n_terms, quadrature_nodes=nodes)
        _assert_runs_agree(propagate(dynamic, step, 2e-2), propagate(static, step, 2e-2),
                           self._tolerance(n_terms, nodes))

    def test_mixed_forms_and_hamiltonian_match(self):
        dynamic, static = self._pair(32, 20.0)
        mixed = TdseSetup(static.grid, static.potential, dynamic.vector_potential,
                          static.psi0)
        step = PropagatorStep(dt=1e-3, n_terms=4)
        reference = cod_step(dynamic, step, dynamic.psi0, 0.0)
        assert np.array_equal(cod_step(mixed, step, mixed.psi0, 0.0).values,
                              reference.values)
        assert np.array_equal(hamiltonian_apply(static, static.psi0, 0.2).values,
                              hamiltonian_apply(dynamic, dynamic.psi0, 0.2).values)

    def test_oracle_accepts_static_data(self):
        dynamic, static = self._pair(16, 2.0 * np.pi)
        a = crank_nicolson(dynamic, 1e-2, 0.1, validate=False)
        b = crank_nicolson(static, 1e-2, 0.1, validate=False)
        assert np.array_equal(a.solution.values, b.solution.values)

    def test_static_data_is_stored_as_float(self):
        _, static = self._pair(16, 2.0 * np.pi)
        integer = TdseSetup(static.grid, np.arange(16), 1, static.psi0)
        assert integer.potential.dtype == np.float64
        assert integer.vector_potential == 1.0 and isinstance(integer.vector_potential, float)


def _dense_taylor(setup, dt, n_terms):
    """sum_{n <= N} (-i dt H)^n / n! psi0 with the oracle's dense H."""
    h = _dense_hamiltonian(setup, 0.0)
    term = setup.psi0.values.astype(complex)
    total = term.copy()
    for order in range(1, n_terms + 1):
        term = (-1j * dt / order) * (h @ term)
        total = total + term
    return total


class TestTaylorPath:
    CASES = [  # (n, length, n_terms, a0)
        (16, 2.0 * np.pi, 1, 0.0),
        (32, 20.0, 4, 0.3),
        (48, 10.0, 5, -1.2),
        (64, 8.0 * np.pi, 6, 2.0),
    ]

    @pytest.mark.parametrize("n, length, n_terms, a0", CASES)
    def test_step_is_dense_taylor_polynomial(self, n, length, n_terms, a0):
        _, static = TestStaticData._pair(n, length, a0)
        dt = 1e-2
        stepped = cod_step(static, PropagatorStep(dt=dt, n_terms=n_terms), static.psi0, 0.0)
        assert np.max(np.abs(stepped.values - _dense_taylor(static, dt, n_terms))) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 24).map(lambda h: 2 * h),
           dt=st.floats(1e-4, 2e-2),
           n_terms=st.integers(1, 6),
           extra_nodes=st.integers(0, 3),
           a0=st.floats(-2.0, 2.0),
           amplitude=st.floats(0.0, 3.0))
    def test_generated_setups(self, n, dt, n_terms, extra_nodes, a0, amplitude):
        grid = Grid.periodic(-10.0, 20.0, n)
        x = grid.points()
        psi = normalize(GridFunction(grid, np.exp(-(x - 1.0) ** 2 / 2.0 + 0.5j * x)))
        u_of_x = lambda xv: amplitude * np.cos(0.3 * xv) ** 2
        static = TdseSetup(grid, u_of_x(x), a0, psi)
        dynamic = TdseSetup(grid, lambda xv, t: u_of_x(xv), lambda t: a0, psi)
        step = PropagatorStep(dt=dt, n_terms=n_terms,
                              quadrature_nodes=max(2, n_terms + extra_nodes))
        stepped = cod_step(static, step, psi, 0.0).values
        assert np.max(np.abs(stepped - _dense_taylor(static, dt, n_terms))) <= 1e-12
        assert np.max(np.abs(stepped - cod_step(dynamic, step, psi, 0.0).values)) <= 1e-13


class _Took(Exception):
    """Raised by a stand-in to name the path :func:`propagate` chose."""


def _path_taken(setup, step, t_final):
    """"eigen" or "step" (cod_step per step): the path propagate takes,
    found without running it."""
    def stand_in(name):
        def took(*args):
            raise _Took(name)
        return took

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tdse, "_eigen_propagate", stand_in("eigen"))
        mp.setattr(tdse, "cod_step", stand_in("step"))
        with pytest.raises(_Took) as taken:
            propagate(setup, step, t_final)
    return str(taken.value)


def _on_path(path, setup, step, t_final):
    """propagate's result, checked to come from ``path``; "step" shuts the
    eigen path off."""
    with pytest.MonkeyPatch.context() as mp:
        if path == "step":
            mp.setattr(tdse, "_EIGEN_MAX_SIZE", 0)
        assert _path_taken(setup, step, t_final) == path
        return propagate(setup, step, t_final)


class TestStepMatrix:
    """Long enough Taylor-form runs with dt * spectral_radius < 1 apply the
    step matrix P = p(-i dt H) in H's eigenbasis; the FFT recurrence on the
    state is the reference."""

    @pytest.mark.parametrize("n, length, n_terms, a0", TestTaylorPath.CASES)
    def test_run_matches_the_fft_recurrence(self, n, length, n_terms, a0):
        _, static = TestStaticData._pair(n, length, a0)
        step = PropagatorStep(dt=0.5 / static.spectral_radius, n_terms=n_terms)
        t_final = (n + 5) * step.dt
        eigen = _on_path("eigen", static, step, t_final)
        assert len(eigen[1].records) == n + 5
        _assert_runs_agree(eigen, _on_path("step", static, step, t_final), 1e-13)

    @pytest.mark.parametrize("n, length, n_terms, a0", TestTaylorPath.CASES)
    def test_assembled_step_is_dense_taylor_polynomial(self, n, length, n_terms, a0):
        # one step of W p(-i dt lam) W^H, the step assembled in H's eigenbasis
        _, static = TestStaticData._pair(n, length, a0)
        step = PropagatorStep(dt=1e-2, n_terms=n_terms)
        stepped, norms = tdse._eigen_propagate(static, step, 1)
        assert np.max(np.abs(stepped.values - _dense_taylor(static, step.dt, n_terms))) <= 1e-12
        assert len(norms) == 1 and abs(norms[0] - stepped.l2_norm()) <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 32).map(lambda h: 2 * h),
           a0=st.one_of(st.just(0.0), st.floats(0.1, 2.0), st.floats(-2.0, -0.1)),
           n_terms=st.integers(1, 6),
           dt_rho=st.floats(0.05, 0.95),
           extra_steps=st.integers(0, 64),
           amplitude=st.floats(0.0, 3.0))
    def test_generated_runs_match_the_fft_recurrence(self, n, a0, n_terms, dt_rho,
                                                     extra_steps, amplitude):
        # a0 = 0 runs the eigen path in real arithmetic, any other a0 in complex
        grid = Grid.periodic(-10.0, 20.0, n)
        x = grid.points()
        psi = normalize(GridFunction(grid, np.exp(-(x - 1.0) ** 2 / 2.0 + 0.5j * x)))
        setup = TdseSetup(grid, amplitude * np.cos(0.3 * x) ** 2, a0, psi)
        step = PropagatorStep(dt=dt_rho / setup.spectral_radius, n_terms=n_terms)
        t_final = (n + extra_steps) * step.dt
        runs = []
        for path in ("eigen", "step"):
            try:
                runs.append(_on_path(path, setup, step, t_final))
            except RuntimeError as exc:  # a growing run aborts at the same step
                runs.append(str(exc).rsplit(" ", 1)[1])
        if isinstance(runs[0], str) or isinstance(runs[1], str):
            assert runs[0] == runs[1]
        else:
            _assert_runs_agree(*runs, 1e-12)

    @pytest.mark.parametrize("n_terms", [1, 2])
    def test_growing_run_aborts_at_the_same_step(self, n_terms):
        # |p|^2 = 1 + theta^2 for N = 1 and 1 + theta^4 / 4 for N = 2: the
        # norm grows on both paths and must trip the drift check at one step
        grid = Grid.periodic(-10.0, 20.0, 32)
        x = grid.points()
        psi0 = normalize(GridFunction(grid, np.exp(-x ** 2 / 2.0 + 2j * x)))
        setup = TdseSetup(grid, 0.5 * x ** 2, 0.0, psi0)
        step = PropagatorStep(dt=0.9 / setup.spectral_radius, n_terms=n_terms)
        messages = []
        for path in ("eigen", "step"):
            with pytest.raises(RuntimeError, match="propagation unstable") as unstable:
                _on_path(path, setup, step, 4000 * step.dt)
            messages.append(str(unstable.value))
        assert messages[0] == messages[1]
        assert int(messages[0].rsplit(" ", 1)[1]) > 32

    @pytest.mark.parametrize("n, a0, steps, dt_rho, nodes, path", [
        (32, 0.0, 32, 0.5, None, "eigen"),
        (32, 0.0, 31, 0.5, None, "step"),      # fewer steps than points
        (32, 0.0, 64, 1.5, None, "step"),      # dt * rho >= 1
        (32, 0.0, 64, 0.5, 3, "step"),         # fewer sub-nodes than terms
        (256, 0.3, 256, 0.5, None, "eigen"),   # complex H: n steps up to 256 points
        (512, 0.3, 1023, 0.5, None, "step"),   # 2n at 512 points
        (512, 0.3, 1024, 0.5, None, "eigen"),
        (512, 0.0, 512, 0.5, None, "eigen"),   # real H: n steps up to 512 points
        (1024, 0.0, 2047, 0.5, None, "step"),  # 2n at 1024 points
        (1024, 0.0, 2048, 0.5, None, "eigen"),
        (1024, 0.3, 4095, 0.5, None, "step"),
        (2048, 0.0, 8192, 0.5, None, "step"),  # above _EIGEN_MAX_SIZE
    ])
    def test_selection_rule(self, n, a0, steps, dt_rho, nodes, path):
        grid = Grid.periodic(-10.0, 20.0, n)
        x = grid.points()
        setup = TdseSetup(grid, 0.5 * x ** 2, a0, normalize(GridFunction(grid, np.exp(-x ** 2))))
        step = PropagatorStep(dt=dt_rho / setup.spectral_radius, n_terms=4,
                              quadrature_nodes=nodes)
        assert _path_taken(setup, step, steps * step.dt) == path

    def test_t_dependent_data_never_take_the_eigen_path(self):
        dynamic, _ = TestStaticData._pair(16, 10.0)
        step = PropagatorStep(dt=0.5 / dynamic.spectral_radius, n_terms=4)
        assert _path_taken(dynamic, step, 64 * step.dt) == "step"

    @pytest.mark.parametrize("t_final", [0.1, 0.5])  # 10 steps < 32 points; 50 >= 32
    def test_cod_step_runs_once_per_step_off_the_eigen_path(self, monkeypatch, t_final):
        _, static = TestStaticData._pair(32, 20.0)
        calls = []

        def counted(*args):
            calls.append(args[3])
            return cod_step(*args)

        monkeypatch.setattr(tdse, "cod_step", counted)
        _, report = propagate(static, PropagatorStep(dt=1e-2, n_terms=4), t_final)
        assert len(report.records) == round(t_final / 1e-2)
        eigen = t_final == 0.5
        assert calls == ([] if eigen else [i * 1e-2 for i in range(len(report.records))])


class TestStep:
    def test_single_term_free_step(self):
        setup, k = plane_wave_setup()
        dt = 1e-2
        out = cod_step(setup, PropagatorStep(dt=dt, n_terms=1), setup.psi0, 0.0)
        expected = (1.0 - 0.5j * k * k * dt) * setup.psi0.values
        assert np.allclose(out.values, expected, atol=1e-13)

    def test_time_independent_step_is_taylor_polynomial(self):
        grid = Grid.periodic(0.0, 8.0 * np.pi, 32)
        x = grid.points()
        setup = TdseSetup(grid, lambda xv, t: np.cos(xv), ZERO_FIELD,
                          normalize(GridFunction(grid, np.exp(-(x - 4 * np.pi) ** 2 / 4))))
        dt = 0.05
        for n_terms in (1, 2, 3, 4):
            stepped = cod_step(setup, PropagatorStep(dt=dt, n_terms=n_terms),
                               setup.psi0, 0.0)
            taylor = setup.psi0.values.copy()
            power = setup.psi0
            scale = 1.0 + 0.0j
            for order in range(1, n_terms + 1):
                power = hamiltonian_apply(setup, power, 0.0)
                scale *= -1j * dt / order
                taylor = taylor + scale * power.values
            assert np.max(np.abs(stepped.values - taylor)) <= 1e-12

    def test_linearity_in_state(self):
        grid = Grid.periodic(0.0, 2.0 * np.pi, 32)
        x = grid.points()
        setup = TdseSetup(grid, lambda xv, t: np.sin(xv), ZERO_FIELD,
                          normalize(GridFunction(grid, np.ones(32))))
        step = PropagatorStep(dt=0.02, n_terms=3)
        rng = np.random.default_rng(9)
        f = GridFunction(grid, rng.standard_normal(32) + 1j * rng.standard_normal(32))
        g = GridFunction(grid, rng.standard_normal(32))
        a, b = 0.3 - 1.1j, 2.0 + 0.2j
        combined = cod_step(setup, step, GridFunction(grid, a * f.values + b * g.values), 0.0)
        separate = a * cod_step(setup, step, f, 0.0).values \
            + b * cod_step(setup, step, g, 0.0).values
        assert np.max(np.abs(combined.values - separate)) <= 1e-12

    def test_step_halving_error_ratio(self):
        grid = Grid.periodic(0.0, 8.0 * np.pi, 32)
        x = grid.points()
        setup = TdseSetup(grid, lambda xv, t: np.cos(xv), ZERO_FIELD,
                          normalize(GridFunction(grid, np.exp(-(x - 4 * np.pi) ** 2 / 4))))
        for n_terms in (1, 2, 3):
            errors = []
            for dt in (0.2, 0.1):
                truth = crank_nicolson(setup, dt / 512, dt, validate=False)
                stepped = cod_step(setup, PropagatorStep(dt=dt, n_terms=n_terms),
                                   setup.psi0, 0.0)
                errors.append(np.max(np.abs(stepped.values - truth.solution.values)))
            ratio = errors[0] / errors[1]
            expected = 2.0 ** (n_terms + 1)
            assert expected / 1.4 <= ratio <= expected * 1.4

    def test_time_dependent_potential_first_order_term(self):
        # term 1 integrates U(tau) exactly for polynomial time dependence
        grid = Grid.periodic(0.0, 2.0 * np.pi, 16)
        setup = TdseSetup(grid, lambda xv, t: np.full_like(xv, t),  # U = t
                          ZERO_FIELD, normalize(GridFunction(grid, np.ones(16))))
        dt = 0.3
        out = cod_step(setup, PropagatorStep(dt=dt, n_terms=1, quadrature_nodes=4),
                       setup.psi0, 0.0)
        # -i * integral_0^dt tau dtau = -i dt^2/2 (kinetic part vanishes)
        expected = (1.0 - 0.5j * dt * dt) * setup.psi0.values
        assert np.max(np.abs(out.values - expected)) <= 1e-14


class TestPropagate:
    def test_free_particle_norm_drift(self):
        setup, _ = plane_wave_setup(n=16)
        final, report = propagate(setup, PropagatorStep(dt=1e-2, n_terms=4), 1.0)
        assert len(report.records) == 100
        assert max(r["drift"] for r in report.records) <= 1e-8
        assert report.warnings == []

    def test_norm_drift_bound_per_step(self):
        setup, _ = plane_wave_setup(n=16)
        step = PropagatorStep(dt=1e-2, n_terms=4)
        _, report = propagate(setup, step, 0.5)
        k_max = np.pi / setup.grid.step
        rho = 0.5 * k_max ** 2
        bound = 2.0 * (rho * step.dt) ** (step.n_terms + 1) / math.factorial(step.n_terms + 1)
        per_step = max(r["drift"] for r in report.records) / len(report.records)
        assert per_step <= max(bound, 1e-12)

    def test_t_final_must_be_multiple(self):
        setup, _ = plane_wave_setup(n=16)
        with pytest.raises(ValueError, match="multiple"):
            propagate(setup, PropagatorStep(dt=1e-2, n_terms=2), 0.0251)

    def test_large_dt_warning(self):
        grid = Grid.periodic(-10.0, 20.0, 16)
        x = grid.points()
        setup = TdseSetup(grid, lambda xv, t: np.full_like(xv, 100.0), ZERO_FIELD,
                          normalize(GridFunction(grid, np.exp(-x ** 2 / 2))))
        _, report = propagate(setup, PropagatorStep(dt=1e-2, n_terms=4), 0.05)
        assert any("spectral radius" in w for w in report.warnings)

    def test_unstable_run_aborts(self):
        grid = Grid.periodic(-10.0, 20.0, 16)
        x = grid.points()
        psi0 = normalize(GridFunction(grid, np.exp(-x ** 2 / 2)))
        setup = TdseSetup(grid, lambda xv, t: np.full_like(xv, 1000.0), ZERO_FIELD, psi0)
        with pytest.raises(RuntimeError, match="propagation unstable"):
            propagate(setup, PropagatorStep(dt=1e-2, n_terms=4), 0.1)
        # array data: dt * rho >= 1 keeps 10 and 20 steps on the FFT recurrence
        for t_final in (0.1, 0.2):
            setup = TdseSetup(grid, np.full(16, 1000.0), 0.0, psi0)
            step = PropagatorStep(dt=1e-2, n_terms=4)
            assert _path_taken(setup, step, t_final) == "step"
            with pytest.raises(RuntimeError, match="propagation unstable"):
                propagate(setup, step, t_final)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale, n_terms, t_final, error, match", [
        (1e200, 4, 0.1, ValueError, "non-finite values in propagation step"),
        (1e200, 4, 1.0, ValueError, "non-finite values in propagation step"),
        # a finite first step whose norm overflows
        (1e150, 2, 1.0, RuntimeError, "propagation unstable"),
    ])
    def test_overflow_raises_without_floating_point_warnings(self, scale, n_terms, t_final,
                                                            error, match):
        grid = Grid.periodic(-10.0, 20.0, 16)
        x = grid.points()
        setup = TdseSetup(grid, scale * x ** 2, 0.0,
                          normalize(GridFunction(grid, np.exp(-x ** 2 / 2))))
        step = PropagatorStep(dt=1e-2, n_terms=n_terms)
        # dt * rho >= 1 keeps even the 100-step runs on the FFT recurrence
        assert _path_taken(setup, step, t_final) == "step"
        with pytest.raises(error, match=match):
            propagate(setup, step, t_final)
        if error is ValueError:  # cod_step alone, on the path propagate took
            with pytest.raises(ValueError, match=match):
                cod_step(setup, step, setup.psi0, 0.0)

    def test_time_dependent_data_match_the_time_dependent_oracle(self):
        # t-dependent U and A take the sub-node path; the oracle rebuilds H at
        # every step midpoint, while its default mode, which freezes H at
        # t = 0, misses this run by 3.5e-2
        grid = Grid.periodic(-8.0, 16.0, 32)
        x = grid.points()
        setup = TdseSetup(grid, lambda xv, t: 0.1 * xv ** 2 + 0.3 * t * np.cos(xv),
                          lambda t: 0.2 * np.sin(3.0 * t),
                          normalize(GridFunction(grid, np.exp(-x ** 2 / 2.0))))
        final, _ = propagate(setup, PropagatorStep(dt=5e-3, n_terms=4), 0.5)
        oracle = crank_nicolson(setup, 1e-3, 0.5, time_dependent=True)
        frozen = crank_nicolson(setup, 1e-3, 0.5)
        assert oracle.error_estimate <= 2e-8
        assert np.max(np.abs(final.values - oracle.solution.values)) <= 2.0 * oracle.error_estimate
        assert np.max(np.abs(final.values - frozen.solution.values)) >= 1e-2

    def test_harmonic_center_follows_classical_motion(self):
        # coherent state in U = x^2/2: center must trace 2 cos(t) with
        # period 2 pi, cross-checked against the Crank-Nicolson oracle
        length, n = 20.0, 64
        grid = Grid.periodic(-10.0, length, n)
        x = grid.points()
        potential = lambda xv, t: 0.5 * xv ** 2
        setup = TdseSetup(grid, potential, ZERO_FIELD,
                          normalize(GridFunction(grid, np.exp(-(x - 2.0) ** 2 / 2.0))))
        dt = 2.0 * np.pi / 1024

        def center(values):
            density = np.abs(values) ** 2
            return float(np.sum(x * density) * grid.step)

        step = PropagatorStep(dt=dt, n_terms=4)
        psi = setup.psi0
        cod_centers = []
        for i in range(1024):
            psi = cod_step(setup, step, psi, i * dt)
            cod_centers.append(center(psi.values))
        cod_centers = np.array(cod_centers)
        # U is t-free, so each oracle window restarts from the previous state at t = 0
        oracle_setup = setup
        cn_centers = []
        for _ in range(1024):
            state = crank_nicolson(oracle_setup, dt / 16.0, dt, validate=False).solution
            oracle_setup = TdseSetup(grid, potential, ZERO_FIELD, state)
            cn_centers.append(center(state.values))
        cn_centers = np.array(cn_centers)
        assert cod_centers.size == cn_centers.size == 1024
        assert np.max(np.abs(cod_centers - cn_centers)) <= 0.01 * 2.0

        # period from the zero crossings of the center trace
        times = dt * np.arange(1, cod_centers.size + 1)
        signs = np.sign(cod_centers)
        crossings = times[:-1][signs[:-1] * signs[1:] < 0]
        assert crossings.size >= 2
        period = 2.0 * (crossings[1] - crossings[0])
        assert abs(period - 2.0 * np.pi) <= 0.01 * 2.0 * np.pi
