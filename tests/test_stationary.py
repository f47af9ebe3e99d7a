import json

import numpy as np
import pytest

from codseries.engine import StopPolicy, defect, run_cod, run_cod_with_source
from codseries.grids import Grid, GridFunction
from codseries.stationary import build_scheme, write_field_csv

TWO_PI = 2.0 * np.pi


def box(n, length=TWO_PI, dims=1):
    return (Grid.periodic(0.0, length, n),) * dims


def field_1d(values, length=TWO_PI):
    return GridFunction(box(len(values), length), values)


def field_2d(values, length=TWO_PI):
    return GridFunction(box(len(values), length, dims=2), values)


def free_scheme(f, variant, energy=0.0):
    """Scheme on the box of ``f`` with U = 0 and a zero generating function:
    its G is the Laplacian (laplace) or 2E + Laplacian (resolvent)."""
    zero = f.with_values(np.zeros(f.values.shape))
    return build_scheme(zero, energy, zero, variant)


def check_box(f):
    """Build a scheme on ``f`` alone; raises when its box is rejected."""
    return build_scheme(f, 0.0, f.with_values(np.ones(f.values.shape)), "laplace")


class TestFieldValidation:
    def test_odd_size_rejected(self):
        with pytest.raises(ValueError, match="even"):
            check_box(field_1d(np.zeros(63)))

    def test_small_size_rejected(self):
        with pytest.raises(ValueError, match="even and >= 4"):
            check_box(field_1d(np.zeros(2)))

    def test_3d_rejected(self):
        with pytest.raises(ValueError, match="1D or 2D"):
            check_box(GridFunction(box(4, 1.0, dims=3), np.zeros((4, 4, 4))))

    def test_2d_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            check_box(GridFunction((Grid.periodic(0.0, 1.0, 8), Grid.periodic(0.0, 2.0, 8)),
                                   np.zeros((8, 8))))
        with pytest.raises(ValueError, match="square"):
            check_box(GridFunction((Grid.periodic(0.0, 1.0, 8), Grid.periodic(0.0, 1.0, 16)),
                                   np.zeros((8, 16))))

    def test_different_boxes_rejected(self):
        with pytest.raises(ValueError, match="different boxes"):
            build_scheme(field_1d(np.zeros(8)), 0.0, field_1d(np.ones(8), length=1.0),
                         "laplace")

    def test_axis_points(self):
        f = field_1d(np.zeros(8), length=4.0)
        assert np.allclose(f.grid.points(), np.arange(8) * 0.5)


class TestInverseLaplacian:
    def test_single_mode(self):
        x = np.arange(64) * (TWO_PI / 64)
        f = field_1d(np.sin(x))
        out = free_scheme(f, "laplace").g_inverse(f)
        assert np.allclose(out.values, -np.sin(x), atol=1e-12)

    def test_constant_annihilated(self):
        f = field_1d(np.full(16, 2.5))
        out = free_scheme(f, "laplace").g_inverse(f)
        assert np.max(np.abs(out.values)) <= 1e-14

    def test_projector_identity_random(self):
        rng = np.random.default_rng(11)
        f = field_1d(rng.standard_normal(64) + 1j * rng.standard_normal(64))
        scheme = free_scheme(f, "laplace")
        back = scheme.g_op(scheme.g_inverse(f))
        assert np.max(np.abs(back.values - (f.values - f.values.mean()))) <= 1e-10

    def test_output_mean_free(self):
        rng = np.random.default_rng(12)
        f = field_1d(rng.standard_normal(32))
        assert abs(np.mean(free_scheme(f, "laplace").g_inverse(f).values)) <= 1e-14

    def test_2d_mode(self):
        n = 16
        axis = np.arange(n) * (TWO_PI / n)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        f = field_2d(np.sin(gx) * np.cos(2.0 * gy))
        out = free_scheme(f, "laplace").g_inverse(f)
        assert np.allclose(out.values, -f.values / 5.0, atol=1e-12)


class TestResolvent:
    def test_single_mode(self):
        x = np.arange(64) * (TWO_PI / 64)
        f = field_1d(np.exp(1j * x))
        out = free_scheme(f, "resolvent", -0.5).g_inverse(f)
        assert np.allclose(out.values, f.values / (-1.0 - 1.0), atol=1e-13)

    def test_inverse_identity_random(self):
        rng = np.random.default_rng(13)
        f = field_1d(rng.standard_normal(64) + 1j * rng.standard_normal(64))
        scheme = free_scheme(f, "resolvent", -1.0)
        recovered = scheme.g_op(scheme.g_inverse(f)).values
        assert np.max(np.abs(recovered - f.values)) <= 1e-10

    def test_delta_source_kernel(self):
        values = np.zeros(64, dtype=complex)
        values[0] = 1.0
        f = field_1d(values)
        scheme = free_scheme(f, "resolvent", -0.5)
        g = scheme.g_inverse(f)
        forward = scheme.g_op(g).values
        assert np.max(np.abs(forward - f.values)) <= 1e-8
        # screened kernel decays away from the source
        assert abs(g.values[32]) < abs(g.values[1])

    def test_on_shell_mode_rejected(self):
        # E = k^2/2 for the fundamental mode sits exactly on a grid mode
        with pytest.raises(ValueError, match="on-shell mode"):
            free_scheme(field_1d(np.zeros(16)), "resolvent", 0.5)


class TestSolve:
    def test_free_constant_terminates_with_reported_defect(self):
        energy = 0.7
        psi_g = field_1d(np.full(32, 2.0, dtype=complex))
        potential = field_1d(np.zeros(32))
        scheme = build_scheme(potential, energy, psi_g, "laplace")
        run = run_cod(scheme, StopPolicy(tol=1e-10, max_terms=10))
        assert run.stop_reason == "converged"
        assert run.terms_used == 0
        assert np.allclose(run.partial_sum.values, 2.0, atol=0.0)
        residual = defect(scheme, run)
        assert np.allclose(residual.values, 2.0 * energy * 2.0, atol=1e-12)

    @pytest.mark.parametrize("size", range(4, 34, 2))
    def test_exact_end_is_the_same_for_real_and_complex_data(self, size):
        # U = 0 ends the laplace series at psi_g; the FFT of a constant
        # leaves 1e-17 in nonzero modes at some sizes, which once ran as two
        # terms of round-off (float data at 10, 14, 20, 22, 26 and 30, complex
        # data at the same sizes but 14 and 30)
        runs = [run_cod(build_scheme(field_1d(np.zeros(size, dtype=dtype)), -0.5,
                                     field_1d(np.full(size, 0.7, dtype=dtype)), "laplace"),
                        StopPolicy(tol=1e-10, max_terms=10))
                for dtype in (float, complex)]
        assert [run.terms_used for run in runs] == [0, 0]
        assert all(run.stop_reason == "converged" for run in runs)

    def test_weak_cosine_first_correction(self):
        n = 64
        x = np.arange(n) * (TWO_PI / n)
        eps = 0.01
        potential = field_1d(eps * np.cos(x))
        psi_g = field_1d(np.ones(n))
        scheme = build_scheme(potential, 0.0, psi_g, "laplace")
        term1 = scheme.cycle_map(scheme.generating)
        assert np.max(np.abs(term1.values - (-2.0 * eps * np.cos(x)))) <= 1e-10

    def test_source_driven_resolvent_variant(self):
        n = 64
        x = np.arange(n) * (TWO_PI / n)
        potential = field_1d(0.1 * np.cos(x))
        psi_g = field_1d(np.zeros(n))
        source_values = np.zeros(n, dtype=complex)
        source_values[0] = 1.0
        source = field_1d(source_values)
        scheme = build_scheme(potential, -0.5, psi_g, "resolvent")
        run = run_cod_with_source(scheme, source, StopPolicy(tol=1e-9, max_terms=100))
        assert run.stop_reason == "converged"
        assert defect(scheme, run, source=source).sup_norm() <= 1e-6

    def test_free_constant_at_zero_energy_stays_constant(self):
        n = 32
        potential = field_1d(np.zeros(n), length=TWO_PI)
        psi_g = field_1d(np.ones(n))
        run = run_cod(build_scheme(potential, 0.0, psi_g, "laplace"),
                      StopPolicy(tol=1e-10, max_terms=5))
        assert np.allclose(run.partial_sum.values, 1.0)

    def test_strong_potential_reports_divergence(self):
        n = 32
        x = np.arange(n) * (TWO_PI / n)
        potential = field_1d(5.0 * np.cos(x))
        psi_g = field_1d(np.zeros(n))
        source_values = np.zeros(n, dtype=complex)
        source_values[0] = 1.0
        run = run_cod_with_source(build_scheme(potential, -0.5, psi_g, "resolvent"),
                                  field_1d(source_values), StopPolicy(tol=1e-9, max_terms=60))
        assert run.stop_reason == "divergence_detected"

    def test_unknown_variant(self):
        f = field_1d(np.zeros(16))
        with pytest.raises(ValueError, match="variant"):
            build_scheme(f, 0.0, f, "spectral")

    def test_translation_invariance(self):
        n = 64
        shift = 5
        x = np.arange(n) * (TWO_PI / n)
        potential = field_1d(0.05 * np.cos(x) + 0.02 * np.sin(2 * x))
        psi_g = field_1d(np.ones(n))
        policy = StopPolicy(tol=1e-11, max_terms=50)
        base = run_cod(build_scheme(potential, 0.0, psi_g, "laplace"), policy)
        shifted_potential = field_1d(np.roll(potential.values, shift))
        shifted = run_cod(build_scheme(shifted_potential, 0.0, psi_g, "laplace"), policy)
        assert np.max(np.abs(shifted.partial_sum.values
                             - np.roll(base.partial_sum.values, shift))) <= 1e-10


class TestTelescoping:
    def test_laplace_variant_with_mean_correction(self):
        n = 64
        x = np.arange(n) * (TWO_PI / n)
        potential = field_1d(0.05 * np.cos(x))
        psi_g = field_1d(np.ones(n))
        scheme = build_scheme(potential, 0.3, psi_g, "laplace")
        term = scheme.generating
        total = term.values.copy()
        mean_correction = 0.0j
        for _ in (1, 2):
            mean_correction += np.mean(scheme.v_op(term).values)
            term = scheme.cycle_map(term)
            total = total + term.values
            lhs = scheme.defect_op(term.with_values(total)).values
            rhs = -scheme.v_op(term).values - mean_correction
            assert np.max(np.abs(lhs - rhs)) <= 1e-11

    def test_resolvent_variant_clean(self):
        # source-driven seed: the inverse is exact mode-wise, so the
        # telescoping identity holds to round-off with no mean correction
        n = 64
        x = np.arange(n) * (TWO_PI / n)
        potential = field_1d(0.1 * np.cos(x))
        scheme = build_scheme(potential, -0.5, field_1d(np.zeros(n)), "resolvent")
        source = field_1d(np.cos(x) + 0.5 * np.sin(2 * x))
        term = scheme.g_inverse(source)
        total = term.values.copy()
        for _ in (1, 2):
            term = scheme.cycle_map(term)
            total = total + term.values
            lhs = scheme.defect_op(term.with_values(total)).values - source.values
            rhs = -scheme.v_op(term).values
            assert np.max(np.abs(lhs - rhs)) <= 1e-11


class TestTwoDimensional:
    def test_2d_laplace_first_correction(self):
        n = 16
        axis = np.arange(n) * (TWO_PI / n)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        eps = 0.01
        potential = field_2d(eps * (np.cos(gx) + np.cos(gy)))
        psi_g = field_2d(np.ones((n, n)))
        scheme = build_scheme(potential, 0.0, psi_g, "laplace")
        term1 = scheme.cycle_map(scheme.generating)
        expected = -2.0 * eps * (np.cos(gx) + np.cos(gy))
        assert np.max(np.abs(term1.values - expected)) <= 1e-12

    def test_2d_resolvent_identity(self):
        rng = np.random.default_rng(17)
        n = 16
        f = field_2d(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        scheme = free_scheme(f, "resolvent", -1.0)
        recovered = scheme.g_op(scheme.g_inverse(f)).values
        assert np.max(np.abs(recovered - f.values)) <= 1e-10


class TestFieldCsv:
    def test_1d_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        f = field_1d(rng.standard_normal(16) + 1j * rng.standard_normal(16), length=3.0)
        data = tmp_path / "f.csv"
        meta = tmp_path / "f.json"
        write_field_csv(f, data, meta, (3.0,))
        meta_obj = json.loads(meta.read_text())
        assert meta_obj == {"shape": [16], "box_lengths": [3.0], "layout": "x,re,im"}
        back = np.loadtxt(data, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(back[:, 0], f.grid.points())
        assert np.array_equal(back[:, 1] + 1j * back[:, 2], f.values)

    def test_2d_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        f = field_2d(rng.standard_normal((8, 8)), length=2.0)
        data = tmp_path / "f2.csv"
        meta = tmp_path / "f2.json"
        write_field_csv(f, data, meta, (2.0, 2.0))
        meta_obj = json.loads(meta.read_text())
        assert meta_obj["shape"] == [8, 8] and meta_obj["box_lengths"] == [2.0, 2.0]
        back = np.loadtxt(data, delimiter=",", ndmin=2)
        assert np.array_equal(back[:, 0::2] + 1j * back[:, 1::2], f.values)

    def test_sidecar_keeps_the_given_box_length(self, tmp_path):
        # the periodic step times the count is one ulp off this box length
        grid = Grid.periodic(0.0, TWO_PI, 50)
        assert grid.period != TWO_PI
        f = GridFunction(grid, np.zeros(50))
        write_field_csv(f, tmp_path / "f.csv", tmp_path / "f.json", (TWO_PI,))
        assert json.loads((tmp_path / "f.json").read_text())["box_lengths"] == [TWO_PI]
