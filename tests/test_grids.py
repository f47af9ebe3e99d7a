import io

import numpy as np
import pytest

from codseries.grids import (
    _WRITE_BLOCK_VALUES,
    Grid,
    GridFunction,
    cumulative_integral,
    cumtrapz_from,
    first_diff,
    read_csv,
    second_diff,
    wavenumbers,
    write_csv,
    write_rows,
)


def gf(grid, values):
    return GridFunction(grid, values)


class TestGrid:
    def test_points_and_index(self):
        grid = Grid(1.0, 0.5, 5)
        assert np.allclose(grid.points(), [1.0, 1.5, 2.0, 2.5, 3.0])
        assert grid.index_of(2.0) == 2
        assert grid.end == 3.0

    def test_off_grid_limit_rejected(self):
        grid = Grid(0.0, 0.1, 11)
        with pytest.raises(ValueError, match="limit not on grid"):
            grid.index_of(0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(0.0, -1.0, 5)
        with pytest.raises(ValueError):
            Grid(0.0, 1.0, 1)

    def test_from_interval_and_periodic(self):
        grid = Grid.from_interval(0.0, 1.0, 101)
        assert grid.step == pytest.approx(0.01)
        per = Grid.periodic(0.0, 2.0 * np.pi, 64)
        assert per.period == pytest.approx(2.0 * np.pi)
        assert per.points()[-1] < 2.0 * np.pi

    def test_values_length_checked(self):
        with pytest.raises(ValueError, match="does not match"):
            GridFunction(Grid(0.0, 0.1, 5), np.zeros(4))


class TestGridFunction:
    def test_one_tuple_is_the_bare_grid(self):
        grid = Grid(0.0, 0.1, 5)
        f = GridFunction((grid,), np.zeros(5))
        assert f.grid is grid
        assert f.axes == (grid,)

    def test_axes_give_the_shape(self):
        t_grid, x_grid = Grid(0.0, 0.1, 3), Grid.periodic(0.0, 1.0, 4)
        f = GridFunction((t_grid, x_grid), np.zeros((3, 4)))
        assert f.axes == (t_grid, x_grid)
        assert f.values.dtype == np.float64
        assert GridFunction((t_grid, x_grid), np.zeros((3, 4), dtype=int)).values.dtype \
            == np.float64
        assert GridFunction((t_grid, x_grid), np.zeros((3, 4), dtype=complex)).values.dtype \
            == np.complex128
        with pytest.raises(ValueError, match="does not match"):
            GridFunction((t_grid, x_grid), np.zeros((4, 3)))
        with pytest.raises(ValueError, match="does not match"):
            GridFunction((t_grid, x_grid), np.zeros(12))

    def test_l2_norm_weights_by_cell_area(self):
        a, b = Grid(0.0, 0.5, 3), Grid(0.0, 0.25, 4)
        f = GridFunction((a, b), np.full((3, 4), 2.0))
        assert f.l2_norm() == pytest.approx(np.sqrt(0.5 * 0.25 * 12 * 4.0))


class TestCumulativeIntegral:
    def test_constant_exact(self):
        grid = Grid.from_interval(0.0, 1.0, 11)
        out = cumulative_integral(gf(grid, np.ones(11)), 0.0)
        assert np.allclose(out.values, grid.points(), atol=0.0)

    def test_linear_exact(self):
        grid = Grid.from_interval(0.0, 1.0, 11)
        out = cumulative_integral(gf(grid, grid.points()), 0.0)
        assert np.allclose(out.values, grid.points() ** 2 / 2.0, atol=1e-15)

    def test_sine_antiderivative(self):
        grid = Grid.from_interval(0.0, 1.0, 1001)
        out = cumulative_integral(gf(grid, np.sin(grid.points())), 0.0)
        assert abs(out.values[-1] - (1.0 - np.cos(1.0))) < 1e-6

    def test_interior_lower_limit(self):
        grid = Grid.from_interval(-1.0, 1.0, 21)
        out = cumulative_integral(gf(grid, np.ones(21)), 0.0)
        assert out.values[grid.index_of(0.0)] == 0.0
        # left of the limit the integral is negative
        assert out.values[0] == pytest.approx(-1.0)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        grid = Grid.from_interval(0.0, 1.0, 50)
        f = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        g = rng.standard_normal(50)
        a, b = 1.3 - 0.2j, -0.7j
        lhs = cumulative_integral(gf(grid, a * f + b * g), 0.0).values
        rhs = a * cumulative_integral(gf(grid, f), 0.0).values \
            + b * cumulative_integral(gf(grid, g), 0.0).values
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_off_grid_limit(self):
        grid = Grid.from_interval(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="limit not on grid"):
            cumulative_integral(gf(grid, np.ones(11)), 0.03)


class TestDerivatives:
    def test_quadratic(self):
        grid = Grid.from_interval(0.0, 1.0, 101)
        out = second_diff(grid.points() ** 2, grid.step)
        assert np.allclose(out, 2.0, atol=1e-9)

    def test_sine(self):
        grid = Grid.from_interval(0.0, 1.0, 1001)
        x = grid.points()
        out = second_diff(np.sin(x), grid.step)
        assert np.max(np.abs(out + np.sin(x))) < 1e-5

    def test_constant(self):
        grid = Grid.from_interval(0.0, 1.0, 11)
        out = second_diff(np.full(11, 3.0), grid.step)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            second_diff(np.zeros(2), 1.0)

    def test_three_and_four_point_fallbacks(self):
        for n in (3, 4):
            grid = Grid.from_interval(0.0, 1.0, n)
            out = second_diff(grid.points() ** 2, grid.step)
            assert np.allclose(out, 2.0, atol=1e-10)

    def test_first_derivative_quadratic(self):
        grid = Grid.from_interval(0.0, 1.0, 101)
        out = first_diff(grid.points() ** 2, grid.step)
        assert np.allclose(out, 2.0 * grid.points(), atol=1e-10)

    def test_double_integral_recovery_is_second_order(self):
        # second difference of the twice-integrated function recovers the
        # integrand; halving the step should shrink the error about 4x
        def recovery_error(count):
            grid = Grid.from_interval(0.0, 1.0, count)
            f = np.sin(3.0 * grid.points())
            inner = cumulative_integral(gf(grid, f), 0.0)
            outer = cumulative_integral(inner, 0.0)
            rec = second_diff(outer.values, grid.step)
            return np.max(np.abs(rec[2:-2] - f[2:-2]))

        coarse = recovery_error(501)
        fine = recovery_error(1001)
        assert coarse < 3.0 * (1.0 / 500) ** 2
        assert 2.5 < coarse / fine < 5.5


class TestFourier:
    def test_wavenumbers_symmetric(self):
        grid = Grid.periodic(0.0, 2.0 * np.pi, 8)
        k = wavenumbers(grid)
        assert k[0] == 0.0
        assert k[1] == pytest.approx(1.0)
        assert k[-1] == pytest.approx(-1.0)
        assert np.min(k) == pytest.approx(-4.0)


class TestNorms:
    def test_zero(self):
        grid = Grid.from_interval(0.0, 1.0, 11)
        f = gf(grid, np.zeros(11))
        assert (f.sup_norm(), f.l2_norm()) == (0.0, 0.0)

    def test_constant(self):
        grid = Grid.from_interval(0.0, 1.0, 101)
        f = gf(grid, np.ones(101))
        assert f.sup_norm() == 1.0
        assert f.l2_norm() == pytest.approx(1.0, abs=0.01)

    def test_linear(self):
        # plain-sum quadrature overweights the x=1 endpoint relative to the
        # integral value 1/sqrt(3), so the agreement is O(step) here
        grid = Grid.from_interval(0.0, 1.0, 101)
        f = gf(grid, grid.points())
        assert f.sup_norm() == pytest.approx(1.0)
        assert f.l2_norm() == pytest.approx(np.sqrt(grid.step * np.sum(grid.points() ** 2)))
        assert f.l2_norm() == pytest.approx(1.0 / np.sqrt(3.0), abs=5e-3)


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        grid = Grid.from_interval(0.0, 1.0, 33)
        f = gf(grid, rng.standard_normal(33) + 1j * rng.standard_normal(33))
        path = tmp_path / "f.csv"
        write_csv(f, path)
        header = path.read_text().splitlines()[0]
        assert header == "x,re,im"
        back = read_csv(path)
        assert back.grid == grid
        assert np.array_equal(back.values, f.values)

    def test_2d_layout_is_row_major_re_im_pairs(self, tmp_path):
        rng = np.random.default_rng(6)
        values = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        path = tmp_path / "f2.csv"
        write_csv(GridFunction((Grid(0.0, 0.5, 3), Grid.periodic(0.0, 1.0, 4)), values), path)
        expected = "".join(",".join(f"{part:.17g}" for v in row for part in (v.real, v.imag))
                           + "\n" for row in values)
        assert path.read_text() == expected


def test_cumtrapz_from_axis():
    rng = np.random.default_rng(2)
    block = rng.standard_normal((6, 4))
    by_axis = cumtrapz_from(block, 0.5, 0, axis=0)
    by_cols = np.stack([cumtrapz_from(block[:, j], 0.5, 0) for j in range(4)], axis=1)
    assert np.allclose(by_axis, by_cols, atol=0.0)


def test_second_diff_axis():
    rng = np.random.default_rng(3)
    block = rng.standard_normal((5, 7))
    by_axis = second_diff(block, 0.1, axis=1)
    by_rows = np.stack([second_diff(block[i], 0.1) for i in range(5)], axis=0)
    assert np.allclose(by_axis, by_rows, atol=0.0)


class TestWriteRows:
    @staticmethod
    def reference(table):
        return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in table)

    @staticmethod
    def written(table):
        fh = io.StringIO()
        write_rows(fh, table)
        return fh.getvalue()

    def test_special_values(self):
        table = np.array([[np.nan, np.inf, -np.inf],
                          [-0.0, 5e-324, 1e308],
                          [0.1, -1.0 / 3.0, 2.0 ** 60]])
        assert self.written(table) == self.reference(table)

    def test_rows_not_a_multiple_of_the_block(self):
        rng = np.random.default_rng(4)
        table = rng.standard_normal((_WRITE_BLOCK_VALUES // 3 + 7, 5))
        assert self.written(table) == self.reference(table)

    def test_row_wider_than_a_block(self):
        rng = np.random.default_rng(5)
        table = rng.standard_normal((3, _WRITE_BLOCK_VALUES + 3)) * 1e-300
        assert self.written(table) == self.reference(table)
