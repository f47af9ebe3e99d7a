"""A series on real data runs in real arithmetic and matches the same data
cast to complex, which takes the complex FFT path."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codseries.engine import StopPolicy, run_cod, run_cod_with_source
from codseries.grids import Grid, GridFunction, read_csv, spectral_apply, wavenumbers, write_csv
from codseries.stationary import build_scheme
from codseries.wave import WaveProblem, build_wave_scheme

TWO_PI = 2.0 * np.pi
POLICY = StopPolicy(tol=1e-10, max_terms=40)


def as_complex(f: GridFunction) -> GridFunction:
    return f.with_values(f.values.astype(complex))


def assert_same_run(real_run, complex_run):
    assert real_run.terms_used == complex_run.terms_used
    assert real_run.stop_reason == complex_run.stop_reason
    real_sum = real_run.partial_sum.values
    complex_sum = complex_run.partial_sum.values
    assert real_sum.dtype == np.float64
    assert complex_sum.dtype == np.complex128
    sup = float(np.max(np.abs(complex_sum)))
    assert np.max(np.abs(real_sum - complex_sum)) <= 1e-13 * (1.0 + sup)


class TestSpectralApply:
    @pytest.mark.parametrize("shape, axes", [((8,), (0,)), ((6, 10), (0, 1)), ((5, 12), (1,))])
    def test_real_input_matches_complex_input(self, shape, axes):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(shape)
        k = wavenumbers(Grid.periodic(0.0, TWO_PI, shape[-1]))
        multiplier = 1.0 / (1.0 + k ** 2)
        if axes == (0, 1):
            k0 = wavenumbers(Grid.periodic(0.0, TWO_PI, shape[0]))
            multiplier = 1.0 / (1.0 + k0[:, None] ** 2 + k[None, :] ** 2)
        for op in (np.multiply, np.divide):
            real_out = spectral_apply(values, multiplier, axes, op)
            complex_out = spectral_apply(values.astype(complex), multiplier, axes, op)
            assert real_out.dtype == np.float64
            assert real_out.shape == shape
            sup = float(np.max(np.abs(complex_out)))
            assert np.max(np.abs(real_out - complex_out)) <= 1e-14 * (1.0 + sup)

    def test_second_derivative_of_a_mode(self):
        grid = Grid.periodic(0.0, TWO_PI, 16)
        x = grid.points()
        out = spectral_apply(np.sin(3.0 * x), -wavenumbers(grid) ** 2, (0,))
        assert np.max(np.abs(out + 9.0 * np.sin(3.0 * x))) <= 1e-12


class TestWriter:
    def test_real_2d_writes_zero_imaginary_parts(self, tmp_path):
        axes = (Grid.periodic(0.0, 1.0, 2), Grid.periodic(0.0, 1.0, 3))
        write_csv(GridFunction(axes, [[0.5, -1.0, 2.0], [0.0, 3.25, -0.0]]), tmp_path / "f.csv")
        assert (tmp_path / "f.csv").read_text() == "0.5,0,-1,0,2,0\n0,0,3.25,0,-0,0\n"

    def test_real_and_complex_2d_agree_when_imaginary_parts_are_zero(self, tmp_path):
        axes = (Grid.periodic(0.0, 1.0, 3),) * 2
        values = np.random.default_rng(5).standard_normal((3, 3))
        write_csv(GridFunction(axes, values), tmp_path / "real.csv")
        write_csv(GridFunction(axes, values + 0j), tmp_path / "complex.csv")
        assert (tmp_path / "real.csv").read_text() == (tmp_path / "complex.csv").read_text()

    def test_real_1d_round_trips(self, tmp_path):
        grid = Grid.periodic(0.0, TWO_PI, 8)
        f = GridFunction(grid, np.cos(grid.points()))
        write_csv(f, tmp_path / "f.csv")
        assert all(line.endswith(",0") for line in (tmp_path / "f.csv").read_text().split()[1:])
        assert np.array_equal(read_csv(tmp_path / "f.csv").values, f.values)


@settings(max_examples=60, deadline=None)
@given(dims=st.sampled_from([1, 2]),
       half_size=st.integers(2, 16),
       variant=st.sampled_from(["laplace", "resolvent"]),
       with_source=st.booleans(),
       energy=st.floats(-1.5, -0.1),
       # U = 0 ends the laplace series exactly; amplitudes near 1e-16 would
       # put the terms at the round-off floor the engine takes for that end,
       # where the real and the complex transform may fall either side of it
       amplitude=st.just(0.0) | st.floats(0.01, 0.6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stationary_real_run_matches_complex_run(dims, half_size, variant, with_source,
                                                 energy, amplitude, seed):
    rng = np.random.default_rng(seed)
    axes = (Grid.periodic(0.0, TWO_PI, 2 * half_size),) * dims
    shape = (2 * half_size,) * dims
    potential = GridFunction(axes, amplitude * rng.standard_normal(shape))
    # a constant is the laplace variant's generating function; the resolvent's is 0
    const = rng.standard_normal() if variant == "laplace" else 0.0
    psi_g = GridFunction(axes, np.full(shape, const))
    source = GridFunction(axes, rng.standard_normal(shape)) if with_source else None

    runs = []
    for cast in (lambda f: f, as_complex):
        scheme = build_scheme(cast(potential), energy, cast(psi_g), variant)
        runs.append(run_cod(scheme, POLICY) if source is None
                    else run_cod_with_source(scheme, cast(source), POLICY))
    assert_same_run(*runs)


@settings(max_examples=40, deadline=None)
@given(half_x=st.integers(2, 16),
       t_size=st.integers(5, 41),
       t_max=st.floats(0.05, 0.3),
       eps_amplitude=st.floats(0.0, 0.5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_wave_real_run_matches_complex_run(half_x, t_size, t_max, eps_amplitude, seed):
    rng = np.random.default_rng(seed)
    x_grid = Grid.periodic(0.0, TWO_PI, 2 * half_x)
    t_grid = Grid.from_interval(0.0, t_max, t_size)
    n = x_grid.count
    problem = WaveProblem(
        GridFunction(x_grid, 1.0 + eps_amplitude * rng.uniform(-1.0, 1.0, n)),
        GridFunction(x_grid, rng.standard_normal(n)),
        GridFunction(x_grid, rng.standard_normal(n)),
    )
    complex_problem = WaveProblem(as_complex(problem.epsilon), as_complex(problem.S),
                                  as_complex(problem.R))
    runs = [run_cod(build_wave_scheme(p, x_grid, t_grid), POLICY)
            for p in (problem, complex_problem)]
    assert_same_run(*runs)
