"""The telescoping identity over generated schemes.

For term_0 = seed and term_n = G^-1 V term_(n-1), the partial sum S_N of
terms 0..N has defect (G - V) S_N = G term_0 - V term_N + sum_(n=1..N)
(G G^-1 - I) V term_(n-1).  G annihilates the generating function, and a
driven seed adds G^-1 of the source, whose image under G is the source
again.  So defect(S_N) - source = -V term_N up to what G G^-1 leaves:

* the spectral stationary inverses are exact to round-off, except that
  the laplace pseudo-inverse drops the mean, so there the mean of every
  V term_(n-1) and of the source stays in the defect;
* the oscillator and wave inverses are trapezoid double integrals, which
  the second-difference G reproduces to (step^2 / 4) D^2 g in the
  interior, D^2 the discrete second difference of g = V term_(n-1).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from codseries.grids import Grid, GridFunction, second_diff
from codseries.oscillator import OscillatorProblem, build_scheme as build_oscillator_scheme
from codseries.stationary import build_scheme as build_stationary_scheme
from codseries.wave import WaveProblem, build_wave_scheme

TWO_PI = 2.0 * np.pi
ROUND_OFF = 1e-12
unit = st.floats(-1.0, 1.0)


@st.composite
def oscillator_cases(draw):
    grid = Grid.from_interval(0.0, draw(st.floats(0.5, 2.0)), draw(st.integers(101, 401)))
    t = grid.points()
    w2 = (2.0 * draw(unit) + draw(unit) * np.sin(draw(st.floats(0.0, 4.0)) * t + draw(unit))
          + 1j * draw(st.sampled_from([0.0, 0.5])) * np.cos(t))
    t_a, t_b = (t[draw(st.integers(0, grid.count - 1))] for _ in range(2))
    problem = OscillatorProblem(GridFunction(grid, w2), t_a, t_b,
                                2.0 * draw(unit), 2.0 * draw(unit))
    return build_oscillator_scheme(problem), None, False, grid.step


@st.composite
def stationary_cases(draw):
    dims = draw(st.sampled_from([1, 2]))
    n = 2 * draw(st.integers(2, 12))
    axes = (Grid.periodic(0.0, TWO_PI, n),) * dims
    shape = (n,) * dims
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    variant = draw(st.sampled_from(["laplace", "resolvent"]))
    if variant == "laplace":
        energy = draw(st.floats(-1.5, 1.5))
        const = 2.0 * draw(unit)
    else:
        energy = draw(st.floats(-1.5, -0.1))
        const = 0.0  # G = 2E + Laplacian annihilates nothing else
    cast = complex if draw(st.booleans()) else float
    potential = GridFunction(axes, (draw(st.floats(0.0, 0.6))
                                    * rng.standard_normal(shape)).astype(cast))
    psi_g = GridFunction(axes, np.full(shape, const, dtype=cast))
    source = None
    if draw(st.booleans()):
        delta = np.zeros(shape, dtype=cast)
        delta[(0,) * dims] = 1.0
        source = GridFunction(axes, delta)
    scheme = build_stationary_scheme(potential, energy, psi_g, variant)
    return scheme, source, variant == "laplace", None


@st.composite
def wave_cases(draw):
    x_grid = Grid.periodic(0.0, TWO_PI, 2 * draw(st.integers(2, 16)))
    t_grid = Grid.from_interval(0.0, draw(st.floats(0.1, 0.5)), draw(st.integers(21, 101)))
    x = x_grid.points()
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    problem = WaveProblem(
        GridFunction(x_grid, 1.0 + draw(st.floats(0.0, 0.5)) * np.cos(x + draw(unit))),
        GridFunction(x_grid, rng.standard_normal(x_grid.count)),
        GridFunction(x_grid, rng.standard_normal(x_grid.count)),
    )
    return build_wave_scheme(problem, x_grid, t_grid), None, False, t_grid.step


def _sup(values) -> float:
    return float(np.max(np.abs(values)))


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(oscillator_cases(), stationary_cases(), wave_cases()),
       n_terms=st.integers(1, 4))
def test_defect_of_partial_sum_is_minus_v_of_last_term(case, n_terms):
    scheme, source, mean_free, step = case
    term = scheme.generating
    if source is not None:
        term = term.with_values(term.values + scheme.g_inverse(source).values)
    total = term.values.copy()
    scale = _sup(term.values)
    images = []  # V term_(n-1), n = 1..N
    for _ in range(n_terms):
        images.append(scheme.v_op(term).values)
        term = scheme.cycle_map(term)
        total = total + term.values
        scale += _sup(term.values) + _sup(images[-1])

    lhs = scheme.defect_op(term.with_values(total)).values
    rhs = -scheme.v_op(term).values
    if source is not None:
        lhs = lhs - source.values
        scale += _sup(source.values)
    if mean_free:
        rhs = rhs - sum(np.mean(g) for g in images)
        if source is not None:
            rhs = rhs - np.mean(source.values)
    gap = _sup(lhs - rhs)

    if step is None:
        tolerance = ROUND_OFF * (1.0 + scale)
    else:
        discretization = sum(_sup(second_diff(g, step)) for g in images) * step ** 2
        tolerance = discretization + ROUND_OFF * (1.0 + scale) / step ** 2
    assert gap <= tolerance
