"""Decomposition series for the variable-frequency oscillator Cauchy problem.

For f'' + w2(t) f = 0 with f(t_a) = a and f'(t_b) = b the invertible part
is d^2/dt^2, inverted by two cumulative integrals (inner lower limit t_b,
outer t_a), and the generating function a + b*(t - t_a) carries the Cauchy
data.  Each series term follows from the previous one by one application
of the cycle map f -> -II[w2 * f].

For w2(t) = -t**alpha (alpha > -1) the series collapses to an explicit
monomial series in t**(alpha+2) with positive coefficients; that series,
its closed-form upper estimate, and its growth exponent are provided as
well.
"""

import math
from dataclasses import dataclass

import numpy as np

from .engine import CodScheme
from .grids import GridFunction, cumulative_integral, second_diff

__all__ = [
    "OscillatorProblem",
    "PowerSeriesSolution",
    "asymptotic_exponent",
    "build_scheme",
    "log_series_value",
    "power_series_solution",
    "term_bound",
    "upper_estimate",
]


@dataclass
class OscillatorProblem:
    """Oscillator data: sampled w2(t), the two condition points, a and b.

    t_a and t_b must both lie on the grid of ``omega_sq``; they may
    differ.  Every series term vanishes at t_a and has zero derivative at
    t_b, so f(t_a) = a holds exactly and f'(t_b) = b to the O(h^2) of the
    trapezoid integrals.
    """

    omega_sq: GridFunction
    t_a: float
    t_b: float
    a: complex
    b: complex

    def __post_init__(self):
        self.omega_sq.grid.index_of(self.t_a)
        self.omega_sq.grid.index_of(self.t_b)


def build_scheme(problem: OscillatorProblem, gen_tol: float | None = None,
                 label: str = "oscillator") -> CodScheme:
    """Wire an oscillator problem into a scheme for the series engine.

    cycle_map(f) = -outer_integral(inner_integral(w2 * f, from t_b), from t_a)
    defect_op(f) = f'' + w2 * f
    """
    grid = problem.omega_sq.grid
    w2 = problem.omega_sq.values
    t = grid.points()
    generating = GridFunction(grid, problem.a + problem.b * (t - problem.t_a))
    if gen_tol is None:
        gen_tol = 1e-8 * (1.0 + generating.sup_norm())

    def cycle(f: GridFunction) -> GridFunction:
        inner = cumulative_integral(f.with_values(w2 * f.values), problem.t_b)
        outer = cumulative_integral(inner, problem.t_a)
        return outer.with_values(-outer.values)

    def defect_op(f: GridFunction) -> GridFunction:
        return f.with_values(second_diff(f.values, grid.step) + w2 * f.values)

    def g_op(f: GridFunction) -> GridFunction:
        return f.with_values(second_diff(f.values, grid.step))

    def g_inverse(f: GridFunction) -> GridFunction:
        return cumulative_integral(cumulative_integral(f, problem.t_b), problem.t_a)

    return CodScheme(
        cycle_map=cycle,
        generating=generating,
        defect_op=defect_op,
        g_op=g_op,
        g_inverse=g_inverse,
        label=label,
        gen_tol=gen_tol,
    )


def term_bound(n: int, a_abs: float, c_max: float, t: float) -> float:
    """Factorial bound |a| * c_max**n * t**(2n) / (2n)! on series term n.

    Valid for the t_a = t_b = 0, b = 0 setting with c_max an upper bound
    of |w2| on [0, t].  Evaluated in log space so large n cannot overflow.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if c_max < 0 or t < 0:
        raise ValueError("c_max and t must be nonnegative")
    if a_abs == 0.0 or c_max == 0.0 or t == 0.0:
        return 0.0
    log_b = (
        math.log(a_abs)
        + n * math.log(c_max)
        + 2 * n * math.log(t)
        - math.lgamma(2 * n + 1)
    )
    return math.exp(log_b)


@dataclass
class PowerSeriesSolution:
    """Monomial series sum_n c_n * t**(n*(alpha+2)) solving f'' = t**alpha f.

    coefficients[0] = 1 and
    coefficients[n+1] = coefficients[n] / ((e_n+alpha+1)*(e_n+alpha+2))
    with e_n = n*(alpha+2); all coefficients are positive for alpha > -1.
    """

    alpha: float
    coefficients: np.ndarray

    @property
    def exponents(self) -> np.ndarray:
        return (self.alpha + 2.0) * np.arange(len(self.coefficients))

    def evaluate(self, t):
        """Evaluate by Horner accumulation in u = t**(alpha+2); t >= 0."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise ValueError("series is defined for t >= 0")
        u = t ** (self.alpha + 2.0)
        acc = np.full_like(u, self.coefficients[-1])
        for c in self.coefficients[-2::-1]:
            acc = c + u * acc
        return acc if acc.shape else float(acc)


def power_series_solution(alpha: float, n_terms: int) -> PowerSeriesSolution:
    """Coefficients c_0..c_{n_terms} of the monomial series for w2 = -t**alpha."""
    if alpha <= -1:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    if n_terms < 1:
        raise ValueError(f"n_terms must be at least 1, got {n_terms}")
    coeffs = np.empty(n_terms + 1)
    coeffs[0] = 1.0
    for n in range(n_terms):
        e_n = n * (alpha + 2.0)
        coeffs[n + 1] = coeffs[n] / ((e_n + alpha + 1.0) * (e_n + alpha + 2.0))
    return PowerSeriesSolution(alpha, coeffs)


def log_series_value(alpha: float, t: float, n_terms: int) -> float:
    """log of the monomial series value, accumulated fully in log space.

    At large t the coefficients underflow double precision long before the
    terms stop mattering, so the sum is built with logaddexp; every term is
    positive, which makes the accumulation exact in range.
    """
    if alpha <= -1:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    log_t = math.log(t)
    width = alpha + 2.0
    total = 0.0  # log of the leading term 1
    log_c = 0.0
    for n in range(n_terms):
        e_n = n * width
        log_c -= math.log((e_n + alpha + 1.0) * (e_n + alpha + 2.0))
        total = np.logaddexp(total, log_c + (n + 1) * width * log_t)
    return float(total)


def upper_estimate(alpha: float, t: float) -> float:
    """Closed-form strict upper bound on the monomial series for t > 0."""
    if alpha <= -1:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    lead = t ** (alpha + 2.0) / ((alpha + 1.0) * (alpha + 2.0))
    return 1.0 + lead * math.exp(asymptotic_exponent(alpha, t))


def asymptotic_exponent(alpha: float, t: float) -> float:
    """Growth exponent 2*t**(alpha/2+1)/(alpha+2); log f(t) approaches it."""
    if alpha <= -1:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    return 2.0 * t ** (0.5 * alpha + 1.0) / (alpha + 2.0)
