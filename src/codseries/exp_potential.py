"""Closed-form decomposition series for the exponential-potential problem.

The stationary 1D problem (2E + d^2/dx^2 - A*exp(x)) psi = 0 with
2E = m^2 is solved by choosing m^2 + d^2/dx^2 as the invertible part.
Its inverse acts on an exponential monomial exp(lam*x) as division by
lam^2 + m^2 (the geometric resummation of a nested series built from two
half-line integrals), so every term of the outer series stays a single
monomial and the particular solution becomes the explicit product series

    psi_p(x) = exp(i m x) [1 + sum_n A**n exp(n x) P_n],
    P_n = prod_{k=1..n} 1/(k^2 + 2 i m k).

|P_n| <= 1/(n!)^2, so the series converges for every amplitude A and every
real m != 0.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ExpPotentialProblem",
    "ExpSeriesSolution",
    "general_solution",
    "particular_solution",
    "resolvent_ratio",
]


@dataclass
class ExpPotentialProblem:
    """Problem data with the scaling 2E = m^2 and unit decay length fixed."""

    m: float
    amplitude: float
    c1: complex = 1.0
    c2: complex = 0.0


def resolvent_ratio(m: float, lam: complex) -> complex:
    """Factor 1/(lam^2 + m^2) picked up by exp(lam*x) under the inverse part.

    Raises for lam^2 + m^2 == 0: those are the generating-function modes
    themselves and sit on the pole.
    """
    denom = complex(lam) * complex(lam) + m * m
    if denom == 0:
        raise ValueError("on-shell pole")
    return 1.0 / denom


@dataclass
class ExpSeriesSolution:
    """Evaluator for the particular-solution product series.

    product_coeffs[n-1] holds P_n; |P_n| decreases strictly and is bounded
    by 1/(n!)^2.
    """

    m: float
    amplitude: float
    product_coeffs: np.ndarray

    def evaluate(self, x):
        """psi_p(x) truncated after the stored products; x real."""
        x = np.asarray(x, dtype=float)
        growth = self.amplitude * np.exp(x)
        acc = np.ones(x.shape, dtype=complex)
        running = np.ones(x.shape, dtype=complex)
        for p in self.product_coeffs:
            running = running * growth
            acc = acc + running * p
        out = np.exp(1j * self.m * x) * acc
        return out if out.shape else complex(out)


def particular_solution(problem: ExpPotentialProblem, n_terms: int) -> ExpSeriesSolution:
    """Build the product coefficients P_1..P_{n_terms} by the running product."""
    if n_terms < 1:
        raise ValueError(f"n_terms must be at least 1, got {n_terms}")
    if problem.m == 0:
        raise ValueError("zero-energy degenerate")
    m = problem.m
    coeffs = np.empty(n_terms, dtype=complex)
    running = 1.0 + 0.0j
    for k in range(1, n_terms + 1):
        running = running / (k * k + 2j * m * k)
        coeffs[k - 1] = running
    return ExpSeriesSolution(problem.m, problem.amplitude, coeffs)


def general_solution(problem: ExpPotentialProblem, n_terms: int):
    """Evaluator x -> c1 * psi_p(x) + c2 * conj-series(x).

    The conjugate series is the particular solution for m -> -m, whose
    products are the conjugates of P_n.
    """
    series = particular_solution(problem, n_terms)
    conjugate = particular_solution(ExpPotentialProblem(-problem.m, problem.amplitude), n_terms)

    def evaluate(x):
        return problem.c1 * series.evaluate(x) + problem.c2 * conjugate.evaluate(x)

    return evaluate
