"""Command-line front end: one subcommand per solver plus ``verify``.

Every run is reproducible: fixed %.17g formatting, no timestamps, and a
plain key=value config file (# comments) whose entries are overridden by
explicit flags.  Exit codes: 0 success, 1 solver error, 2 divergence
detected or max_terms reached with terms not shrinking, 3 bad arguments.
Real input data (an imaginary part of exactly 0) is passed on as real
arrays, so those series run in real arithmetic.
"""

import argparse
import cmath
import json
import math
import os
import sys

import numpy as np

from .engine import (DIVERGENCE_DETECTED, MAX_TERMS, SeriesBlowUpError, StopPolicy,
                     convergence_report, run_cod, run_cod_with_source)
from .exp_potential import ExpPotentialProblem, general_solution
from .expressions import ExpressionError, parse_expression
from .grids import Grid, GridFunction, read_csv, second_diff, write_csv, write_rows
from .oracles import rk4_oscillator
from .oscillator import OscillatorProblem, build_scheme, power_series_solution, term_bound, upper_estimate
from .stationary import build_scheme as build_stationary_scheme, write_field_csv
from .tdse import NonFiniteDataError, PropagatorStep, TdseSetup, normalize, propagate
from .verification import run_all
from .wave import WaveProblem, build_wave_scheme, write_field_csv as write_wave_csv

__all__ = ["main"]


class UsageError(Exception):
    """Bad argument or config values; mapped to exit code 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _as_float(params, key, positive=False):
    try:
        value = float(params[key])
    except (TypeError, ValueError):
        raise UsageError(f"{key} must be a number, got {params[key]!r}")
    if not math.isfinite(value):
        raise UsageError(f"{key} must be finite, got {value}")
    if positive and not value > 0:
        raise UsageError(f"{key} must be positive, got {value}")
    return value


def _as_int(params, key, minimum=None):
    try:
        value = int(params[key])
    except (TypeError, ValueError):
        raise UsageError(f"{key} must be an integer, got {params[key]!r}")
    if minimum is not None and value < minimum:
        raise UsageError(f"{key} must be at least {minimum}, got {value}")
    return value


def _as_complex(params, key):
    try:
        value = complex(str(params[key]).replace(" ", ""))
    except ValueError:
        raise UsageError(f"{key} must be a complex number, got {params[key]!r}")
    if not cmath.isfinite(value):
        raise UsageError(f"{key} must be finite, got {value}")
    return value


def _parse_config(path) -> dict:
    entries = {}
    try:
        with open(path, encoding="ascii") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, value = line.split("=", 1)
                entries[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    return entries


def _effective(ns, defaults: dict) -> dict:
    params = dict(defaults)
    if getattr(ns, "config", None):
        for key, value in _parse_config(ns.config).items():
            if key not in defaults:
                raise UsageError(f"unknown config key: {key}")
            params[key] = value
    for key in defaults:
        value = getattr(ns, key, None)
        if value is not None:
            params[key] = value
    return params


def _real_if_exact(values) -> np.ndarray:
    """``values`` as a real array when every imaginary part is exactly 0."""
    values = np.asarray(values)
    if np.iscomplexobj(values) and not values.imag.any():
        return values.real
    return values


def _read_profile(path) -> GridFunction:
    """A sampled ``--from-csv`` profile, real when its imaginary column is all
    0; unreadable, non-uniform or non-finite files are usage errors."""
    try:
        profile = read_csv(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read profile {path}: {exc}")
    if not np.isfinite(profile.values).all():
        raise UsageError(f"cannot read profile {path}: non-finite sample")
    return profile.with_values(_real_if_exact(profile.values))


def _out_path(params, name):
    out_dir = str(params["out_dir"])
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _write_report(path, report: dict):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def _exit_code(run, policy: StopPolicy) -> int:
    """2 for a run that stopped on divergence, or on max_terms with its last
    term norm not below the one ``divergence_window`` terms earlier (or the
    seed's, for a shorter run); 0 otherwise."""
    if run.stop_reason == DIVERGENCE_DETECTED:
        return 2
    norms = run.term_sup_norms
    back = min(policy.divergence_window, len(norms) - 1)
    if run.stop_reason == MAX_TERMS and not norms[-1] < norms[-1 - back]:
        print(f"warning: no convergence in {run.terms_used} terms: the last term norm "
              f"{norms[-1]:.3g} is not below {norms[-1 - back]:.3g}, {back} terms earlier",
              file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------- oscillator

_OSC_DEFAULTS = {
    "omega_sq": "1", "from_csv": None, "t_max": "1.0", "step": "1e-3",
    "a": "1", "b": "0", "t_a": "0", "t_b": None, "tol": "1e-10",
    "max_terms": "40", "out_dir": ".",
}


def _cmd_oscillator(ns) -> int:
    params = _effective(ns, _OSC_DEFAULTS)
    tol = _as_float(params, "tol", positive=True)
    max_terms = _as_int(params, "max_terms", minimum=1)
    a = _as_complex(params, "a")
    b = _as_complex(params, "b")
    t_a = _as_float(params, "t_a")

    if params["from_csv"]:
        sampled = _read_profile(params["from_csv"])
        grid = sampled.grid
        w2_values = sampled.values
        points = grid.points()
        omega_fn = lambda t: (np.interp(t, points, w2_values.real)
                              + 1j * np.interp(t, points, w2_values.imag))
    else:
        step = _as_float(params, "step", positive=True)
        t_max = _as_float(params, "t_max", positive=True)
        grid = Grid.from_interval(0.0, t_max, round(t_max / step) + 1)
        expr = parse_expression(str(params["omega_sq"]), ("t",))
        w2_values = expr(t=grid.points())
        omega_fn = expr.unary("t")
    t_b = t_a if params["t_b"] is None else _as_float(params, "t_b")

    try:
        problem = OscillatorProblem(GridFunction(grid, np.broadcast_to(w2_values, (grid.count,))),
                                    t_a, t_b, a, b)
    except ValueError as exc:
        raise UsageError(str(exc))
    scheme = build_scheme(problem)
    policy = StopPolicy(tol=tol, max_terms=max_terms)
    run = run_cod(scheme, policy)

    oracle = rk4_oscillator(omega_fn, a, b, t_a, grid) if t_a == t_b else None
    f = run.partial_sum.values
    o = oracle.solution.values if oracle else np.full(grid.count, complex(np.nan, np.nan))
    with open(_out_path(params, "oscillator_solution.csv"), "w", encoding="ascii") as fh:
        fh.write("t,f_re,f_im,oracle_re,oracle_im\n")
        write_rows(fh, np.column_stack((grid.points(), f.real, f.imag, o.real, o.imag)))

    c_max = float(np.max(np.abs(problem.omega_sq.values)))
    norms = run.term_sup_norms
    bounds = [abs(a)] + [term_bound(n, abs(a), c_max, grid.end) for n in range(1, len(norms))]
    with open(_out_path(params, "oscillator_terms.csv"), "w", encoding="ascii") as fh:
        fh.write("n,term_sup_norm,term_bound\n")
        # term indices are small integers, which %.17g prints without a point
        write_rows(fh, np.column_stack((np.arange(len(norms)), norms, bounds)))

    two_term = scheme.generating.values + scheme.cycle_map(scheme.generating).values
    report = convergence_report(scheme, run)
    report["two_term_gap"] = float(np.max(np.abs(run.partial_sum.values - two_term)))
    if oracle:
        report["oracle_sup_error"] = float(np.max(np.abs(run.partial_sum.values
                                                         - oracle.solution.values)))
    _write_report(_out_path(params, "oscillator_report.json"), report)
    return _exit_code(run, policy)


# -------------------------------------------------------------- power series

_POWER_DEFAULTS = {
    "alpha": "1.0", "terms": "25", "t_max": "2.0", "points": "200", "out_dir": ".",
}


def _cmd_power_series(ns) -> int:
    params = _effective(ns, _POWER_DEFAULTS)
    alpha = _as_float(params, "alpha")
    if alpha <= -1:
        raise UsageError(f"alpha must exceed -1, got {alpha}")
    terms = _as_int(params, "terms", minimum=1)
    t_max = _as_float(params, "t_max", positive=True)
    points = _as_int(params, "points", minimum=1)
    series = power_series_solution(alpha, terms)
    with open(_out_path(params, "power_series.csv"), "w", encoding="ascii") as fh:
        fh.write("t,f,upper_estimate,below_upper\n")
        for i in range(1, points + 1):
            t = t_max * i / points
            f = float(series.evaluate(t))
            upper = upper_estimate(alpha, t)
            fh.write(f"{t:.17g},{f:.17g},{upper:.17g},{'true' if f < upper else 'false'}\n")
    return 0


# ------------------------------------------------------------- exp potential

_EXP_DEFAULTS = {
    "m": "1.0", "amplitude": "1.0", "c1": "1", "c2": "0",
    "x_min": "-5.0", "x_max": "1.0", "step": "1e-3", "terms": "30", "out_dir": ".",
}


def _cmd_exp_potential(ns) -> int:
    params = _effective(ns, _EXP_DEFAULTS)
    m = _as_float(params, "m")
    amplitude = _as_float(params, "amplitude")
    x_min = _as_float(params, "x_min")
    x_max = _as_float(params, "x_max")
    if x_max <= x_min:
        raise UsageError("x_max must exceed x_min")
    step = _as_float(params, "step", positive=True)
    terms = _as_int(params, "terms", minimum=1)
    problem = ExpPotentialProblem(m, amplitude, _as_complex(params, "c1"),
                                  _as_complex(params, "c2"))
    if m == 0:
        raise UsageError("m must be nonzero")
    grid = Grid.from_interval(x_min, x_max, round((x_max - x_min) / step) + 1)
    x = grid.points()
    psi = general_solution(problem, terms)(x)
    residual = np.abs(second_diff(psi, grid.step) + (m * m - amplitude * np.exp(x)) * psi)
    with open(_out_path(params, "exp_potential.csv"), "w", encoding="ascii") as fh:
        fh.write("x,psi_re,psi_im,residual_abs\n")
        write_rows(fh, np.column_stack((x, psi.real, psi.imag, residual)))
    return 0


# ---------------------------------------------------------------- stationary

_STATIONARY_DEFAULTS = {
    "dims": "1", "size": "64", "box": "6.283185307179586", "potential": "0",
    "from_csv": None, "energy": "-0.5", "variant": "laplace", "psi_g_const": None,
    "source": "none", "tol": "1e-10", "max_terms": "200", "out_dir": ".",
}


def _cmd_stationary(ns) -> int:
    params = _effective(ns, _STATIONARY_DEFAULTS)
    dims = _as_int(params, "dims", minimum=1)
    if dims not in (1, 2):
        raise UsageError("dims must be 1 or 2")
    size = _as_int(params, "size")
    box = _as_float(params, "box", positive=True)
    energy = _as_float(params, "energy")
    variant = str(params["variant"])
    if variant not in ("laplace", "resolvent"):
        raise UsageError(f"variant must be laplace or resolvent, got {variant!r}")
    tol = _as_float(params, "tol", positive=True)
    max_terms = _as_int(params, "max_terms", minimum=1)
    source_kind = str(params["source"])
    if source_kind not in ("none", "delta"):
        raise UsageError(f"source must be none or delta, got {source_kind!r}")

    if params["from_csv"]:
        if dims != 1:
            raise UsageError("from_csv potentials are 1D only")
        sampled = _read_profile(params["from_csv"])
        if abs(sampled.grid.start) > 1e-9 * sampled.grid.step:
            raise UsageError(f"sampled potential x column must start at 0, "
                             f"got {sampled.grid.start:.17g}")
        u_values = sampled.values
        size = sampled.grid.count
        box = sampled.grid.period
    if size < 4 or size % 2:
        raise UsageError(f"size must be even and >= 4, got {size}")
    axes = (Grid.periodic(0.0, box, size),) * dims
    if not params["from_csv"]:
        expr = parse_expression(str(params["potential"]), ("x", "y")[:dims])
        points = np.meshgrid(*(g.points() for g in axes), indexing="ij")
        u_values = expr(**dict(zip("xy", points)))

    shape = (size,) * dims
    potential = GridFunction(axes, np.broadcast_to(u_values, shape))
    default_const = "1" if variant == "laplace" else "0"
    const = _as_complex({"psi_g_const": params["psi_g_const"] or default_const}, "psi_g_const")
    psi_g = GridFunction(axes, np.full(shape, _real_if_exact(const)))

    scheme = build_stationary_scheme(potential, energy, psi_g, variant)
    policy = StopPolicy(tol=tol, max_terms=max_terms)
    if source_kind == "delta":
        source_values = np.zeros(shape)
        source_values[(0,) * dims] = 1.0
        source = GridFunction(axes, source_values)
        run = run_cod_with_source(scheme, source, policy)
        report = convergence_report(scheme, run, source=source)
    else:
        run = run_cod(scheme, policy)
        report = convergence_report(scheme, run)
    report["zero_mode_note"] = (
        "inverse laplacian maps the k=0 mode to 0; residuals retain the mean component"
    )
    write_field_csv(run.partial_sum, _out_path(params, "stationary_field.csv"),
                    _out_path(params, "stationary_field.json"), (box,) * dims)
    _write_report(_out_path(params, "stationary_report.json"), report)
    return _exit_code(run, policy)


# ---------------------------------------------------------------------- tdse

_TDSE_DEFAULTS = {
    "size": "64", "box": "20.0", "potential": "0", "vector_potential": "0",
    "x0": "0", "sigma": "1.0", "k0": "0", "dt": "1e-2", "t_final": "1.0",
    "terms": "4", "nodes": None, "out_dir": ".",
}


def _cmd_tdse(ns) -> int:
    params = _effective(ns, _TDSE_DEFAULTS)
    size = _as_int(params, "size", minimum=4)
    box = _as_float(params, "box", positive=True)
    dt = _as_float(params, "dt", positive=True)
    t_final = _as_float(params, "t_final", positive=True)
    terms = _as_int(params, "terms", minimum=1)
    nodes = None if params["nodes"] is None else _as_int(params, "nodes", minimum=2)
    x0 = _as_float(params, "x0")
    sigma = _as_float(params, "sigma", positive=True)
    k0 = _as_float(params, "k0")

    grid = Grid.periodic(-box / 2.0, box, size)
    x = grid.points()
    u_expr = parse_expression(str(params["potential"]), ("x", "t"))
    a_expr = parse_expression(str(params["vector_potential"]), ("t",))
    # a profile without t is sampled once here rather than at every sub-node
    if "t" in u_expr.variables:
        potential = lambda xv, t: np.broadcast_to(np.asarray(u_expr(x=xv, t=t), float), xv.shape)
    else:
        potential = np.broadcast_to(u_expr(x=x), x.shape)
    if "t" in a_expr.variables:
        vector_potential = lambda t: float(a_expr(t=t))
    else:
        vector_potential = float(a_expr())
    packet = np.exp(-((x - x0) ** 2) / (2.0 * sigma ** 2) + 1j * k0 * x)
    psi0 = normalize(GridFunction(grid, packet))
    try:
        setup = TdseSetup(grid, potential, vector_potential, psi0)
    except ValueError as exc:
        raise UsageError(str(exc))
    step = PropagatorStep(dt=dt, n_terms=terms, quadrature_nodes=nodes)

    try:
        final, report = propagate(setup, step, t_final)
    except NonFiniteDataError as exc:
        raise UsageError(str(exc))
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    with open(_out_path(params, "tdse_steps.jsonl"), "w", encoding="ascii") as fh:
        for record in report.records:
            fh.write(json.dumps(record) + "\n")
    write_csv(final, _out_path(params, "tdse_final.csv"))
    return 0


# ---------------------------------------------------------------------- wave

_WAVE_DEFAULTS = {
    "epsilon": "1", "from_csv": None, "s_init": "sin(x)", "r_init": "0",
    "x_size": "64", "box": "6.283185307179586", "t_max": "1.0", "t_size": "201",
    "tol": "1e-10", "max_terms": "40", "snapshot": None, "out_dir": ".",
}


def _cmd_wave(ns) -> int:
    params = _effective(ns, _WAVE_DEFAULTS)
    x_size = _as_int(params, "x_size", minimum=4)
    box = _as_float(params, "box", positive=True)
    t_max = _as_float(params, "t_max", positive=True)
    t_size = _as_int(params, "t_size", minimum=2)
    tol = _as_float(params, "tol", positive=True)
    max_terms = _as_int(params, "max_terms", minimum=1)

    x_grid = Grid.periodic(0.0, box, x_size)
    t_grid = Grid.from_interval(0.0, t_max, t_size)
    x = x_grid.points()
    if params["from_csv"]:
        sampled = _read_profile(params["from_csv"])
        g = sampled.grid
        if (g.count != x_size or abs(g.start) > 1e-9 * x_grid.step
                or abs(g.step - x_grid.step) > 1e-9 * x_grid.step):
            raise UsageError(f"sampled permittivity x column must be the box grid: "
                             f"start 0, step {x_grid.step:.17g}, {x_size} rows")
        eps_values = sampled.values
    else:
        eps_values = np.broadcast_to(parse_expression(str(params["epsilon"]), ("x",))(x=x),
                                     (x_size,))
    s_values = np.broadcast_to(parse_expression(str(params["s_init"]), ("x",))(x=x), (x_size,))
    r_values = np.broadcast_to(parse_expression(str(params["r_init"]), ("x",))(x=x), (x_size,))
    try:
        problem = WaveProblem(GridFunction(x_grid, eps_values),
                              GridFunction(x_grid, s_values),
                              GridFunction(x_grid, r_values))
        scheme = build_wave_scheme(problem, x_grid, t_grid)
    except ValueError as exc:
        raise UsageError(str(exc))
    policy = StopPolicy(tol=tol, max_terms=max_terms)
    run = run_cod(scheme, policy)
    field = run.partial_sum
    if run.stop_reason == DIVERGENCE_DETECTED:
        print("warning: series divergence detected; shorten the time window "
              "(growth scales with max(1/eps) * k_max^2 * t^2)", file=sys.stderr)

    write_wave_csv(field, _out_path(params, "wave_field.csv"),
                   _out_path(params, "wave_field.json"))
    _write_report(_out_path(params, "wave_report.json"), convergence_report(scheme, run))
    if params["snapshot"] is not None:
        t_snap = _as_float(params, "snapshot")
        try:
            row = field.values[t_grid.index_of(t_snap)]
        except ValueError as exc:
            raise UsageError(str(exc))
        write_csv(GridFunction(x_grid, row), _out_path(params, "wave_snapshot.csv"))
    return _exit_code(run, policy)


# -------------------------------------------------------------------- verify

def _cmd_verify(ns) -> int:
    results = run_all(quick=bool(ns.quick))
    width = max(len(r.name) for r in results)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name:<{width}}  {result.detail}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


# ------------------------------------------------------------------- parsing

def _add_command(commands, name, help, defaults, handler):
    """Subcommand with one ``--key-name`` flag per key of ``defaults``."""
    p = commands.add_parser(name, help=help)
    for key in defaults:
        p.add_argument("--" + key.replace("_", "-"), dest=key)
    p.add_argument("--config", help="key=value config file; flags override it")
    p.set_defaults(handler=handler)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cod", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    _add_command(commands, "oscillator", "variable-frequency oscillator series",
                 _OSC_DEFAULTS, _cmd_oscillator)
    _add_command(commands, "power-series", "monomial series for w2 = -t^alpha",
                 _POWER_DEFAULTS, _cmd_power_series)
    _add_command(commands, "exp-potential", "exponential-potential product series",
                 _EXP_DEFAULTS, _cmd_exp_potential)
    _add_command(commands, "stationary", "periodic stationary problem",
                 _STATIONARY_DEFAULTS, _cmd_stationary)
    _add_command(commands, "tdse", "time-dependent short-step propagation",
                 _TDSE_DEFAULTS, _cmd_tdse)
    _add_command(commands, "wave", "dispersive wave equation", _WAVE_DEFAULTS, _cmd_wave)

    p = commands.add_parser("verify", help="run the acceptance table")
    p.add_argument("--quick", action="store_true", help="reduced-resolution variant")
    p.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return ns.handler(ns)
    except (UsageError, ExpressionError) as exc:
        print(f"cod: error: {exc}", file=sys.stderr)
        return 3
    except SeriesBlowUpError as exc:
        print(f"cod: solver error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"cod: solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
