"""Command-line front end: one subcommand per solver plus ``verify``.

Every run is reproducible: fixed %.17g formatting, no timestamps, and a
plain key=value config file (# comments) whose entries are overridden by
explicit flags.  Exit codes: 0 success, 1 solver error, 2 divergence
detected or max_terms reached with terms not shrinking, 3 bad arguments.
Real input data (an imaginary part of exactly 0) is passed on as real
arrays, so those series run in real arithmetic.

Each subcommand's flags are the keys of one table that gives each key its
default and its converter.  Every value set by the table, the config file
or a flag is converted and checked before the run starts, so a malformed
one exits 3 before any file is written, even where the run would not read
it.
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


# converters: (key, text) -> checked value, or UsageError naming the key

def _text(key, text):
    return text


def _real(key, text, positive=False):
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise UsageError(f"{key} must be a number, got {text!r}")
    if not math.isfinite(value):
        raise UsageError(f"{key} must be finite, got {value}")
    if positive and not value > 0:
        raise UsageError(f"{key} must be positive, got {value}")
    return value


def _positive(key, text):
    return _real(key, text, positive=True)


def _integer(minimum=None):
    """Converter to an int, at least ``minimum`` when one is given."""
    def convert(key, text):
        try:
            value = int(text)
        except (TypeError, ValueError):
            raise UsageError(f"{key} must be an integer, got {text!r}")
        if minimum is not None and value < minimum:
            raise UsageError(f"{key} must be at least {minimum}, got {value}")
        return value
    return convert


def _complex(key, text):
    try:
        value = complex(text.replace(" ", ""))
    except ValueError:
        raise UsageError(f"{key} must be a complex number, got {text!r}")
    if not cmath.isfinite(value):
        raise UsageError(f"{key} must be finite, got {value}")
    return value


def _one_of(*options, convert=_text):
    """Converter that admits only ``options``, compared after ``convert``."""
    def check(key, text):
        value = convert(key, text)
        if value not in options:
            raise UsageError(f"{key} must be {' or '.join(map(str, options))}, got {value!r}")
        return value
    return check


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


def _effective(ns, flags: dict) -> dict:
    """Each key of the ``flags`` table from its default, the config file or
    its flag, the last one set winning, run through the table's converter;
    a key left at a ``None`` default stays ``None``."""
    params = {key: default for key, (default, _) in flags.items()}
    if getattr(ns, "config", None):
        for key, value in _parse_config(ns.config).items():
            if key not in flags:
                raise UsageError(f"unknown config key: {key}")
            params[key] = value
    for key in flags:
        value = getattr(ns, key, None)
        if value is not None:
            params[key] = value
    return {key: None if value is None else flags[key][1](key, value)
            for key, value in params.items()}


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

_OSC_FLAGS = {
    "omega_sq": ("1", _text), "from_csv": (None, _text), "t_max": ("1.0", _positive),
    "step": ("1e-3", _positive), "a": ("1", _complex), "b": ("0", _complex),
    "t_a": ("0", _real), "t_b": (None, _real), "tol": ("1e-10", _positive),
    "max_terms": ("40", _integer(1)), "out_dir": (".", _text),
}


def _cmd_oscillator(params) -> int:
    a, b, t_a = params["a"], params["b"], params["t_a"]
    if params["from_csv"]:
        sampled = _read_profile(params["from_csv"])
        grid = sampled.grid
        w2_values = sampled.values
        points = grid.points()
        omega_fn = lambda t: (np.interp(t, points, w2_values.real)
                              + 1j * np.interp(t, points, w2_values.imag))
    else:
        t_max = params["t_max"]
        grid = Grid.from_interval(0.0, t_max, round(t_max / params["step"]) + 1)
        expr = parse_expression(params["omega_sq"], ("t",))
        w2_values = expr(t=grid.points())
        omega_fn = expr.unary("t")
    t_b = t_a if params["t_b"] is None else params["t_b"]

    try:
        problem = OscillatorProblem(GridFunction(grid, np.broadcast_to(w2_values, (grid.count,))),
                                    t_a, t_b, a, b)
    except ValueError as exc:
        raise UsageError(str(exc))
    scheme = build_scheme(problem)
    policy = StopPolicy(tol=params["tol"], max_terms=params["max_terms"])
    run = run_cod(scheme, policy)

    # the RK4 oracle is an initial-value solver: both conditions at the grid start
    oracle = rk4_oscillator(omega_fn, a, b, t_a, grid) if t_a == t_b == grid.start else None
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
        report["oracle_error_estimate"] = oracle.error_estimate
        report["oracle_substeps"] = oracle.diagnostics["substeps"]
    _write_report(_out_path(params, "oscillator_report.json"), report)
    return _exit_code(run, policy)


# -------------------------------------------------------------- power series

_POWER_FLAGS = {
    "alpha": ("1.0", _real), "terms": ("25", _integer(1)), "t_max": ("2.0", _positive),
    "points": ("200", _integer(1)), "out_dir": (".", _text),
}


def _cmd_power_series(params) -> int:
    alpha, t_max, points = params["alpha"], params["t_max"], params["points"]
    if alpha <= -1:
        raise UsageError(f"alpha must exceed -1, got {alpha}")
    series = power_series_solution(alpha, params["terms"])
    with open(_out_path(params, "power_series.csv"), "w", encoding="ascii") as fh:
        fh.write("t,f,upper_estimate,below_upper\n")
        for i in range(1, points + 1):
            t = t_max * i / points
            f = float(series.evaluate(t))
            upper = upper_estimate(alpha, t)
            fh.write(f"{t:.17g},{f:.17g},{upper:.17g},{'true' if f < upper else 'false'}\n")
    return 0


# ------------------------------------------------------------- exp potential

_EXP_FLAGS = {
    "m": ("1.0", _real), "amplitude": ("1.0", _real), "c1": ("1", _complex),
    "c2": ("0", _complex), "x_min": ("-5.0", _real), "x_max": ("1.0", _real),
    "step": ("1e-3", _positive), "terms": ("30", _integer(1)), "out_dir": (".", _text),
}


def _cmd_exp_potential(params) -> int:
    m, amplitude, x_min, x_max = params["m"], params["amplitude"], params["x_min"], params["x_max"]
    if x_max <= x_min:
        raise UsageError("x_max must exceed x_min")
    problem = ExpPotentialProblem(m, amplitude, params["c1"], params["c2"])
    if m == 0:
        raise UsageError("m must be nonzero")
    grid = Grid.from_interval(x_min, x_max, round((x_max - x_min) / params["step"]) + 1)
    x = grid.points()
    psi = general_solution(problem, params["terms"])(x)
    residual = np.abs(second_diff(psi, grid.step) + (m * m - amplitude * np.exp(x)) * psi)
    with open(_out_path(params, "exp_potential.csv"), "w", encoding="ascii") as fh:
        fh.write("x,psi_re,psi_im,residual_abs\n")
        write_rows(fh, np.column_stack((x, psi.real, psi.imag, residual)))
    return 0


# ---------------------------------------------------------------- stationary

_STATIONARY_FLAGS = {
    "dims": ("1", _one_of(1, 2, convert=_integer())), "size": ("64", _integer()),
    "box": ("6.283185307179586", _positive), "potential": ("0", _text),
    "from_csv": (None, _text), "energy": ("-0.5", _real),
    "variant": ("laplace", _one_of("laplace", "resolvent")),
    "psi_g_const": (None, _complex), "source": ("none", _one_of("none", "delta")),
    "tol": ("1e-10", _positive), "max_terms": ("200", _integer(1)), "out_dir": (".", _text),
}


def _cmd_stationary(params) -> int:
    dims, size, box, variant = params["dims"], params["size"], params["box"], params["variant"]
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
        expr = parse_expression(params["potential"], ("x", "y")[:dims])
        points = np.meshgrid(*(g.points() for g in axes), indexing="ij")
        u_values = expr(**dict(zip("xy", points)))

    shape = (size,) * dims
    potential = GridFunction(axes, np.broadcast_to(u_values, shape))
    const = params["psi_g_const"]
    if const is None:
        const = 1.0 if variant == "laplace" else 0.0
    psi_g = GridFunction(axes, np.full(shape, _real_if_exact(const)))

    scheme = build_stationary_scheme(potential, params["energy"], psi_g, variant)
    policy = StopPolicy(tol=params["tol"], max_terms=params["max_terms"])
    if params["source"] == "delta":
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

_TDSE_FLAGS = {
    "size": ("64", _integer(4)), "box": ("20.0", _positive), "potential": ("0", _text),
    "vector_potential": ("0", _text), "x0": ("0", _real), "sigma": ("1.0", _positive),
    "k0": ("0", _real), "dt": ("1e-2", _positive), "t_final": ("1.0", _positive),
    "terms": ("4", _integer(1)), "nodes": (None, _integer(2)), "out_dir": (".", _text),
}
# Largest fraction of the packet's line mass the grid may miss.
_PACKET_MASS_SHORTFALL = 1e-6


def _cmd_tdse(params) -> int:
    box, sigma = params["box"], params["sigma"]
    grid = Grid.periodic(-box / 2.0, box, params["size"])
    x = grid.points()
    u_expr = parse_expression(params["potential"], ("x", "t"))
    a_expr = parse_expression(params["vector_potential"], ("t",))
    # a profile without t is sampled once here rather than at every sub-node
    if "t" in u_expr.variables:
        potential = lambda xv, t: np.broadcast_to(np.asarray(u_expr(x=xv, t=t), float), xv.shape)
    else:
        potential = np.broadcast_to(u_expr(x=x), x.shape)
    if "t" in a_expr.variables:
        vector_potential = lambda t: float(a_expr(t=t))
    else:
        vector_potential = float(a_expr())
    x0, k0 = params["x0"], params["k0"]
    with np.errstate(all="ignore"):
        packet = GridFunction(grid, np.exp(-((x - x0) ** 2) / (2.0 * sigma ** 2) + 1j * k0 * x))
        mass = packet.l2_norm() ** 2
    # |packet|^2 holds sqrt(pi)*sigma on the whole line; a packet that the box
    # cuts, or that is too narrow for the grid, holds less on it
    line_mass = math.sqrt(math.pi) * sigma
    if not (np.isfinite(packet.values).all()
            and mass >= (1.0 - _PACKET_MASS_SHORTFALL) * line_mass):
        raise UsageError(f"--x0 {x0:g}, --sigma {sigma:g} and --k0 {k0:g} give a wave packet "
                         f"whose mass on the grid, {mass:.6g}, falls short of the Gaussian's "
                         f"sqrt(pi)*sigma = {line_mass:.6g} by more than a fraction "
                         f"{_PACKET_MASS_SHORTFALL:g}; keep it inside the box and wider than "
                         "the grid step")
    step = PropagatorStep(dt=params["dt"], n_terms=params["terms"],
                          quadrature_nodes=params["nodes"])
    try:
        setup = TdseSetup(grid, potential, vector_potential, normalize(packet))
        step.steps_to(params["t_final"])
    except ValueError as exc:
        raise UsageError(str(exc))

    try:
        final, report = propagate(setup, step, params["t_final"])
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

_WAVE_FLAGS = {
    "epsilon": ("1", _text), "from_csv": (None, _text), "s_init": ("sin(x)", _text),
    "r_init": ("0", _text), "x_size": ("64", _integer(4)),
    "box": ("6.283185307179586", _positive), "t_max": ("1.0", _positive),
    "t_size": ("201", _integer(2)), "tol": ("1e-10", _positive),
    "max_terms": ("40", _integer(1)), "snapshot": (None, _real), "out_dir": (".", _text),
}


def _cmd_wave(params) -> int:
    x_size = params["x_size"]
    x_grid = Grid.periodic(0.0, params["box"], x_size)
    t_grid = Grid.from_interval(0.0, params["t_max"], params["t_size"])
    try:
        snapshot_row = None if params["snapshot"] is None else t_grid.index_of(params["snapshot"])
    except ValueError as exc:
        raise UsageError(str(exc))
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
        eps_values = np.broadcast_to(parse_expression(params["epsilon"], ("x",))(x=x), (x_size,))
    s_values = np.broadcast_to(parse_expression(params["s_init"], ("x",))(x=x), (x_size,))
    r_values = np.broadcast_to(parse_expression(params["r_init"], ("x",))(x=x), (x_size,))
    try:
        problem = WaveProblem(GridFunction(x_grid, eps_values),
                              GridFunction(x_grid, s_values),
                              GridFunction(x_grid, r_values))
        scheme = build_wave_scheme(problem, x_grid, t_grid)
    except ValueError as exc:
        raise UsageError(str(exc))
    policy = StopPolicy(tol=params["tol"], max_terms=params["max_terms"])
    run = run_cod(scheme, policy)
    field = run.partial_sum
    if run.stop_reason == DIVERGENCE_DETECTED:
        print("warning: series divergence detected; shorten the time window "
              "(growth scales with max(1/eps) * k_max^2 * t^2)", file=sys.stderr)

    write_wave_csv(field, _out_path(params, "wave_field.csv"),
                   _out_path(params, "wave_field.json"))
    _write_report(_out_path(params, "wave_report.json"), convergence_report(scheme, run))
    if snapshot_row is not None:
        write_csv(GridFunction(x_grid, field.values[snapshot_row]),
                  _out_path(params, "wave_snapshot.csv"))
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

def _add_command(commands, name, help, flags, handler):
    """Subcommand with one ``--key-name`` flag per key of the ``flags``
    table; ``handler`` gets the checked values of every key."""
    p = commands.add_parser(name, help=help)
    for key in flags:
        p.add_argument("--" + key.replace("_", "-"), dest=key)
    p.add_argument("--config", help="key=value config file; flags override it")
    p.set_defaults(handler=lambda ns: handler(_effective(ns, flags)))


def _build_parser() -> _Parser:
    parser = _Parser(prog="cod", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    _add_command(commands, "oscillator", "variable-frequency oscillator series",
                 _OSC_FLAGS, _cmd_oscillator)
    _add_command(commands, "power-series", "monomial series for w2 = -t^alpha",
                 _POWER_FLAGS, _cmd_power_series)
    _add_command(commands, "exp-potential", "exponential-potential product series",
                 _EXP_FLAGS, _cmd_exp_potential)
    _add_command(commands, "stationary", "periodic stationary problem",
                 _STATIONARY_FLAGS, _cmd_stationary)
    _add_command(commands, "tdse", "time-dependent short-step propagation",
                 _TDSE_FLAGS, _cmd_tdse)
    _add_command(commands, "wave", "dispersive wave equation", _WAVE_FLAGS, _cmd_wave)

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
