"""Seeded `cod` workloads and the independent references that check them.

A workload turns coefficient values into one `cod` command line and, after
the job has run, checks the files it wrote against a reference that does
not run the code being timed:

* oscillator: scipy's DOP853 on the first-order system, with w2 evaluated
  here from the coefficients rather than through the expression parser;
* spectral2d: the FFT residual Laplacian(psi) + 2(E - U) psi - delta of
  the written field, with its own wavenumbers;
* tdse: the dense Crank-Nicolson oracle, plus the per-step norm drift the
  job wrote to tdse_steps.jsonl;
* wave: the explicit leapfrog oracle.

Every coefficient is drawn by Latin hypercube sampling: each of the
``count`` inputs falls in its own slice of every coefficient's range, so
every seed covers the whole range and the medians over one seed's inputs
move little from seed to seed.
"""

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["WORKLOADS", "Check", "Workload", "make_inputs"]

COMPLEX_BYTES = 16


@dataclass(frozen=True)
class Check:
    """Outcome of one reference check: worst error and work units per job."""

    err: float
    work_units: int
    note: str = ""


@dataclass(frozen=True)
class Workload:
    """One `cod` subcommand driven over seeded coefficient ranges.

    ``full`` holds the benchmark sizes and ``tiny`` the self-test sizes;
    each size dict also carries ``err_bound``, the largest error against
    the reference that still counts as correct at that resolution.
    """

    name: str
    ranges: dict
    argv: Callable[[dict, dict, str], list]
    check: Callable[[dict, dict, str], Check]
    largest_array_bytes: Callable[[dict], int]
    full: dict
    tiny: dict


def make_inputs(workload: Workload, seed: int, count: int) -> list:
    """``count`` coefficient dicts, Latin-hypercube sampled from ``seed``.

    Values are rounded to 6 decimals so the expression text handed to
    `cod` and the value the reference uses are the same number.
    """
    rng = np.random.default_rng(seed)
    columns = {}
    for key, (lo, hi) in workload.ranges.items():
        strata = (rng.permutation(count) + rng.random(count)) / count
        columns[key] = [round(lo + (hi - lo) * float(u), 6) for u in strata]
    return [{key: columns[key][i] for key in workload.ranges} for i in range(count)]


def _num(value: float) -> str:
    # repr of a 6-decimal float is its shortest exact text, parseable by cod
    return repr(float(value))


def _read_field(path, shape) -> np.ndarray:
    """Complex samples from a header-less CSV of re,im pairs per row."""
    with open(path, encoding="ascii") as fh:
        flat = np.array(fh.read().replace("\n", ",").rstrip(",").split(","), dtype=float)
    return (flat[0::2] + 1j * flat[1::2]).reshape(shape)


def _report(out_dir, name) -> dict:
    with open(os.path.join(out_dir, name), encoding="ascii") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- oscillator

def _oscillator_argv(c, size, out_dir):
    return ["oscillator",
            "--omega-sq", f"{_num(c['c0'])}+{_num(c['c1'])}*sin({_num(c['c2'])}*t)",
            "--t-max", _num(size["t_max"]), "--step", _num(size["step"]),
            "--out-dir", out_dir]


def _oscillator_check(c, size, out_dir) -> Check:
    from scipy.integrate import solve_ivp

    data = np.loadtxt(os.path.join(out_dir, "oscillator_solution.csv"),
                      delimiter=",", skiprows=1, ndmin=2)
    t = data[:, 0]
    c0, c1, c2 = c["c0"], c["c1"], c["c2"]

    def rhs(tv, y):
        return [y[1], -(c0 + c1 * math.sin(c2 * tv)) * y[0]]

    # a = 1, b = 0 are the cod defaults, so the exact solution is real
    ref = solve_ivp(rhs, (0.0, size["t_max"]), [1.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-14, t_eval=t)
    if not ref.success:
        raise RuntimeError(f"reference solver failed: {ref.message}")
    series = data[:, 1] + 1j * data[:, 2]
    rk4 = data[:, 3] + 1j * data[:, 4]
    err = max(float(np.max(np.abs(series - ref.y[0]))),
              float(np.max(np.abs(rk4 - ref.y[0]))))
    report = _report(out_dir, "oscillator_report.json")
    return Check(err, report["terms_used"], report["stop_reason"])


def _oscillator_bytes(size) -> int:
    return (round(size["t_max"] / size["step"]) + 1) * COMPLEX_BYTES


# ---------------------------------------------------------------- spectral2d

_SPECTRAL_ENERGY = -0.5
_SPECTRAL_BOX = 2.0 * math.pi  # cod's default box


def _spectral_argv(c, size, out_dir):
    return ["stationary", "--dims", "2", "--size", str(size["size"]),
            "--variant", "resolvent", "--source", "delta",
            f"--energy={_num(_SPECTRAL_ENERGY)}",
            "--potential", f"{_num(c['A'])}*(cos(x)+cos(y))",
            "--out-dir", out_dir]


def _spectral_check(c, size, out_dir) -> Check:
    n = size["size"]
    psi = _read_field(os.path.join(out_dir, "stationary_field.csv"), (n, n))
    axis = np.arange(n) * (_SPECTRAL_BOX / n)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    u = c["A"] * (np.cos(x) + np.cos(y))
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=_SPECTRAL_BOX / n)
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    laplacian = np.fft.ifft2(-ksq * np.fft.fft2(psi))
    residual = laplacian + 2.0 * (_SPECTRAL_ENERGY - u) * psi
    residual[0, 0] -= 1.0
    report = _report(out_dir, "stationary_report.json")
    return Check(float(np.max(np.abs(residual))), report["terms_used"],
                 report["stop_reason"])


def _spectral_bytes(size) -> int:
    return size["size"] ** 2 * COMPLEX_BYTES


# ---------------------------------------------------------------------- tdse

def _tdse_argv(c, size, out_dir):
    return ["tdse", "--size", str(size["size"]), "--box", _num(size["box"]),
            "--potential", f"{_num(c['w'])}*x^2+{_num(c['v'])}*cos(x)",
            f"--k0={_num(c['k'])}", f"--x0={_num(c['x0'])}",
            "--dt", _num(size["dt"]), "--t-final", _num(size["t_final"]),
            "--terms", "4", "--out-dir", out_dir]


def _tdse_check(c, size, out_dir) -> Check:
    from codseries.grids import Grid, GridFunction
    from codseries.oracles import crank_nicolson
    from codseries.tdse import TdseSetup

    box, n = size["box"], size["size"]
    grid = Grid.periodic(-box / 2.0, box, n)
    x = grid.points()
    packet = np.exp(-0.5 * (x - c["x0"]) ** 2 + 1j * c["k"] * x)  # cod's sigma = 1
    packet /= math.sqrt(grid.step * float(np.sum(np.abs(packet) ** 2)))
    setup = TdseSetup(grid, lambda xv, t: c["w"] * xv ** 2 + c["v"] * np.cos(xv),
                      lambda t: 0.0, GridFunction(grid, packet))
    ref = crank_nicolson(setup, size["dt"], size["t_final"])

    data = np.loadtxt(os.path.join(out_dir, "tdse_final.csv"), delimiter=",",
                      skiprows=1, ndmin=2)
    err = float(np.max(np.abs(data[:, 1] + 1j * data[:, 2] - ref.solution.values)))
    with open(os.path.join(out_dir, "tdse_steps.jsonl"), encoding="ascii") as fh:
        records = [json.loads(line) for line in fh]
    steps = round(size["t_final"] / size["dt"])
    drift = max((r["drift"] for r in records), default=math.nan)
    if len(records) != steps or not drift <= size["drift_bound"]:
        # a missing step or an unstable norm fails the job like a wrong state
        err = math.inf
    return Check(err, len(records), f"max drift {drift:.3g}")


def _tdse_bytes(size) -> int:
    # the in-step term stack: (terms + 1) sub-nodes x grid size
    return 5 * size["size"] * COMPLEX_BYTES


# ---------------------------------------------------------------------- wave

def _wave_argv(c, size, out_dir):
    return ["wave", "--epsilon", f"1+{_num(c['a'])}*cos(x)",
            "--s-init", f"sin(x)+{_num(c['b'])}*cos(2*x)",
            "--x-size", str(size["x_size"]), "--t-max", _num(size["t_max"]),
            "--t-size", str(size["t_size"]), "--snapshot", _num(size["t_max"] / 2),
            "--out-dir", out_dir]


def _wave_check(c, size, out_dir) -> Check:
    from codseries.grids import Grid, GridFunction
    from codseries.oracles import leapfrog_wave
    from codseries.wave import WaveProblem

    nx, nt = size["x_size"], size["t_size"]
    x_grid = Grid.periodic(0.0, 2.0 * math.pi, nx)
    t_grid = Grid.from_interval(0.0, size["t_max"], nt)
    x = x_grid.points()
    problem = WaveProblem(
        GridFunction(x_grid, 1.0 + c["a"] * np.cos(x)),
        GridFunction(x_grid, np.sin(x) + c["b"] * np.cos(2.0 * x)),
        GridFunction(x_grid, np.zeros(nx)),
    )
    ref = leapfrog_wave(problem, x_grid, t_grid, richardson=False)
    field = _read_field(os.path.join(out_dir, "wave_field.csv"), (nt, nx))
    snapshot = np.loadtxt(os.path.join(out_dir, "wave_snapshot.csv"), delimiter=",",
                          skiprows=1, ndmin=2)
    row = field[(nt - 1) // 2]  # --snapshot is t_max / 2 on an odd-sized time grid
    err = max(float(np.max(np.abs(field - ref.solution.values))),
              float(np.max(np.abs(snapshot[:, 1] + 1j * snapshot[:, 2] - row))))
    report = _report(out_dir, "wave_report.json")
    return Check(err, report["terms_used"], report["stop_reason"])


def _wave_bytes(size) -> int:
    return size["x_size"] * size["t_size"] * COMPLEX_BYTES


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="oscillator",
            ranges={"c0": (1.0, 2.0), "c1": (0.2, 0.8), "c2": (1.0, 3.0)},
            argv=_oscillator_argv, check=_oscillator_check,
            largest_array_bytes=_oscillator_bytes,
            full={"t_max": 1.0, "step": 1e-4, "err_bound": 2e-8},
            tiny={"t_max": 1.0, "step": 1e-2, "err_bound": 1e-3},
        ),
        Workload(
            name="spectral2d",
            ranges={"A": (0.40, 0.48)},
            argv=_spectral_argv, check=_spectral_check,
            largest_array_bytes=_spectral_bytes,
            full={"size": 256, "err_bound": 1e-9},
            tiny={"size": 16, "err_bound": 1e-8},
        ),
        Workload(
            name="tdse",
            ranges={"w": (0.3, 0.7), "v": (0.0, 0.5), "k": (-2.0, 2.0), "x0": (-2.0, 2.0)},
            argv=_tdse_argv, check=_tdse_check, largest_array_bytes=_tdse_bytes,
            full={"size": 256, "box": 20.0, "dt": 5e-4, "t_final": 0.5,
                  "err_bound": 2e-6, "drift_bound": 1e-10},
            tiny={"size": 32, "box": 20.0, "dt": 5e-3, "t_final": 0.05,
                  "err_bound": 1e-3, "drift_bound": 1e-3},
        ),
        Workload(
            name="wave",
            ranges={"a": (0.3, 0.5), "b": (0.0, 0.5)},
            argv=_wave_argv, check=_wave_check, largest_array_bytes=_wave_bytes,
            full={"x_size": 32, "t_max": 1.0, "t_size": 1601, "err_bound": 1e-3},
            tiny={"x_size": 8, "t_max": 1.0, "t_size": 101, "err_bound": 1e-2},
        ),
    )
}
