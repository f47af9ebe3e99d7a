"""Uniform-grid function containers and the discrete calculus on them.

Every solver stores its samples in one container, :class:`GridFunction`,
over one uniform :class:`Grid` per axis.  Everything downstream (series
engines, spectral inverses, residual checks) is built from the handful of
operations here: cumulative trapezoid integration with a selectable lower
limit, second-order finite differences, wavenumbers of periodic grids, one
spectral multiplier, and the %.17g CSV writer.

Real samples stay real: a :class:`GridFunction` keeps float64 input as
float64, :func:`spectral_apply` takes real input through the real-input
FFT, and :func:`write_csv` writes the imaginary part of a real function
as ``0``.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "cumulative_integral",
    "cumtrapz_from",
    "first_diff",
    "read_csv",
    "second_diff",
    "spectral_apply",
    "wavenumbers",
    "write_csv",
    "write_rows",
]

FLOAT_FMT = "%.17g"
# values formatted per write_rows call: enough to amortize the per-call
# cost, small enough that the temporary floats and text stay a few MB
_WRITE_BLOCK_VALUES = 8192


@dataclass(frozen=True)
class Grid:
    """Uniform 1D grid with points start + i*step for 0 <= i < count."""

    start: float
    step: float
    count: int

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.count < 2:
            raise ValueError(f"count must be at least 2, got {self.count}")

    @property
    def end(self) -> float:
        return self.start + (self.count - 1) * self.step

    @property
    def period(self) -> float:
        """Domain length when the grid is read as periodic (endpoint excluded)."""
        return self.step * self.count

    def points(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)

    def index_of(self, x: float) -> int:
        """Index of the grid point equal to ``x``; raises for off-grid values."""
        i = round((x - self.start) / self.step)
        if i < 0 or i >= self.count or abs(self.start + i * self.step - x) > 1e-9 * self.step:
            raise ValueError(f"limit not on grid: {x}")
        return i

    @classmethod
    def from_interval(cls, a: float, b: float, count: int) -> "Grid":
        """Grid covering [a, b] inclusively with ``count`` points."""
        if count < 2:
            raise ValueError(f"count must be at least 2, got {count}")
        return cls(a, (b - a) / (count - 1), count)

    @classmethod
    def periodic(cls, start: float, period: float, count: int) -> "Grid":
        """Grid for a periodic box of length ``period``; the endpoint is excluded."""
        return cls(start, period / count, count)


@dataclass
class GridFunction:
    """Samples on a uniform grid, one :class:`Grid` per axis.

    ``grid`` is a single Grid for a 1D function, or a tuple of Grids whose
    counts give the shape of ``values`` (a 1-tuple is stored as the bare
    Grid).  Periodic axes use :meth:`Grid.periodic`; the space-time wave
    field is indexed (t, x).  Complex input is stored as complex128 and
    any other input as float64, so a run on real data stays real.
    """

    grid: Grid | tuple
    values: np.ndarray

    def __post_init__(self):
        if isinstance(self.grid, tuple) and len(self.grid) == 1:
            self.grid = self.grid[0]
        dtype = complex if np.iscomplexobj(self.values) else float
        values = np.ascontiguousarray(self.values, dtype=dtype)
        shape = tuple(g.count for g in self.axes)
        if values.shape != shape:
            raise ValueError(f"values shape {values.shape} does not match grid shape {shape}")
        self.values = values

    @property
    def axes(self) -> tuple:
        """The grids of all axes, as a tuple also for a 1D function."""
        return self.grid if isinstance(self.grid, tuple) else (self.grid,)

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.grid, values)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def l2_norm(self) -> float:
        cell = math.prod(g.step for g in self.axes)
        return float(np.sqrt(cell * np.sum(np.abs(self.values) ** 2)))


def cumtrapz_from(values, step: float, start_index: int, axis: int = 0) -> np.ndarray:
    """Cumulative trapezoid integral along ``axis``, zero at ``start_index``.

    Entry i holds the trapezoid integral from point ``start_index`` to
    point i, with the exact value 0 at the start index itself.
    """
    v = np.asarray(values)
    w = np.moveaxis(v, axis, 0)
    c = np.zeros(w.shape, dtype=np.result_type(w.dtype, float))
    c[1:] = np.cumsum(0.5 * step * (w[1:] + w[:-1]), axis=0)
    c = c - c[start_index]
    return np.moveaxis(c, 0, axis)


def second_diff(values, step: float, axis: int = 0) -> np.ndarray:
    """Second difference along ``axis``: central interior stencil plus
    one-sided end stencils of at least second order.

    With five or more samples the ends use the third-order one-sided
    stencil, whose error constant is small enough that full-domain
    residual checks are dominated by the interior O(step^2) term rather
    than by the boundary rows.  Shorter inputs fall back to the
    second-order (4-point) and plain (3-point) one-sided forms.
    """
    v = np.moveaxis(np.asarray(values), axis, 0)
    n = v.shape[0]
    if n < 3:
        raise ValueError(f"second difference needs at least 3 points, got {n}")
    h2 = step * step
    out = np.empty(v.shape, dtype=np.result_type(v.dtype, float))
    out[1:-1] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h2
    if n >= 5:
        out[0] = (35.0 * v[0] - 104.0 * v[1] + 114.0 * v[2]
                  - 56.0 * v[3] + 11.0 * v[4]) / (12.0 * h2)
        out[-1] = (35.0 * v[-1] - 104.0 * v[-2] + 114.0 * v[-3]
                   - 56.0 * v[-4] + 11.0 * v[-5]) / (12.0 * h2)
    elif n == 4:
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    else:
        out[0] = (v[0] - 2.0 * v[1] + v[2]) / h2
        out[-1] = out[0]
    return np.moveaxis(out, 0, axis)


def first_diff(values, step: float, axis: int = 0) -> np.ndarray:
    """First difference along ``axis``, second order everywhere (one-sided
    3-point stencils at the ends)."""
    v = np.moveaxis(np.asarray(values), axis, 0)
    n = v.shape[0]
    out = np.empty(v.shape, dtype=np.result_type(v.dtype, float))
    if n == 2:
        out[0] = out[1] = (v[1] - v[0]) / step
    else:
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * step)
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * step)
        out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * step)
    return np.moveaxis(out, 0, axis)


def cumulative_integral(f: GridFunction, lower_limit: float) -> GridFunction:
    """Trapezoid antiderivative of ``f`` vanishing at ``lower_limit``.

    The lower limit must coincide with a grid point; values left of it are
    the (negative) integrals toward it.
    """
    i0 = f.grid.index_of(lower_limit)
    return f.with_values(cumtrapz_from(f.values, f.grid.step, i0))


def wavenumbers(grid: Grid) -> np.ndarray:
    """Wavenumbers 2*pi*j/(step*count) in the symmetric (fft) ordering."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.count, d=grid.step)


def spectral_apply(values, multiplier, axes, op=np.multiply) -> np.ndarray:
    """Transform ``values`` over ``axes``, apply ``op(spectrum, multiplier)``
    per mode and transform back.

    ``multiplier`` is given in the fft ordering of the full spectrum and
    broadcasts against it.  Real values go through ``rfftn``/``irfftn``
    and come back real: the multiplier must then be real and even in k
    (m(k) == m(-k), as every function of k^2 is), so that its leading
    n//2 + 1 entries along the last transformed axis are the half spectrum.
    Complex values go through ``fftn``/``ifftn``.
    """
    axes = tuple(axes)
    if np.iscomplexobj(values):
        return np.fft.ifftn(op(np.fft.fftn(values, axes=axes), multiplier), axes=axes)
    lengths = [values.shape[a] for a in axes]
    half = [slice(None)] * multiplier.ndim
    half[axes[-1] - values.ndim] = slice(0, lengths[-1] // 2 + 1)
    spectrum = np.fft.rfftn(values, axes=axes)
    return np.fft.irfftn(op(spectrum, multiplier[tuple(half)]), s=lengths, axes=axes)


def write_rows(fh, table, cell=FLOAT_FMT):
    """Write each row of the 2D real ``table`` as one line of comma-separated
    cells, each value formatted with ``cell`` (by default %.17g, the same
    text as ``f"{v:.17g}"`` gives per value).

    Rows are formatted a bounded block at a time, so memory stays flat
    whatever the table size.
    """
    table = np.asarray(table, dtype=float)
    rows, width = table.shape
    block_rows = max(1, _WRITE_BLOCK_VALUES // width)
    line = ",".join([cell] * width) + "\n"
    for lo in range(0, rows, block_rows):
        block = table[lo:lo + block_rows]
        fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def write_csv(f: GridFunction, path):
    """Write ``f`` with %.17g formatting.

    1D functions: one ``x,re,im`` header line, then one row per point.
    2D functions: no header, one line of row-major re,im pairs per row.
    A real function's imaginary parts are written as ``0``.
    """
    with open(path, "w", encoding="ascii") as fh:
        if f.values.ndim == 1:
            fh.write("x,re,im\n")
            write_rows(fh, np.column_stack((f.grid.points(), f.values.real, f.values.imag)))
        elif np.iscomplexobj(f.values):
            # a contiguous complex row viewed as floats is its re,im pairs
            write_rows(fh, f.values.view(float))
        else:
            write_rows(fh, f.values, cell=FLOAT_FMT + ",0")


def read_csv(path) -> GridFunction:
    """Read a grid function written by :func:`write_csv`."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 3:
        raise ValueError(f"expected 3 columns (x,re,im), got {data.shape[1]}")
    x = data[:, 0]
    if x.size < 2:
        raise ValueError("need at least 2 rows")
    step = x[1] - x[0]
    if not (step > 0 and np.max(np.abs(np.diff(x) - step)) <= 1e-9 * step):
        raise ValueError("grid in CSV is not uniform")
    grid = Grid(float(x[0]), float(step), int(x.size))
    return GridFunction(grid, data[:, 1] + 1j * data[:, 2])
