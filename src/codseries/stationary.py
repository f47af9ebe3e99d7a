"""Spectral decomposition runs for the stationary problem on periodic boxes.

Fields live on periodic uniform grids in one or two dimensions.  Two
decompositions of Laplacian(psi) + 2(E - U) psi = 0 are wired for the
series engine:

* ``laplace``: invertible part = Laplacian, inverted mode-wise as
  -1/k^2 with the zero mode annihilated (pseudo-inverse; the inverse is
  ill-defined on constants, so outputs are always mean-free and the
  defect check must account for the mean component).
* ``resolvent``: invertible part = 2E + Laplacian, inverted mode-wise as
  1/(2E - k^2); well-defined whenever no grid mode sits on 2E = k^2,
  which holds generically for E < 0.

On a periodic grid the only generating functions for the ``laplace``
variant are constants; the practical entry point for the ``resolvent``
variant is the source-driven run with a zero generating function.
"""

import json
from dataclasses import dataclass

import numpy as np

from .engine import CodScheme, SeriesRun, StopPolicy, run_cod, run_cod_with_source
from .grids import write_rows

__all__ = [
    "PeriodicField",
    "build_scheme",
    "inverse_laplacian",
    "laplacian",
    "read_field_csv",
    "resolvent",
    "solve_stationary",
    "write_field_csv",
]


@dataclass
class PeriodicField:
    """Complex samples on a periodic box (1D or 2D, endpoint excluded).

    Sizes must be even and at least 4 so the wavenumber range is
    symmetric; 2D boxes must be square (same length and size per axis).
    """

    box_lengths: tuple
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=complex)
        if values.ndim not in (1, 2):
            raise ValueError(f"fields must be 1D or 2D, got {values.ndim}D")
        box = tuple(float(b) for b in np.atleast_1d(self.box_lengths))
        if len(box) != values.ndim:
            raise ValueError("box_lengths must give one length per axis")
        for size in values.shape:
            if size < 4 or size % 2:
                raise ValueError(f"axis sizes must be even and >= 4, got {size}")
        if any(b <= 0 for b in box):
            raise ValueError("box lengths must be positive")
        if values.ndim == 2:
            if box[0] != box[1] or values.shape[0] != values.shape[1]:
                raise ValueError("2D fields must be square (same box length and size)")
        self.box_lengths = box
        self.values = values

    @property
    def dims(self) -> int:
        return self.values.ndim

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def axis_points(self, axis: int = 0) -> np.ndarray:
        n = self.values.shape[axis]
        return np.arange(n) * (self.box_lengths[axis] / n)

    def with_values(self, values) -> "PeriodicField":
        return PeriodicField(self.box_lengths, values)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def mean(self) -> complex:
        return complex(np.mean(self.values))


def _ksq(field: PeriodicField) -> np.ndarray:
    axes = [
        2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
        for n, length in zip(field.shape, field.box_lengths)
    ]
    if field.dims == 1:
        return axes[0] ** 2
    kx, ky = np.meshgrid(axes[0], axes[1], indexing="ij")
    return kx ** 2 + ky ** 2


def laplacian(f: PeriodicField) -> PeriodicField:
    """Mode-wise Laplacian (multiply by -k^2)."""
    spectrum = np.fft.fftn(f.values)
    return f.with_values(np.fft.ifftn(-_ksq(f) * spectrum))


def inverse_laplacian(f: PeriodicField) -> PeriodicField:
    """Pseudo-inverse Laplacian: divide modes by -k^2, zero mode mapped to 0.

    The output is always mean-free, so laplacian(inverse_laplacian(f))
    reproduces f minus its mean.
    """
    spectrum = np.fft.fftn(f.values)
    ksq = _ksq(f)
    out = np.zeros_like(spectrum)
    nonzero = ksq != 0
    out[nonzero] = -spectrum[nonzero] / ksq[nonzero]
    return f.with_values(np.fft.ifftn(out))


def resolvent(f: PeriodicField, energy: float) -> PeriodicField:
    """Mode-wise multiplication by 1/(2E - k^2).

    Raises when some grid mode satisfies 2E = k^2 exactly; for E < 0 every
    denominator is negative and the inverse is unconditionally defined.
    """
    ksq = _ksq(f)
    denom = 2.0 * energy - ksq
    if np.any(denom == 0):
        raise ValueError("on-shell mode")
    return f.with_values(np.fft.ifftn(np.fft.fftn(f.values) / denom))


def build_scheme(potential: PeriodicField, energy: float, psi_g: PeriodicField,
                 variant: str, gen_tol: float | None = None) -> CodScheme:
    """Scheme for Laplacian(psi) + 2(E - U) psi = 0 in the chosen variant."""
    if potential.shape != psi_g.shape or potential.box_lengths != psi_g.box_lengths:
        raise ValueError("potential and generating field live on different boxes")
    u = potential.values
    if gen_tol is None:
        gen_tol = 1e-9 * (1.0 + psi_g.sup_norm())

    def defect_op(f: PeriodicField) -> PeriodicField:
        lap = laplacian(f)
        return f.with_values(lap.values + 2.0 * (energy - u) * f.values)

    if variant == "laplace":
        def cycle(f: PeriodicField) -> PeriodicField:
            return inverse_laplacian(f.with_values((2.0 * u - 2.0 * energy) * f.values))

        g_op = laplacian
        g_inverse = inverse_laplacian
    elif variant == "resolvent":
        def cycle(f: PeriodicField) -> PeriodicField:
            return resolvent(f.with_values(2.0 * u * f.values), energy)

        def g_op(f: PeriodicField) -> PeriodicField:
            lap = laplacian(f)
            return f.with_values(2.0 * energy * f.values + lap.values)

        def g_inverse(f: PeriodicField) -> PeriodicField:
            return resolvent(f, energy)
    else:
        raise ValueError(f"unknown variant {variant!r}; use 'laplace' or 'resolvent'")

    return CodScheme(
        cycle_map=cycle,
        generating=psi_g,
        defect_op=defect_op,
        g_op=g_op,
        g_inverse=g_inverse,
        label=f"stationary-{variant}",
        gen_tol=gen_tol,
    )


def solve_stationary(potential: PeriodicField, energy: float, psi_g: PeriodicField,
                     variant: str, policy: StopPolicy, source: PeriodicField | None = None,
                     ) -> SeriesRun:
    """Run the chosen decomposition; pass ``source`` for a driven problem.

    The series converges only for weak enough potentials; a divergent run
    is reported through the stop reason rather than raised.
    """
    scheme = build_scheme(potential, energy, psi_g, variant)
    if source is not None:
        return run_cod_with_source(scheme, source, policy)
    return run_cod(scheme, policy)


def write_field_csv(field: PeriodicField, path, meta_path=None):
    """1D fields: ``x,re,im`` rows.  2D fields: row-major re,im pairs.

    When ``meta_path`` is given a JSON sidecar with shape and box lengths
    is written next to the data.
    """
    with open(path, "w", encoding="ascii") as fh:
        if field.dims == 1:
            fh.write("x,re,im\n")
            write_rows(fh, np.column_stack((field.axis_points(0), field.values.real,
                                            field.values.imag)))
        else:
            # a contiguous complex row viewed as floats is its re,im pairs
            write_rows(fh, field.values.view(float))
    if meta_path is not None:
        meta = {
            "shape": list(field.shape),
            "box_lengths": list(field.box_lengths),
            "layout": "x,re,im" if field.dims == 1 else "row-major re,im pairs",
        }
        with open(meta_path, "w", encoding="ascii") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")


def read_field_csv(path, meta_path=None) -> PeriodicField:
    """Read a field written by :func:`write_field_csv`."""
    if meta_path is not None:
        with open(meta_path, encoding="ascii") as fh:
            meta = json.load(fh)
        shape = tuple(meta["shape"])
        box = tuple(meta["box_lengths"])
        if len(shape) == 1:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            return PeriodicField(box, data[:, 1] + 1j * data[:, 2])
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        values = data[:, 0::2] + 1j * data[:, 1::2]
        if values.shape != shape:
            raise ValueError(f"data shape {values.shape} does not match metadata {shape}")
        return PeriodicField(box, values)
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    x = data[:, 0]
    length = float(x[-1] + (x[1] - x[0]))
    return PeriodicField((length,), data[:, 1] + 1j * data[:, 2])
