"""Spectral decomposition runs for the stationary problem on periodic boxes.

Fields live on periodic uniform grids in one or two dimensions.  Two
splits G - V of Laplacian(psi) + 2(E - U) psi = 0 are wired for the
series engine, which derives the cycle map G^-1 V and the defect G - V:

* ``laplace``: G = Laplacian, inverted mode-wise as -1/k^2 with the zero
  mode annihilated (pseudo-inverse; the inverse is ill-defined on
  constants, so outputs are always mean-free and the defect check must
  account for the mean component); V = 2(U - E).
* ``resolvent``: G = 2E + Laplacian, inverted mode-wise as 1/(2E - k^2);
  well-defined whenever no grid mode sits on 2E = k^2, which holds
  generically for E < 0; V = 2U.

On a periodic grid the only generating functions for the ``laplace``
variant are constants; the practical entry point for the ``resolvent``
variant is the source-driven run with a zero generating function.

Both variants keep real data real: with a real potential, generating
function and source, every term comes from real-input FFTs and the
written imaginary parts are exactly 0.  Complex data runs in complex
arithmetic.
"""

import json

import numpy as np

from .engine import CodScheme
from .grids import GridFunction, spectral_apply, wavenumbers, write_csv

__all__ = [
    "build_scheme",
    "write_field_csv",
]


def _ksq(axes) -> np.ndarray:
    k = [wavenumbers(axis) for axis in axes]
    if len(k) == 1:
        return k[0] ** 2
    return k[0][:, None] ** 2 + k[1][None, :] ** 2


def _pseudo_inverse_denominator(ksq: np.ndarray) -> np.ndarray:
    """-k^2 with the zero mode set to inf, so dividing by it maps that mode to 0."""
    denom = -ksq
    denom[ksq == 0] = np.inf
    return denom


def _resolvent_denominator(ksq: np.ndarray, energy: float) -> np.ndarray:
    denom = 2.0 * energy - ksq
    if np.any(denom == 0):
        raise ValueError("on-shell mode")
    return denom


def _apply(f: GridFunction, multiplier, op=np.multiply) -> GridFunction:
    return f.with_values(spectral_apply(f.values, multiplier, range(f.values.ndim), op))


def build_scheme(potential: GridFunction, energy: float, psi_g: GridFunction,
                 variant: str) -> CodScheme:
    """Scheme for Laplacian(psi) + 2(E - U) psi = 0 in the chosen variant.

    The fields live on one periodic box (axes from :meth:`Grid.periodic`),
    1D or 2D.  Sizes must be even and at least 4 so the wavenumber range is
    symmetric; 2D boxes must be square (same grid on both axes).  The
    mode-wise factors (-k^2 and the variant's denominator) are built once
    here; the resolvent variant raises on an on-shell mode.
    """
    if potential.grid != psi_g.grid:
        raise ValueError("potential and generating field live on different boxes")
    axes = psi_g.axes
    if len(axes) not in (1, 2):
        raise ValueError(f"fields must be 1D or 2D, got {len(axes)}D")
    for axis in axes:
        if axis.count < 4 or axis.count % 2:
            raise ValueError(f"axis sizes must be even and >= 4, got {axis.count}")
    if len(axes) == 2 and axes[0] != axes[1]:
        raise ValueError("2D boxes must be square (same grid on both axes)")
    u = potential.values
    ksq = _ksq(axes)
    minus_ksq = -ksq

    def lap(f: GridFunction) -> GridFunction:
        return _apply(f, minus_ksq)

    if variant == "laplace":
        denom = _pseudo_inverse_denominator(ksq)
        v_factor = 2.0 * u - 2.0 * energy
        g_op = lap
    elif variant == "resolvent":
        denom = _resolvent_denominator(ksq, energy)
        v_factor = 2.0 * u

        def g_op(f: GridFunction) -> GridFunction:
            return f.with_values(2.0 * energy * f.values + lap(f).values)
    else:
        raise ValueError(f"unknown variant {variant!r}; use 'laplace' or 'resolvent'")

    return CodScheme(
        generating=psi_g,
        g_op=g_op,
        g_inverse=lambda f: _apply(f, denom, np.divide),
        v_op=lambda f: f.with_values(v_factor * f.values),
        label=f"stationary-{variant}",
        gen_tol=1e-9 * (1.0 + psi_g.sup_norm()),
    )


def write_field_csv(field: GridFunction, path, meta_path, box_lengths):
    """Write the field with :func:`grids.write_csv` and a JSON sidecar with
    its shape, box lengths and layout.

    ``box_lengths`` are the lengths the box was built from: a periodic
    grid's ``period`` (step * count) can differ from them by an ulp.
    """
    write_csv(field, path)
    meta = {
        "shape": list(field.values.shape),
        "box_lengths": list(box_lengths),
        "layout": "x,re,im" if field.values.ndim == 1 else "row-major re,im pairs",
    }
    with open(meta_path, "w", encoding="ascii") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
