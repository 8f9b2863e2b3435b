"""Error norms, convergence ratios/orders, Runge order estimation, positivity.

Conventions: errors are final-layer maximum-norm values over interior nodes
(Dirichlet data makes boundary nodes exact).  For problems without an exact
solution, relative errors are taken against the run on the finest mesh, and
orders may also be estimated at a probe node from three nested meshes
without any reference (the Runge method, on a grid and two halvings of it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .grid import (Grid2D, check_real, lex_index, restrict, to_interior_grid,
                   validate_field)
from .model import species_field


@dataclass
class ConvergenceRow:
    """One line of a mesh-refinement table."""

    Mx: int
    error: float
    ratio: float = math.nan
    order: float = math.nan


def max_norm_error(u_num: np.ndarray, exact, grid: Grid2D, t: float) -> np.ndarray:
    """Per-species max |exact - u_num| of a finite u_num at time t; exact(x,
    y, t) returns every species at once, or one field for all."""
    XX, YY = grid.interior_mesh()
    u2 = to_interior_grid(validate_field(u_num, grid), grid)
    e = species_field("exact", exact(XX, YY, t), len(u2), XX.shape)
    return np.max(np.abs(e - u2), axis=(1, 2))


def ratio_and_order(errors: Sequence[Tuple[int, float]]) -> List[ConvergenceRow]:
    """Build table rows from (M, error) pairs with strictly increasing M.

    ratio = error_prev / error_cur; order = log(ratio)/log(M_cur/M_prev)
    (log2 of the ratio when M doubles).  First row carries NaN sentinels;
    zero errors leave the order NaN.
    """
    ms = [m for m, _ in errors]
    if any(m2 <= m1 for m1, m2 in zip(ms, ms[1:])):
        raise ValueError(f"mesh sizes must increase strictly, got {ms}")
    rows = [ConvergenceRow(Mx=m, error=float(err)) for m, err in errors]
    for (m0, e0), (m, err), row in zip(errors, errors[1:], rows[1:]):
        row.ratio = e0 / err if err != 0 else math.inf
        row.order = math.log(e0 / err) / math.log(m / m0) \
            if e0 > 0 and err > 0 else math.nan
    return rows


def probe_values(u: np.ndarray, grid: Grid2D, x: float, y: float) -> np.ndarray:
    """Per-species values of the finite field u of grid at the grid node
    nearest (x, y); must be a node."""
    x = check_real("x", x, "finite", math.isfinite)
    y = check_real("y", y, "finite", math.isfinite)
    fi, fj = x / grid.hx, y / grid.hy
    i, j = round(fi), round(fj)
    if abs(fi - i) > 1e-9 * max(1.0, abs(fi)) or abs(fj - j) > 1e-9 * max(1.0, abs(fj)):
        raise ValueError(f"probe point ({x}, {y}) is not a node of the "
                         f"{grid.Mx}x{grid.My} grid")
    if not 1 <= j <= grid.My - 1:
        raise ValueError(f"j={j} outside interior range 1..{grid.My - 1}")
    return validate_field(u, grid)[:, lex_index(i, j, grid.Mx)]


def runge_order(u_h: np.ndarray, u_h2: np.ndarray, u_h4: np.ndarray,
                grid: Grid2D, *, probe: Tuple[float, float]) -> np.ndarray:
    """Observed order from three nested solutions without an exact reference.

    order = log2(|u_h - u_h2| / |u_h2 - u_h4|) on grid, grid.refined() and
    its refinement, per species at a probe node (x, y) of grid; u_h4 reaches
    grid by two halvings.  Zero differences give NaN.
    """
    r2 = restrict(u_h2, grid)
    r4 = restrict(restrict(u_h4, grid.refined()), grid)
    x, y = probe
    d1 = np.abs(probe_values(u_h, grid, x, y) - probe_values(r2, grid, x, y))
    d2 = np.abs(probe_values(r2, grid, x, y) - probe_values(r4, grid, x, y))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log2(d1 / d2)
    out[(d2 == 0) | (d1 == 0)] = math.nan
    return out


def positivity_scan(u: np.ndarray, grid: Grid2D) -> List[Tuple[float, Tuple[int, int]]]:
    """Per species of the finite field u: (minimum, a node (i, j) with it)."""
    u2 = to_interior_grid(validate_field(u, grid), grid)
    out = []
    for l in range(u2.shape[0]):
        j0, i0 = np.unravel_index(np.argmin(u2[l]), u2[l].shape)
        out.append((float(u2[l, j0, i0]), (int(i0) + 1, int(j0) + 1)))
    return out
