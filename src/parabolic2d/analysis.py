"""Error norms, convergence ratios/orders, Runge order estimation, positivity.

Conventions: errors are final-layer maximum-norm values over interior nodes
(Dirichlet data makes boundary nodes exact).  For problems without an exact
solution, relative errors are taken against the run on the finest mesh, and
orders may also be estimated from three nested meshes without any reference
(the Runge method).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .grid import Grid2D, lex_index, restrict, to_interior_grid
from .model import species_field


@dataclass
class ConvergenceRow:
    """One line of a mesh-refinement table."""

    Mx: int
    error: float
    ratio: float = math.nan
    order: float = math.nan


def max_norm_error(u_num: np.ndarray, exact, grid: Grid2D, t: float) -> np.ndarray:
    """Per-species max |exact - u_num| over interior nodes at time t;
    exact(x, y, t) returns every species at once, or one field for all."""
    XX, YY = grid.interior_mesh()
    u2 = to_interior_grid(np.asarray(u_num, dtype=float), grid)
    e = species_field("exact", exact(XX, YY, t), len(u2), XX.shape)
    return np.max(np.abs(e - u2), axis=(1, 2))


def _order(err_prev: float, err_cur: float, m_prev: int, m_cur: int) -> float:
    if err_prev <= 0 or err_cur <= 0:
        return math.nan
    return math.log(err_prev / err_cur) / math.log(m_cur / m_prev)


def ratio_and_order(errors: Sequence[Tuple[int, float]]) -> List[ConvergenceRow]:
    """Build table rows from (M, error) pairs with strictly increasing M.

    ratio = error_prev / error_cur; order = log(ratio)/log(M_cur/M_prev)
    (log2 of the ratio when M doubles).  First row carries NaN sentinels;
    zero errors leave the order NaN.
    """
    ms = [m for m, _ in errors]
    if any(m2 <= m1 for m1, m2 in zip(ms, ms[1:])):
        raise ValueError(f"mesh sizes must increase strictly, got {ms}")
    rows: List[ConvergenceRow] = []
    prev: Optional[Tuple[int, float]] = None
    for m, err in errors:
        row = ConvergenceRow(Mx=m, error=float(err))
        if prev is not None:
            m0, e0 = prev
            row.ratio = e0 / err if err != 0 else math.inf
            row.order = _order(e0, err, m0, m)
        rows.append(row)
        prev = (m, err)
    return rows


def probe_values(u: np.ndarray, grid: Grid2D, x: float, y: float) -> np.ndarray:
    """Per-species values at the grid node nearest (x, y); must be a node."""
    fi, fj = x / grid.hx, y / grid.hy
    i, j = round(fi), round(fj)
    if abs(fi - i) > 1e-9 * max(1.0, abs(fi)) or abs(fj - j) > 1e-9 * max(1.0, abs(fj)):
        raise ValueError(f"probe point ({x}, {y}) is not a node of the "
                         f"{grid.Mx}x{grid.My} grid")
    if not 1 <= j <= grid.My - 1:
        raise ValueError(f"j={j} outside interior range 1..{grid.My - 1}")
    k = lex_index(i, j, grid.Mx)
    return np.asarray(u, dtype=float)[:, k]


def runge_order(u_h: np.ndarray, u_h2: np.ndarray, u_h4: np.ndarray,
                grid_h: Grid2D, grid_h2: Grid2D, grid_h4: Grid2D,
                probe: Optional[Tuple[float, float]] = None) -> np.ndarray:
    """Observed order from three nested solutions without an exact reference.

    order = log2(|u_h - u_h2| / |u_h2 - u_h4|), measured per species either at
    a probe node (x, y) shared by the three meshes or in the max norm over
    the coarse-mesh nodes.  Vanishing denominators give NaN.
    """
    r2 = restrict(u_h2, grid_h2, grid_h)
    r4 = restrict(u_h4, grid_h4, grid_h)
    u_h = np.asarray(u_h, dtype=float)
    if probe is not None:
        x, y = probe
        d1 = np.abs(probe_values(u_h, grid_h, x, y) - probe_values(r2, grid_h, x, y))
        d2 = np.abs(probe_values(r2, grid_h, x, y) - probe_values(r4, grid_h, x, y))
    else:
        d1 = np.max(np.abs(u_h - r2), axis=1)
        d2 = np.max(np.abs(r2 - r4), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log2(d1 / d2)
    out[(d2 == 0) | (d1 == 0)] = math.nan
    return out


def positivity_scan(u: np.ndarray, grid: Grid2D) -> List[Tuple[float, Tuple[int, int]]]:
    """Per species: (minimum value, one interior node (i, j) attaining it)."""
    u2 = to_interior_grid(np.asarray(u, dtype=float), grid)
    out = []
    for l in range(u2.shape[0]):
        j0, i0 = np.unravel_index(np.argmin(u2[l]), u2[l].shape)
        out.append((float(u2[l, j0, i0]), (int(i0) + 1, int(j0) + 1)))
    return out
