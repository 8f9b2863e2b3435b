"""Uniform rectangular meshes, lexicographic node indexing, nested-grid transfer.

Interior unknowns are stored per species as flat blocks of length
(Mx-1)*(My-1), ordered x-fastest (lexicographically): node (i, j) with
1 <= i <= Mx-1, 1 <= j <= My-1 sits at position (j-1)*(Mx-1) + (i-1).
Boundary values are never stored in field vectors; the stepper folds
their values on the boundary ring (Grid2D.boundary_ring) into the
right-hand side.

A "field vector" throughout the package is a numpy array of shape
(L, (Mx-1)*(My-1)), one block row per species.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Grid2D:
    """Uniform mesh on [0, X] x [0, Y] with Mx, My subintervals."""

    X: float
    Y: float
    Mx: int
    My: int
    hx: float
    hy: float

    @property
    def nx(self) -> int:
        return self.Mx - 1

    @property
    def ny(self) -> int:
        return self.My - 1

    @property
    def n_interior(self) -> int:
        return self.nx * self.ny

    def x_nodes(self) -> np.ndarray:
        return np.arange(self.Mx + 1) * self.hx

    def y_nodes(self) -> np.ndarray:
        return np.arange(self.My + 1) * self.hy

    def interior_mesh(self):
        """Coordinate arrays of interior nodes, shape (My-1, Mx-1)."""
        return np.meshgrid(self.x_nodes()[1:-1], self.y_nodes()[1:-1])

    @cached_property
    def interior_xy(self):
        """Flat coordinates (x, y) of the interior nodes in field order,
        shape (n,) each; computed once per grid and read-only."""
        xy = tuple(a.ravel() for a in self.interior_mesh())
        for a in xy:
            a.flags.writeable = False
        return xy

    def full_mesh(self):
        """Coordinate arrays of all nodes, shape (My+1, Mx+1)."""
        return np.meshgrid(self.x_nodes(), self.y_nodes())

    def boundary_ring(self):
        """The 2(Mx+My) boundary nodes, row-major: ((j, i), (x, y)), their
        indices into the full (My+1, Mx+1) node array and their coordinates;
        computed once per grid and read-only."""
        return self._ring

    @cached_property
    def _ring(self):
        j, i = np.nonzero(np.pad(np.zeros((self.ny, self.nx), dtype=bool), 1,
                                 constant_values=True))
        x, y = self.x_nodes()[i], self.y_nodes()[j]
        for a in (j, i, x, y):
            a.flags.writeable = False
        return (j, i), (x, y)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time mesh on [0, T] with N steps of size tau = T/N."""

    T: float
    N: int
    tau: float

    def t(self, n: int) -> float:
        return n * self.tau


def is_bool(value) -> bool:
    """A Python or numpy bool, which a range check would take as 0 or 1."""
    return isinstance(value, (bool, np.bool_))


def _count(name: str, value, least: int) -> int:
    """value as an int; rejects a bool, a non-integral value and value < least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not float(value).is_integer() or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, "
                         f"got {value!r}")
    return int(value)


def build_grid(X: float, Y: float, Mx: int, My: int) -> Grid2D:
    """Build a uniform grid; requires positive finite extents and integral
    Mx, My >= 2, none of them a bool."""
    if is_bool(X) or is_bool(Y) or not (0 < X < np.inf and 0 < Y < np.inf):
        raise ValueError(f"domain extents must be positive and finite, "
                         f"got X={X}, Y={Y}")
    Mx, My = _count("Mx", Mx, 2), _count("My", My, 2)
    return Grid2D(X=float(X), Y=float(Y), Mx=Mx, My=My,
                  hx=float(X) / Mx, hy=float(Y) / My)


def build_time_grid(T: float, N: int) -> TimeGrid:
    """Build a uniform time mesh; requires a positive finite T and an
    integral N >= 1, neither a bool."""
    if is_bool(T) or not 0 < T < np.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    N = _count("N", N, 1)
    return TimeGrid(T=float(T), N=N, tau=float(T) / N)


def lex_index(i: int, j: int, Mx: int) -> int:
    """Flat index of interior node (i, j): k = (j-1)*(Mx-1) + (i-1)."""
    if not (1 <= i <= Mx - 1):
        raise ValueError(f"i={i} outside interior range 1..{Mx - 1}")
    if j < 1:
        raise ValueError(f"j={j} outside interior range (j >= 1)")
    return (j - 1) * (Mx - 1) + (i - 1)


def to_interior_grid(u: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Reshape a field vector (L, n) to (L, My-1, Mx-1) without copying."""
    u = np.asarray(u)
    return u.reshape(u.shape[:-1] + (grid.ny, grid.nx))


def species_node(v: np.ndarray, k: int, grid: Grid2D) -> str:
    """The species and node (i, j) of the flat index k into v (L, ..., n)."""
    idx = np.unravel_index(k, v.shape)
    return (f"species {idx[0]}, node (i={idx[-1] % grid.nx + 1}, "
            f"j={idx[-1] // grid.nx + 1})")


def validate_field(u: np.ndarray, grid: Grid2D, L: int | None = None) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[1] != grid.n_interior:
        raise ValueError(f"field shape {u.shape} does not match grid "
                         f"(expected (L, {grid.n_interior}))")
    if L is not None and u.shape[0] != L:
        raise ValueError(f"expected {L} species, got {u.shape[0]}")
    finite = np.isfinite(u)
    if not finite.all():
        raise ValueError(f"field has a non-finite entry at "
                         f"{species_node(u, np.argmin(finite), grid)}")
    return u


def refinement_factor(fine: Grid2D, coarse: Grid2D) -> int:
    """Integer factor by which `fine` refines `coarse`; rejects non-nested pairs.

    Nesting is checked structurally (subinterval counts and extents), never by
    comparing floating-point node coordinates.
    """
    if fine.X != coarse.X or fine.Y != coarse.Y:
        raise ValueError("grids cover different domains")
    if fine.Mx % coarse.Mx or fine.My % coarse.My:
        raise ValueError(f"grids not nested: {fine.Mx}x{fine.My} over "
                         f"{coarse.Mx}x{coarse.My}")
    r = fine.Mx // coarse.Mx
    if fine.My // coarse.My != r:
        raise ValueError("anisotropic refinement factors")
    return r


def restrict(fine: np.ndarray, fine_grid: Grid2D, coarse_grid: Grid2D) -> np.ndarray:
    """Injection onto coincident nodes: coarse (i, j) takes fine (r*i, r*j)."""
    r = refinement_factor(fine_grid, coarse_grid)
    fine = validate_field(fine, fine_grid)
    f2 = to_interior_grid(fine, fine_grid)
    c2 = f2[:, r - 1::r, r - 1::r]
    out = c2.reshape(fine.shape[0], coarse_grid.n_interior).copy()
    return out
