"""Second-order central-difference spatial assembly.

The 5-point operator realizes -a d2/dx2 - b d2/dy2 + c d/dx + d d/dy at the
interior nodes, with entries (offsets relative to the centre node)

    (+-1, 0): +-c/(2hx) - a/hx^2
    (0, +-1): +-d/(2hy) - b/hy^2
    (0,  0):  2a/hx^2 + 2b/hy^2

Stencil matrices store one coefficient plane per offset; coefficients that
would reference boundary nodes are zeroed in the matrix, and their
contribution is folded into the right-hand side by stepper.boundary_fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid2D
from .model import ProblemSpec

OFFSETS = [(k1, k2) for k1 in (-1, 0, 1) for k2 in (-1, 0, 1)]


@dataclass
class StencilMatrix:
    """Banded operator over interior nodes with a 3x3 stencil footprint.

    coeffs[..., k1+1, k2+1, j0, i0] multiplies the value at node
    (i0+1+k1, j0+1+k2); planes referencing boundary nodes are zero.  An
    optional leading species axis S holds one operator per species, or one
    (S = 1) shared by all of them; it broadcasts against the operand's
    leading axes.  `offsets` lists the offsets whose plane is not all zero.
    """

    grid: Grid2D
    coeffs: np.ndarray  # (..., 3, 3, My-1, Mx-1)
    offsets: tuple = field(init=False)

    def __post_init__(self):
        self.offsets = tuple((k1, k2) for k1, k2 in OFFSETS
                             if np.any(self.coeffs[..., k1 + 1, k2 + 1, :, :]))

    def row_sums(self) -> np.ndarray:
        return self.coeffs.sum(axis=(-4, -3))

    def to_dense(self) -> np.ndarray:
        """Dense (..., n, n) matrix, one per leading index; test/oracle use only."""
        g = self.grid
        A = np.zeros(self.coeffs.shape[:-4] + (g.n_interior, g.n_interior))
        j0, i0 = np.mgrid[0:g.ny, 0:g.nx]
        for k1, k2 in OFFSETS:
            ii, jj = i0 + k1, j0 + k2
            inside = (0 <= ii) & (ii < g.nx) & (0 <= jj) & (jj < g.ny)
            A[..., (j0 * g.nx + i0)[inside], (jj * g.nx + ii)[inside]] = \
                self.coeffs[..., k1 + 1, k2 + 1, :, :][..., inside]
        return A


def apply_full(coeffs: np.ndarray, w_full: np.ndarray, *,
               offsets=OFFSETS) -> np.ndarray:
    """Apply 3x3-offset coefficients to full node arrays (..., My+1, Mx+1).

    Leading axes of coeffs (..., 3, 3, My-1, Mx-1) and w_full broadcast; the
    result holds the interior nodes, (..., My-1, Mx-1).  Only the listed
    offsets are summed, in order; leaving out all-zero planes changes nothing.
    """
    ny, nx = coeffs.shape[-2:]
    out = np.zeros(np.broadcast_shapes(coeffs.shape[:-4], w_full.shape[:-2])
                   + (ny, nx))
    for k1, k2 in offsets:
        out += coeffs[..., k1 + 1, k2 + 1, :, :] \
            * w_full[..., 1 + k2:1 + k2 + ny, 1 + k1:1 + k1 + nx]
    return out


def zero_boundary_offsets(coeffs: np.ndarray) -> np.ndarray:
    """Zero the coefficient entries whose offset leaves the interior."""
    out = coeffs.copy()
    out[..., 0, :, :, 0] = 0.0    # k1 = -1 at i = 1
    out[..., 2, :, :, -1] = 0.0   # k1 = +1 at i = Mx-1
    out[..., :, 0, 0, :] = 0.0    # k2 = -1 at j = 1
    out[..., :, 2, -1, :] = 0.0   # k2 = +1 at j = My-1
    return out


def coefficient_fields(problem: ProblemSpec, l: int, XX: np.ndarray,
                       YY: np.ndarray):
    """(a, b, c, d) of species l at the nodes (XX, YY), each of XX's shape."""
    return tuple(np.broadcast_to(np.asarray(fn(l, XX, YY), dtype=float),
                                 XX.shape)
                 for fn in (problem.diffusion_a, problem.diffusion_b,
                            problem.advection_c, problem.advection_d))


def check_diffusion_positive(problem: ProblemSpec, l: int, grid: Grid2D) -> None:
    a, b, _, _ = coefficient_fields(problem, l, *grid.full_mesh())
    for name, vals in (("a", a), ("b", b)):
        if np.any(vals <= 0):
            j, i = np.unravel_index(np.argmin(vals), vals.shape)
            raise ValueError(
                f"species {l}: diffusion coefficient {name} nonpositive at node "
                f"(i={i}, j={j}), value {vals[j, i]:.3e}")


def cds_full_stencil(problem: ProblemSpec, l: int, grid: Grid2D) -> np.ndarray:
    """All 9 coefficient planes of the 5-point operator (corners zero)."""
    check_diffusion_positive(problem, l, grid)
    a, b, c, d = coefficient_fields(problem, l, *grid.interior_mesh())
    hx, hy = grid.hx, grid.hy
    coeffs = np.zeros((3, 3, grid.ny, grid.nx))
    coeffs[2, 1] = c / (2 * hx) - a / hx ** 2
    coeffs[0, 1] = -c / (2 * hx) - a / hx ** 2
    coeffs[1, 2] = d / (2 * hy) - b / hy ** 2
    coeffs[1, 0] = -d / (2 * hy) - b / hy ** 2
    coeffs[1, 1] = 2 * a / hx ** 2 + 2 * b / hy ** 2
    return coeffs


def assemble_cds(problem: ProblemSpec, l: int, grid: Grid2D) -> StencilMatrix:
    """5-point matrix of -a d2x - b d2y + c dx + d dy, boundary columns folded out."""
    return StencilMatrix(grid=grid,
                         coeffs=zero_boundary_offsets(cds_full_stencil(problem, l, grid)))
