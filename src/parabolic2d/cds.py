"""Second-order central-difference spatial assembly and the stencil composer.

The 5-point operator realizes -a d2/dx2 - b d2/dy2 + c d/dx + d d/dy at the
interior nodes, with entries (offsets relative to the centre node)

    (+-1, 0): +-c/(2hx) - a/hx^2
    (0, +-1): +-d/(2hy) - b/hy^2
    (0,  0):  2a/hx^2 + 2b/hy^2

compose builds it, and the compact pair of cfds, from the 1-D factors of
basis, exact numerators over divisors: each entry is its formula bit for bit.

A stencil matrix stores one plane per live offset over the full node
array, with the coefficients that reach boundary nodes, which
stepper.boundary_fold applies to the boundary data.  From them it derives
once its planes in the field layout, zero where the offset reaches a
boundary node, so a product runs on the (L, n) field arrays through the
same kernel, and the product plan of each layout.  A scheme is one such
stack, over one operand (cds) or two (cfds), on its mesh (.grid).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid2D
from .model import ProblemSpec, species_field

KINDS = ("cds", "cfds")   # by the operand count of the stack: P, [Q; P]
OFFSETS = [(k1, k2) for k1 in (-1, 0, 1) for k2 in (-1, 0, 1)]
# interior rows (columns) whose neighbour at offset -1, 0, +1 is a ring node
EDGE = {-1: slice(0, 1), 0: slice(0, 0), 1: slice(-1, None)}


@dataclass
class StencilMatrix:
    """Banded operator over the interior nodes of L species with a 3x3
    stencil footprint, reading K operands: K = 1 for the central P, K = 2
    for the compact stack [Q; P], whose operand 0 is read by Q and operand
    1 by P, so one product gives Q u + P v.

    full[m, l, j, i] multiplies, at interior node (i, j) of species l of
    the full node array, the value of operand o at (i+k1, j+k2) for the
    m-th live offset (k1, k2, o) = offsets[m], by operand and in OFFSETS
    order; its ring is zero.  The stack derives the rest once: planes, the
    interior of full in the field layout, zero where the offset reaches a
    boundary node; kind, "cds" over one operand and "cfds" over two (more
    is a ValueError); and plan and full_plan, the product_plan of the field
    and of the full node layout.  A stack has at least one live offset: the
    centre entry of the central P and of the compact Q is positive.
    """

    grid: Grid2D
    offsets: tuple          # k live offsets (k1, k2, o)
    full: np.ndarray        # (k, L, My+1, Mx+1)

    def __post_init__(self):
        if not self.offsets:
            raise ValueError("a stencil stack needs at least one live offset")
        K = self.offsets[-1][2] + 1
        if K > len(KINDS):
            raise ValueError(f"a stencil stack reads 1 or 2 operands, not {K}")
        self.kind = KINDS[K - 1]
        self.planes = self.full[:, :, 1:-1, 1:-1].copy()   # (k, L, My-1, Mx-1)
        for plane, (k1, k2, _) in zip(self.planes, self.offsets):
            plane[:, :, EDGE[k1]] = plane[:, EDGE[k2]] = 0.0
        self.plan = product_plan(self.offsets, self.planes.shape[1:])
        self.full_plan = product_plan(self.offsets, self.full.shape[1:])

    @classmethod
    def from_coeffs(cls, grid: Grid2D, coeffs: list, L: int) -> StencilMatrix:
        """Tile the list of per-operand arrays coeffs[o][s, k1+1, k2+1, j-1,
        i-1], each (S, 3, 3, My-1, Mx-1), into the live full planes of L
        species: S = L gives one row per species, S = 1 one for all."""
        offsets = tuple((k1, k2, o) for o, c in enumerate(coeffs)
                        for k1, k2 in OFFSETS if np.any(c[:, k1 + 1, k2 + 1]))
        full = np.zeros((len(offsets), L, grid.My + 1, grid.Mx + 1))
        for plane, (k1, k2, o) in zip(full, offsets):
            plane[:, 1:-1, 1:-1] = coeffs[o][:, k1 + 1, k2 + 1]
        return cls(grid, offsets, full)

    def to_dense(self) -> np.ndarray:
        """Dense (L, n, K n) matrix, one per species, with operand o in
        columns o n + node; test/oracle use only."""
        g, n = self.grid, self.grid.n_interior
        K = self.offsets[-1][2] + 1
        A = np.zeros(self.planes.shape[1:2] + (n, K * n))
        j0, i0 = np.mgrid[0:g.ny, 0:g.nx]
        for plane, (k1, k2, o) in zip(self.planes, self.offsets):
            ii, jj = i0 + k1, j0 + k2
            inside = (0 <= ii) & (ii < g.nx) & (0 <= jj) & (jj < g.ny)
            A[:, (j0 * g.nx + i0)[inside], o * n + (jj * g.nx + ii)[inside]] \
                = plane[:, inside]
        return A


def product_plan(offsets, shape) -> tuple:
    """Per offset (k1, k2, o), the flat slices (lo:hi, lo+s:hi+s) of plane
    and result, and of the K operands of result shape (L, ny, nx) shifted
    by s = o L ny nx + k2 nx + k1, clipped to the arrays."""
    n = int(np.prod(shape))
    size = n * (offsets[-1][2] + 1)
    plan = []
    for k1, k2, o in offsets:
        s = k2 * shape[-1] + k1 + n * o
        lo, hi = (min(max(v, 0), n) for v in (-s, size - s))
        plan.append((slice(lo, hi), slice(lo + s, hi + s)))
    return tuple(plan)


def apply_full(planes: np.ndarray, w: np.ndarray, *, plan: tuple,
               out: np.ndarray | None = None) -> np.ndarray:
    """Apply a plane stack (k, L, ny, nx) along its product_plan of the
    layout to the K operands w (K L, ny, nx), field or full node arrays;
    the result (L, ny, nx) goes into out if given, a contiguous array apart
    from w.  Each plane is one contiguous multiply over all species of the
    flat arrays: the first product (zero where clipped) starts the sum, and
    the others add in the listed order."""
    term = np.empty(planes.shape[1:])
    if out is None:
        out = np.empty_like(term)
    elif out.size != term.size or not out.flags.c_contiguous \
            or np.may_share_memory(out, w):
        raise ValueError("out must be contiguous, of the result's size, "
                         "and share no memory with w")
    acc, w = out.reshape(-1), w.reshape(-1)
    term, planes = term.reshape(-1), planes.reshape(len(planes), term.size)
    for m, (plane, (r, s)) in enumerate(zip(planes, plan)):
        if m == 0:
            acc[:r.start], acc[r.stop:] = 0.0, 0.0
            np.multiply(plane[r], w[s], out=acc[r])
        else:
            acc[r] += np.multiply(plane[r], w[s], out=term[r])
    return out


def coefficient_fields(problem: ProblemSpec, grid: Grid2D):
    """(a, b, c, d) on the full node array, each (S, My+1, Mx+1) with one
    species axis for the four: S = L if any of them returns a species axis
    of length L, else S = 1.  Raises ValueError naming the coefficient,
    species and node of the first non-finite value, or else the species and
    node of the smallest nonpositive diffusion coefficient."""
    XX, YY = grid.full_mesh()
    a, b, c, d = np.broadcast_arrays(*(
        species_field(fn, getattr(problem, fn)(XX, YY), problem.L, XX.shape)
        for fn in ("diffusion_a", "diffusion_b", "advection_c", "advection_d")))
    for name, vals in zip("abcd", (a, b, c, d)):
        finite = np.isfinite(vals)
        if not finite.all():
            l, j, i = np.unravel_index(np.argmin(finite), vals.shape)
            raise ValueError(f"species {l}: coefficient {name} not finite at "
                             f"node (i={i}, j={j}), value {vals[l, j, i]}")
    for name, vals in (("a", a), ("b", b)):
        if np.any(vals <= 0):
            l, j, i = np.unravel_index(np.argmin(vals), vals.shape)
            raise ValueError(
                f"species {l}: diffusion coefficient {name} nonpositive at "
                f"node (i={i}, j={j}), value {vals[l, j, i]:.3e}")
    return a, b, c, d


def basis(grid: Grid2D):
    """The 1-D factors I, Dx, D2x, Dy, D2y over offsets (-1, 0, +1), each an
    exact numerator with its divisor."""
    hx, hy = grid.hx, grid.hy
    return (((0, 1, 0), 1.0), ((-1, 0, 1), 2 * hx), ((1, -2, 1), hx ** 2),
            ((-1, 0, 1), 2 * hy), ((1, -2, 1), hy ** 2))


def compose(terms) -> np.ndarray:
    """(S, 3, 3, My-1, Mx-1) planes of the sum over terms (coef, fx, fy) of
    the node-wise coef times the outer product of the x factor fx and the y
    factor fy: entry (k1, k2) adds (coef num_x[k1] num_y[k2]) / (div_x
    div_y) in term order, one rounding per product, and skips the zero
    numerators, so an entry no term reaches stays +0."""
    shape = np.broadcast_shapes(*(np.shape(coef) for coef, _, _ in terms))
    out = np.zeros(shape[:1] + (3, 3) + shape[1:])
    for coef, (num_x, div_x), (num_y, div_y) in terms:
        for i, p in enumerate(num_x):
            for j, q in enumerate(num_y):
                if p * q:    # a power of two: div / (p q) is exact
                    out[:, i, j] += coef / (div_x * div_y / (p * q))
    return out


def cds_full_stencil(problem: ProblemSpec, grid: Grid2D) -> np.ndarray:
    """All 9 coefficient planes of the 5-point operator (corners zero),
    (S, 3, 3, My-1, Mx-1) over coefficient_fields' species axis."""
    a, b, c, d = (f[:, 1:-1, 1:-1] for f in coefficient_fields(problem, grid))
    I, Dx, D2x, Dy, D2y = basis(grid)
    return compose([(-a, D2x, I), (-b, I, D2y), (c, Dx, I), (d, I, Dy)])
