"""Fourth-order compact spatial assembly: stiffness operator P and mass operator Q.

The compact scheme replaces the leading truncation terms of the central
discretization by substituting the PDE into them, which yields a 9-point
operator pair acting on a single equation

    l^h u = nu^h (r - du/dt),

with

    l^h  = -alpha d2x - beta d2y + alpha~ dx + beta~ dy
           - gamma d2x d2y + theta dx d2y + theta~ d2x dy + gamma~ dx dy,
    nu^h = 1 + (hx^2/12)(d2x - a~ dx) + (hy^2/12)(d2y - b~ dy),

where all ten node-wise coefficients derive from a, b, c, d and their central
differences (a~ = (c + 2 dx a)/a, b~ = (d + 2 dy b)/b, etc.).  The assembled
matrices are the scaled operators P = 6 hx^2 l^h and Q = 6 hx^2 nu^h.

Two assembly variants exist:

* "derived" (default): P and Q are built by composing the basic central
  difference stencils with the node-wise coefficients, i.e. directly from the
  operator definitions above.
* "as-printed": the reference tabulated 9-point entry formulas, which
  differ from the composition at two sites (the first-order term of the
  (+-1,0) entries and the b~ factor of the q^(0,+-1) entries).  Kept for
  comparison; it is not fourth order for problems with rotational wind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cds import (StencilMatrix, apply_full, boundary_values_full,
                  check_diffusion_positive, coefficient_fields,
                  zero_boundary_offsets)
from .grid import Grid2D
from .model import ProblemSpec

VARIANTS = ("derived", "as-printed")


@dataclass(frozen=True)
class CompactCoefficients:
    """Node-wise coefficient fields of l^h and nu^h, shape (My-1, Mx-1) each."""

    a_tilde: np.ndarray
    b_tilde: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    alpha_tilde: np.ndarray
    beta_tilde: np.ndarray
    theta: np.ndarray
    theta_tilde: np.ndarray
    gamma: np.ndarray
    gamma_tilde: np.ndarray


def _diffs(F: np.ndarray, hx: float, hy: float):
    """Central first/second differences of a full-grid field at interior nodes."""
    I = F[1:-1, 1:-1]
    dx = (F[1:-1, 2:] - F[1:-1, :-2]) / (2 * hx)
    dxx = (F[1:-1, 2:] - 2 * I + F[1:-1, :-2]) / hx ** 2
    dy = (F[2:, 1:-1] - F[:-2, 1:-1]) / (2 * hy)
    dyy = (F[2:, 1:-1] - 2 * I + F[:-2, 1:-1]) / hy ** 2
    return I, dx, dxx, dy, dyy


def compact_coefficients(problem: ProblemSpec, l: int, grid: Grid2D) -> CompactCoefficients:
    """Evaluate the ten compact coefficient fields at every interior node.

    Coefficient differences at nodes adjacent to the boundary use the
    coefficient values at boundary nodes (the fields live on the closed
    domain).
    """
    check_diffusion_positive(problem, l, grid)
    hx, hy = grid.hx, grid.hy
    A, B, C, D = coefficient_fields(problem, l, *grid.full_mesh())
    a, dxa, dxxa, dya, dyya = _diffs(A, hx, hy)
    b, dxb, dxxb, dyb, dyyb = _diffs(B, hx, hy)
    c, dxc, dxxc, dyc, dyyc = _diffs(C, hx, hy)
    d, dxd, dxxd, dyd, dyyd = _diffs(D, hx, hy)

    at = (c + 2 * dxa) / a
    bt = (d + 2 * dyb) / b
    qx, qy = hx ** 2 / 12.0, hy ** 2 / 12.0

    alpha = a + qx * (dxxa - at * (dxa - c) - 2 * dxc) + qy * (dyya - bt * dya)
    beta = b + qx * (dxxb - at * dxb) + qy * (dyyb - bt * (dyb - d) - 2 * dyd)
    alpha_t = c + qx * (dxxc - at * dxc) + qy * (dyyc - bt * dyc)
    beta_t = d + qx * (dxxd - at * dxd) + qy * (dyyd - bt * dyd)
    theta = qy * c - qx * (2 * dxb - at * b)
    theta_t = qx * d - qy * (2 * dya - bt * a)
    gamma = qx * b + qy * a
    gamma_t = qx * (2 * dxd - at * d) + qy * (2 * dyc - bt * c)
    return CompactCoefficients(a_tilde=at, b_tilde=bt, alpha=alpha, beta=beta,
                               alpha_tilde=alpha_t, beta_tilde=beta_t,
                               theta=theta, theta_tilde=theta_t,
                               gamma=gamma, gamma_tilde=gamma_t)


# 1D stencil factors over offsets (-1, 0, +1); outer products give the 2D terms
def _basis(hx: float, hy: float):
    ident = np.array([0.0, 1.0, 0.0])
    sx1 = np.array([-1.0, 0.0, 1.0]) / (2 * hx)
    sy1 = np.array([-1.0, 0.0, 1.0]) / (2 * hy)
    sx2 = np.array([1.0, -2.0, 1.0]) / hx ** 2
    sy2 = np.array([1.0, -2.0, 1.0]) / hy ** 2
    return ident, sx1, sy1, sx2, sy2


def _compose(terms) -> np.ndarray:
    """Sum coefficient * (x-stencil outer y-stencil) into (3,3,ny,nx) planes."""
    first = terms[0][0]
    out = np.zeros((3, 3) + np.shape(first))
    for coef, sx, sy in terms:
        out += coef[None, None] * np.einsum("i,j->ij", sx, sy)[:, :, None, None]
    return out


def cfds_full_stencils(problem: ProblemSpec, l: int, grid: Grid2D,
                       variant: str = "derived"):
    """All 9 coefficient planes of P = 6 hx^2 l^h and of Q = 6 hx^2 nu^h,
    (p_full, q_full), from one evaluation of the compact coefficients."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown cfds variant {variant!r}")
    cc = compact_coefficients(problem, l, grid)
    hx, hy = grid.hx, grid.hy
    if variant == "derived":
        ident, sx1, sy1, sx2, sy2 = _basis(hx, hy)
        coeffs = _compose([
            (-cc.alpha, sx2, ident),
            (-cc.beta, ident, sy2),
            (cc.alpha_tilde, sx1, ident),
            (cc.beta_tilde, ident, sy1),
            (-cc.gamma, sx2, sy2),
            (cc.theta, sx1, sy2),
            (cc.theta_tilde, sx2, sy1),
            (cc.gamma_tilde, sx1, sy1),
        ])
        p_full = 6 * hx ** 2 * coeffs
    else:
        p_full = _printed_stencil_p(problem, l, grid, cc)
    return p_full, _stencil_q(grid, cc, variant)


def _printed_stencil_p(problem: ProblemSpec, l: int, grid: Grid2D,
                       cc: CompactCoefficients) -> np.ndarray:
    """Reference tabulated entries of P (sigma = hx/hy)."""
    hx, hy = grid.hx, grid.hy
    sg = hx / hy
    A, B, C, D = coefficient_fields(problem, l, *grid.full_mesh())
    a, dxa, dxxa, dya, dyya = _diffs(A, hx, hy)
    b, dxb, dxxb, dyb, dyyb = _diffs(B, hx, hy)
    c, dxc, dxxc, dyc, dyyc = _diffs(C, hx, hy)
    d, dxd, dxxd, dyd, dyyd = _diffs(D, hx, hy)
    at, bt = cc.a_tilde, cc.b_tilde

    t1 = c - sg ** 2 * (2 * dxb - at * b)
    t2 = sg * d - (2 * dya - bt * a) / sg
    t3 = sg * (2 * dxd - at * d) + (2 * dyc - bt * c) / sg
    sxa = dxxa - at * (dxa - c) - 2 * dxc + (dyya - bt * dya) / sg ** 2
    syb = sg ** 2 * (dxxb - at * dxb) + dyyb - 2 * dyd - bt * (dyb - d)

    coeffs = np.zeros((3, 3, grid.ny, grid.nx))
    for k1 in (-1, 1):
        for k2 in (-1, 1):
            coeffs[k1 + 1, k2 + 1] = (-(a + sg ** 2 * b) / 2
                                      + k1 * (hx / 4) * t1 + k2 * (hx / 4) * t2
                                      + k1 * k2 * (hx ** 2 / 8) * t3)
    for k1 in (-1, 1):
        # first-order term as printed; the derived variant uses
        # (sigma^2/2)(2 dx b - a~ b) here instead
        coeffs[k1 + 1, 1] = (sg ** 2 * b - 5 * a
                             + k1 * hx * (3 * cc.alpha_tilde - c / 2
                                          + sg ** 2 / 2 * (2 * dyc - bt * c))
                             - hx ** 2 / 2 * sxa)
    for k2 in (-1, 1):
        coeffs[1, k2 + 1] = (a - 5 * sg ** 2 * b
                             + k2 * hx * (3 * sg * cc.beta_tilde - sg / 2 * d
                                          + (2 * dya - bt * a) / (2 * sg))
                             - hx ** 2 / 2 * syb)
    coeffs[1, 1] = 10 * (a + sg ** 2 * b) + hx ** 2 * sxa + hx ** 2 * syb
    return coeffs


def _stencil_q(grid: Grid2D, cc: CompactCoefficients,
               variant: str) -> np.ndarray:
    """All 9 coefficient planes of Q = 6 hx^2 nu^h (corners identically zero)."""
    hx, hy = grid.hx, grid.hy
    ny, nx = grid.ny, grid.nx
    coeffs = np.zeros((3, 3, ny, nx))
    coeffs[1, 1] = np.full((ny, nx), 4 * hx ** 2)
    coeffs[2, 1] = hx ** 2 / 4 * (2 - cc.a_tilde * hx)
    coeffs[0, 1] = hx ** 2 / 4 * (2 + cc.a_tilde * hx)
    # y-direction entries carry b~ in the derived variant; the reference
    # table repeats a~ there
    t = cc.b_tilde if variant == "derived" else cc.a_tilde
    coeffs[1, 2] = hx ** 2 / 4 * (2 - t * hy)
    coeffs[1, 0] = hx ** 2 / 4 * (2 + t * hy)
    return coeffs


def assemble_cfds_p(problem: ProblemSpec, l: int, grid: Grid2D,
                    variant: str = "derived") -> StencilMatrix:
    """9-point matrix whose action equals 6 hx^2 l^h on interior fields."""
    p_full, _ = cfds_full_stencils(problem, l, grid, variant)
    return StencilMatrix(grid=grid, coeffs=zero_boundary_offsets(p_full))


def assemble_cfds_q(problem: ProblemSpec, l: int, grid: Grid2D,
                    variant: str = "derived") -> StencilMatrix:
    """5-point mass matrix Q = 6 hx^2 nu^h (row sums 6 hx^2 exactly)."""
    _, q_full = cfds_full_stencils(problem, l, grid, variant)
    return StencilMatrix(grid=grid, coeffs=zero_boundary_offsets(q_full))


def cfds_boundary_vectors(problem: ProblemSpec, l: int, grid: Grid2D, t: float,
                          boundary_dt=None, variant: str = "derived"):
    """Boundary folds (Phi_P, Phi_Q) of the compact pair at time t.

    Phi_P carries -(P coefficient)*(Dirichlet value); Phi_Q carries
    +(Q coefficient)*(r - du/dt) at the referenced boundary nodes, where r is
    the reaction (plus forcing) evaluated at the boundary data of all species.
    The total right-hand-side contribution is Phi = Phi_P + Phi_Q, so that

        Q dU/dt + P U = Q R + Phi.

    boundary_dt(l, x, y) supplies du/dt on the boundary (e.g. a difference
    quotient of the Dirichlet data); omit it for static boundary data.
    """
    p_full, q_full = cfds_full_stencils(problem, l, grid, variant)
    ring = boundary_values_full(problem, l, grid, t)
    phi_p = -apply_full(p_full, ring).ravel()
    rhs_ring = boundary_rhs_full(problem, l, grid, t, boundary_dt)
    phi_q = apply_full(q_full, rhs_ring).ravel()
    return phi_p, phi_q


def boundary_rhs_full(problem: ProblemSpec, l: int, grid: Grid2D, t: float,
                      boundary_dt=None) -> np.ndarray:
    """(r - du/dt) on the boundary ring of the full node array, zero inside."""
    xs, ys = grid.x_nodes(), grid.y_nodes()
    out = np.zeros((grid.My + 1, grid.Mx + 1))
    edges = [
        ((0, slice(None)), xs, np.zeros_like(xs)),
        ((-1, slice(None)), xs, np.full_like(xs, grid.Y)),
        ((slice(1, -1), 0), np.zeros_like(ys[1:-1]), ys[1:-1]),
        ((slice(1, -1), -1), np.full_like(ys[1:-1], grid.X), ys[1:-1]),
    ]
    for idx, xe, ye in edges:
        ub = np.stack([np.broadcast_to(
            np.asarray(problem.boundary(m, xe, ye, t), dtype=float), xe.shape)
            for m in range(problem.L)])
        r = np.asarray(problem.reaction(xe, ye, t, ub), dtype=float)[l]
        if problem.forcing is not None:
            r = r + np.asarray(problem.forcing(xe, ye, t), dtype=float)[l]
        if boundary_dt is not None:
            r = r - np.broadcast_to(
                np.asarray(boundary_dt(l, xe, ye), dtype=float), xe.shape)
        out[idx] = r
    return out
