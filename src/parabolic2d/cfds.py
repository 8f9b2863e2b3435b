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

P and Q are built by composing the basic central difference stencils with
the node-wise coefficients, i.e. directly from the operator definitions
above.  The boundary offsets of P and Q are folded into the right-hand side
by stepper.boundary_fold.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .cds import coefficient_fields
from .grid import Grid2D
from .model import ProblemSpec

# Node-wise coefficient fields of l^h and nu^h, shape (S, My-1, Mx-1) each
CompactCoefficients = namedtuple("CompactCoefficients", (
    "a_tilde b_tilde alpha beta alpha_tilde beta_tilde theta theta_tilde "
    "gamma gamma_tilde"))


def _diffs(F: np.ndarray, hx: float, hy: float):
    """Central first/second differences of full-grid fields at interior nodes."""
    I = F[..., 1:-1, 1:-1]
    dx = (F[..., 1:-1, 2:] - F[..., 1:-1, :-2]) / (2 * hx)
    dxx = (F[..., 1:-1, 2:] - 2 * I + F[..., 1:-1, :-2]) / hx ** 2
    dy = (F[..., 2:, 1:-1] - F[..., :-2, 1:-1]) / (2 * hy)
    dyy = (F[..., 2:, 1:-1] - 2 * I + F[..., :-2, 1:-1]) / hy ** 2
    return I, dx, dxx, dy, dyy


def compact_coefficients(problem: ProblemSpec, grid: Grid2D) -> CompactCoefficients:
    """Evaluate the ten compact coefficient fields at every interior node.

    Coefficient differences at nodes adjacent to the boundary use the
    coefficient values at boundary nodes (the fields live on the closed
    domain).
    """
    hx, hy = grid.hx, grid.hy
    A, B, C, D = coefficient_fields(problem, grid)
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
    return CompactCoefficients(at, bt, alpha, beta, alpha_t, beta_t, theta,
                               theta_t, gamma, gamma_t)


# 1D stencil factors over offsets (-1, 0, +1); outer products give the 2D terms
def _basis(hx: float, hy: float):
    ident = np.array([0.0, 1.0, 0.0])
    sx1 = np.array([-1.0, 0.0, 1.0]) / (2 * hx)
    sy1 = np.array([-1.0, 0.0, 1.0]) / (2 * hy)
    sx2 = np.array([1.0, -2.0, 1.0]) / hx ** 2
    sy2 = np.array([1.0, -2.0, 1.0]) / hy ** 2
    return ident, sx1, sy1, sx2, sy2


def _compose(terms) -> np.ndarray:
    """Sum coefficient * (x-stencil outer y-stencil) into (S,3,3,ny,nx) planes."""
    shape = np.shape(terms[0][0])
    out = np.zeros(shape[:1] + (3, 3) + shape[1:])
    for coef, sx, sy in terms:
        out += coef[:, None, None] * np.einsum("i,j->ij", sx, sy)[:, :, None, None]
    return out


def cfds_full_stencils(problem: ProblemSpec, grid: Grid2D):
    """All 9 coefficient planes of P = 6 hx^2 l^h and of Q = 6 hx^2 nu^h,
    (p_full, q_full), each (S, 3, 3, My-1, Mx-1), from one evaluation."""
    cc = compact_coefficients(problem, grid)
    hx, hy = grid.hx, grid.hy
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
    return 6 * hx ** 2 * coeffs, _stencil_q(grid, cc)


def _stencil_q(grid: Grid2D, cc: CompactCoefficients) -> np.ndarray:
    """All 9 coefficient planes of Q = 6 hx^2 nu^h (corners identically zero)."""
    hx, hy = grid.hx, grid.hy
    coeffs = np.zeros((len(cc.a_tilde), 3, 3, grid.ny, grid.nx))
    coeffs[:, 1, 1] = 4 * hx ** 2
    coeffs[:, 2, 1] = hx ** 2 / 4 * (2 - cc.a_tilde * hx)
    coeffs[:, 0, 1] = hx ** 2 / 4 * (2 + cc.a_tilde * hx)
    coeffs[:, 1, 2] = hx ** 2 / 4 * (2 - cc.b_tilde * hy)
    coeffs[:, 1, 0] = hx ** 2 / 4 * (2 + cc.b_tilde * hy)
    return coeffs
