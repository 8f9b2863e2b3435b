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

P and Q are built by cds.compose, which also builds the central operator,
from the node-wise coefficients and the difference factors of cds.basis,
i.e. directly from the operator definitions above.  The boundary offsets of
P and Q are folded into the right-hand side by stepper.boundary_fold.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .cds import basis, coefficient_fields, compose
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


def cfds_full_stencils(problem: ProblemSpec, grid: Grid2D):
    """All 9 coefficient planes of Q = 6 hx^2 nu^h and of P = 6 hx^2 l^h,
    (q_full, p_full) in the operand order of the scheme's stack [Q; P],
    each (S, 3, 3, My-1, Mx-1), from one evaluation."""
    cc = compact_coefficients(problem, grid)
    I, Dx, D2x, Dy, D2y = basis(grid)
    qx, qy = grid.hx ** 2 / 12.0, grid.hy ** 2 / 12.0
    p = compose([
        (-cc.alpha, D2x, I),
        (-cc.beta, I, D2y),
        (cc.alpha_tilde, Dx, I),
        (cc.beta_tilde, I, Dy),
        (-cc.gamma, D2x, D2y),
        (cc.theta, Dx, D2y),
        (cc.theta_tilde, D2x, Dy),
        (cc.gamma_tilde, Dx, Dy),
    ])
    q = compose([(1.0, I, I), (qx, D2x, I), (-qx * cc.a_tilde, Dx, I),
                 (qy, I, D2y), (-qy * cc.b_tilde, I, Dy)])
    return 6 * grid.hx ** 2 * q, 6 * grid.hx ** 2 * p
