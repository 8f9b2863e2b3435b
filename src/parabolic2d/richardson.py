"""Richardson extrapolation across nested meshes.

Combining solutions on a mesh pair (h, h/2) with weights solving

    gamma1 + gamma2 = 1,      gamma1 + gamma2 / 2^sigma = 0

cancels the leading C h^sigma error term and lifts the observed order of a
scheme of order sigma.  The space-time variant tensors the spatial weights
with temporal ones over four solves on {(h,tau), (h,tau/2), (h/2,tau),
(h/2,tau/2)}, removing both leading terms at once.  The temporal sigma is
the theta-scheme's order: 2 for theta = 1/2 (Crank-Nicolson), else 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid2D, TimeGrid, is_bool, restrict


@dataclass(frozen=True)
class REWeights:
    gamma1: float
    gamma2: float


def re_weights(sigma: int) -> REWeights:
    """Weights (gamma1, gamma2) eliminating the h^sigma term; sigma=2 gives
    (-1/3, 4/3), sigma=4 gives (-1/15, 16/15)."""
    if is_bool(sigma) or not 1 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and >= 1, got {sigma}")
    gamma2 = 2.0 ** sigma / (2.0 ** sigma - 1.0)
    return REWeights(gamma1=1.0 - gamma2, gamma2=gamma2)


def extrapolate_space(u_h: np.ndarray, u_h2: np.ndarray, coarse_grid: Grid2D,
                      fine_grid: Grid2D, sigma: int) -> np.ndarray:
    """gamma1 * u_h + gamma2 * (u_h2 restricted to the coarse mesh)."""
    w = re_weights(sigma)
    if fine_grid.Mx != 2 * coarse_grid.Mx or fine_grid.My != 2 * coarse_grid.My:
        raise ValueError("spatial extrapolation needs a factor-2 refinement")
    return w.gamma1 * np.asarray(u_h, dtype=float) \
        + w.gamma2 * restrict(u_h2, fine_grid, coarse_grid)


def extrapolate_spacetime(u_hh: np.ndarray, u_ht: np.ndarray,
                          u_fh: np.ndarray, u_ft: np.ndarray,
                          coarse_grid: Grid2D, fine_grid: Grid2D,
                          coarse_time: TimeGrid, fine_time: TimeGrid,
                          sigma_space: int, sigma_time: int) -> np.ndarray:
    """Tensor-product combination of four solves on the coarse mesh.

    Arguments are the final-layer fields for (h,tau), (h,tau/2), (h/2,tau)
    and (h/2,tau/2) respectively; the result lives on the coarse mesh and
    cancels both the C1 h^sigma_space and C2 tau^sigma_time terms.
    """
    if fine_grid.Mx != 2 * coarse_grid.Mx or fine_grid.My != 2 * coarse_grid.My:
        raise ValueError("space-time extrapolation needs a factor-2 space refinement")
    if fine_time.N != 2 * coarse_time.N or fine_time.T != coarse_time.T:
        raise ValueError("space-time extrapolation needs a factor-2 time refinement")
    ws, wt = re_weights(sigma_space), re_weights(sigma_time)
    fine_h = restrict(u_fh, fine_grid, coarse_grid)
    fine_t = restrict(u_ft, fine_grid, coarse_grid)
    return (ws.gamma1 * wt.gamma1 * np.asarray(u_hh, dtype=float)
            + ws.gamma1 * wt.gamma2 * np.asarray(u_ht, dtype=float)
            + ws.gamma2 * wt.gamma1 * fine_h + ws.gamma2 * wt.gamma2 * fine_t)
