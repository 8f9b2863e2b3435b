"""Richardson extrapolation across nested meshes.

Combining solutions on a mesh pair (h, h/2) with weights solving

    gamma1 + gamma2 = 1,      gamma1 + gamma2 / 2^sigma = 0

cancels the leading C h^sigma error term and lifts the observed order of a
scheme of order sigma.  The space-time variant tensors the spatial weights
with temporal ones over four solves on {(h,tau), (h,tau/2), (h/2,tau),
(h/2,tau/2)}, removing both leading terms at once.  The temporal sigma is
the theta-scheme's order: 2 for theta = 1/2 (Crank-Nicolson), else 1.
re_weights gives the pair (gamma1, gamma2).  The h/2 fields are of
grid.refined(); a tau/2 field carries no time step to check.  Every field
an extrapolation reads must be finite, of its mesh and of the others' species.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid2D, check_real, restrict, validate_field


def re_weights(sigma: int) -> tuple:
    """The weights (gamma1, gamma2) eliminating the h^sigma term; sigma=2
    gives (-1/3, 4/3), sigma=4 gives (-1/15, 16/15)."""
    check_real("sigma", sigma, "finite and >= 1", lambda s: 1 <= s < np.inf)
    gamma2 = 2.0 ** sigma / (2.0 ** sigma - 1.0)
    return 1.0 - gamma2, gamma2


def extrapolate_space(u_h: np.ndarray, u_h2: np.ndarray, grid: Grid2D,
                      sigma: int) -> np.ndarray:
    """gamma1 * u_h + gamma2 * (u_h2, of grid.refined(), restricted to grid)."""
    gamma1, gamma2 = re_weights(sigma)
    fine = restrict(u_h2, grid)
    return gamma1 * validate_field(u_h, grid, len(fine)) + gamma2 * fine


def extrapolate_spacetime(u_hh: np.ndarray, u_ht: np.ndarray,
                          u_fh: np.ndarray, u_ft: np.ndarray, grid: Grid2D,
                          sigma_space: int, sigma_time: int) -> np.ndarray:
    """Tensor-product combination of four solves on grid.

    Arguments are the final-layer fields for (h,tau), (h,tau/2), (h/2,tau)
    and (h/2,tau/2) respectively; the result lives on grid and cancels both
    the C1 h^sigma_space and C2 tau^sigma_time terms.
    """
    (s1, s2), (t1, t2) = re_weights(sigma_space), re_weights(sigma_time)
    fine_h = restrict(u_fh, grid)
    fine_t = restrict(u_ft, grid)
    u_hh, u_ht, fine_t = (validate_field(u, grid, len(fine_h))
                          for u in (u_hh, u_ht, fine_t))
    return (s1 * t1 * u_hh + s1 * t2 * u_ht
            + s2 * t1 * fine_h + s2 * t2 * fine_t)
