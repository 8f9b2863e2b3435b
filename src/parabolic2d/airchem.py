"""Ten-species air chemistry: rate coefficients, reaction rates, analytic Jacobian.

Species ordering (0-based array index / conventional 1-based name):

    0 NO, 1 NO2, 2 HC, 3 ALD, 4 O3, 5 HNO3, 6 HO2, 7 RO2, 8 OH, 9 O(1D)

The photolytic coefficients k2, k5, k7 depend on the cosine of the solar
zenith angle, the module's only parameter.  All rate functions broadcast
over trailing axes, so `u` may be a single state of shape (10,) or a batch
of shape (10, n).

The rate equations are the reference formulation of the production/loss
terms, kept verbatim, including the chemically odd R5 = k2*u5 and the k10*u9
terms that treat CO as an untracked constant.  They are quasi-positive:
every loss term carries a factor of its own species, so R_l >= 0 whenever
u_l = 0 and u >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import check_real

SPECIES = ("NO", "NO2", "HC", "ALD", "O3", "HNO3", "HO2", "RO2", "OH", "O1D")
N_SPECIES = 10


@dataclass(frozen=True)
class RateSet:
    k1: float
    k2: float
    k3: float
    k4: float
    k5: float
    k6: float
    k7: float
    k8: float
    k9: float
    k10: float


def rate_coefficients(cos_theta: float) -> RateSet:
    """Reaction-rate coefficients; k2, k5, k7 are photolytic in cos(theta),
    which must lie in (0, 1]."""
    check_real("cos_theta", cos_theta, "in (0, 1]", lambda c: 0 < c <= 1)
    return RateSet(
        k1=6.0e-12,
        k2=7.8e-05 * np.exp(-0.87 / cos_theta),
        k3=8.0e-12,
        k4=8.0e-12,
        k5=1.0e-02 * np.exp(-0.39 / cos_theta),
        k6=1.6e-14,
        k7=1.6e-04 * np.exp(-1.9 / cos_theta),
        k8=2.3e-10,
        k9=1.0e-11,
        k10=2.9e-13,
    )


def reaction_rates(u: np.ndarray, k: RateSet) -> np.ndarray:
    """Rates R_1..R_10 for state u (shape (10, ...)); returns the same shape."""
    u1, u2, u3, u4, u5, u6, u7, u8, u9, u10 = np.asarray(u, dtype=float)
    no_loss = k.k6 * u5 + k.k4 * u7 + k.k3 * u8
    r1 = k.k5 * u2 - no_loss * u1
    r2 = no_loss * u1 - (k.k5 + k.k9 * u9) * u2
    r3 = -k.k1 * u3 * u9
    r4 = 2 * k.k1 * u3 * u9 + k.k3 * u1 * u8 - k.k2 * u4
    r5 = k.k2 * u5
    r6 = k.k9 * u2 * u9
    r7 = 2 * k.k2 * u4 + k.k3 * u1 * u8 + k.k10 * u9 - k.k4 * u1 * u7
    r8 = 4 * k.k1 * u3 * u9 - k.k3 * u1 * u8
    r9 = k.k4 * u1 * u7 + 2 * k.k8 * u10 - (k.k1 * u3 - k.k9 * u2 + k.k10) * u9
    r10 = k.k7 * u5 - k.k8 * u10
    return np.stack([r1, r2, r3, r4, r5, r6, r7, r8, r9, r10])


def reaction_jacobian(u: np.ndarray, k: RateSet) -> np.ndarray:
    """Analytic Jacobian dR_l/du_m, shape (10, 10, ...) for u of shape (10, ...)."""
    u = np.asarray(u, dtype=float)
    u1, u2, u3, u4, u5, u6, u7, u8, u9, u10 = u
    tail = u.shape[1:]
    J = np.zeros((N_SPECIES, N_SPECIES) + tail)

    no_loss = k.k6 * u5 + k.k4 * u7 + k.k3 * u8
    # R1 = k5 u2 - (k6 u5 + k4 u7 + k3 u8) u1
    J[0, 0] = -no_loss
    J[0, 1] = k.k5
    J[0, 4] = -k.k6 * u1
    J[0, 6] = -k.k4 * u1
    J[0, 7] = -k.k3 * u1
    # R2 = (k6 u5 + k4 u7 + k3 u8) u1 - (k5 + k9 u9) u2
    J[1, 0] = no_loss
    J[1, 1] = -(k.k5 + k.k9 * u9)
    J[1, 4] = k.k6 * u1
    J[1, 6] = k.k4 * u1
    J[1, 7] = k.k3 * u1
    J[1, 8] = -k.k9 * u2
    # R3 = -k1 u3 u9
    J[2, 2] = -k.k1 * u9
    J[2, 8] = -k.k1 * u3
    # R4 = 2 k1 u3 u9 + k3 u1 u8 - k2 u4
    J[3, 0] = k.k3 * u8
    J[3, 2] = 2 * k.k1 * u9
    J[3, 3] = -k.k2
    J[3, 7] = k.k3 * u1
    J[3, 8] = 2 * k.k1 * u3
    # R5 = k2 u5
    J[4, 4] = k.k2
    # R6 = k9 u2 u9
    J[5, 1] = k.k9 * u9
    J[5, 8] = k.k9 * u2
    # R7 = 2 k2 u4 + k3 u1 u8 + k10 u9 - k4 u1 u7
    J[6, 0] = k.k3 * u8 - k.k4 * u7
    J[6, 3] = 2 * k.k2
    J[6, 6] = -k.k4 * u1
    J[6, 7] = k.k3 * u1
    J[6, 8] = k.k10
    # R8 = 4 k1 u3 u9 - k3 u1 u8
    J[7, 0] = -k.k3 * u8
    J[7, 2] = 4 * k.k1 * u9
    J[7, 7] = -k.k3 * u1
    J[7, 8] = 4 * k.k1 * u3
    # R9 = k4 u1 u7 + 2 k8 u10 - (k1 u3 - k9 u2 + k10) u9
    J[8, 0] = k.k4 * u7
    J[8, 1] = k.k9 * u9
    J[8, 2] = -k.k1 * u9
    J[8, 6] = k.k4 * u1
    J[8, 8] = -(k.k1 * u3 - k.k9 * u2 + k.k10)
    J[8, 9] = 2 * k.k8
    # R10 = k7 u5 - k8 u10
    J[9, 4] = k.k7
    J[9, 9] = -k.k8
    return J


def boundary_signal(t, const_l: float):
    """Periodic Dirichlet signal const_l * (sin(t/4) + 2), per species amplitude."""
    return const_l * (np.sin(np.asarray(t, dtype=float) / 4.0) + 2.0)
