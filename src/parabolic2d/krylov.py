"""Matrix-free stencil application and a BiCGStab(ell) iterative solver.

The solver follows the standard BiCGStab(ell) construction: each cycle runs
ell BiCG steps followed by an ell-dimensional minimal-residual polynomial
update.  One iteration means one full cycle; convergence inside the BiCG part
counts fractionally (with ell=2 a single BiCG step counts as 0.5), which is
the convention used by the iteration-count reports.

The iteration starts from zero, so its first residual is b itself.  A
`precond` callable M is a right preconditioner: the solver iterates on
A M z = b from z = 0 and returns M z.  A converged solve reports the
recursive residual that met the tolerance; only a non-converged one pays an
extra application for the true residual ||b - A x||/||b||.  A converged
solve without restart makes exactly 2 ell applications per cycle, or
2 ell iterations - 1 when it stops inside the BiCG part, which tests before
it makes a step's second one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cds import StencilMatrix, apply_full


class KrylovBreakdown(RuntimeError):
    """Raised when the recurrence degenerates twice (after one restart)."""


@dataclass
class KrylovReport:
    iterations: float
    final_relative_residual: float
    converged: bool


def check_solver_options(**options) -> None:
    """Raise ValueError for a tolerance (tol, newton_tol) that is not
    positive and finite, or an iteration limit (maxit, ell) that is not an
    integer of at least 1; a bool is neither."""
    for name, value in options.items():
        if name.endswith("tol") and (isinstance(value, (bool, np.bool_))
                                     or not 0 < value < np.inf):
            raise ValueError(f"{name} must be positive and finite, got {value}")
        if name in ("maxit", "ell") and (
                isinstance(value, bool)
                or not isinstance(value, numbers.Integral) or value < 1):
            raise ValueError(f"{name} must be an integer of at least 1, "
                             f"got {value!r}")


def matvec(A: StencilMatrix, w: np.ndarray) -> np.ndarray:
    """y = A_0 x_0 + A_1 x_1 + ... for a stack over K operands (K is the
    last offset's operand plus one), given as one (K L, n) array w holding
    the (L, n) operands x_k in turn; w is read in place, and boundary nodes
    add zero.
    """
    L, n = A.planes.shape[1], A.grid.n_interior
    K = A.offsets[-1][2] + 1 if A.offsets else 1
    w = np.asarray(w, dtype=float)
    if w.shape != (K * L, n):
        raise ValueError(f"operand shape {w.shape}, expected {(K * L, n)}")
    return apply_full(A.planes, w, offsets=A.offsets).reshape(L, n)


def bicgstab_l(A, b: np.ndarray, tol: float = 1e-10, ell: int = 2,
               maxit: int = 200, precond: Optional[Callable] = None):
    """Solve A x = b from x = 0 until the recursive residual is <= tol ||b||.

    Returns (x, KrylovReport).  A converged report carries that recursive
    residual, which can differ from the true ||b - A x|| in the last digits;
    the true residual is computed only for a non-converged report.

    A is a linear callable on vectors.  The solver updates
    in place only arrays it owns: b is never written, and every
    result of A is copied into solver storage, so A may return one reused
    output buffer.  The returned x is a new array.  On a recurrence
    breakdown the iteration restarts once from the current iterate; a second
    breakdown raises KrylovBreakdown.  Exceeding maxit cycles, or a residual
    norm that is no longer finite, returns a non-converged report.
    """
    check_solver_options(tol=tol, ell=ell, maxit=maxit)
    inner_apply = A if precond is None else (lambda v: A(precond(v)))

    b = np.asarray(b, dtype=float)
    norm_b = math.sqrt(np.dot(b, b))
    if norm_b == 0.0:
        return np.zeros_like(b), KrylovReport(0.0, 0.0, True)

    z = np.zeros_like(b)
    rtilde = b.copy()
    rho0, alpha, omega = 1.0, 0.0, 1.0
    rs = [b.copy()] + [np.empty_like(b) for _ in range(ell)]
    us = [np.zeros_like(b)] + [np.empty_like(b) for _ in range(ell)]
    buf = np.empty_like(b)
    iters = 0.0
    restarted = False

    def iterate() -> np.ndarray:
        return z if precond is None else precond(z)

    def finish(converged: bool):
        x = iterate()
        res = rnorm if converged else np.linalg.norm(b - A(x))
        return x, KrylovReport(iters, res / norm_b, converged)

    rnorm = norm_b
    if rnorm <= tol * norm_b:
        return finish(True)

    while iters < maxit and np.isfinite(rnorm):
        rho0 = -omega * rho0
        broke = False
        for j in range(ell):
            rho1 = np.dot(rs[j], rtilde)
            if rho0 == 0.0:
                broke = True
                break
            beta = alpha * rho1 / rho0
            rho0 = rho1
            for i in range(j + 1):
                us[i] *= -beta
                us[i] += rs[i]
            np.copyto(us[j + 1], inner_apply(us[j]))
            gam = np.dot(us[j + 1], rtilde)
            if gam == 0.0:
                broke = True
                break
            alpha = rho0 / gam
            for i in range(j + 1):
                rs[i] -= np.multiply(alpha, us[i + 1], out=buf)
            z += np.multiply(alpha, us[0], out=buf)
            iters += 1.0 / ell
            rnorm = math.sqrt(np.dot(rs[0], rs[0]))
            if rnorm <= tol * norm_b:
                return finish(True)
            np.copyto(rs[j + 1], inner_apply(rs[j]))

        if not broke:
            # minimal-residual polynomial step (modified Gram-Schmidt)
            tau = np.zeros((ell + 1, ell + 1))
            sigma = np.zeros(ell + 1)
            gamma_p = np.zeros(ell + 1)
            for j in range(1, ell + 1):
                for i in range(1, j):
                    tau[i, j] = np.dot(rs[j], rs[i]) / sigma[i]
                    rs[j] -= np.multiply(tau[i, j], rs[i], out=buf)
                sigma[j] = np.dot(rs[j], rs[j])
                if sigma[j] == 0.0:
                    broke = True
                    break
                gamma_p[j] = np.dot(rs[0], rs[j]) / sigma[j]
            if not broke:
                gamma = np.zeros(ell + 1)
                gamma_pp = np.zeros(ell + 1)
                gamma[ell] = gamma_p[ell]
                omega = gamma[ell]
                if omega == 0.0:
                    broke = True
            if not broke:
                for j in range(ell - 1, 0, -1):
                    gamma[j] = gamma_p[j] - np.dot(tau[j, j + 1:ell + 1],
                                                   gamma[j + 1:ell + 1])
                for j in range(1, ell):
                    gamma_pp[j] = gamma[j + 1] + np.dot(tau[j, j + 1:ell],
                                                        gamma[j + 2:ell + 1])
                z += np.multiply(gamma[1], rs[0], out=buf)
                rs[0] -= np.multiply(gamma_p[ell], rs[ell], out=buf)
                us[0] -= np.multiply(gamma[ell], us[ell], out=buf)
                for j in range(1, ell):
                    us[0] -= np.multiply(gamma[j], us[j], out=buf)
                    z += np.multiply(gamma_pp[j], rs[j], out=buf)
                    rs[0] -= np.multiply(gamma_p[j], rs[j], out=buf)
                rnorm = math.sqrt(np.dot(rs[0], rs[0]))
                if rnorm <= tol * norm_b:
                    return finish(True)

        if broke:
            if restarted:
                raise KrylovBreakdown(
                    f"BiCGStab({ell}) breakdown persisted after restart "
                    f"(cycle {iters:.2f}, |rho|={abs(rho0):.3e})")
            restarted = True
            rs[0] = b - A(iterate())
            rtilde = rs[0].copy()
            us[0] = np.zeros_like(b)
            rho0, alpha, omega = 1.0, 0.0, 1.0

    return finish(False)
