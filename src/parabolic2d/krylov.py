"""Matrix-free stencil application and a BiCGStab(2) iterative solver.

Each cycle of BiCGStab(ell) (Sleijpen & Fokkema 1993) at ell = 2 runs two
BiCG steps followed by a two-dimensional minimal-residual polynomial update
in closed form.  One iteration means one full cycle; convergence inside the
BiCG part counts a single BiCG step as 0.5, the convention used by the
iteration-count reports.

The operator A(v, out) writes A v into out, an array of the solver that
shares no memory with v or b, so no result is copied.  The iteration starts
from zero, so its first residual is b itself.  A converged solve reports
the recursive residual that met the tolerance; only a non-converged one pays
an extra application for the true residual ||b - A x||/||b||.  A converged
solve without restart makes exactly 4 applications per cycle, or
4 iterations - 1 when it stops inside the BiCG part, which tests before it
makes a step's second one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cds import StencilMatrix, apply_full
from .grid import check_count, check_real


class KrylovBreakdown(RuntimeError):
    """Raised when the recurrence degenerates twice (after one restart)."""


@dataclass
class KrylovReport:
    iterations: float
    final_relative_residual: float
    converged: bool


def check_solver_options(**options) -> None:
    """Raise ValueError for an iteration limit maxit not an integer of at
    least 1, a theta outside [0, 1], or any other option (tol, newton_tol,
    tau) not positive and finite; a bool or a non-number is none of them."""
    for name, value in options.items():
        if name == "maxit":
            check_count(name, value, 1)
        elif name == "theta":
            check_real(name, value, "in [0, 1]", lambda v: 0 <= v <= 1)
        else:
            check_real(name, value)


def matvec(A: StencilMatrix, w: np.ndarray, *, out=None) -> np.ndarray:
    """y = A_0 x_0 + A_1 x_1 + ... for a stack over K operands (K is the
    last offset's operand plus one), given as one (K L, n) array w holding
    the (L, n) operands x_k in turn; w is read in place, and boundary nodes
    add zero.  y goes into out if given (see cds.apply_full)."""
    L, n = A.planes.shape[1], A.grid.n_interior
    K = A.offsets[-1][2] + 1
    w = np.asarray(w, dtype=float)
    if w.shape != (K * L, n):
        raise ValueError(f"operand shape {w.shape}, expected {(K * L, n)}")
    return apply_full(A.planes, w, plan=A.plan, out=out).reshape(L, n)


def bicgstab_l(A, b: np.ndarray, tol: float = 1e-10, maxit: int = 200):
    """Solve A x = b from x = 0 until the recursive residual is <= tol ||b||.

    Returns (x, KrylovReport).  A converged report carries that recursive
    residual, which can differ from the true ||b - A x|| in the last digits;
    the true residual is computed only for a non-converged report.

    A is a linear operator A(v, out) that writes A v into out, one of the
    solver's own arrays, never v or b.  The solver updates in place only
    arrays it owns: b is never written, and the returned x is a new array.
    On a recurrence breakdown the iteration restarts once from the current
    iterate; a second breakdown raises KrylovBreakdown.  Exceeding maxit
    cycles, or a residual norm that is no longer finite, returns a
    non-converged report.  A right preconditioner M is applied by passing
    the operator A(M v) and taking M z of the returned z.
    """
    check_solver_options(tol=tol, maxit=maxit)

    b = np.asarray(b, dtype=float)
    norm_b = math.sqrt(np.dot(b, b))
    if norm_b == 0.0:
        return np.zeros_like(b), KrylovReport(0.0, 0.0, True)

    z = np.zeros_like(b)
    rtilde = b.copy()
    rho0, alpha, omega = 1.0, 0.0, 1.0
    rs = [b.copy(), np.empty_like(b), np.empty_like(b)]
    us = [np.zeros_like(b), np.empty_like(b), np.empty_like(b)]
    buf = np.empty_like(b)
    iters = 0.0
    first = None    # the quantity whose zero made the restart

    def finish(converged: bool):
        if not converged:
            A(z, buf)
        res = rnorm if converged else np.linalg.norm(b - buf)
        return z, KrylovReport(iters, res / norm_b, converged)

    rnorm = norm_b
    if rnorm <= tol * norm_b:
        return finish(True)

    while iters < maxit and np.isfinite(rnorm):
        rho0 = -omega * rho0
        broke = None    # the quantity found zero in this cycle
        for j in (0, 1):
            rho1 = np.dot(rs[j], rtilde)
            if rho0 == 0.0:
                broke = "rho"
                break
            beta = alpha * rho1 / rho0
            rho0 = rho1
            for i in range(j + 1):
                us[i] *= -beta
                us[i] += rs[i]
            A(us[j], us[j + 1])
            gam = np.dot(us[j + 1], rtilde)
            if gam == 0.0:
                broke = "gam"
                break
            alpha = rho0 / gam
            for i in range(j + 1):
                rs[i] -= np.multiply(alpha, us[i + 1], out=buf)
            z += np.multiply(alpha, us[0], out=buf)
            iters += 0.5
            rnorm = math.sqrt(np.dot(rs[0], rs[0]))
            if rnorm <= tol * norm_b:
                return finish(True)
            A(rs[j], rs[j + 1])

        if not broke:
            # minimal-residual step in closed form, on Python floats: r2 is
            # made orthogonal to r1; a zero sigma1, sigma2 or omega is a
            # breakdown, after which the restart resets omega
            sigma1 = float(np.dot(rs[1], rs[1]))
            broke = "sigma1" if sigma1 == 0.0 else None
            if not broke:
                gp1 = float(np.dot(rs[0], rs[1])) / sigma1
                tau12 = float(np.dot(rs[2], rs[1])) / sigma1
                rs[2] -= np.multiply(tau12, rs[1], out=buf)
                sigma2 = float(np.dot(rs[2], rs[2]))
                omega = (float(np.dot(rs[0], rs[2])) / sigma2
                         if sigma2 != 0.0 else 0.0)
                broke = ("sigma2" if sigma2 == 0.0
                         else "omega" if omega == 0.0 else None)
            if not broke:
                g1 = gp1 - tau12 * omega
                z += np.multiply(g1, rs[0], out=buf)
                rs[0] -= np.multiply(omega, rs[2], out=buf)
                us[0] -= np.multiply(omega, us[2], out=buf)
                us[0] -= np.multiply(g1, us[1], out=buf)
                z += np.multiply(omega, rs[1], out=buf)
                rs[0] -= np.multiply(gp1, rs[1], out=buf)
                rnorm = math.sqrt(np.dot(rs[0], rs[0]))
                if rnorm <= tol * norm_b:
                    return finish(True)

        if broke:
            if first:
                raise KrylovBreakdown(
                    f"BiCGStab(2) breakdown persisted after restart "
                    f"(cycle {iters:.2f}: {first} = 0, then {broke} = 0)")
            first = broke
            A(z, rs[0])
            np.subtract(b, rs[0], out=rs[0])
            rtilde = rs[0].copy()
            us[0] = np.zeros_like(b)
            rho0, alpha, omega = 1.0, 0.0, 1.0

    return finish(False)
