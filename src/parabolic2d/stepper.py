"""Theta-weighted time stepping with an inexact Newton solver per step.

For the central scheme the fully discrete residual per species block is

    Ups = (W1 - W0)/tau + P W^th - R^th - Phi^th,

and for the compact scheme

    Ups = Q (W1 - W0)/tau + P W^th - Q R^th - Phi^th,

with Z^th = theta Z^1 + (1-theta) Z^0 for Z in {W, R, Phi}.  R is the
reaction (plus manufactured forcing xi, when present) on interior nodes; Phi
folds the Dirichlet data (and, for the compact scheme, the boundary values of
r - du/dt weighted by Q); boundary_fold builds it from the data on the
boundary ring.  Each step solves Ups(W1) = 0 by Newton iteration
with BiCGStab(ell) inner solves; the initial guess on the new time layer is
the solution on the previous one.  R^0, Phi^th and xi(t1) depend only on the
time layers, so they are evaluated once per step, every species in one call.

The Newton matrix is I/tau + theta P - theta J (central) or
Q/tau + theta P - theta Q J (compact), J the pointwise reaction Jacobian;
the compact one is applied as B x - theta Q (J x), with the stencil
B = Q/tau + theta P built once per step.  The residual keeps P and Q apart.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import cds as cds_mod
from . import cfds as cfds_mod
from .cds import OFFSETS, StencilMatrix, apply_full
from .grid import Grid2D, TimeGrid, validate_field
from .krylov import KrylovBreakdown, bicgstab_l, matvec
from .model import ProblemSpec, check_compatibility

KINDS = ("cds", "cfds")


class SolverFailure(RuntimeError):
    """Newton or inner-solver failure; `step` holds the failing step index."""

    def __init__(self, message: str, step: Optional[int] = None):
        super().__init__(message)
        self.step = step


@dataclass
class Scheme:
    """Assembled spatial operators for one problem/grid/scheme combination.

    "cds" carries the stiffness operator P (mass = identity), "cfds" the pair
    (P, Q), each a plane stack with a species axis of length L; their
    boundary coefficients reach the Dirichlet data in boundary_fold only.
    """

    kind: str
    P: StencilMatrix
    Q: Optional[StencilMatrix] = None


@dataclass
class SolverReport:
    """Per-step iteration counts and timings."""

    newton_iters: int
    krylov_cycles: List[float]
    wall_ms: float
    final_residual: float


def build_scheme(problem: ProblemSpec, grid: Grid2D, kind: str) -> Scheme:
    if kind not in KINDS:
        raise ValueError(f"unknown scheme kind {kind!r}")
    # species with identical coefficient fields share one stencil, built once
    mesh = grid.full_mesh()
    first, owner = {}, []
    for l in range(problem.L):
        key = b"".join(f.tobytes() for f in
                       cds_mod.coefficient_fields(problem, l, *mesh))
        owner.append(first.setdefault(key, l))
    # (P,) for cds, (P, Q) for cfds, per distinct species
    stencils = {l: (cds_mod.cds_full_stencil(problem, l, grid),)
                if kind == "cds" else cfds_mod.cfds_full_stencils(problem, l, grid)
                for l in first.values()}
    return Scheme(kind, *(StencilMatrix.from_coeffs(
        grid, [stencils[l][k] for l in owner]) for k in range(len(stencils[0]))))


def _interior_xy(grid: Grid2D):
    XX, YY = grid.interior_mesh()
    return XX.ravel(), YY.ravel()


def _interior_forcing(problem: ProblemSpec, grid: Grid2D, t: float):
    """Forcing xi(t) at interior nodes, shape (L, n); None without forcing."""
    return None if problem.forcing is None else np.asarray(
        problem.forcing(*_interior_xy(grid), t), dtype=float)


def _interior_rhs(problem: ProblemSpec, grid: Grid2D, t: float,
                  W: np.ndarray, forcing: Optional[np.ndarray]) -> np.ndarray:
    """Reaction plus the forcing xi(t) at interior nodes, shape (L, n)."""
    R = np.asarray(problem.reaction(*_interior_xy(grid), t, W), dtype=float)
    return R if forcing is None else R + forcing


def boundary_fold(scheme: Scheme, problem: ProblemSpec, grid: Grid2D,
                  t: float, g: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """Boundary part Phi(t) of the right-hand side, shape (L, n).

    g holds the Dirichlet data of every species at time t on the nodes of
    grid.boundary_ring(), shape (L, 2(Mx+My)), and rate their time
    derivative there.  "cds" gives Phi = -P g; "cfds" gives
    Phi = -P g + Q (r(g) + xi - rate), with the reaction r and the forcing
    xi evaluated on the ring only, so that Q dU/dt + P U = Q R + Phi.  The
    boundary coefficients of P and Q reach the ring.
    """
    (j, i), (x, y) = grid.boundary_ring()
    full = np.zeros(g.shape[:1] + (grid.My + 1, grid.Mx + 1))
    full[:, j, i] = g
    phi = -apply_full(scheme.P.planes, full, offsets=scheme.P.offsets)
    if scheme.kind == "cfds":
        r = np.asarray(problem.reaction(x, y, t, g), dtype=float) - rate
        if problem.forcing is not None:
            r = r + np.asarray(problem.forcing(x, y, t), dtype=float)
        full[:, j, i] = r
        phi = phi + apply_full(scheme.Q.planes, full,
                               offsets=scheme.Q.offsets)
    return phi.reshape(g.shape[0], grid.n_interior)


def _boundary_phi(scheme: Scheme, problem: ProblemSpec, grid: Grid2D,
                  tau: float, theta: float, t_n: float,
                  t1: float) -> np.ndarray:
    """Theta-averaged boundary contribution Phi^th, shape (L, n), with the
    difference quotient of the Dirichlet data as their time derivative."""
    _, (x, y) = grid.boundary_ring()
    g0, g1 = (np.stack([np.broadcast_to(
        np.asarray(problem.boundary(l, x, y, t), dtype=float), x.shape)
        for l in range(problem.L)]) for t in (t_n, t1))
    rate = (g1 - g0) / tau
    return theta * boundary_fold(scheme, problem, grid, t1, g1, rate) \
        + (1.0 - theta) * boundary_fold(scheme, problem, grid, t_n, g0, rate)


def _step_terms(scheme: Scheme, problem: ProblemSpec, grid: Grid2D,
                tau: float, theta: float, t_n: float, t1: float,
                W_old: np.ndarray):
    """(t1, xi(t1), R^0, Phi^th): the residual terms fixed within the step
    from (t_n, W_old) to the new layer t1; the forcing xi(t1) (None without
    forcing), R^0 and Phi^th have shape (L, n)."""
    R0 = _interior_rhs(problem, grid, t_n, W_old,
                       _interior_forcing(problem, grid, t_n))
    return (t1, _interior_forcing(problem, grid, t1), R0,
            _boundary_phi(scheme, problem, grid, tau, theta, t_n, t1))


def residual(W_new: np.ndarray, W_old: np.ndarray, scheme: Scheme,
             problem: ProblemSpec, grid: Grid2D, tau: float, theta: float,
             t_n: float, *, terms: Optional[tuple] = None) -> np.ndarray:
    """Nonlinear residual Ups(W_new) of the theta-scheme step from t_n.

    `terms` holds the parts fixed within the step (see _step_terms); without
    it they are computed here for the new layer t_n + tau.
    """
    if terms is None:
        terms = _step_terms(scheme, problem, grid, tau, theta, t_n,
                            t_n + tau, W_old)
    t1, xi1, R0, phi = terms
    R1 = _interior_rhs(problem, grid, t1, W_new, xi1)
    wth = theta * W_new + (1.0 - theta) * W_old
    rth = theta * R1 + (1.0 - theta) * R0
    if scheme.kind == "cds":
        return (W_new - W_old) / tau + matvec(scheme.P, wth) - rth - phi
    return matvec(scheme.Q, W_new - W_old) / tau + matvec(scheme.P, wth) \
        - matvec(scheme.Q, rth) - phi


def _newton_stencil(scheme: Scheme, tau: float,
                    theta: float) -> Optional[StencilMatrix]:
    """B = Q/tau + theta P, the spatial part of the compact Newton matrix,
    fixed for a step; None for "cds".  A dead offset of P or Q counts as
    zeros."""
    if scheme.kind == "cds":
        return None
    P, Q = (dict(zip(A.offsets, A.planes)) for A in (scheme.P, scheme.Q))
    offsets = tuple(o for o in OFFSETS if o in P or o in Q)
    return StencilMatrix(scheme.P.grid, np.stack(
        [Q.get(o, 0.0) / tau + theta * P.get(o, 0.0) for o in offsets]), offsets)


def _apply_jacobian(scheme: Scheme, B: Optional[StencilMatrix], J: np.ndarray,
                    tau: float, theta: float, x: np.ndarray) -> np.ndarray:
    """Action of the Newton matrix on x (L, n) for reaction Jacobian J
    (L, L, n); B is _newton_stencil(scheme, tau, theta).  Evaluated in place
    as ((x/tau) + theta (P x)) - theta (J x), or (B x) - theta (Q (J x))."""
    Jx = np.einsum("lmn,mn->ln", J, x)
    if scheme.kind == "cds":
        y, Px = x / tau, matvec(scheme.P, x)
        Px *= theta
        y += Px
    else:
        y, Jx = matvec(B, x), matvec(scheme.Q, Jx)
    Jx *= theta
    y -= Jx
    return y


def _check_finite(what: str, v: np.ndarray, grid: Grid2D, t_n: float,
                  it: int) -> None:
    """Raise SolverFailure naming the first non-finite entry of v (L, ..., n)."""
    finite = np.isfinite(v)
    if not finite.all():
        idx = np.unravel_index(np.argmin(finite), v.shape)
        raise SolverFailure(
            f"non-finite {what} at t={t_n:.6g}, Newton iteration {it}: "
            f"species {idx[0]}, node (i={idx[-1] % grid.nx + 1}, "
            f"j={idx[-1] // grid.nx + 1})")


def check_solver_options(error=ValueError, **options) -> None:
    """Raise `error` for a non-positive tolerance (newton_tol, krylov_tol)
    or an iteration limit (max_newton, ell, krylov_maxit) that is not an
    integer of at least 1; a bool is not an integer here."""
    for name, value in options.items():
        if name.endswith("_tol") and not value > 0:
            raise error(f"{name} must be positive, got {value}")
        if name in ("max_newton", "ell", "krylov_maxit") and (
                isinstance(value, bool)
                or not isinstance(value, numbers.Integral) or value < 1):
            raise error(f"{name} must be an integer of at least 1, "
                        f"got {value!r}")


def advance(W_old: np.ndarray, t_n: float, scheme: Scheme,
            problem: ProblemSpec, grid: Grid2D, tau: float, theta: float, *,
            t_next: Optional[float] = None,
            newton_tol: float = 1e-11, max_newton: int = 25,
            krylov_tol: float = 1e-10, ell: int = 2,
            krylov_maxit: int = 200):
    """One theta-scheme step from the layer W_old at t_n by inexact Newton
    iteration; returns (new layer, SolverReport).

    The new layer sits at t_next (default t_n + tau).  Converged when
    ||delta||_inf drops below newton_tol * (1 + ||W||_inf) and the residual
    satisfies the same scaled bound, so the accepted layer always fulfils
    ||Ups(W)||_inf <= newton_tol * (1 + ||W||_inf).  A non-finite residual,
    reaction Jacobian or Newton update fails at once, naming species and node.
    """
    check_solver_options(newton_tol=newton_tol, max_newton=max_newton,
                         krylov_tol=krylov_tol, ell=ell,
                         krylov_maxit=krylov_maxit)
    t_start = time.perf_counter()
    L, n = W_old.shape
    t1 = t_n + tau if t_next is None else t_next
    xi, yi = _interior_xy(grid)
    W = W_old.copy()
    terms = _step_terms(scheme, problem, grid, tau, theta, t_n, t1, W_old)
    B = _newton_stencil(scheme, tau, theta)
    ups = residual(W, W_old, scheme, problem, grid, tau, theta, t_n,
                   terms=terms)
    cycles: List[float] = []
    for it in range(max_newton):
        _check_finite("residual", ups, grid, t_n, it)
        J = np.asarray(problem.reaction_jacobian(xi, yi, t1, W), dtype=float)
        _check_finite("reaction Jacobian", J, grid, t_n, it)
        try:
            delta, krep = bicgstab_l(
                lambda v: _apply_jacobian(scheme, B, J, tau, theta,
                                          v.reshape(L, n)).ravel(),
                -ups.ravel(), tol=krylov_tol, ell=ell, maxit=krylov_maxit)
        except KrylovBreakdown as exc:
            raise SolverFailure(f"inner solver broke down at t={t_n:.6g}, "
                                f"Newton iteration {it}: {exc}") from exc
        cycles.append(krep.iterations)
        delta = delta.reshape(L, n)
        _check_finite("Newton update", delta, grid, t_n, it)
        if not krep.converged:
            raise SolverFailure(
                f"inner solver stalled at t={t_n:.6g} "
                f"(relative residual {krep.final_relative_residual:.3e} "
                f"after {krep.iterations:.1f} cycles)")
        W = W + delta
        scale = 1.0 + np.max(np.abs(W))
        ups = residual(W, W_old, scheme, problem, grid, tau, theta, t_n,
                       terms=terms)
        if np.max(np.abs(delta)) <= newton_tol * scale \
                and np.max(np.abs(ups)) <= newton_tol * scale:
            break
    else:
        raise SolverFailure(
            f"Newton did not converge in {max_newton} iterations at "
            f"t={t_n:.6g}")
    return W, SolverReport(newton_iters=len(cycles), krylov_cycles=cycles,
                           wall_ms=(time.perf_counter() - t_start) * 1e3,
                           final_residual=float(np.max(np.abs(ups))))


def initial_field(problem: ProblemSpec, grid: Grid2D) -> np.ndarray:
    xi, yi = _interior_xy(grid)
    return np.stack([np.broadcast_to(
        np.asarray(problem.initial(l, xi, yi), dtype=float), xi.shape)
        for l in range(problem.L)])


def integrate(problem: ProblemSpec, grid: Grid2D, time_grid: TimeGrid,
              scheme: Scheme, theta: float = 0.5,
              **solver_options):
    """March the nodal initial data through all N steps.

    Returns (final field, list of per-step SolverReports).  Invalid solver
    options raise ValueError before the first step; step failures
    propagate as SolverFailure with the failing step index attached.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    check_solver_options(**solver_options)
    check_compatibility(problem, grid)
    W = validate_field(initial_field(problem, grid), grid, problem.L)
    reports: List[SolverReport] = []
    for n in range(time_grid.N):
        try:
            W, report = advance(W, time_grid.t(n), scheme, problem, grid,
                                time_grid.tau, theta,
                                t_next=time_grid.t(n + 1), **solver_options)
        except SolverFailure as exc:
            exc.step = n
            raise SolverFailure(f"step {n} failed: {exc}", step=n) from exc
        reports.append(report)
    return W, reports


def average_counts(reports: List[SolverReport]):
    """(mean Newton iterations per step, mean Krylov cycles per Newton solve)."""
    if not reports:
        return float("nan"), float("nan")
    newton = [r.newton_iters for r in reports]
    cycles = [c for r in reports for c in r.krylov_cycles]
    return float(np.mean(newton)), float(np.mean(cycles)) if cycles else float("nan")
