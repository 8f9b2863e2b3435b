"""Theta-weighted time stepping with an inexact Newton solver per step.

For the central scheme the fully discrete residual per species block is

    Ups = (W1 - W0)/tau + P W^th - R^th - Phi^th,

and for the compact scheme

    Ups = Q ((W1 - W0)/tau - R^th) + P W^th - Phi^th,

with Z^th = theta Z^1 + (1-theta) Z^0 for Z in {W, R, Phi}.  R is the
reaction (plus manufactured forcing xi, when present) on interior nodes; Phi
folds the Dirichlet data (and, for the compact scheme, the boundary values of
r - du/dt weighted by Q); boundary_fold builds it from the data on the
boundary ring.  Each step solves Ups(W1) = 0 by Newton iteration
with BiCGStab(ell) inner solves; the initial guess on the new time layer is
the solution on the previous one.

What depends only on the run or on one time layer is evaluated once.  Per
run: the stencil B below, fixed by tau and theta, and the interior
coordinates (Grid2D.interior_xy, per grid).  Per layer t, every species in
one call: the Dirichlet data g(t) on the boundary ring, the forcing xi(t)
and the rate-free fold F(t) = -P g, or F(t) = -P g + Q (r(g) + xi) for the
compact scheme.  A step combines its two layers as

    Phi^th = theta F(t1) + (1-theta) F(t_n),

minus, for the compact scheme, Q applied to (g(t1) - g(t_n))/tau on the
boundary ring.  integrate carries the last
layer to the next step, with the R^1 of the accepted residual as its R^0.

The Newton matrix is I/tau + theta P - theta J (central) or
Q/tau + theta P - theta Q J (compact), J the pointwise reaction Jacobian;
each compact A u + C v is one product of a two-operand stack: [B; -theta Q]
on (x, J x), B = Q/tau + theta P, or the scheme's [Q; P] (residual, fold).
Products run on the (L, n) field arrays, folds on the full node arrays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import cds as cds_mod
from . import cfds as cfds_mod
from .cds import StencilMatrix, apply_full
from .grid import Grid2D, TimeGrid, validate_field
from .krylov import KrylovBreakdown, bicgstab_l, check_solver_options, matvec
from .model import ProblemSpec, check_compatibility, species_field

KINDS = ("cds", "cfds")

# Newton iterations per step; the inner BiCGStab(ELL) tolerance and cycles
MAX_NEWTON = 25
KRYLOV_TOL = 1e-10
ELL = 2
KRYLOV_MAXIT = 200


class SolverFailure(RuntimeError):
    """Newton or inner-solver failure; `step` holds the failing step index."""

    def __init__(self, message: str, step: Optional[int] = None):
        super().__init__(message)
        self.step = step


@dataclass
class Scheme:
    """Assembled spatial operators for one problem/grid/scheme combination.

    "cds" carries the stiffness operator P (mass = identity), "cfds" QP, one
    stack [Q; P] over two operands, with P and Q views of it; build_scheme
    makes both.  Boundary coefficients act only in folds, via full planes.
    """

    kind: str
    P: Optional[StencilMatrix]
    Q: Optional[StencilMatrix] = None
    QP: Optional[StencilMatrix] = None

    def __post_init__(self):
        if self.kind == "cfds":
            self.Q, self.P = self.QP.operand(0), self.QP.operand(1)


@dataclass
class SolverReport:
    """Per-step iteration counts and timings."""

    newton_iters: int
    krylov_cycles: List[float]
    wall_ms: float
    final_residual: float


def build_scheme(problem: ProblemSpec, grid: Grid2D, kind: str) -> Scheme:
    """The operators of `kind`, assembled once over the species axis of the
    problem's coefficient fields (length 1 when every species shares them)
    and tiled to the L species."""
    if kind not in KINDS:
        raise ValueError(f"unknown scheme kind {kind!r}")
    if kind == "cds":
        return Scheme(kind, StencilMatrix.from_coeffs(
            grid, [cds_mod.cds_full_stencil(problem, grid)], problem.L))
    p, q = cfds_mod.cfds_full_stencils(problem, grid)
    return Scheme(kind, None, QP=StencilMatrix.from_coeffs(grid, [q, p],
                                                           problem.L))


def _interior_rhs(problem: ProblemSpec, grid: Grid2D, t: float,
                  W: np.ndarray, forcing: Optional[np.ndarray]) -> np.ndarray:
    """Reaction plus the forcing xi(t) at interior nodes, shape (L, n)."""
    R = np.asarray(problem.reaction(*grid.interior_xy, t, W), dtype=float)
    return R if forcing is None else R + forcing


def _ring_product(A: StencilMatrix, grid: Grid2D, *vs: np.ndarray) -> np.ndarray:
    """A applied to the operands vs, each the values (L, 2(Mx+My)) on the
    nodes of grid.boundary_ring(), zero elsewhere, through A's full planes
    tiled to the L species; shape (L, n)."""
    (j, i), _ = grid.boundary_ring()
    L = len(vs[0])
    ring = np.zeros((len(vs) * L, grid.My + 1, grid.Mx + 1))
    ring[:, j, i] = np.concatenate(vs)
    planes = np.broadcast_to(A.full, (len(A.full), L) + ring.shape[1:])
    return apply_full(planes, ring, offsets=A.offsets)[:, 1:-1, 1:-1].reshape(
        -1, grid.n_interior)


def boundary_fold(scheme: Scheme, problem: ProblemSpec, grid: Grid2D,
                  t: float, g: np.ndarray) -> np.ndarray:
    """Rate-free boundary part F(t) of the right-hand side, shape (L, n).

    g holds the Dirichlet data of every species at time t on the nodes of
    grid.boundary_ring(), shape (L, 2(Mx+My)).  "cds" gives F = -P g;
    "cfds" gives F = Q (r(g) + xi) - P g, one product of QP, with the
    reaction r and the forcing xi evaluated on the ring only; _boundary_phi
    subtracts Q times the time derivative of g, so that
    Q dU/dt + P U = Q R + Phi.  The boundary coefficients of P and Q reach the ring.
    """
    if scheme.kind == "cds":
        return -_ring_product(scheme.P, grid, g)
    _, (x, y) = grid.boundary_ring()
    r = np.asarray(problem.reaction(x, y, t, g), dtype=float)
    if problem.forcing is not None:
        r = r + np.asarray(problem.forcing(x, y, t), dtype=float)
    return _ring_product(scheme.QP, grid, r, -g)


@dataclass
class _Layer:
    """The terms of time layer t that the steps into and out of it share:
    the Dirichlet data g on the boundary ring (L, 2(Mx+My)), the interior
    forcing xi (L, n) or None, the rate-free fold F = boundary_fold(t, g)
    (L, n), and R, the reaction plus forcing of the layer's latest field
    (None until a residual evaluates it)."""

    t: float
    g: np.ndarray
    xi: Optional[np.ndarray]
    F: np.ndarray
    R: Optional[np.ndarray] = None


def _layer(scheme: Scheme, problem: ProblemSpec, grid: Grid2D,
           t: float) -> _Layer:
    """g, xi and F of the layer t, every species in one call each."""
    _, (x, y) = grid.boundary_ring()
    g = np.broadcast_to(species_field("boundary", problem.boundary(x, y, t),
                                      problem.L, x.shape),
                        (problem.L,) + x.shape)
    xi = None if problem.forcing is None else np.asarray(
        problem.forcing(*grid.interior_xy, t), dtype=float)
    return _Layer(t, g, xi, boundary_fold(scheme, problem, grid, t, g))


def _boundary_phi(scheme: Scheme, grid: Grid2D, tau: float, theta: float,
                  old: _Layer, new: _Layer) -> np.ndarray:
    """Theta-averaged boundary contribution Phi^th of the step from layer
    old to layer new, shape (L, n): theta F(t1) + (1-theta) F(t_n), and for
    "cfds" minus Q applied to the difference quotient (g1 - g0)/tau, the
    time derivative of the Dirichlet data on the ring."""
    phi = theta * new.F + (1.0 - theta) * old.F
    if scheme.kind == "cfds":
        phi -= _ring_product(scheme.Q, grid, (new.g - old.g) / tau)
    return phi


def _step_terms(scheme: Scheme, problem: ProblemSpec, grid: Grid2D,
                tau: float, theta: float, t_n: float, t1: float,
                W_old: np.ndarray, old: Optional[_Layer] = None):
    """(old, new, Phi^th): the residual terms fixed within the step from
    (t_n, W_old) to t1; old is the layer t_n with R = R^0 at W_old, new the
    layer t1.  A carried `old` must be that layer of W_old; without it the
    layer is evaluated here, and without its R the R^0 at W_old."""
    if old is None:
        old = _layer(scheme, problem, grid, t_n)
    if old.R is None:
        old.R = _interior_rhs(problem, grid, t_n, W_old, old.xi)
    new = _layer(scheme, problem, grid, t1)
    return old, new, _boundary_phi(scheme, grid, tau, theta, old, new)


def residual(W_new: np.ndarray, W_old: np.ndarray, scheme: Scheme,
             problem: ProblemSpec, grid: Grid2D, tau: float, theta: float,
             t_n: float, *, terms: Optional[tuple] = None) -> np.ndarray:
    """Nonlinear residual Ups(W_new) of the theta-scheme step from t_n.

    `terms` holds the parts fixed within the step (see _step_terms); without
    it they are computed here for the new layer t_n + tau.  The reaction
    plus forcing R1 at W_new is kept in the new layer, so after an accepted
    step that layer is the old layer of the next one.  A non-finite R1
    gives a residual of NaN, without a stencil product.
    """
    if terms is None:
        terms = _step_terms(scheme, problem, grid, tau, theta, t_n,
                            t_n + tau, W_old)
    old, new, phi = terms
    R1 = new.R = _interior_rhs(problem, grid, new.t, W_new, new.xi)
    if not np.isfinite(R1).all():
        return np.full_like(W_new, np.nan)
    wth = theta * W_new + (1.0 - theta) * W_old
    rth = theta * R1 + (1.0 - theta) * old.R
    if scheme.kind == "cds":
        return (W_new - W_old) / tau + matvec(scheme.P, wth) - rth - phi
    return matvec(scheme.QP,
                  np.concatenate(((W_new - W_old) / tau - rth, wth))) - phi


def _newton_stencil(scheme: Scheme, tau: float,
                    theta: float) -> Optional[StencilMatrix]:
    """The product-only stack [B; -theta Q] over two operands (no full
    planes), B = Q/tau + theta P the spatial part of the compact Newton
    matrix, fixed for a run; None for "cds".  A dead offset counts as zero."""
    if scheme.kind == "cds":
        return None
    P, Q = (dict(zip(A.offsets, A.planes)) for A in (scheme.P, scheme.Q))
    offsets = sorted(P.keys() | Q.keys())   # cds.OFFSETS order
    planes = np.empty((len(offsets) + len(Q),) + scheme.Q.planes.shape[1:])
    for plane, o in zip(planes, offsets):
        np.add(Q.get(o, 0.0) / tau, theta * P.get(o, 0.0), out=plane)
    np.multiply(-theta, scheme.Q.planes, out=planes[len(offsets):])
    return StencilMatrix(scheme.P.grid, planes, tuple(offsets) + tuple(
        (k1, k2, 1) for k1, k2, _ in scheme.Q.offsets))


@dataclass
class _Run:
    """What the steps of one run share: the compact Newton stack B
    (_newton_stencil, None for "cds"), fixed by tau and theta, and the last
    accepted layer (None before the first step)."""

    B: Optional[StencilMatrix]
    layer: Optional[_Layer] = None


def _apply_jacobian(scheme: Scheme, B: Optional[StencilMatrix], J: np.ndarray,
                    tau: float, theta: float, x: np.ndarray) -> np.ndarray:
    """Action of the Newton matrix on x (L, n) for reaction Jacobian J
    (L, L, n); B is _newton_stencil(scheme, tau, theta).  Evaluated in place
    as ((x/tau) + theta (P x)) - theta (J x), or as B applied to (x, J x),
    both written into one (2L, n) operand."""
    if scheme.kind == "cfds":
        xJx = np.empty((2 * len(x), x.shape[1]))
        xJx[:len(x)] = x
        np.einsum("lmn,mn->ln", J, x, out=xJx[len(x):])
        return matvec(B, xJx)
    Jx = np.einsum("lmn,mn->ln", J, x)
    y, Px = x / tau, matvec(scheme.P, x)
    Px *= theta
    y += Px
    Jx *= theta
    y -= Jx
    return y


def _species_node(v: np.ndarray, k: int, grid: Grid2D) -> str:
    """The species and node (i, j) of the flat index k into v (L, ..., n)."""
    idx = np.unravel_index(k, v.shape)
    return (f"species {idx[0]}, node (i={idx[-1] % grid.nx + 1}, "
            f"j={idx[-1] // grid.nx + 1})")


def _check_finite(what: str, v: np.ndarray, grid: Grid2D, t_n: float,
                  it: int) -> None:
    """Raise SolverFailure naming the first non-finite entry of v (L, ..., n)."""
    finite = np.isfinite(v)
    if not finite.all():
        raise SolverFailure(
            f"non-finite {what} at t={t_n:.6g}, Newton iteration {it}: "
            f"{_species_node(v, np.argmin(finite), grid)}")


def advance(W_old: np.ndarray, t_n: float, scheme: Scheme,
            problem: ProblemSpec, grid: Grid2D, tau: float, theta: float, *,
            t_next: Optional[float] = None, newton_tol: float = 1e-11,
            run: Optional[_Run] = None):
    """One theta-scheme step from the layer W_old at t_n by inexact Newton
    iteration; returns (new layer, SolverReport).

    The new layer sits at t_next (default t_n + tau).  Converged when
    ||delta||_inf drops below newton_tol * (1 + ||W||_inf) and the residual
    satisfies the same scaled bound, so the accepted layer always fulfils
    ||Ups(W)||_inf <= newton_tol * (1 + ||W||_inf); an invalid newton_tol
    raises ValueError.  The iteration and inner-solve limits are the module
    constants MAX_NEWTON, KRYLOV_TOL, ELL and KRYLOV_MAXIT.  A non-finite
    reaction (checked before the residual, which it makes NaN), residual,
    reaction Jacobian or Newton update fails at once, naming species and
    node; a step that does not converge names those of max |Ups|.
    `run` carries B and the accepted layer from step to step (integrate
    passes one); without it the step builds its own.
    """
    check_solver_options(newton_tol=newton_tol)
    t_start = time.perf_counter()
    L, n = W_old.shape
    t1 = t_n + tau if t_next is None else t_next
    if run is None:
        run = _Run(_newton_stencil(scheme, tau, theta))
    xi, yi = grid.interior_xy
    W = W_old.copy()
    terms = _step_terms(scheme, problem, grid, tau, theta, t_n, t1, W_old,
                        run.layer)
    _check_finite("reaction", terms[0].R, grid, t_n, 0)
    ups = residual(W, W_old, scheme, problem, grid, tau, theta, t_n,
                   terms=terms)
    cycles: List[float] = []
    for it in range(MAX_NEWTON):
        _check_finite("reaction", terms[1].R, grid, t_n, it)
        _check_finite("residual", ups, grid, t_n, it)
        J = np.asarray(problem.reaction_jacobian(xi, yi, t1, W), dtype=float)
        _check_finite("reaction Jacobian", J, grid, t_n, it)
        try:
            delta, krep = bicgstab_l(
                lambda v: _apply_jacobian(scheme, run.B, J, tau, theta,
                                          v.reshape(L, n)).ravel(),
                -ups.ravel(), tol=KRYLOV_TOL, ell=ELL, maxit=KRYLOV_MAXIT)
        except KrylovBreakdown as exc:
            raise SolverFailure(f"inner solver broke down at t={t_n:.6g}, "
                                f"Newton iteration {it}: {exc}") from exc
        cycles.append(krep.iterations)
        delta = delta.reshape(L, n)
        _check_finite("Newton update", delta, grid, t_n, it)
        if not krep.converged:
            raise SolverFailure(
                f"inner solver stalled at t={t_n:.6g}, Newton iteration {it}: "
                f"relative residual {krep.final_relative_residual:.3e} "
                f"after {krep.iterations:.1f} cycles")
        W = W + delta
        scale = 1.0 + np.max(np.abs(W))
        ups = residual(W, W_old, scheme, problem, grid, tau, theta, t_n,
                       terms=terms)
        if np.max(np.abs(delta)) <= newton_tol * scale \
                and np.max(np.abs(ups)) <= newton_tol * scale:
            break
    else:
        k = np.argmax(np.abs(ups))
        raise SolverFailure(
            f"Newton did not converge in {MAX_NEWTON} iterations at "
            f"t={t_n:.6g}: max |Ups| {abs(ups.flat[k]):.3e} at "
            f"{_species_node(ups, k, grid)}")
    run.layer = terms[1]
    return W, SolverReport(newton_iters=len(cycles), krylov_cycles=cycles,
                           wall_ms=(time.perf_counter() - t_start) * 1e3,
                           final_residual=float(np.max(np.abs(ups))))


def initial_field(problem: ProblemSpec, grid: Grid2D) -> np.ndarray:
    W = np.empty((problem.L, grid.n_interior))
    W[:] = species_field("initial", problem.initial(*grid.interior_xy),
                         problem.L, W.shape[1:])
    return W


def integrate(problem: ProblemSpec, grid: Grid2D, time_grid: TimeGrid,
              scheme: Scheme, theta: float = 0.5, *, newton_tol: float = 1e-11):
    """March the nodal initial data through all N steps.

    Returns (final field, list of per-step SolverReports).  newton_tol is
    advance's; an invalid theta or newton_tol raises ValueError before the
    first step.  Step failures propagate as SolverFailure with the failing
    step index attached.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    check_solver_options(newton_tol=newton_tol)
    run = _Run(_newton_stencil(scheme, time_grid.tau, theta),
               _layer(scheme, problem, grid, time_grid.t(0)))
    check_compatibility(problem, grid, run.layer.g)
    W = validate_field(initial_field(problem, grid), grid, problem.L)
    reports: List[SolverReport] = []
    for n in range(time_grid.N):
        try:
            W, report = advance(W, time_grid.t(n), scheme, problem, grid,
                                time_grid.tau, theta,
                                t_next=time_grid.t(n + 1),
                                newton_tol=newton_tol, run=run)
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
