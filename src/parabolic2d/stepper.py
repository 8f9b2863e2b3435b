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
with BiCGStab(2) inner solves; the initial guess on the new time layer is
the solution on the previous one.

What depends only on the grid or on one time layer is evaluated once.  Per
grid: the interior coordinates (Grid2D.interior_xy).  Per layer t, every
species in one call: the Dirichlet data g(t) on the boundary ring, the
forcing xi(t) and the rate-free fold F(t) = -P g, or
F(t) = -P g + Q (r(g) + xi) for the compact scheme.  A step combines its two
layers as

    Phi^th = theta F(t1) + (1-theta) F(t_n),

minus, for the compact scheme, Q applied to (g(t1) - g(t_n))/tau on the
boundary ring, as [Q; P] applied to that quotient and zeros.  integrate
builds each step's terms and carries the new layer to the next step, with
the R^1 of the accepted residual as its R^0.

The Newton matrix is I/tau + theta P - theta J (central) or
Q/tau + theta P - theta Q J (compact), J the pointwise reaction Jacobian.
The compact one is the derivative of the residual.  A scheme is its one
stencil stack A (cds.StencilMatrix): P for the central scheme, [Q; P] for
the compact one, whose operand count gives A.kind, on its mesh A.grid;
integrate rejects a grid argument not equal to A.grid.  Every operator
product is one product of A, there on (x/tau - theta J x, theta x), on the
residual's two terms, on the ring data of the fold, or on the ring term
and zeros.  Products run on the (L, n) field arrays, folds on the full
node arrays.

The central application runs J x on a helper thread (_JxOverlap) while
the calling thread computes x/tau + theta P x, when both of two conditions
hold: the process may run on two or more CPUs, and J has at least
OVERLAP_MIN entries L^2 n.  np.einsum releases the GIL for its loop, so
the two products run at once; the arithmetic and its order are the serial
ones, and results are bit for bit the same.  advance starts the thread for
its Newton loop and joins it before it returns or raises.  The compact
application needs J x before its one product, so it stays serial.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import cds as cds_mod
from . import cfds as cfds_mod
from .cds import KINDS, StencilMatrix, apply_full
from .grid import Grid2D, TimeGrid, species_node, validate_field
from .krylov import KrylovBreakdown, bicgstab_l, check_solver_options, matvec
from .model import ProblemSpec, check_compatibility, species_field

# Newton iterations per step; the inner BiCGStab(2) tolerance and cycles
MAX_NEWTON = 25
KRYLOV_TOL = 1e-10
KRYLOV_MAXIT = 200
# the fewest reaction Jacobian entries L^2 n for which a central step
# computes J x on a helper thread (_JxOverlap); below it the handoff costs
# more than the overlap saves
OVERLAP_MIN = 2 ** 17


class SolverFailure(RuntimeError):
    """Newton or inner-solver failure; `step` holds the failing step index."""

    def __init__(self, message: str, step: Optional[int] = None):
        super().__init__(message)
        self.step = step


@dataclass
class SolverReport:
    """Per step: the Krylov cycles of each Newton iteration, their count
    newton_iters, and the wall time wall_ms, step terms included."""

    krylov_cycles: List[float]
    wall_ms: float
    final_residual: float

    @property
    def newton_iters(self) -> int:
        return len(self.krylov_cycles)


def build_scheme(problem: ProblemSpec, grid: Grid2D,
                 kind: str) -> StencilMatrix:
    """The scheme `kind`: its stack, one StencilMatrix.from_coeffs over the
    stencils of its operands (P for "cds", Q then P for "cfds"), assembled
    once over the species axis of the problem's coefficient fields (length
    1 when every species shares them) and tiled to the L species."""
    if kind not in KINDS:
        raise ValueError(f"unknown scheme kind {kind!r}")
    coeffs = ([cds_mod.cds_full_stencil(problem, grid)] if kind == "cds"
              else cfds_mod.cfds_full_stencils(problem, grid))
    return StencilMatrix.from_coeffs(grid, coeffs, problem.L)


def _interior_rhs(problem: ProblemSpec, grid: Grid2D, t: float,
                  W: np.ndarray, forcing: Optional[np.ndarray]) -> np.ndarray:
    """Reaction plus the forcing xi(t) at interior nodes, shape (L, n)."""
    R = np.asarray(problem.reaction(*grid.interior_xy, t, W), dtype=float)
    return R if forcing is None else R + forcing


def _ring_product(A: StencilMatrix, *vs: np.ndarray) -> np.ndarray:
    """A applied to the operands vs, each the values (L, 2(Mx+My)) on the
    nodes of A.grid.boundary_ring, zero elsewhere, through A's full
    planes; shape (L, n)."""
    grid = A.grid
    (j, i), _ = grid.boundary_ring
    ring = np.zeros((len(vs) * len(vs[0]), grid.My + 1, grid.Mx + 1))
    ring[:, j, i] = np.concatenate(vs)
    return apply_full(A.full, ring, plan=A.full_plan)[:, 1:-1, 1:-1].reshape(
        -1, grid.n_interior)


def boundary_fold(scheme: StencilMatrix, problem: ProblemSpec, t: float,
                  g: np.ndarray) -> np.ndarray:
    """Rate-free boundary part F(t) of the right-hand side, shape (L, n).

    g holds the Dirichlet data of every species at time t on the nodes of
    scheme.grid.boundary_ring, shape (L, 2(Mx+My)).  "cds" gives F = -P g;
    "cfds" gives F = Q (r(g) + xi) - P g, one product of [Q; P], with
    the reaction r and the forcing xi evaluated on the ring only; _boundary_phi
    subtracts Q times the time derivative of g, so that
    Q dU/dt + P U = Q R + Phi.  The boundary coefficients of P and Q reach the ring.
    """
    if scheme.kind == "cds":
        return -_ring_product(scheme, g)
    _, (x, y) = scheme.grid.boundary_ring
    r = np.asarray(problem.reaction(x, y, t, g), dtype=float)
    if problem.forcing is not None:
        r = r + np.asarray(problem.forcing(x, y, t), dtype=float)
    return _ring_product(scheme, r, -g)


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


def _layer(scheme: StencilMatrix, problem: ProblemSpec, t: float) -> _Layer:
    """g, xi and F of the layer t, every species in one call each."""
    _, (x, y) = scheme.grid.boundary_ring
    g = np.broadcast_to(species_field("boundary", problem.boundary(x, y, t),
                                      problem.L, x.shape),
                        (problem.L,) + x.shape)
    xi = None if problem.forcing is None else np.asarray(
        problem.forcing(*scheme.grid.interior_xy, t), dtype=float)
    return _Layer(t, g, xi, boundary_fold(scheme, problem, t, g))


def _boundary_phi(scheme: StencilMatrix, tau: float, theta: float,
                  old: _Layer, new: _Layer) -> np.ndarray:
    """Theta-averaged boundary contribution Phi^th of the step from layer
    old to layer new, shape (L, n): theta F(t1) + (1-theta) F(t_n), and for
    "cfds" minus Q applied to the difference quotient dq = (g1 - g0)/tau,
    the time derivative of the Dirichlet data on the ring, as [Q; P]
    applied to (dq, 0)."""
    phi = theta * new.F + (1.0 - theta) * old.F
    if scheme.kind == "cfds":
        dq = (new.g - old.g) / tau
        phi -= _ring_product(scheme, dq, np.zeros_like(dq))
    return phi


def _step_terms(scheme: StencilMatrix, problem: ProblemSpec, tau: float,
                theta: float, t_n: float, t1: float, W_old: np.ndarray,
                old: Optional[_Layer] = None):
    """(old, new, Phi^th): the residual terms fixed within the step from
    (t_n, W_old) to t1; old is the layer t_n with R = R^0 at W_old, new the
    layer t1.  A carried `old` must be that layer of W_old; without it the
    layer is evaluated here, and without its R the R^0 at W_old."""
    if old is None:
        old = _layer(scheme, problem, t_n)
    if old.R is None:
        old.R = _interior_rhs(problem, scheme.grid, t_n, W_old, old.xi)
    new = _layer(scheme, problem, t1)
    return old, new, _boundary_phi(scheme, tau, theta, old, new)


def residual(W_new: np.ndarray, W_old: np.ndarray, scheme: StencilMatrix,
             problem: ProblemSpec, tau: float, theta: float, t_n: float, *,
             terms: Optional[tuple] = None) -> np.ndarray:
    """Nonlinear residual Ups(W_new) of the theta-scheme step from t_n.

    `terms` holds the parts fixed within the step (see _step_terms); without
    it they are computed here for the new layer t_n + tau.  The reaction
    plus forcing R1 at W_new is kept in the new layer, so after an accepted
    step that layer is the old layer of the next one.  A non-finite R1
    gives a residual of NaN, without a stencil product.
    """
    if terms is None:
        terms = _step_terms(scheme, problem, tau, theta, t_n, t_n + tau,
                            W_old)
    old, new, phi = terms
    R1 = new.R = _interior_rhs(problem, scheme.grid, new.t, W_new, new.xi)
    if not np.isfinite(R1).all():
        return np.full_like(W_new, np.nan)
    wth = theta * W_new + (1.0 - theta) * W_old
    rth = theta * R1 + (1.0 - theta) * old.R
    if scheme.kind == "cds":
        return (W_new - W_old) / tau + matvec(scheme, wth) - rth - phi
    return matvec(scheme,
                  np.concatenate(((W_new - W_old) / tau - rth, wth))) - phi


def _cpu_count() -> int:
    """The number of CPUs this process may run on: its affinity mask, where
    the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _JxOverlap:
    """A helper thread that writes J x while the calling thread computes
    x/tau + theta P x, for the central Newton application.

    Two queues hand a job over: submit puts (J, x, out) on `_jobs`, and the
    helper puts what the job raised, or None, on `_results`.  The helper
    calls only np.einsum, which releases the GIL for its loop, and drops
    the job, J with it, after each run; wait re-raises in the caller what
    the job raised.  As a context manager the thread lives for one `with`
    block: its exit queues the stop behind any job still queued or
    running, and joins the thread.
    """

    def __init__(self):
        self._jobs, self._results = queue.SimpleQueue(), queue.SimpleQueue()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_JxOverlap":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._jobs.put(None)
        self._thread.join()

    def _run(self) -> None:
        for J, x, out in iter(self._jobs.get, None):
            error = None
            try:
                np.einsum("lmn,mn->ln", J, x, out=out)
            except BaseException as exc:    # raised again by wait
                error = exc
            del J, x, out
            self._results.put(error)

    def submit(self, J: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
        """Start writing J x into out on the helper thread."""
        self._jobs.put((J, x, out))

    def wait(self) -> None:
        """Wait for the submitted job; raise what it raised."""
        error = self._results.get()
        if error is not None:
            raise error


def _apply_jacobian(scheme: StencilMatrix, J: np.ndarray, tau: float,
                    theta: float, x: np.ndarray, out: np.ndarray,
                    overlap: Optional[_JxOverlap] = None) -> None:
    """Write the action of the Newton matrix on x (L, n) for reaction
    Jacobian J (L, L, n) into out (L, n), in place: for "cds" as
    ((x/tau) + theta (P x)) - theta (J x), with J x on the helper thread of
    `overlap` when one is given, while P x runs here; for "cfds", the
    derivative of the residual, as [Q; P] applied to
    (x/tau - theta (J x), theta x), both written into one (2L, n) operand."""
    if scheme.kind == "cfds":
        uv = np.empty((2 * len(x), x.shape[1]))
        u, v = uv[:len(x)], uv[len(x):]
        np.divide(x, tau, out=u)
        np.einsum("lmn,mn->ln", J, x, out=v)
        u -= np.multiply(theta, v, out=v)
        np.multiply(theta, x, out=v)
        matvec(scheme, uv, out=out)
        return
    if overlap is None:
        Jx = np.einsum("lmn,mn->ln", J, x)
    else:
        Jx = np.empty_like(x)
        overlap.submit(J, x, Jx)
    np.divide(x, tau, out=out)
    Px = matvec(scheme, x)
    out += np.multiply(theta, Px, out=Px)
    if overlap is not None:
        overlap.wait()
    out -= np.multiply(theta, Jx, out=Jx)


def _check_finite(what: str, v: np.ndarray, grid: Grid2D, t_n: float,
                  it: int) -> None:
    """Raise SolverFailure naming the first non-finite entry of v, a field
    (L, n) or a Jacobian (L, L, n)."""
    finite = np.isfinite(v)
    if not finite.all():
        raise SolverFailure(
            f"non-finite {what} at t={t_n:.6g}, Newton iteration {it}: "
            f"{species_node(v, np.argmin(finite), grid)}")


def advance(W_old: np.ndarray, t_n: float, scheme: StencilMatrix,
            problem: ProblemSpec, tau: float, theta: float, *,
            newton_tol: float = 1e-11, terms: Optional[tuple] = None):
    """One theta-scheme step from the layer W_old at t_n by inexact Newton
    iteration; returns (new layer, SolverReport).

    `terms` holds the parts fixed within the step, as in residual; without
    it they are computed here for the new layer t_n + tau.  Converged when
    ||delta||_inf drops below newton_tol * (1 + ||W||_inf) and the residual
    satisfies the same scaled bound, so the accepted layer always fulfils
    ||Ups(W)||_inf <= newton_tol * (1 + ||W||_inf); an invalid theta, tau or
    newton_tol, or a W_old not of shape (L, n) and finite, raises ValueError
    before any problem call.  The iteration and inner-solve limits are the
    module constants MAX_NEWTON, KRYLOV_TOL and KRYLOV_MAXIT.  A "cds"
    step with at least OVERLAP_MIN Jacobian entries, on two or more CPUs,
    computes J x on a helper thread that lives for this call only (see the
    module docstring); its results are bit for bit the serial ones.  A
    non-finite reaction (checked before the residual, which it makes NaN),
    residual, reaction Jacobian or Newton update fails at once, naming species
    and node; a step that does not converge names those of max |Ups|.
    """
    check_solver_options(theta=theta, tau=tau, newton_tol=newton_tol)
    grid = scheme.grid
    W_old = validate_field(W_old, grid, problem.L)
    t_start = time.perf_counter()
    L, n = W_old.shape
    if terms is None:
        terms = _step_terms(scheme, problem, tau, theta, t_n, t_n + tau,
                            W_old)
    xi, yi = grid.interior_xy
    W = W_old.copy()
    _check_finite("reaction", terms[0].R, grid, t_n, 0)
    ups = residual(W, W_old, scheme, problem, tau, theta, t_n, terms=terms)
    cycles: List[float] = []
    overlap = (scheme.kind == "cds" and L * L * n >= OVERLAP_MIN
               and _cpu_count() >= 2)
    with _JxOverlap() if overlap else nullcontext() as jx:
        for it in range(MAX_NEWTON):
            _check_finite("reaction", terms[1].R, grid, t_n, it)
            _check_finite("residual", ups, grid, t_n, it)
            J = np.asarray(
                problem.reaction_jacobian(xi, yi, terms[1].t, W), dtype=float)
            _check_finite("reaction Jacobian", J, grid, t_n, it)
            try:
                delta, krep = bicgstab_l(
                    lambda v, out: _apply_jacobian(scheme, J, tau, theta,
                                                   v.reshape(L, n),
                                                   out.reshape(L, n), jx),
                    -ups.ravel(), tol=KRYLOV_TOL, maxit=KRYLOV_MAXIT)
            except KrylovBreakdown as exc:
                raise SolverFailure(
                    f"inner solver broke down at t={t_n:.6g}, "
                    f"Newton iteration {it}: {exc}") from exc
            del J   # freed before the next one is evaluated
            cycles.append(krep.iterations)
            delta = delta.reshape(L, n)
            _check_finite("Newton update", delta, grid, t_n, it)
            if not krep.converged:
                raise SolverFailure(
                    f"inner solver stalled at t={t_n:.6g}, "
                    f"Newton iteration {it}: relative residual "
                    f"{krep.final_relative_residual:.3e} "
                    f"after {krep.iterations:.1f} cycles")
            W = W + delta
            scale = 1.0 + np.max(np.abs(W))
            ups = residual(W, W_old, scheme, problem, tau, theta, t_n,
                           terms=terms)
            if np.max(np.abs(delta)) <= newton_tol * scale \
                    and np.max(np.abs(ups)) <= newton_tol * scale:
                break
        else:
            k = np.argmax(np.abs(ups))
            raise SolverFailure(
                f"Newton did not converge in {MAX_NEWTON} iterations at "
                f"t={t_n:.6g}: max |Ups| {abs(ups.flat[k]):.3e} at "
                f"{species_node(ups, k, grid)}")
    return W, SolverReport(krylov_cycles=cycles,
                           wall_ms=(time.perf_counter() - t_start) * 1e3,
                           final_residual=float(np.max(np.abs(ups))))


def initial_field(problem: ProblemSpec, grid: Grid2D) -> np.ndarray:
    W = np.empty((problem.L, grid.n_interior))
    W[:] = species_field("initial", problem.initial(*grid.interior_xy),
                         problem.L, W.shape[1:])
    return W


def integrate(problem: ProblemSpec, grid: Grid2D, time_grid: TimeGrid,
              scheme: StencilMatrix, theta: float = 0.5, *,
              newton_tol: float = 1e-11):
    """March the nodal initial data through all N steps.

    Returns (final field, list of per-step SolverReports).  newton_tol is
    advance's; an invalid theta or newton_tol, or a grid not equal to
    scheme.grid, raises ValueError before any problem call.  Step failures
    propagate as SolverFailure with the failing step index attached.  A
    report's wall_ms includes the step terms built here before advance, so
    it counts what a plain advance call counts.
    """
    check_solver_options(theta=theta, newton_tol=newton_tol)
    if grid != scheme.grid:
        raise ValueError(f"grid {grid} is not the scheme's grid {scheme.grid}")
    layer = _layer(scheme, problem, time_grid.t(0))
    check_compatibility(problem, grid, layer.g)
    W = validate_field(initial_field(problem, grid), grid, problem.L)
    reports: List[SolverReport] = []
    for n in range(time_grid.N):
        t_start = time.perf_counter()
        terms = _step_terms(scheme, problem, time_grid.tau, theta,
                            time_grid.t(n), time_grid.t(n + 1), W, layer)
        terms_ms = (time.perf_counter() - t_start) * 1e3
        try:
            W, report = advance(W, time_grid.t(n), scheme, problem,
                                time_grid.tau, theta, newton_tol=newton_tol,
                                terms=terms)
        except SolverFailure as exc:
            exc.step = n
            raise SolverFailure(f"step {n} failed: {exc}", step=n) from exc
        layer = terms[1]
        report.wall_ms += terms_ms
        reports.append(report)
    return W, reports


def average_counts(reports: List[SolverReport]):
    """(mean Newton iterations per step, mean Krylov cycles per Newton solve)."""
    if not reports:
        return float("nan"), float("nan")
    newton = [r.newton_iters for r in reports]
    cycles = [c for r in reports for c in r.krylov_cycles]
    return float(np.mean(newton)), float(np.mean(cycles)) if cycles else float("nan")
