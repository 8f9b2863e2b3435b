import dataclasses
import threading
import time
import weakref

import numpy as np
import pytest

from parabolic2d import (build_grid, build_time_grid, build_scheme, integrate,
                         make_example1, make_example2, manufactured_solution,
                         max_norm_error)
from parabolic2d.cds import StencilMatrix, cds_full_stencil
from parabolic2d.krylov import bicgstab_l
from parabolic2d.model import MU_FAST, ProblemSpec
from parabolic2d.stepper import (OVERLAP_MIN, SolverFailure, advance,
                                 initial_field, residual)

from test_cds import constant_problem, lone_operators
from test_krylov import (bits, newton_matrix_apply, species_varied_problem,
                         writing)


def nodal_exact_field(prob, grid, t):
    XX, YY = grid.interior_mesh()
    u = manufactured_solution(XX, YY, t).ravel()
    return np.broadcast_to(u, (prob.L,) + u.shape).copy()


def test_residual_zero_for_zero_everything():
    prob = constant_problem(a=1.8, b=1.8)
    g = build_grid(1, 1, 4, 4)
    for kind in ("cds", "cfds"):
        sch = build_scheme(prob, g, kind)
        W = np.zeros((1, g.n_interior))
        ups = residual(W, W, sch, prob, g, 0.1, 0.5, 0.0)
        assert np.all(ups == 0.0)


@pytest.mark.parametrize("kind,taus,window", [
    ("cds", lambda h: h, (1.7, 2.3)),
    ("cfds", lambda h: h * h / 4.0, (3.3, 4.4)),
])
def test_residual_truncation_order(kind, taus, window):
    # exact nodal values at both layers: the residual is the local truncation
    # error, O(h^2 + tau^2) for the central pair and O(h^4 + tau^2) for the
    # compact pair (unscale the latter by 6 hx^2); tau is tied to h so a
    # single observed order shows up
    prob = make_example1()
    t_n = 288.0
    errs, hs = [], []
    for M in (8, 16, 32):
        g = build_grid(prob.X, prob.Y, M, M)
        tau = taus(g.hx)
        sch = build_scheme(prob, g, kind)
        W0 = nodal_exact_field(prob, g, t_n)
        W1 = nodal_exact_field(prob, g, t_n + tau)
        ups = residual(W1, W0, sch, prob, g, tau, 0.5, t_n)
        scale = 6 * g.hx ** 2 if kind == "cfds" else 1.0
        errs.append(np.max(np.abs(ups)) / scale)
        hs.append(g.hx)
    orders = [np.log(errs[i - 1] / errs[i]) / np.log(hs[i - 1] / hs[i])
              for i in (1, 2)]
    assert all(window[0] <= o <= window[1] for o in orders), (errs, orders)
    assert orders[-1] >= window[0] + 0.2, (errs, orders)


def test_residual_affine_in_forcing():
    prob = make_example1()
    kappa = 0.37
    shifted = ProblemSpec(
        L=prob.L, diffusion_a=prob.diffusion_a, diffusion_b=prob.diffusion_b,
        advection_c=prob.advection_c, advection_d=prob.advection_d,
        reaction=prob.reaction, reaction_jacobian=prob.reaction_jacobian,
        boundary=prob.boundary, initial=prob.initial,
        forcing=lambda x, y, t: prob.forcing(x, y, t) + kappa,
        X=prob.X, Y=prob.Y, T=prob.T)
    g = build_grid(prob.X, prob.Y, 6, 6)
    sch0 = build_scheme(prob, g, "cds")
    sch1 = build_scheme(shifted, g, "cds")
    rng = np.random.default_rng(4)
    W0 = rng.standard_normal((prob.L, g.n_interior))
    W1 = rng.standard_normal((prob.L, g.n_interior))
    u0 = residual(W1, W0, sch0, prob, g, 90.0, 0.5, 100.0)
    u1 = residual(W1, W0, sch1, shifted, g, 90.0, 0.5, 100.0)
    assert np.allclose(u1, u0 - kappa, rtol=0, atol=1e-12)


def test_newton_matrix_reduces_to_mass_and_stiffness():
    prob = constant_problem(a=1.8, b=0.9, c=0.1, d=-0.2)
    g = build_grid(1, 1, 5, 5)
    tau, theta = 0.25, 0.5
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1, g.n_interior))
    W = rng.standard_normal((1, g.n_interior))
    from parabolic2d.krylov import matvec
    sch = build_scheme(prob, g, "cds")
    y = newton_matrix_apply(sch, prob, g, tau, theta, W, x, 0.1)
    assert np.allclose(y, x / tau + theta * matvec(sch, x), rtol=1e-14)
    sch = build_scheme(prob, g, "cfds")
    y = newton_matrix_apply(sch, prob, g, tau, theta, W, x, 0.1)
    Q, P = lone_operators(prob, g, "cfds")
    assert np.allclose(y, matvec(Q, x) / tau + theta * matvec(P, x),
                       rtol=1e-14)


def test_newton_matrix_is_residual_derivative():
    # directional finite differences at air-pollution magnitudes, where the
    # bilinear reaction terms are strong enough to rise above roundoff: the
    # defect of the linearization must shrink linearly in eps
    from parabolic2d import make_example2
    prob = make_example2()
    g = build_grid(prob.X, prob.Y, 6, 6)
    tau, theta, t_n = 5.625, 0.5, 100.0
    rng = np.random.default_rng(21)
    W0 = initial_field(prob, g)
    W = W0 * rng.uniform(0.5, 1.5, size=W0.shape)
    x = 100.0 * rng.standard_normal(W0.shape)
    for kind in ("cds", "cfds"):
        sch = build_scheme(prob, g, kind)
        Jx = newton_matrix_apply(sch, prob, g, tau, theta, W, x, t_n + tau)
        errs = []
        for eps in (1e-1, 1e-2, 1e-3):
            diff = (residual(W + eps * x, W0, sch, prob, g, tau, theta, t_n)
                    - residual(W, W0, sch, prob, g, tau, theta, t_n)) / eps
            errs.append(np.max(np.abs(diff - Jx)) / np.max(np.abs(Jx)))
        assert errs[2] < 1e-10, errs
        assert 5.0 <= errs[0] / errs[1] <= 20.0, errs
        assert 5.0 <= errs[1] / errs[2] <= 20.0, errs


def test_advance_zero_state_single_iteration():
    prob = constant_problem(a=1.0, b=1.0)
    g = build_grid(1, 1, 4, 4)
    sch = build_scheme(prob, g, "cds")
    W, report = advance(np.zeros((1, g.n_interior)), 0.0, sch, prob, g, 0.1,
                        0.5)
    assert np.all(W == 0.0)
    assert report.newton_iters == 1


def test_integrate_matches_reference_error():
    prob = make_example1()
    g = build_grid(prob.X, prob.Y, 4, 4)
    tg = build_time_grid(prob.T, 4)
    sch = build_scheme(prob, g, "cds")
    W, reports = integrate(prob, g, tg, sch, theta=0.5)
    err = max_norm_error(W, manufactured_solution, g, tg.T).max()
    assert err == pytest.approx(5.702e-03, rel=0.02)
    assert len(reports) == 4


def test_crank_nicolson_time_order():
    # same grid, three time resolutions: spatial error cancels in the
    # differences and the temporal order shows up as log2 of their ratio
    prob = make_example1()
    g = build_grid(prob.X, prob.Y, 8, 8)
    sch = build_scheme(prob, g, "cds")
    sols = []
    for N in (8, 16, 32):
        tg = build_time_grid(prob.T, N)
        W, _ = integrate(prob, g, tg, sch, theta=0.5)
        sols.append(W)
    d1 = np.max(np.abs(sols[0] - sols[1]))
    d2 = np.max(np.abs(sols[1] - sols[2]))
    assert 1.9 <= np.log2(d1 / d2) <= 2.1


def test_integrate_deterministic():
    prob = make_example1()
    g = build_grid(prob.X, prob.Y, 6, 6)
    tg = build_time_grid(prob.T, 4)
    sch = build_scheme(prob, g, "cds")
    W1, _ = integrate(prob, g, tg, sch, theta=0.5)
    W2, _ = integrate(prob, g, tg, sch, theta=0.5)
    assert np.array_equal(W1, W2)


def test_integrate_rejects_bad_theta():
    prob = make_example1()
    g = build_grid(prob.X, prob.Y, 4, 4)
    tg = build_time_grid(prob.T, 2)
    sch = build_scheme(prob, g, "cds")
    with pytest.raises(ValueError):
        integrate(prob, g, tg, sch, theta=1.5)


@pytest.mark.parametrize("theta", [True, np.True_, False])
def test_integrate_rejects_bool_theta(theta):
    # a bool passes 0 <= theta <= 1 as 0 or 1; it fails before any solve
    prob = make_example1()
    g = build_grid(prob.X, prob.Y, 4, 4)
    sch = build_scheme(prob, g, "cds")
    with pytest.raises(ValueError, match=r"^theta must be in \[0, 1\]"):
        integrate(prob, g, build_time_grid(prob.T, 2), sch, theta=theta)


def test_failure_carries_step_index():
    prob = make_example1()
    g = build_grid(prob.X, prob.Y, 4, 4)
    tg = build_time_grid(prob.T, 3)
    sch = build_scheme(prob, g, "cds")
    with pytest.raises(SolverFailure) as exc:
        integrate(prob, g, tg, sch, theta=0.5, newton_tol=1e-300)
    assert exc.value.step == 0
    assert "Newton did not converge in 25 iterations" in str(exc.value)


def test_newton_failure_names_worst_species_and_node(monkeypatch):
    # the message names max |Ups| of the last iterate: the last residual
    # advance evaluated, its species and node decoded as in _check_finite
    from parabolic2d import stepper
    real_residual, last = stepper.residual, []

    def recorder(*args, **kwargs):
        last[:] = [real_residual(*args, **kwargs)]
        return last[0]

    monkeypatch.setattr(stepper, "residual", recorder)
    prob = make_example2()
    g = build_grid(prob.X, prob.Y, 4, 4)
    sch = build_scheme(prob, g, "cds")
    with pytest.raises(SolverFailure) as exc:
        integrate(prob, g, build_time_grid(prob.T, 2), sch, newton_tol=1e-300)
    [ups] = last
    l, k = np.unravel_index(np.argmax(np.abs(ups)), ups.shape)
    assert str(exc.value) == (
        f"step 0 failed: Newton did not converge in 25 iterations at t=0: "
        f"max |Ups| {abs(ups[l, k]):.3e} at species {l}, "
        f"node (i={k % 3 + 1}, j={k // 3 + 1})")


def recording_problem(calls):
    """make_example1 and a copy whose initial, boundary, reaction and
    forcing data append their arguments to calls."""
    base = make_example1()

    def record(f):
        return lambda *a: calls.append(a) or f(*a)

    return base, dataclasses.replace(base, **{
        name: record(getattr(base, name))
        for name in ("initial", "boundary", "reaction", "forcing")})


@pytest.mark.parametrize("option,value", [
    ("ell", 0), ("krylov_tol", 0.0), ("krylov_maxit", 0), ("newton_tol", -1e-9),
    ("newton_tol", float("nan")), ("max_newton", 0), ("ell", 2.5),
    ("max_newton", 2.5), ("ell", True), ("krylov_maxit", 2.5),
    ("newton_tol", float("inf")), ("krylov_tol", float("inf")),
    ("newton_tol", True)])
def test_invalid_solver_options_rejected_before_the_first_step(option, value):
    # no problem data may be evaluated: neither initial data nor reactions;
    # newton_tol is the one solver keyword; the other limits are constants
    error = ValueError if option == "newton_tol" else TypeError
    calls = []
    base, prob = recording_problem(calls)
    g = build_grid(prob.X, prob.Y, 4, 4)
    sch = build_scheme(prob, g, "cds")
    with pytest.raises(error, match=option):
        integrate(prob, g, build_time_grid(prob.T, 2), sch, **{option: value})
    with pytest.raises(error, match=option):
        advance(initial_field(base, g), 0.0, sch, prob, g, 720.0, 0.5,
                **{option: value})
    assert calls == []


@pytest.mark.parametrize("option,value", [
    ("theta", True), ("theta", 7.0), ("theta", -1.0), ("theta", float("nan")),
    ("tau", -10.0), ("tau", 0.0), ("tau", float("inf")), ("tau", True)])
def test_advance_rejects_bad_theta_and_tau_before_any_problem_call(option,
                                                                   value):
    # integrate checks theta, and its TimeGrid tau, before the first step;
    # advance takes both from its caller and checks them the same way
    calls = []
    base, prob = recording_problem(calls)
    g = build_grid(prob.X, prob.Y, 4, 4)
    sch = build_scheme(prob, g, "cds")
    step = {"tau": 720.0, "theta": 0.5, option: value}
    with pytest.raises(ValueError, match=f"^{option} must be"):
        advance(initial_field(base, g), 0.0, sch, prob, g, step["tau"],
                step["theta"])
    assert calls == []


@pytest.mark.parametrize("bad", ["nan", "shape"])
def test_advance_rejects_bad_field_before_any_problem_call(bad):
    # a non-finite entry would otherwise fail as a non-finite reaction,
    # blaming the chemistry, and a wrong shape only in the first product
    calls = []
    base, prob = recording_problem(calls)
    g = build_grid(prob.X, prob.Y, 6, 6)
    sch = build_scheme(prob, g, "cds")
    W = initial_field(base, g)
    if bad == "nan":
        W[3, 7] = np.nan
    else:
        W = W[:, :5]
    # flat index 7 of a 6x6 grid (5 interior nodes per row) is node (3, 2)
    match = {"nan": r"field has a non-finite entry at species 3, "
                    r"node \(i=3, j=2\)",
             "shape": "field shape"}[bad]
    with pytest.raises(ValueError, match=match):
        advance(W, 0.0, sch, prob, g, 720.0, 0.5)
    assert calls == []


def test_integrate_names_the_nonfinite_initial_entry():
    # the initial field is checked before the first step, and its first
    # non-finite entry named by species and node
    base = make_example1()
    g = build_grid(base.X, base.Y, 6, 6)

    def initial(x, y):
        u = np.broadcast_to(base.initial(x, y), (base.L,) + np.shape(x)).copy()
        u[3, (x == 3 * g.hx) & (y == 2 * g.hy)] = np.nan
        return u

    prob = dataclasses.replace(base, initial=initial)
    with pytest.raises(ValueError, match=r"non-finite entry at species 3, "
                                         r"node \(i=3, j=2\)"):
        integrate(prob, g, build_time_grid(prob.T, 2),
                  build_scheme(prob, g, "cds"))


def test_unknown_solver_option_rejected_before_any_boundary_call():
    calls = []
    base = make_example1()
    prob = dataclasses.replace(
        base, boundary=lambda *a: calls.append(a) or base.boundary(*a))
    g = build_grid(prob.X, prob.Y, 4, 4)
    sch = build_scheme(prob, g, "cds")
    with pytest.raises(TypeError, match="newton_tolerance"):
        integrate(prob, g, build_time_grid(prob.T, 2), sch,
                  newton_tolerance=1e-9)
    assert calls == []


def test_numpy_integer_iteration_limits_accepted():
    # the limits of an inner solve as numpy integers give the same solve
    prob = make_example1()
    g = build_grid(prob.X, prob.Y, 4, 4)
    sch = build_scheme(prob, g, "cds")
    W = initial_field(prob, g)
    op = writing(lambda v: newton_matrix_apply(sch, prob, g, 720.0, 0.5, W,
                                               v.reshape(W.shape),
                                               720.0).ravel())
    b = np.ones(W.size)
    x, rep = bicgstab_l(op, b, maxit=200)
    x_np, rep_np = bicgstab_l(op, b, maxit=np.int64(200))
    assert rep.converged and rep_np == rep
    assert np.array_equal(x_np, x)


def test_forcing_evaluated_once_per_layer():
    # xi(t) enters the reaction of both steps that touch the layer t; it is
    # evaluated once per layer for all species, not per step or iteration
    base = make_example1()
    calls = []

    def forcing(x, y, t):
        calls.append(t)
        return base.forcing(x, y, t)

    prob = dataclasses.replace(base, forcing=forcing)
    g = build_grid(prob.X, prob.Y, 4, 4)
    tg = build_time_grid(prob.T, 5)
    W, reports = integrate(prob, g, tg, build_scheme(prob, g, "cds"))
    assert sum(r.newton_iters for r in reports) > tg.N
    assert len(calls) == tg.N + 1
    assert calls == [tg.t(n) for n in range(tg.N + 1)]
    W0, _ = integrate(base, g, tg, build_scheme(base, g, "cds"))
    assert np.array_equal(W, W0)


@pytest.mark.parametrize("kind", ["cds", "cfds"])
def test_residual_with_step_terms_matches_plain_call(kind):
    from parabolic2d.stepper import _step_terms
    prob = make_example1()
    g = build_grid(prob.X, prob.Y, 6, 6)
    sch = build_scheme(prob, g, kind)
    tau, theta, t_n = 90.0, 0.5, 100.0
    rng = np.random.default_rng(11)
    W0 = nodal_exact_field(prob, g, t_n)
    W1 = W0 + 1e-3 * rng.standard_normal(W0.shape)
    terms = _step_terms(sch, prob, g, tau, theta, t_n, t_n + tau, W0)
    assert np.array_equal(
        residual(W1, W0, sch, prob, g, tau, theta, t_n, terms=terms),
        residual(W1, W0, sch, prob, g, tau, theta, t_n))


@pytest.mark.parametrize("kind,tol", [("cds", 1.0), ("cfds", 1.0)])
def test_nonzero_dirichlet_against_closed_form(kind, tol):
    # u = 1000 + 1000 exp(-K pi^2 (1/X^2 + 1/Y^2) t) sin(pi x/X) sin(pi y/Y)
    # solves the heat equation with constant Dirichlet data 1000, so the
    # boundary folding is exercised with data that do not vanish
    X = Y = 500.0
    K = 1.8
    T = 1440.0
    lam = K * np.pi ** 2 * (1 / X ** 2 + 1 / Y ** 2)

    def f(v):
        return lambda x, y: np.full(np.shape(x), v)

    def zero_reaction(x, y, t, u):
        return np.zeros_like(np.asarray(u, float))

    def zero_jac(x, y, t, u):
        u = np.asarray(u, float)
        return np.zeros((u.shape[0], u.shape[0]) + u.shape[1:])

    def exact(x, y, t):
        return 1000.0 + 1000.0 * np.exp(-lam * t) * np.sin(np.pi * x / X) \
            * np.sin(np.pi * y / Y)

    prob = ProblemSpec(
        L=1, diffusion_a=f(K), diffusion_b=f(K), advection_c=f(0.0),
        advection_d=f(0.0), reaction=zero_reaction, reaction_jacobian=zero_jac,
        boundary=lambda x, y, t: np.full(np.shape(x), 1000.0),
        initial=lambda x, y: exact(x, y, 0.0),
        X=X, Y=Y, T=T)
    g = build_grid(X, Y, 16, 16)
    tg = build_time_grid(T, 64)
    sch = build_scheme(prob, g, kind)
    W, _ = integrate(prob, g, tg, sch, theta=0.5)
    err = max_norm_error(W, exact, g, tg.T).max()
    assert err < tol, err


def test_initial_field_shape():
    prob = make_example1()
    g = build_grid(prob.X, prob.Y, 6, 6)
    W = initial_field(prob, g)
    assert W.shape == (10, g.n_interior)
    assert np.max(W) <= 1.0 + 1e-12


def reference_boundary_phi(kind, prob, g, tau, theta, t0, t1):
    """Phi^th of the scheme `kind` from the data on the whole node array
    with the interior zeroed, applied through the full planes of P and Q,
    each built alone."""
    from parabolic2d.cds import apply_full

    ops = lone_operators(prob, g, kind)

    def product(A, w):
        return apply_full(A.full, w, plan=A.full_plan)[:, 1:-1, 1:-1]

    XX, YY = g.full_mesh()
    data = {}
    for t in (t0, t1):
        w = np.broadcast_to(prob.boundary(XX, YY, t),
                            (prob.L,) + XX.shape).astype(float)
        w[:, 1:-1, 1:-1] = 0.0
        data[t] = w
    rate = (data[t1] - data[t0]) / tau
    phi = np.zeros((prob.L, g.n_interior))
    for t, weight in ((t0, 1.0 - theta), (t1, theta)):
        part = -product(ops[-1], data[t])
        if kind == "cfds":
            r = prob.reaction(XX, YY, t, data[t]) - rate
            if prob.forcing is not None:
                r = r + prob.forcing(XX, YY, t)
            r[:, 1:-1, 1:-1] = 0.0
            part = part + product(ops[0], r)
        phi += weight * part.reshape(prob.L, g.n_interior)
    return phi


@pytest.mark.parametrize("kind", ["cds", "cfds"])
@pytest.mark.parametrize("example", ["make_example1", "make_example2"])
def test_residual_matches_dense_oracle(kind, example):
    # Ups = M ((W1 - W0)/tau - R^th) + P W^th - Phi^th, M = I or Q, with
    # the dense matrices of StencilMatrix.to_dense
    import parabolic2d
    prob = getattr(parabolic2d, example)()
    g = build_grid(prob.X, prob.Y, 6, 5)
    sch = build_scheme(prob, g, kind)
    tau, theta, t_n = 7.5, 0.4, 33.0
    rng = np.random.default_rng(29)
    W0 = initial_field(prob, g) * rng.uniform(0.5, 1.5, (prob.L, g.n_interior))
    W1 = W0 * rng.uniform(0.9, 1.1, W0.shape)
    x, y = g.interior_xy

    def rhs(t, W):
        R = prob.reaction(x, y, t, W)
        return R if prob.forcing is None else R + prob.forcing(x, y, t)

    rth = theta * rhs(t_n + tau, W1) + (1 - theta) * rhs(t_n, W0)
    wth = theta * W1 + (1 - theta) * W0
    *mass, P = (A.to_dense() for A in lone_operators(prob, g, kind))
    M = mass[0] if mass else np.eye(g.n_interior)[None]
    phi = reference_boundary_phi(kind, prob, g, tau, theta, t_n, t_n + tau)
    expected = np.einsum("lij,lj->li", M, (W1 - W0) / tau - rth) \
        + np.einsum("lij,lj->li", P, wth) - phi
    ups = residual(W1, W0, sch, prob, g, tau, theta, t_n)
    assert np.allclose(ups, expected, rtol=1e-12,
                       atol=1e-12 * np.max(np.abs(expected)))


@pytest.mark.parametrize("kind,products", [("cds", 1), ("cfds", 1)])
def test_residual_stencil_products(monkeypatch, kind, products):
    # a residual applies P to W^th and, for cfds, Q to the difference
    # quotient minus R^th in the same product of the stack [Q; P]
    from parabolic2d import make_example2, stepper
    from parabolic2d.stepper import _step_terms
    prob = make_example2()
    g = build_grid(prob.X, prob.Y, 6, 6)
    sch = build_scheme(prob, g, kind)
    W0 = initial_field(prob, g)
    terms = _step_terms(sch, prob, g, 7.5, 0.5, 0.0, 7.5, W0)
    calls = []
    real_matvec = stepper.matvec
    monkeypatch.setattr(stepper, "matvec",
                        lambda A, *xs: calls.append(A) or real_matvec(A, *xs))
    residual(1.01 * W0, W0, sch, prob, g, 7.5, 0.5, 0.0, terms=terms)
    assert len(calls) == products


@pytest.mark.parametrize("make,S", [(species_varied_problem, 10),
                                    (make_example2, 1)])
def test_compact_boundary_phi_subtracts_q_times_the_rate(make, S):
    # the ring term of the stack [Q; P] over (dq, 0) is Q dq, with Q built
    # alone: Phi^th = theta F1 + (1 - theta) F0 - Q dq
    from parabolic2d.stepper import _boundary_phi, _Layer, _ring_product

    prob = make()
    g = build_grid(prob.X, prob.Y, 7, 6)
    sch = build_scheme(prob, g, "cfds")
    Q, _ = lone_operators(prob, g, "cfds")
    assert len(np.unique(Q.full.swapaxes(0, 1).reshape(prob.L, -1),
                         axis=0)) == S
    tau, theta = 3.0, 0.4
    rng = np.random.default_rng(73)
    (j, _), _ = g.boundary_ring()
    old, new = (_Layer(t, rng.standard_normal((prob.L, len(j))), None,
                       rng.standard_normal((prob.L, g.n_interior)))
                for t in (0.0, tau))
    dq = (new.g - old.g) / tau
    expected = theta * new.F + (1.0 - theta) * old.F - _ring_product(Q, dq)
    assert np.array_equal(_boundary_phi(sch, tau, theta, old, new), expected)


@pytest.mark.parametrize("kind", ["cds", "cfds"])
@pytest.mark.parametrize("example", ["make_example1", "make_example2"])
def test_boundary_phi_matches_full_array_reference(kind, example):
    import parabolic2d
    from parabolic2d.stepper import _boundary_phi, _layer

    prob = getattr(parabolic2d, example)()
    g = build_grid(prob.X, prob.Y, 6, 6)
    tau, theta, t0 = 7.5, 0.4, 33.0
    sch = build_scheme(prob, g, kind)
    phi = _boundary_phi(sch, tau, theta, _layer(sch, prob, g, t0),
                        _layer(sch, prob, g, t0 + tau))
    expected = reference_boundary_phi(kind, prob, g, tau, theta, t0, t0 + tau)
    # example 1 has homogeneous Dirichlet data: its cds fold vanishes
    trivial = (kind, example) == ("cds", "make_example1")
    assert np.any(expected != 0.0) != trivial
    assert np.allclose(phi, expected, rtol=1e-12,
                       atol=1e-12 * np.max(np.abs(expected)))


@pytest.mark.parametrize("kind", ["cds", "cfds"])
def test_integrate_calls_boundary_once_per_layer(kind):
    # the Dirichlet data of all species are evaluated on the whole ring in
    # one call per layer t_0..t_N; the compatibility check reads the data
    # of the first layer
    from parabolic2d import make_example2
    base = make_example2()
    calls = []

    def boundary(x, y, t):
        calls.append(np.shape(x))
        return base.boundary(x, y, t)

    prob = dataclasses.replace(base, boundary=boundary)
    g = build_grid(prob.X, prob.Y, 6, 4)
    tg = build_time_grid(30.0, 3)
    integrate(prob, g, tg, build_scheme(prob, g, kind), theta=0.5)
    assert len(calls) == tg.N + 1
    assert set(calls) == {(2 * (g.Mx + g.My),)}


@pytest.mark.parametrize("kind", ["cds", "cfds"])
def test_incompatible_data_rejected_before_any_solve(kind):
    # the compatibility check runs on the first layer's ring data and still
    # raises its ValueError before a Jacobian or a Krylov solve is made
    from parabolic2d import make_example2
    base = make_example2()
    calls = []
    prob = dataclasses.replace(
        base, boundary=lambda x, y, t: 1.5 * base.boundary(x, y, t),
        reaction_jacobian=lambda *a: calls.append(a)
        or base.reaction_jacobian(*a))
    g = build_grid(prob.X, prob.Y, 4, 4)
    with pytest.raises(ValueError, match=r"^species 0: boundary data at t=0"):
        integrate(prob, g, build_time_grid(30.0, 2),
                  build_scheme(prob, g, kind))
    assert calls == []


@pytest.mark.parametrize("kind", ["cds", "cfds"])
@pytest.mark.parametrize("example", ["make_example1", "make_example2"])
def test_integrate_matches_plain_advance_loop(kind, example):
    # integrate carries each layer's terms and R^0 from step to step; plain
    # advance calls evaluate them afresh and must land on the same bits
    import parabolic2d
    prob = getattr(parabolic2d, example)()
    g = build_grid(prob.X, prob.Y, 6, 6)
    tg = build_time_grid(prob.T, 4)
    sch = build_scheme(prob, g, kind)
    W_run, reports = integrate(prob, g, tg, sch, theta=0.5)
    W = initial_field(prob, g)
    for n in range(tg.N):
        W, report = advance(W, tg.t(n), sch, prob, g, tg.tau, 0.5)
        assert report.krylov_cycles == reports[n].krylov_cycles
    assert np.array_equal(W_run, W)


@pytest.mark.parametrize("kind", ["cds", "cfds"])
def test_plain_advance_evaluates_new_layer_at_t_n_plus_tau(kind):
    # without terms, advance builds them itself: the boundary data, the
    # forcing and the reaction Jacobian of the new layer are evaluated at
    # exactly t_n + tau (0.1 + 0.7 rounds to 0.7999999999999999, not 0.8),
    # and only the old layer's data at t_n
    seen = {"boundary": set(), "forcing": set(), "jacobian": set()}
    base = make_example1()
    prob = dataclasses.replace(
        base,
        boundary=lambda x, y, t: seen["boundary"].add(t)
        or base.boundary(x, y, t),
        forcing=lambda x, y, t: seen["forcing"].add(t)
        or base.forcing(x, y, t),
        reaction_jacobian=lambda x, y, t, W: seen["jacobian"].add(t)
        or base.reaction_jacobian(x, y, t, W))
    g = build_grid(prob.X, prob.Y, 4, 4)
    t_n, tau = 0.1, 0.7
    advance(initial_field(prob, g), t_n, build_scheme(prob, g, kind), prob,
            g, tau, 0.5)
    assert seen == {"boundary": {t_n, t_n + tau}, "forcing": {t_n, t_n + tau},
                    "jacobian": {t_n + tau}}


def test_hoisted_step_matches_public_residual_driver():
    # advance evaluates R^0 and Phi^th once per step; a Newton loop that
    # calls the public 8-argument residual on every iteration must land on
    # the same bits
    from parabolic2d import make_example2
    from parabolic2d.krylov import bicgstab_l

    prob = make_example2()
    g = build_grid(prob.X, prob.Y, 8, 8)
    tau, theta, t_n = 22.5, 0.5, 45.0
    W0 = initial_field(prob, g)
    for kind in ("cds", "cfds"):
        sch = build_scheme(prob, g, kind)
        W = W0.copy()
        ups = residual(W, W0, sch, prob, g, tau, theta, t_n)
        for _ in range(25):
            delta, rep = bicgstab_l(
                writing(lambda v, W=W: newton_matrix_apply(
                    sch, prob, g, tau, theta, W, v.reshape(W.shape),
                    t_n + tau).ravel()),
                -ups.ravel(), tol=1e-10, maxit=200)
            assert rep.converged
            delta = delta.reshape(W.shape)
            W = W + delta
            ups = residual(W, W0, sch, prob, g, tau, theta, t_n)
            scale = 1.0 + np.max(np.abs(W))
            if np.max(np.abs(delta)) <= 1e-11 * scale \
                    and np.max(np.abs(ups)) <= 1e-11 * scale:
                break
        W_step, _ = advance(W0, t_n, sch, prob, g, tau, theta)
        assert np.array_equal(W_step, W), kind


def test_krylov_breakdown_becomes_solver_failure(monkeypatch, tmp_path):
    from parabolic2d import stepper
    from parabolic2d.cli import main
    from parabolic2d.krylov import KrylovBreakdown

    def broken(*args, **kwargs):
        raise KrylovBreakdown("breakdown persisted after restart")

    monkeypatch.setattr(stepper, "bicgstab_l", broken)
    prob = make_example1()
    g = build_grid(prob.X, prob.Y, 4, 4)
    tg = build_time_grid(prob.T, 3)
    with pytest.raises(SolverFailure, match="broke down") as exc:
        integrate(prob, g, tg, build_scheme(prob, g, "cds"), theta=0.5)
    assert exc.value.step == 0
    rc = main(["--problem", "manufactured", "--scheme", "cds",
               "--mesh", "4x4x2", "--out", str(tmp_path / "run")])
    assert rc == 1


@pytest.mark.parametrize("kind,rel", [("cds", "6.428e-01"),
                                      ("cfds", "2.249e-01")])
def test_stalled_inner_solve_names_step_and_newton_iteration(monkeypatch,
                                                             kind, rel):
    # one BiCGStab(l) cycle cannot solve the fast-rotation Newton system
    from parabolic2d import stepper
    monkeypatch.setattr(stepper, "KRYLOV_MAXIT", 1)
    prob = make_example2(mu=2 * np.pi / 1440)
    g = build_grid(prob.X, prob.Y, 16, 16)
    with pytest.raises(SolverFailure, match=(
            r"^step 0 failed: inner solver stalled at t=0, Newton iteration "
            rf"0: relative residual {rel} after 1.0 cycles$")) as exc:
        integrate(prob, g, build_time_grid(prob.T, 4),
                  build_scheme(prob, g, kind))
    assert exc.value.step == 0


def nan_at_node(kind):
    """1-species heat problem whose reaction, or its Jacobian, is NaN at the
    interior node (i=2, j=3) of a 5x5 mesh on the unit square."""
    base = constant_problem()

    def bad(x, y):
        return np.isclose(x, 0.4) & np.isclose(y, 0.6)

    def reaction(x, y, t, u):
        out = np.zeros_like(np.asarray(u, float))
        if kind == "reaction":
            out[0][bad(x, y)] = np.nan
        return out

    def jacobian(x, y, t, u):
        out = base.reaction_jacobian(x, y, t, u)
        if kind == "jacobian":
            out[0, 0][bad(x, y)] = np.nan
        return out

    return ProblemSpec(
        L=1, diffusion_a=base.diffusion_a, diffusion_b=base.diffusion_b,
        advection_c=base.advection_c, advection_d=base.advection_d,
        reaction=reaction, reaction_jacobian=jacobian,
        boundary=lambda x, y, t: np.full(np.shape(x), 1.0),
        initial=lambda x, y: np.full(np.shape(x), 1.0),
        X=1.0, Y=1.0, T=1.0)


@pytest.mark.parametrize("kind,what", [("reaction", "reaction"),
                                       ("jacobian", "reaction Jacobian")])
def test_nonfinite_input_fails_at_once_naming_the_node(kind, what):
    prob = nan_at_node(kind)
    g = build_grid(1, 1, 5, 5)
    W = np.full((1, g.n_interior), 1.5)
    with pytest.raises(SolverFailure, match=rf"non-finite {what} .* "
                       r"iteration 0: species 0, node \(i=2, j=3\)"):
        advance(W, 0.0, build_scheme(prob, g, "cds"), prob, g, 0.25, 0.5)


@pytest.mark.parametrize("kind", ["cds", "cfds"])
def test_nonfinite_reaction_names_its_own_node(kind):
    # an inf in the new layer's reaction is named at its own node, not at
    # a node that a stencil product of the residual spreads it to (for
    # cfds the neighbour i=4)
    base = make_example2()

    def reaction(x, y, t, u):
        R = base.reaction(x, y, t, u)
        if t > 0:
            R[0][np.isclose(x, 5 * base.X / 6) & np.isclose(y, base.Y / 6)] \
                = np.inf
        return R

    prob = dataclasses.replace(base, reaction=reaction)
    g = build_grid(prob.X, prob.Y, 6, 6)
    with pytest.raises(SolverFailure, match=r"non-finite reaction at t=0, "
                       r"Newton iteration 0: species 0, node \(i=5, j=1\)$"):
        integrate(prob, g, build_time_grid(prob.T, 2),
                  build_scheme(prob, g, kind))


def test_nonfinite_newton_update_fails_at_once(monkeypatch):
    # an update poisoned inside the inner solver must stop the step on the
    # spot, naming where, instead of iterating on NaN
    from parabolic2d import stepper
    from parabolic2d.krylov import KrylovReport

    def poisoned(op, b, **kwargs):
        delta = np.zeros_like(b)
        delta[9] = np.inf   # node (i=2, j=3) of the 4x4 interior
        return delta, KrylovReport(1.0, 0.0, True)

    monkeypatch.setattr(stepper, "bicgstab_l", poisoned)
    prob = constant_problem()
    g = build_grid(1, 1, 5, 5)
    W = np.full((1, g.n_interior), 1.5)
    with pytest.raises(SolverFailure, match=r"non-finite Newton update .* "
                       r"iteration 0: species 0, node \(i=2, j=3\)"):
        advance(W, 0.0, build_scheme(prob, g, "cds"), prob, g, 0.25, 0.5)


def test_layer_times_come_from_time_grid():
    # ten steps of 0.1: summing tau would put the last layer at
    # 0.9999999999999999, TimeGrid.t(10) puts it at 1.0
    seen = []
    base = constant_problem()

    def boundary(x, y, t):
        seen.append(t)
        return base.boundary(x, y, t)

    prob = dataclasses.replace(base, boundary=boundary)
    g = build_grid(1, 1, 4, 4)
    tg = build_time_grid(1.0, 10)
    integrate(prob, g, tg, build_scheme(prob, g, "cds"), theta=0.5)
    assert max(seen) == 1.0
    assert set(seen) <= {tg.t(n) for n in range(tg.N + 1)}


def dense_newton_matrix(Q, P, J, tau, theta):
    """Q/tau + theta P - theta Q blockdiag(J) of the compact operators Q and
    P as one dense (L n, L n) matrix, from StencilMatrix.to_dense."""
    L, _, n = J.shape
    P, Q = P.to_dense(), Q.to_dense()
    A = np.zeros((L, n, L, n))
    for l in range(L):
        A[l, :, l, :] = Q[l] / tau + theta * P[l]
        for m in range(L):
            A[l, :, m, :] -= theta * Q[l] * J[l, m][None, :]
    return A.reshape(L * n, L * n)


@pytest.mark.parametrize("theta", [0.4, 1.0])
@pytest.mark.parametrize("make,S", [(species_varied_problem, 10),
                                    (make_example2, 1)])
def test_compact_newton_matrix_matches_dense_oracle(make, S, theta):
    from parabolic2d.stepper import _apply_jacobian

    prob = make()
    g = build_grid(prob.X, prob.Y, 5, 4)
    sch = build_scheme(prob, g, "cfds")
    Q, P = lone_operators(prob, g, "cfds")
    assert len(np.unique(Q.planes.swapaxes(0, 1).reshape(prob.L, -1),
                         axis=0)) == S
    tau = 3.0
    rng = np.random.default_rng(61)
    J = rng.standard_normal((prob.L, prob.L, g.n_interior))
    x = rng.standard_normal((prob.L, g.n_interior))
    y = np.empty_like(x)
    _apply_jacobian(sch, J, tau, theta, x, y)
    expected = (dense_newton_matrix(Q, P, J, tau, theta)
                @ x.ravel()).reshape(x.shape)
    assert np.allclose(y, expected, rtol=1e-12,
                       atol=1e-12 * np.max(np.abs(expected)))


def test_central_newton_matrix_keeps_its_arithmetic():
    # the same bits whether J x runs here or on the helper thread
    from parabolic2d import make_example2
    from parabolic2d.krylov import matvec
    from parabolic2d.stepper import _apply_jacobian, _JxOverlap

    prob = make_example2()
    g = build_grid(prob.X, prob.Y, 6, 5)
    sch = build_scheme(prob, g, "cds")
    tau, theta = 3.0, 0.4
    rng = np.random.default_rng(67)
    J = rng.standard_normal((prob.L, prob.L, g.n_interior))
    x = rng.standard_normal((prob.L, g.n_interior))
    expected = x / tau + theta * matvec(sch, x) \
        - theta * np.einsum("lmn,mn->ln", J, x)
    y = np.empty_like(x)
    _apply_jacobian(sch, J, tau, theta, x, y)
    assert np.array_equal(y, expected)
    y = np.empty_like(x)
    with _JxOverlap() as jx:
        _apply_jacobian(sch, J, tau, theta, x, y, jx)
    assert np.array_equal(y, expected)


@pytest.mark.parametrize("kind,products", [("cds", 1), ("cfds", 1)])
def test_krylov_application_stencil_products(monkeypatch, kind, products):
    # each inner-solver application costs one stencil product: P x for cds,
    # and for cfds [Q; P] over (x/tau - theta J x, theta x)
    from parabolic2d import make_example2, stepper

    counts = {"apply": 0, "matvec": 0}
    inside = []
    real_matvec, real_bicgstab = stepper.matvec, stepper.bicgstab_l

    def matvec(A, *xs, **kwargs):
        counts["matvec"] += bool(inside)
        return real_matvec(A, *xs, **kwargs)

    def bicgstab(op, b, **kwargs):
        def apply(v, out):
            counts["apply"] += 1
            inside.append(v)
            try:
                op(v, out)
            finally:
                inside.pop()
        return real_bicgstab(apply, b, **kwargs)

    monkeypatch.setattr(stepper, "matvec", matvec)
    monkeypatch.setattr(stepper, "bicgstab_l", bicgstab)
    prob = make_example2()
    g = build_grid(prob.X, prob.Y, 6, 6)
    integrate(prob, g, build_time_grid(60.0, 2), build_scheme(prob, g, kind))
    assert counts["apply"] > 0
    assert counts["matvec"] == products * counts["apply"]


@pytest.mark.parametrize("make,S", [(species_varied_problem, 10),
                                    (make_example2, 1)])
def test_compact_application_matches_the_two_product_composition(make, S):
    # one product of [Q; P] over (x/tau - theta J x, theta x) against the
    # composition Q (x/tau - theta J x) + P (theta x) of two one-operand
    # products
    from parabolic2d.krylov import matvec
    from parabolic2d.stepper import _apply_jacobian

    prob = make()
    g = build_grid(prob.X, prob.Y, 7, 6)
    sch = build_scheme(prob, g, "cfds")
    Q, P = lone_operators(prob, g, "cfds")
    assert len(np.unique(Q.planes.swapaxes(0, 1).reshape(prob.L, -1),
                         axis=0)) == S
    tau, theta = 3.0, 0.4
    rng = np.random.default_rng(71)
    J = rng.standard_normal((prob.L, prob.L, g.n_interior))
    x = rng.standard_normal((prob.L, g.n_interior))
    y = np.empty_like(x)
    _apply_jacobian(sch, J, tau, theta, x, y)
    expected = matvec(Q, x / tau - theta * np.einsum("lmn,mn->ln", J, x)) \
        + matvec(P, theta * x)
    assert np.allclose(y, expected, rtol=0,
                       atol=1e-13 * np.max(np.abs(expected)))


def test_air_compact_small_mesh_step_counts():
    # per-step Newton iterations and Krylov cycles of an 8x8, N=4 air cfds
    # run, with each Newton application one [Q; P] product over
    # (x/tau - theta J x, theta x)
    from parabolic2d import make_example2

    prob = make_example2()
    g = build_grid(prob.X, prob.Y, 8, 8)
    _, reports = integrate(prob, g, build_time_grid(prob.T, 4),
                           build_scheme(prob, g, "cfds"), theta=0.5)
    assert [r.newton_iters for r in reports] == [3, 3, 3, 3]
    assert [r.krylov_cycles for r in reports] == [
        [4.0, 4.0, 5.0], [4.0, 4.0, 4.5], [4.5, 4.0, 4.0], [4.5, 4.0, 4.5]]


def test_air_compact_iteration_averages():
    # the benchmark's air-cfds-32 fingerprint: merging Q/tau + theta P into
    # one stencil must not move a single Krylov half-cycle
    from parabolic2d import make_example2
    from parabolic2d.stepper import average_counts

    prob = make_example2()
    g = build_grid(prob.X, prob.Y, 32, 32)
    _, reports = integrate(prob, g, build_time_grid(prob.T, 64),
                           build_scheme(prob, g, "cfds"), theta=0.5)
    assert average_counts(reports) == (2.109375, 2.6703703703703705)


def test_scheme_is_its_stack():
    # integrate takes any stencil stack as the scheme: the central P built
    # by hand gives build_scheme's field and counts bit for bit
    prob = make_example2()
    g = build_grid(prob.X, prob.Y, 8, 8)
    tg = build_time_grid(240.0, 4)
    stack = StencilMatrix.from_coeffs(g, [cds_full_stencil(prob, g)], prob.L)
    assert stack.kind == "cds"
    runs = [integrate(prob, g, tg, sch)
            for sch in (stack, build_scheme(prob, g, "cds"))]
    (W, reports), (W0, reports0) = runs
    assert np.array_equal(bits(W), bits(W0))
    assert [(r.newton_iters, r.krylov_cycles, r.final_residual)
            for r in reports] == [(r.newton_iters, r.krylov_cycles,
                                   r.final_residual) for r in reports0]


@pytest.mark.parametrize("kind,M", [
    pytest.param("cds", 6, id="cds"), pytest.param("cfds", 6, id="cfds"),
    pytest.param("cds", 40, id="cds-above-OVERLAP_MIN")])
def test_advance_holds_one_reaction_jacobian_at_a_time(monkeypatch, kind, M):
    # each Newton iteration's (L, L, n) Jacobian is freed when its inner
    # solve returns, so it is dead when the next one is requested; at 40x40
    # (L^2 n above OVERLAP_MIN) the helper thread has dropped it too
    from parabolic2d import stepper

    monkeypatch.setattr(stepper, "_cpu_count", lambda: 2)
    base = make_example2()
    refs = []

    def jacobian(*args):
        assert [r for r in refs if r() is not None] == []
        J = np.asarray(base.reaction_jacobian(*args), dtype=float)
        refs.append(weakref.ref(J))
        return J

    prob = dataclasses.replace(base, reaction_jacobian=jacobian)
    g = build_grid(prob.X, prob.Y, M, M)
    assert (prob.L ** 2 * g.n_interior >= OVERLAP_MIN) == (M == 40)
    _, reports = integrate(prob, g, build_time_grid(240.0, 4),
                           build_scheme(prob, g, kind))
    assert len(refs) == sum(r.newton_iters for r in reports) > len(reports)


def force_overlap(monkeypatch):
    """Select the J x helper thread for every central step, whatever the
    mesh and the CPUs."""
    from parabolic2d import stepper

    monkeypatch.setattr(stepper, "_cpu_count", lambda: 2)
    monkeypatch.setattr(stepper, "OVERLAP_MIN", 0)


def counting_threads(base, seen):
    """base whose reaction Jacobian appends the live thread count to seen."""
    def jacobian(*args):
        seen.append(threading.active_count())
        return base.reaction_jacobian(*args)

    return dataclasses.replace(base, reaction_jacobian=jacobian)


@pytest.mark.parametrize("kind,helpers", [("cds", 1), ("cfds", 0)])
def test_overlap_thread_lives_for_one_advance(monkeypatch, kind, helpers):
    # a central step runs one helper thread for its Newton loop and joins it
    # before it returns; a compact step, whose J x comes before its one
    # product, starts none
    force_overlap(monkeypatch)
    seen = []
    prob = counting_threads(make_example2(), seen)
    g = build_grid(prob.X, prob.Y, 6, 6)
    before = threading.active_count()
    integrate(prob, g, build_time_grid(240.0, 3), build_scheme(prob, g, kind))
    assert len(seen) > 3 and set(seen) == {before + helpers}
    assert threading.active_count() == before


def test_overlap_thread_stopped_when_a_step_fails(monkeypatch):
    # a SolverFailure raised inside the Newton loop leaves no thread behind
    force_overlap(monkeypatch)
    base, seen = make_example2(), []

    def jacobian(*args):
        seen.append(threading.active_count())
        J = np.asarray(base.reaction_jacobian(*args), dtype=float)
        return J * np.nan if len(seen) == 2 else J

    prob = dataclasses.replace(base, reaction_jacobian=jacobian)
    g = build_grid(prob.X, prob.Y, 6, 6)
    before = threading.active_count()
    with pytest.raises(SolverFailure, match="non-finite reaction Jacobian"):
        integrate(prob, g, build_time_grid(240.0, 3),
                  build_scheme(prob, g, "cds"))
    assert seen == [before + 1] * 2
    assert threading.active_count() == before


def test_overlap_thread_stopped_after_a_raise_between_handoff_and_wait(
        monkeypatch):
    # P x raises on the main thread while J x is handed off: leaving the
    # with block waits for the job before it stops the thread, so the
    # exception itself propagates (no hang, no release of an unlocked lock)
    from parabolic2d import stepper

    force_overlap(monkeypatch)

    class Interrupt(Exception):
        pass

    real_matvec, calls = stepper.matvec, []

    def matvec(A, x, **kwargs):
        calls.append(threading.active_count())
        if len(calls) == 5:     # after the residual's, inside an application
            raise Interrupt
        return real_matvec(A, x, **kwargs)

    monkeypatch.setattr(stepper, "matvec", matvec)
    prob = make_example2()
    g = build_grid(prob.X, prob.Y, 6, 6)
    before = threading.active_count()
    with pytest.raises(Interrupt):
        integrate(prob, g, build_time_grid(240.0, 3),
                  build_scheme(prob, g, "cds"))
    assert calls[-1] == before + 1
    assert threading.active_count() == before


def test_overlap_helper_exception_raised_in_the_caller(monkeypatch):
    # a J x that fails on the helper thread fails the caller, and the
    # thread is still stopped
    force_overlap(monkeypatch)
    base = make_example2()

    def jacobian(*args):    # one node too many: einsum cannot apply it
        J = np.asarray(base.reaction_jacobian(*args), dtype=float)
        return np.concatenate((J, J[..., :1]), axis=2)

    prob = dataclasses.replace(base, reaction_jacobian=jacobian)
    g = build_grid(prob.X, prob.Y, 6, 6)
    before = threading.active_count()
    with pytest.raises(ValueError) as exc:
        integrate(prob, g, build_time_grid(240.0, 3),
                  build_scheme(prob, g, "cds"))
    assert "_run" in [entry.name for entry in exc.traceback]
    assert threading.active_count() == before


def test_overlap_handoff_under_frequent_thread_switches():
    # many handoffs while the interpreter switches threads as often as it
    # can: each J x lands in its own buffer before wait returns
    import sys
    from parabolic2d.stepper import _JxOverlap

    rng = np.random.default_rng(5)
    J, xs = rng.standard_normal((3, 3, 50)), rng.standard_normal((300, 3, 50))
    outs = np.full_like(xs, np.nan)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _JxOverlap() as jx:
            for x, out in zip(xs, outs):
                jx.submit(J, x, out)
                jx.wait()
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(outs, [np.einsum("lmn,mn->ln", J, x) for x in xs])


def test_overlap_keeps_rot_central_bits(monkeypatch):
    # fast rotation, cds 48x48 (L^2 n above OVERLAP_MIN), N=4: the field,
    # per-step counts and residuals are bit for bit those of the serial
    # application, which the CPU check selects on one CPU
    from parabolic2d import stepper

    runs, seen = [], []
    prob = counting_threads(make_example2(mu=MU_FAST), seen)
    g = build_grid(prob.X, prob.Y, 48, 48)
    assert prob.L ** 2 * g.n_interior >= OVERLAP_MIN
    sch = build_scheme(prob, g, "cds")
    before = threading.active_count()
    for cpus in (2, 1):
        monkeypatch.setattr(stepper, "_cpu_count", lambda: cpus)
        seen.clear()
        W, reports = integrate(prob, g, build_time_grid(prob.T, 4), sch)
        assert set(seen) == {before + (cpus == 2)}
        runs.append((bits(W), [(r.newton_iters, r.krylov_cycles,
                                r.final_residual) for r in reports]))
    (W1, counts1), (W0, counts0) = runs
    assert np.array_equal(W1, W0)
    assert counts1 == counts0


def test_integrate_report_counts_the_step_terms():
    # the new layer's boundary data, evaluated by integrate before advance,
    # is part of the step's wall_ms, as in a plain advance call
    base = make_example1()

    def boundary(*args):
        time.sleep(0.02)
        return base.boundary(*args)

    prob = dataclasses.replace(base, boundary=boundary)
    g = build_grid(prob.X, prob.Y, 4, 4)
    _, reports = integrate(prob, g, build_time_grid(prob.T, 3),
                           build_scheme(prob, g, "cds"))
    assert [r.wall_ms >= 20.0 for r in reports] == [True] * 3
