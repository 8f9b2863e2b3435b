import dataclasses

import numpy as np
import pytest

from parabolic2d import (build_grid, build_time_grid, build_scheme, integrate,
                         make_example1, make_example2, manufactured_solution,
                         max_norm_error)
from parabolic2d.krylov import bicgstab_l
from parabolic2d.model import ProblemSpec
from parabolic2d.stepper import (SolverFailure, advance, initial_field,
                                 residual)

from test_cds import constant_problem
from test_krylov import newton_matrix_apply, species_varied_problem


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
    assert np.allclose(y, x / tau + theta * matvec(sch.P, x), rtol=1e-14)
    sch = build_scheme(prob, g, "cfds")
    y = newton_matrix_apply(sch, prob, g, tau, theta, W, x, 0.1)
    assert np.allclose(y, matvec(sch.Q, x) / tau + theta * matvec(sch.P, x),
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
    base = make_example1()
    prob = dataclasses.replace(
        base, reaction=lambda *a: calls.append(a) or base.reaction(*a),
        initial=lambda *a: calls.append(a) or base.initial(*a))
    g = build_grid(prob.X, prob.Y, 4, 4)
    sch = build_scheme(prob, g, "cds")
    with pytest.raises(error, match=option):
        integrate(prob, g, build_time_grid(prob.T, 2), sch, **{option: value})
    with pytest.raises(error, match=option):
        advance(initial_field(base, g), 0.0, sch, prob, g, 720.0, 0.5,
                **{option: value})
    assert calls == []


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
    op = lambda v: newton_matrix_apply(sch, prob, g, 720.0, 0.5, W,
                                       v.reshape(W.shape), 720.0).ravel()
    b = np.ones(W.size)
    x, rep = bicgstab_l(op, b, maxit=200, ell=2)
    x_np, rep_np = bicgstab_l(op, b, maxit=np.int64(200), ell=np.int64(2))
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


def reference_boundary_phi(sch, prob, g, tau, theta, t0, t1):
    """Phi^th from the data on the whole node array with the interior
    zeroed, applied through the full planes of P and Q, tiled to the L
    species."""
    from parabolic2d.cds import apply_full

    def product(A, w):
        planes = np.broadcast_to(A.full, (len(A.full), prob.L) + w.shape[1:])
        return apply_full(planes, w, offsets=A.offsets)[:, 1:-1, 1:-1]

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
        part = -product(sch.P, data[t])
        if sch.kind == "cfds":
            r = prob.reaction(XX, YY, t, data[t]) - rate
            if prob.forcing is not None:
                r = r + prob.forcing(XX, YY, t)
            r[:, 1:-1, 1:-1] = 0.0
            part = part + product(sch.Q, r)
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
    P = sch.P.to_dense()
    M = np.eye(g.n_interior)[None] if kind == "cds" else sch.Q.to_dense()
    phi = reference_boundary_phi(sch, prob, g, tau, theta, t_n, t_n + tau)
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


@pytest.mark.parametrize("kind", ["cds", "cfds"])
@pytest.mark.parametrize("example", ["make_example1", "make_example2"])
def test_boundary_phi_matches_full_array_reference(kind, example):
    import parabolic2d
    from parabolic2d.stepper import _boundary_phi, _layer

    prob = getattr(parabolic2d, example)()
    g = build_grid(prob.X, prob.Y, 6, 6)
    tau, theta, t0 = 7.5, 0.4, 33.0
    sch = build_scheme(prob, g, kind)
    phi = _boundary_phi(sch, g, tau, theta, _layer(sch, prob, g, t0),
                        _layer(sch, prob, g, t0 + tau))
    expected = reference_boundary_phi(sch, prob, g, tau, theta, t0, t0 + tau)
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
        W, report = advance(W, tg.t(n), sch, prob, g, tg.tau, 0.5,
                            t_next=tg.t(n + 1))
        assert report.krylov_cycles == reports[n].krylov_cycles
    assert np.array_equal(W_run, W)


@pytest.mark.parametrize("kind", ["cds", "cfds"])
def test_newton_stencil_built_once_per_integrate(kind, monkeypatch):
    from parabolic2d import make_example2, stepper
    built = []
    newton_stencil = stepper._newton_stencil
    monkeypatch.setattr(stepper, "_newton_stencil",
                        lambda *a: built.append(a) or newton_stencil(*a))
    prob = make_example2()
    g = build_grid(prob.X, prob.Y, 4, 4)
    tg = build_time_grid(30.0, 3)
    integrate(prob, g, tg, build_scheme(prob, g, kind), theta=0.5)
    assert len(built) == 1


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
                lambda v, W=W: newton_matrix_apply(
                    sch, prob, g, tau, theta, W, v.reshape(W.shape),
                    t_n + tau).ravel(),
                -ups.ravel(), tol=1e-10, ell=2, maxit=200)
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


def dense_newton_matrix(sch, J, tau, theta):
    """Q/tau + theta P - theta Q blockdiag(J) of a cfds scheme as one dense
    (L n, L n) matrix, from StencilMatrix.to_dense."""
    L, _, n = J.shape
    P, Q = sch.P.to_dense(), sch.Q.to_dense()
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
    from parabolic2d.stepper import _apply_jacobian, _newton_stencil

    prob = make()
    g = build_grid(prob.X, prob.Y, 5, 4)
    sch = build_scheme(prob, g, "cfds")
    assert len(np.unique(sch.Q.planes.swapaxes(0, 1).reshape(prob.L, -1),
                         axis=0)) == S
    tau = 3.0
    rng = np.random.default_rng(61)
    J = rng.standard_normal((prob.L, prob.L, g.n_interior))
    x = rng.standard_normal((prob.L, g.n_interior))
    y = _apply_jacobian(sch, _newton_stencil(sch, tau, theta), J, tau, theta,
                        x)
    expected = (dense_newton_matrix(sch, J, tau, theta)
                @ x.ravel()).reshape(x.shape)
    assert np.allclose(y, expected, rtol=1e-12,
                       atol=1e-12 * np.max(np.abs(expected)))


def test_central_newton_matrix_keeps_its_arithmetic():
    from parabolic2d import make_example2
    from parabolic2d.krylov import matvec
    from parabolic2d.stepper import _apply_jacobian, _newton_stencil

    prob = make_example2()
    g = build_grid(prob.X, prob.Y, 6, 5)
    sch = build_scheme(prob, g, "cds")
    tau, theta = 3.0, 0.4
    assert _newton_stencil(sch, tau, theta) is None
    rng = np.random.default_rng(67)
    J = rng.standard_normal((prob.L, prob.L, g.n_interior))
    x = rng.standard_normal((prob.L, g.n_interior))
    y = _apply_jacobian(sch, None, J, tau, theta, x)
    expected = x / tau + theta * matvec(sch.P, x) \
        - theta * np.einsum("lmn,mn->ln", J, x)
    assert np.array_equal(y, expected)


@pytest.mark.parametrize("kind,products", [("cds", 1), ("cfds", 1)])
def test_krylov_application_stencil_products(monkeypatch, kind, products):
    # each inner-solver application costs one stencil product: P x for cds,
    # and for cfds B x - theta Q (J x) from the stack [B; -theta Q]
    from parabolic2d import make_example2, stepper

    counts = {"apply": 0, "matvec": 0}
    inside = []
    real_matvec, real_bicgstab = stepper.matvec, stepper.bicgstab_l

    def matvec(A, *xs):
        counts["matvec"] += bool(inside)
        return real_matvec(A, *xs)

    def bicgstab(op, b, **kwargs):
        def apply(v):
            counts["apply"] += 1
            inside.append(v)
            try:
                return op(v)
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
    # one product of [B; -theta Q] over (x, J x) against the composition
    # B x - theta Q (J x) of two one-operand products
    from parabolic2d.krylov import matvec
    from parabolic2d.stepper import _apply_jacobian, _newton_stencil

    prob = make()
    g = build_grid(prob.X, prob.Y, 7, 6)
    sch = build_scheme(prob, g, "cfds")
    assert len(np.unique(sch.Q.planes.swapaxes(0, 1).reshape(prob.L, -1),
                         axis=0)) == S
    tau, theta = 3.0, 0.4
    rng = np.random.default_rng(71)
    J = rng.standard_normal((prob.L, prob.L, g.n_interior))
    x = rng.standard_normal((prob.L, g.n_interior))
    stack = _newton_stencil(sch, tau, theta)
    y = _apply_jacobian(sch, stack, J, tau, theta, x)
    expected = matvec(stack.operand(0), x) \
        - theta * matvec(sch.Q, np.einsum("lmn,mn->ln", J, x))
    assert np.allclose(y, expected, rtol=0,
                       atol=1e-13 * np.max(np.abs(expected)))


def test_air_compact_small_mesh_step_counts():
    # per-step Newton iterations and Krylov cycles of an 8x8, N=4 air cfds
    # run, pinned to the counts that the Krylov application and residual
    # gave as two stencil products each: fusing them moves no half-cycle
    from parabolic2d import make_example2

    prob = make_example2()
    g = build_grid(prob.X, prob.Y, 8, 8)
    _, reports = integrate(prob, g, build_time_grid(prob.T, 4),
                           build_scheme(prob, g, "cfds"), theta=0.5)
    assert [r.newton_iters for r in reports] == [3, 3, 3, 3]
    assert [r.krylov_cycles for r in reports] == [
        [4.0, 4.0, 5.0], [4.0, 4.0, 4.5], [4.5, 4.0, 4.5], [4.5, 4.0, 4.5]]


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
