import numpy as np
import pytest

from parabolic2d import build_grid, make_example1, manufactured_solution
from parabolic2d.cds import StencilMatrix
from parabolic2d.cfds import cfds_full_stencils, compact_coefficients
from parabolic2d.krylov import matvec
from parabolic2d.model import MU_STANDARD

from test_cds import constant_problem, fold


def test_constant_coefficient_invariants():
    K = 1.8
    g = build_grid(1.0, 1.0, 6, 6)
    cc = compact_coefficients(constant_problem(a=K, b=K), g)
    assert np.allclose(cc.a_tilde, 0) and np.allclose(cc.b_tilde, 0)
    assert np.allclose(cc.alpha, K) and np.allclose(cc.beta, K)
    for f in (cc.alpha_tilde, cc.beta_tilde, cc.theta, cc.theta_tilde,
              cc.gamma_tilde):
        assert np.allclose(f, 0.0)
    assert np.allclose(cc.gamma, K * (g.hx ** 2 + g.hy ** 2) / 12.0)


def test_wind_a_tilde_is_advection_over_diffusion():
    prob = make_example1()
    g = build_grid(prob.X, prob.Y, 8, 8)
    cc = compact_coefficients(prob, g)
    _, YY = g.interior_mesh()
    expected = MU_STANDARD * (YY - prob.Y / 2.0) / 1.8
    assert cc.a_tilde.shape == (1,) + YY.shape
    assert np.allclose(cc.a_tilde[0], expected, rtol=1e-13)


def test_gamma_value_equal_spacing():
    g = build_grid(1.0, 1.0, 4, 4)
    cc = compact_coefficients(constant_problem(a=1.8, b=1.8), g)
    assert np.allclose(cc.gamma, 1.8 * g.hx ** 2 / 6.0)


def test_classical_compact_laplacian_stencil():
    # constant a=b=1, square cells: P/1 has center 20, edges -4, corners -1
    g = build_grid(1.0, 1.0, 5, 5)
    P, _ = cfds_full_stencils(constant_problem(), g)
    c = P[0, :, :, 2, 2] / (6 * g.hx ** 2) * 6 * g.hx ** 2  # raw scaled entries
    assert c[1, 1] == pytest.approx(20.0)
    for k1, k2 in [(0, 1), (2, 1), (1, 0), (1, 2)]:
        assert c[k1, k2] == pytest.approx(-4.0)
    for k1 in (0, 2):
        for k2 in (0, 2):
            assert c[k1, k2] == pytest.approx(-1.0)


def test_classical_compact_mass_stencil():
    g = build_grid(1.0, 1.0, 5, 5)
    _, Q = cfds_full_stencils(constant_problem(), g)
    w = Q[0, :, :, 2, 2] / (6 * g.hx ** 2)
    assert w[1, 1] == pytest.approx(2.0 / 3.0)
    for k1, k2 in [(0, 1), (2, 1), (1, 0), (1, 2)]:
        assert w[k1, k2] == pytest.approx(1.0 / 12.0)


def test_q_corners_zero_and_row_sums_exact():
    prob = make_example1()
    g = build_grid(prob.X, prob.Y, 9, 6)
    _, Q = cfds_full_stencils(prob, g)
    for k1 in (0, 2):
        for k2 in (0, 2):
            assert np.all(Q[:, k1, k2] == 0.0)
    assert np.allclose(Q.sum(axis=(1, 2)), 6 * g.hx ** 2, rtol=1e-15)


def test_p_row_sums_vanish():
    prob = make_example1()
    g = build_grid(prob.X, prob.Y, 8, 8)
    P, _ = cfds_full_stencils(prob, g)
    assert np.allclose(P.sum(axis=(1, 2)), 0.0,
                       atol=1e-12 * np.max(np.abs(P)))


def test_boundary_vectors_zero_for_zero_data():
    prob = constant_problem(a=1.8, b=1.8, boundary=0.0)
    g = build_grid(1.0, 1.0, 6, 6)
    assert np.all(fold(prob, g, "cfds", 0.0) == 0.0)


def test_boundary_vectors_footprint():
    from parabolic2d import make_example2
    prob = make_example2()
    g = build_grid(prob.X, prob.Y, 8, 8)
    phi = fold(prob, g, "cfds", 0.0)[0]
    inner = phi.reshape(g.ny, g.nx)[1:-1, 1:-1]
    assert np.all(inner == 0.0)
    assert np.any(phi != 0.0)


def test_semidiscrete_identity_fourth_order():
    # P u - Q (r - du/dt) must equal the boundary fold Phi up to O(h^4)
    # after unscaling by 6 hx^2, on the manufactured solution at a frozen
    # time (the solution and its time derivative vanish on the boundary)
    prob = make_example1()
    X, Y, T = prob.X, prob.Y, prob.T
    t = 360.0
    errs = []
    for M in (8, 16, 32):
        g = build_grid(X, Y, M, M)
        XX, YY = g.interior_mesh()
        u = manufactured_solution(XX, YY, t).ravel()
        u_t = -u / T
        uvec = np.broadcast_to(u, (prob.L,) + u.shape)
        xi = prob.forcing(XX.ravel(), YY.ravel(), t)[0]
        r = prob.reaction(XX.ravel(), YY.ravel(), t, uvec)[0] + xi
        P, Q = (StencilMatrix.from_coeffs(g, [c], 1)
                for c in cfds_full_stencils(prob, g))
        phi = fold(prob, g, "cfds", t)[0]
        res = matvec(P, u[None])[0] - matvec(Q, (r - u_t)[None])[0] - phi
        errs.append(np.max(np.abs(res)) / (6 * g.hx ** 2))
    orders = [np.log2(errs[i - 1] / errs[i]) for i in (1, 2)]
    assert all(3.6 <= o <= 4.4 for o in orders), (errs, orders)


def test_division_by_vanishing_diffusion_reported():
    with pytest.raises(ValueError, match="diffusion"):
        compact_coefficients(constant_problem(a=0.0), build_grid(1, 1, 4, 4))


def test_compact_coefficients_evaluated_once_per_stencil_pair(monkeypatch):
    from parabolic2d import cfds, make_example2
    from parabolic2d.stepper import build_scheme
    calls = []
    original = cfds.compact_coefficients

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cfds, "compact_coefficients", counted)
    prob = make_example2()
    g = build_grid(prob.X, prob.Y, 6, 6)
    build_scheme(prob, g, "cfds")
    assert calls == [(prob, g)]   # one evaluation for every species


def test_cfds_fold_evaluates_reaction_on_the_ring_only():
    import dataclasses
    from parabolic2d import make_example2
    base = make_example2()
    shapes = []

    def reaction(x, y, t, u):
        shapes.append((np.shape(x), np.shape(y), np.shape(u)))
        return base.reaction(x, y, t, u)

    prob = dataclasses.replace(base, reaction=reaction)
    g = build_grid(prob.X, prob.Y, 7, 5)
    fold(prob, g, "cfds", 30.0)
    assert shapes == [((24,), (24,), (prob.L, 24))]
