import numpy as np
import pytest

from parabolic2d import boundary_fold, build_grid, build_scheme, make_example1
from parabolic2d.cds import (OFFSETS, StencilMatrix, apply_full,
                             cds_full_stencil, product_plan)
from parabolic2d.cfds import cfds_full_stencils
from parabolic2d.model import ProblemSpec


def constant_problem(a=1.0, b=1.0, c=0.0, d=0.0, boundary=0.0):
    def f(v):
        return lambda x, y: np.full(np.shape(x), v)
    def zero_reaction(x, y, t, u):
        return np.zeros_like(np.asarray(u, float))
    def zero_jac(x, y, t, u):
        u = np.asarray(u, float)
        return np.zeros((u.shape[0], u.shape[0]) + u.shape[1:])
    return ProblemSpec(
        L=1, diffusion_a=f(a), diffusion_b=f(b), advection_c=f(c),
        advection_d=f(d), reaction=zero_reaction, reaction_jacobian=zero_jac,
        boundary=lambda x, y, t: np.full(np.shape(x), boundary),
        initial=lambda x, y: np.full(np.shape(x), boundary),
        X=1.0, Y=1.0, T=1.0)


def lone_operators(prob, g, kind):
    """The operators of the scheme `kind` for prob.L species, each built
    alone as a one-operand stack, in the operand order of the scheme's
    stack: (P,) for "cds", (Q, P) for "cfds"."""
    coeffs = ([cds_full_stencil(prob, g)] if kind == "cds"
              else cfds_full_stencils(prob, g))
    return tuple(StencilMatrix.from_coeffs(g, [c], prob.L) for c in coeffs)


def ring_data(prob, g, t):
    """Dirichlet data of every species on g's boundary ring, (L, 2(Mx+My))."""
    _, (x, y) = g.boundary_ring()
    return np.broadcast_to(prob.boundary(x, y, t),
                           (prob.L,) + x.shape).astype(float)


def fold(prob, g, kind, t):
    """boundary_fold of the whole problem at t."""
    return boundary_fold(build_scheme(prob, g, kind), prob, g, t,
                         ring_data(prob, g, t))


def cds_operator(prob, g):
    """The operator shared by every species of prob, a stack with L = 1."""
    return StencilMatrix.from_coeffs(g, [cds_full_stencil(prob, g)], 1)


def test_discrete_laplacian_stencil():
    g = build_grid(1.0, 1.0, 5, 5)
    h = g.hx
    # interior node away from the boundary
    c = cds_full_stencil(constant_problem(), g)[0, :, :, 2, 2]
    assert c[1, 1] == pytest.approx(4 / h ** 2)
    assert c[0, 1] == pytest.approx(-1 / h ** 2)
    assert c[2, 1] == pytest.approx(-1 / h ** 2)
    assert c[1, 0] == pytest.approx(-1 / h ** 2)
    assert c[1, 2] == pytest.approx(-1 / h ** 2)


def test_advection_entry_value():
    # hx = 0.5, a = 1, c = 1: east coefficient = c/(2hx) - a/hx^2 = -3
    g = build_grid(2.0, 2.0, 4, 4)
    c = cds_full_stencil(constant_problem(a=1.0, c=1.0), g)
    assert c[0, 2, 1, 1, 1] == pytest.approx(-3.0)


def test_corner_offsets_zero():
    prob = make_example1()
    g = build_grid(prob.X, prob.Y, 6, 6)
    c = cds_full_stencil(prob, g)[0]
    for k1 in (0, 2):
        for k2 in (0, 2):
            assert np.all(c[k1, k2] == 0.0)


def species_varied(prob):
    """prob with a and c scaled per species: c by 1 - l/2, so that species 2
    has signed zeros and the later ones a reversed wind."""
    import dataclasses
    scale = np.arange(prob.L)[:, None, None]

    def a(x, y):
        return (1 + scale / 10) * prob.diffusion_a(x, y)

    def c(x, y):
        return (1 - scale / 2) * prob.advection_c(x, y)

    return dataclasses.replace(prob, diffusion_a=a, advection_c=c)


@pytest.mark.parametrize("M", [(6, 5), (12, 24)])
@pytest.mark.parametrize("name", ["example1", "example2", "species-varied"])
def test_central_stencil_is_the_hand_written_entries(name, M):
    # the five entry formulas of the 5-point operator, bit for bit and with
    # signed zeros, from the exact-divisor composer
    from parabolic2d import make_example2
    from parabolic2d.cds import coefficient_fields
    prob = {"example1": make_example1, "example2": make_example2,
            "species-varied": lambda: species_varied(make_example2())}[name]()
    g = build_grid(prob.X, prob.Y, *M)
    a, b, c, d = (f[:, 1:-1, 1:-1] for f in coefficient_fields(prob, g))
    hx, hy = g.hx, g.hy
    expected = np.zeros((len(a), 3, 3, g.ny, g.nx))
    expected[:, 2, 1] = c / (2 * hx) - a / hx ** 2
    expected[:, 0, 1] = -c / (2 * hx) - a / hx ** 2
    expected[:, 1, 2] = d / (2 * hy) - b / hy ** 2
    expected[:, 1, 0] = -d / (2 * hy) - b / hy ** 2
    expected[:, 1, 1] = 2 * a / hx ** 2 + 2 * b / hy ** 2
    got = cds_full_stencil(prob, g)
    assert got.shape == expected.shape == ((prob.L if name == "species-varied"
                                            else 1), 3, 3, M[1] - 1, M[0] - 1)
    assert got.tobytes() == expected.tobytes()


def test_row_sums_vanish_in_full_interior():
    prob = make_example1()
    g = build_grid(prob.X, prob.Y, 8, 8)
    c = cds_full_stencil(prob, g)[0]
    rs = c.sum(axis=(0, 1))   # boundary coefficients included
    assert np.allclose(rs[1:-1, 1:-1], 0.0, atol=1e-14 * np.max(np.abs(c)))


def test_rejects_nonpositive_diffusion():
    bad = constant_problem(a=0.0)
    with pytest.raises(ValueError, match="diffusion"):
        cds_full_stencil(bad, build_grid(1, 1, 4, 4))


@pytest.mark.parametrize("species_axis", [False, True])
def test_nonpositive_diffusion_names_species_and_node(species_axis):
    # b dips to -1 at the node (i=3, j=1) of a 5x4 mesh on the unit square,
    # for every species (no species axis) or for species 2 of 3 only
    import dataclasses
    grid = build_grid(1.0, 1.0, 5, 4)

    def diffusion_b(x, y):
        dip = np.where(np.isclose(x, 0.6) & np.isclose(y, 0.25), -1.0, 1.0)
        return np.stack([np.ones_like(dip), np.ones_like(dip), dip]) \
            if species_axis else dip

    prob = dataclasses.replace(constant_problem(), L=3,
                               diffusion_b=diffusion_b)
    species = 2 if species_axis else 0
    match = (rf"^species {species}: diffusion coefficient b nonpositive at "
             r"node \(i=3, j=1\), value -1.000e\+00$")
    for kind in ("cds", "cfds"):
        with pytest.raises(ValueError, match=match):
            build_scheme(prob, grid, kind)


@pytest.mark.parametrize("kind", ["cds", "cfds"])
def test_nonfinite_coefficient_names_coefficient_species_and_node(kind):
    # a NaN a everywhere, or an infinite c at node (i=3, j=1) of species 1
    # of 3, is named where the scheme is built, not as a solver failure
    import dataclasses
    grid = build_grid(1.0, 1.0, 5, 4)

    def advection_c(x, y):
        spike = np.where(np.isclose(x, 0.6) & np.isclose(y, 0.25), np.inf, 0.0)
        return np.stack([np.zeros_like(spike), spike, spike])

    for prob, match in [
            (constant_problem(a=np.nan), r"^species 0: coefficient a not "
             r"finite at node \(i=0, j=0\), value nan$"),
            (dataclasses.replace(constant_problem(), L=3,
                                 advection_c=advection_c),
             r"^species 1: coefficient c not finite at node \(i=3, j=1\), "
             r"value inf$")]:
        with pytest.raises(ValueError, match=match):
            build_scheme(prob, grid, kind)


@pytest.mark.parametrize("name", ["diffusion_a", "advection_d", "boundary",
                                  "initial"])
def test_species_axis_neither_one_nor_L_rejected(name):
    # L = 3, but the callable returns 2 species
    import dataclasses
    from parabolic2d import build_time_grid, integrate
    base = dataclasses.replace(constant_problem(), L=3)
    prob = dataclasses.replace(base, **{name: lambda x, y, *t: np.ones(
        (2,) + np.shape(x))})
    g = build_grid(1.0, 1.0, 4, 4)
    with pytest.raises(ValueError, match=rf"^{name}: result of shape \(2, "):
        integrate(prob, g, build_time_grid(1.0, 1),
                  build_scheme(prob, g, "cds"))


def test_boundary_vector_homogeneous_is_zero():
    prob = make_example1()
    g = build_grid(prob.X, prob.Y, 6, 6)
    assert np.all(fold(prob, g, "cds", 57.0) == 0.0)


def test_boundary_vector_single_interior_node():
    gval = 3.5
    prob = constant_problem(boundary=gval)
    g = build_grid(1.0, 1.0, 2, 2)
    phi = fold(prob, g, "cds", 0.0)[0]
    assert phi.shape == (1,)
    assert phi[0] == pytest.approx(gval * (2 / g.hx ** 2 + 2 / g.hy ** 2))


def test_linear_boundary_data_exactness():
    # u = x solves -lap u = 0; P u - Phi must vanish on nodal values of x
    def f(v):
        return lambda x, y: np.full(np.shape(x), v)
    prob = constant_problem()
    prob = ProblemSpec(
        L=1, diffusion_a=f(1.0), diffusion_b=f(1.0), advection_c=f(0.0),
        advection_d=f(0.0), reaction=prob.reaction,
        reaction_jacobian=prob.reaction_jacobian,
        boundary=lambda x, y, t: np.asarray(x, float).copy(),
        initial=lambda x, y: np.asarray(x, float).copy(),
        X=1.0, Y=1.0, T=1.0)
    g = build_grid(1.0, 1.0, 7, 5)
    A = cds_operator(prob, g)
    XX, _ = g.interior_mesh()
    u = XX.ravel()
    from parabolic2d.krylov import matvec
    res = matvec(A, u[None])[0] - fold(prob, g, "cds", 0.0)[0]
    assert np.max(np.abs(res)) < 1e-12


def test_consistency_second_order():
    # apply (P u - Phi) to the nodal sine product and compare with the
    # analytic -a lap u + c u_x + d u_y; the gap must shrink at O(h^2)
    prob = make_example1()
    X, Y = prob.X, prob.Y
    errs = []
    from parabolic2d.krylov import matvec
    for M in (8, 16, 32):
        g = build_grid(X, Y, M, M)
        XX, YY = g.interior_mesh()
        u = np.sin(np.pi * XX / X) * np.sin(np.pi * YY / Y)
        A = cds_operator(prob, g)
        lhs = matvec(A, u.ravel()[None])[0] - fold(prob, g, "cds", 0.0)[0]
        K = 1.8
        lap = -(np.pi ** 2) * (1 / X ** 2 + 1 / Y ** 2) * u
        ux = (np.pi / X) * np.cos(np.pi * XX / X) * np.sin(np.pi * YY / Y)
        uy = (np.pi / Y) * np.sin(np.pi * XX / X) * np.cos(np.pi * YY / Y)
        c = prob.advection_c(XX, YY)
        d = prob.advection_d(XX, YY)
        target = (-K * lap + c * ux + d * uy).ravel()
        errs.append(np.max(np.abs(lhs - target)))
    orders = [np.log2(errs[i - 1] / errs[i]) for i in (1, 2)]
    assert all(1.9 <= o <= 2.1 for o in orders), orders


def test_apply_full_matches_boundary_ring_definition():
    from parabolic2d import make_example2
    prob = make_example2()
    g = build_grid(prob.X, prob.Y, 5, 5)
    (j, i), _ = g.boundary_ring()
    ring = np.zeros((g.My + 1, g.Mx + 1))
    ring[j, i] = ring_data(prob, g, 3.0)[2]
    full = cds_full_stencil(prob, g)[0]   # shared by every species
    phi = fold(prob, g, "cds", 3.0)[2]
    assert np.any(phi != 0.0)
    # the padded-window sum of the full stencil over the ring data
    window = sum(full[k1 + 1, k2 + 1] * ring[1 + k2:g.My + k2, 1 + k1:g.Mx + k1]
                 for k1, k2 in OFFSETS)
    assert np.allclose(phi, -window.ravel())


def test_zero_plane_skip_matches_full_sum():
    prob = make_example1()
    g = build_grid(prob.X, prob.Y, 7, 6)
    w = np.random.default_rng(12).standard_normal((prob.L, g.ny, g.nx))
    ops = lone_operators(prob, g, "cds") + lone_operators(prob, g, "cfds")
    for A, live in zip(ops, (5, 5, 9)):
        assert len(A.offsets) == live
        every = np.zeros((len(OFFSETS),) + A.planes.shape[1:])
        for plane, (k1, k2, _) in zip(A.planes, A.offsets):
            every[OFFSETS.index((k1, k2))] = plane
        nine = [(k1, k2, 0) for k1, k2 in OFFSETS]
        assert np.array_equal(
            apply_full(A.planes, w, plan=A.plan),
            apply_full(every, w, plan=product_plan(nine, w.shape)))
