import numpy as np
import pytest

from parabolic2d import (MU_STANDARD, build_grid, make_example1, make_example2,
                         manufactured_solution, rotational_wind)
from parabolic2d.model import (EXAMPLE2_INITIAL, check_compatibility,
                               species_field)


def test_wind_stagnates_at_center():
    c, d = rotational_wind(250.0, 250.0, MU_STANDARD)
    assert c == 0.0 and d == 0.0


def test_wind_midpoint_of_top_edge():
    c, d = rotational_wind(250.0, 500.0, 2 * np.pi / 86400.0)
    assert c == pytest.approx(1.81805e-2, rel=1e-4)
    assert d == 0.0


def test_wind_antisymmetry():
    rng = np.random.default_rng(2)
    for _ in range(20):
        dx, dy = rng.uniform(-200, 200, size=2)
        cp, dp = rotational_wind(250 + dx, 250 + dy, MU_STANDARD)
        cm, dm = rotational_wind(250 - dx, 250 - dy, MU_STANDARD)
        assert cp == pytest.approx(-cm, abs=1e-15)
        assert dp == pytest.approx(-dm, abs=1e-15)


def test_manufactured_solution_values():
    assert manufactured_solution(250, 250, 0) == pytest.approx(1.0)
    assert manufactured_solution(0.0, 123.4, 7.0) == 0.0
    assert manufactured_solution(321.0, 500.0, 7.0) == pytest.approx(0.0, abs=1e-15)
    assert manufactured_solution(250, 250, 1440) == pytest.approx(
        np.exp(-1.0), rel=1e-12)
    assert manufactured_solution(250, 250, 1440) == pytest.approx(
        0.3678794, rel=1e-6)


def _fd_pde_residual(prob, l, x, y, t):
    """PDE residual of the manufactured problem via finite differences of the
    exact solution; fully independent of the hand-derived forcing."""
    X, Y, T = prob.X, prob.Y, prob.T
    u = manufactured_solution
    dx, dy, dt = 1e-4 * X, 1e-4 * Y, 1e-4 * T
    u_t = (u(x, y, t + dt) - u(x, y, t - dt)) / (2 * dt)
    u_x = (u(x + dx, y, t) - u(x - dx, y, t)) / (2 * dx)
    u_y = (u(x, y + dy, t) - u(x, y - dy, t)) / (2 * dy)
    u_xx = (u(x + dx, y, t) - 2 * u(x, y, t) + u(x - dx, y, t)) / dx ** 2
    u_yy = (u(x, y + dy, t) - 2 * u(x, y, t) + u(x, y - dy, t)) / dy ** 2
    K = prob.diffusion_a(np.asarray(x), np.asarray(y))
    c = prob.advection_c(np.asarray(x), np.asarray(y))
    d = prob.advection_d(np.asarray(x), np.asarray(y))
    uvec = np.broadcast_to(u(x, y, t), (prob.L,))
    R = prob.reaction(np.asarray(x), np.asarray(y), t, uvec)[l]
    xi = prob.forcing(np.asarray(x), np.asarray(y), t)[l]
    return u_t - K * u_xx - K * u_yy + c * u_x + d * u_y - R - xi


def test_forcing_closes_the_pde():
    prob = make_example1()
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        x, y = rng.uniform(50, 450, size=2)
        t = rng.uniform(10, 1430)
        l = rng.integers(0, 10)
        worst = max(worst, abs(float(_fd_pde_residual(prob, l, x, y, t))))
    assert worst < 1e-10


def test_forcing_at_center_has_no_advection_part():
    prob = make_example1()
    x = y = 250.0
    t = 100.0
    u = manufactured_solution(x, y, t)
    K = 1.8
    expected_lin = u * (-1.0 / prob.T + K * np.pi ** 2 *
                        (1 / prob.X ** 2 + 1 / prob.Y ** 2))
    uvec = np.broadcast_to(u, (10,))
    for l in range(10):
        R = prob.reaction(np.asarray(x), np.asarray(y), t, uvec)[l]
        assert prob.forcing(x, y, t)[l] == pytest.approx(expected_lin - R, rel=1e-12)


def test_forcing_returns_every_species_at_once():
    prob = make_example1()
    assert prob.forcing(250.0, 100.0, 77.0).shape == (prob.L,)
    x, y = np.meshgrid(np.linspace(0, 500, 4), np.linspace(0, 500, 3))
    F = prob.forcing(x, y, 77.0)
    assert F.shape == (prob.L, 3, 4)
    assert np.array_equal(F.reshape(prob.L, -1),
                          prob.forcing(x.ravel(), y.ravel(), 77.0))


def test_forcing_vanishes_at_corners():
    # at the four corners the solution and all its first derivatives vanish,
    # so the source reduces to -R_l(0) = 0
    prob = make_example1()
    for (x, y) in [(0, 0), (500, 0), (0, 500), (500, 500)]:
        for l in (0, 4, 9):
            assert abs(float(prob.forcing(float(x), float(y), 77.0)[l])) < 1e-18


def test_example1_boundary_is_homogeneous():
    prob = make_example1()
    xs = np.linspace(0, 500, 11)
    assert np.all(prob.boundary(xs, np.zeros_like(xs), 123.0) == 0)


def test_example1_rejects_bad_cos_theta():
    with pytest.raises(ValueError):
        make_example1(cos_theta=0.0)
    with pytest.raises(ValueError):
        make_example2(cos_theta=-1.0)


@pytest.mark.parametrize("mu", [float("nan"), float("inf"), -float("inf")])
def test_example2_rejects_nonfinite_mu(mu):
    with pytest.raises(ValueError, match="mu must be finite"):
        make_example2(mu=mu)


@pytest.mark.parametrize("mu", [True, np.True_])
def test_example2_rejects_bool_mu(mu):
    # a bool would pass the finiteness check as a wind of rate 1
    with pytest.raises(ValueError, match="mu must be finite"):
        make_example2(mu=mu)


def test_example2_initial_values():
    prob = make_example2()
    xs = np.linspace(0, 500, 7)
    u0 = prob.initial(xs, xs)
    assert u0.shape == (10, 7)
    assert np.all(u0[0] == 1000.0)
    assert np.all(u0[3] == 5000.0)
    assert np.all(u0[9] == 1e-11)
    assert prob.initial(np.array(1.0), np.array(1.0)).shape == (10,)
    assert np.all(prob.initial(np.array(1.0), np.array(1.0)) >= 0)


def grid_and_ring_data(prob, M):
    """An M x M grid of prob and the boundary data at t=0 on its ring."""
    grid = build_grid(prob.X, prob.Y, M, M)
    _, (x, y) = grid.boundary_ring
    return grid, species_field("boundary", prob.boundary(x, y, 0.0), prob.L,
                               x.shape)


def test_example2_compatibility():
    prob = make_example2()
    check_compatibility(prob, *grid_and_ring_data(prob, 8))
    b = prob.boundary(np.array([0.0, 250.0]), np.array([0.0, 0.0]), 0.0)
    p = prob.initial(np.array([0.0, 250.0]), np.array([0.0, 0.0]))
    assert b.shape == p.shape == (10, 2)
    assert np.allclose(b, p, rtol=1e-12)


def test_example2_boundary_signal_per_species():
    # one call gives every species' periodic signal on the whole ring
    prob = make_example2()
    x = np.array([0.0, 125.0, 500.0])
    b = prob.boundary(x, np.zeros_like(x), 77.0)
    assert b.shape == (10, 3)
    assert np.array_equal(b[4], np.full(3, 2500.0 * (np.sin(77.0 / 4.0) + 2)))


def per_species(values):
    """A callable of (x, y) giving species l the constant values[l]."""
    return lambda x, y: np.multiply.outer(values, np.ones(np.shape(x)))


def constant(value):
    """A species-free callable of (x, y) or (x, y, t)."""
    return lambda x, y, *t: np.full(np.shape(x), value)


U0 = np.array(EXAMPLE2_INITIAL)


@pytest.mark.parametrize("boundary,initial,species", [
    # per-species data, species 6 off by half
    (lambda x, y, t: per_species(U0)(x, y),
     per_species(np.where(np.arange(10) == 6, 1.5 * U0, U0)), 6),
    # one boundary value for every species, per-species initial data: the
    # first species whose initial value is not 1000 is species 3
    (constant(1000.0), per_species(U0), 3),
    # species-free data on both sides: the first species is named
    (constant(1.0), constant(2.0), 0),
])
def test_compatibility_error_names_the_species(boundary, initial, species):
    import dataclasses
    prob = dataclasses.replace(make_example2(), boundary=boundary,
                               initial=initial)
    with pytest.raises(ValueError, match=rf"^species {species}: boundary"):
        check_compatibility(prob, *grid_and_ring_data(prob, 4))
