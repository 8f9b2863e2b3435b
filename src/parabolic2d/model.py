"""Problem definitions for L-species weakly coupled semilinear parabolic systems.

A problem is

    du_l/dt - a_l u_xx - b_l u_yy + c_l u_x + d_l u_y = R_l(x,y,t,u) [+ xi_l],

on [0,X] x [0,Y] x (0,T] with Dirichlet boundary data and initial data.
All callables broadcast over numpy coordinate arrays and return every
species at once, species axis first, shape (L, ...).  A coefficient,
boundary or initial result without a species axis (or with one of length
1) holds for every species: it broadcasts to (L, ...).

Two ready-made problems are provided:

* make_example1: a manufactured-solution verification problem: 10 identical
  equations whose forcing xi_l is chosen so that the exact solution is
  exp(-t/T) sin(pi x/X) sin(pi y/Y) for every species.
* make_example2: the air-pollution transport model: rotational wind, the
  10-species chemistry, constant initial concentrations and periodic-in-time
  boundary data compatible with them.

Both take only the parameters the paper varies: cos_theta of the solar
zenith angle and (make_example2) the wind rate mu.  The domain, final time,
diffusion, rotation centre and boundary period are module constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import airchem
from .grid import Grid2D, is_bool

DEFAULT_X = 500.0      # domain side, km
DEFAULT_Y = 500.0
DEFAULT_T = 1440.0     # final time, min
DEFAULT_K = 1.8        # diffusion, km^2/min
MU_STANDARD = 2.0 * math.pi / (60.0 * DEFAULT_T)
MU_FAST = 2.0 * math.pi / DEFAULT_T   # one turn over [0, T]

# initial concentrations, mol/km^3, species order as in airchem.SPECIES
EXAMPLE2_INITIAL = (1e3, 1e3, 1e3, 5e3, 5e3, 1e2, 1e-2, 1e-2, 1e-3, 1e-11)


def rotational_wind(x, y, mu: float):
    """Velocity components (c, d) = (mu*(y - yc), mu*(xc - x)) of the
    rotation at angular rate mu about the domain centre (xc, yc)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return mu * (y - DEFAULT_Y / 2.0), mu * (DEFAULT_X / 2.0 - x)


@dataclass(frozen=True)
class ProblemSpec:
    """An L-species problem: coefficients, reaction map, boundary/initial data.

    Every callable returns all species at once, species axis first, for
    coordinate arrays x, y of one shape; a coefficient, boundary or initial
    result without a species axis holds for every species:
        diffusion_a(x, y), diffusion_b(x, y)   -> positive fields
        advection_c(x, y), advection_d(x, y)
        reaction(x, y, t, u)          u: (L, ...) -> (L, ...)
        reaction_jacobian(x, y, t, u) -> (L, L, ...)
        forcing(x, y, t)              -> (L, ...), manufactured problems only
        boundary(x, y, t), initial(x, y)
    """

    L: int
    diffusion_a: Callable
    diffusion_b: Callable
    advection_c: Callable
    advection_d: Callable
    reaction: Callable
    reaction_jacobian: Callable
    boundary: Callable
    initial: Callable
    forcing: Optional[Callable] = None
    X: float = DEFAULT_X
    Y: float = DEFAULT_Y
    T: float = DEFAULT_T


def species_field(what: str, value, L: int, shape: tuple) -> np.ndarray:
    """The result `value` of the callable `what` as an (S,) + shape array:
    S = L for a leading species axis of length L, else S = 1, a result that
    holds for every species.  ValueError if it does not broadcast to that."""
    v = np.asarray(value, dtype=float)
    S = L if v.ndim > len(shape) and len(v) == L else 1
    try:
        return np.broadcast_to(v, (S,) + shape)
    except ValueError:
        raise ValueError(f"{what}: result of shape {v.shape} does not "
                         f"broadcast to (1 or L={L},) + {shape}") from None


def manufactured_solution(x, y, t):
    """exp(-t/T) sin(pi x/X) sin(pi y/Y); identical for every species."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return np.exp(-np.asarray(t, dtype=float) / DEFAULT_T) \
        * np.sin(np.pi * x / DEFAULT_X) * np.sin(np.pi * y / DEFAULT_Y)


def manufactured_forcing(x, y, t, *, mu: float, rates: airchem.RateSet):
    """Sources xi of all species, shape (L, ...), that make the manufactured
    solution solve the full system.

    Closed form of u_t - K lap(u) + c u_x + d u_y - R(u,...,u) at the
    exact solution, whose species-independent part is computed once: with
    s = sin(pi x/X) sin(pi y/Y) and e = exp(-t/T),

        u    = e s,                u_t = -u/T,
        lap u = -pi^2 (1/X^2 + 1/Y^2) u,
        u_x  = e (pi/X) cos(pi x/X) sin(pi y/Y),
        u_y  = e (pi/Y) sin(pi x/X) cos(pi y/Y).
    """
    X, Y, T, K = DEFAULT_X, DEFAULT_Y, DEFAULT_T, DEFAULT_K
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    e = np.exp(-np.asarray(t, dtype=float) / T)
    sx = np.sin(np.pi * x / X)
    sy = np.sin(np.pi * y / Y)
    u = e * sx * sy
    u_t = -u / T
    lap = -(np.pi ** 2) * (1.0 / X ** 2 + 1.0 / Y ** 2) * u
    u_x = e * (np.pi / X) * np.cos(np.pi * x / X) * sy
    u_y = e * (np.pi / Y) * sx * np.cos(np.pi * y / Y)
    c, d = rotational_wind(x, y, mu)
    uvec = np.broadcast_to(u, (airchem.N_SPECIES,) + np.shape(u))
    R = airchem.reaction_rates(uvec, rates)
    return (u_t - K * lap + c * u_x + d * u_y) - R


def _wind_and_chemistry(cos_theta: float, mu: float):
    """(fields, rates): the ProblemSpec fields shared by both examples (L=10,
    constant diffusion, rotational wind of rate mu about the domain centre,
    the chemistry's reaction map and Jacobian) and the rate set."""
    if is_bool(mu) or not np.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    rates = airchem.rate_coefficients(cos_theta)

    def diffusion(x, y):
        return np.full(np.shape(x), DEFAULT_K)
    return dict(
        L=airchem.N_SPECIES, diffusion_a=diffusion, diffusion_b=diffusion,
        advection_c=lambda x, y: rotational_wind(x, y, mu)[0],
        advection_d=lambda x, y: rotational_wind(x, y, mu)[1],
        reaction=lambda x, y, t, u: airchem.reaction_rates(u, rates),
        reaction_jacobian=lambda x, y, t, u: airchem.reaction_jacobian(
            u, rates)), rates


def make_example1(cos_theta: float = 1.0) -> ProblemSpec:
    """Manufactured-solution problem: L=10, constant diffusion, rotational wind,
    full chemistry plus the compensating forcing, homogeneous Dirichlet data."""
    fields, rates = _wind_and_chemistry(cos_theta, MU_STANDARD)
    return ProblemSpec(
        **fields,
        boundary=lambda x, y, t: np.zeros(np.shape(x)),
        initial=lambda x, y: manufactured_solution(x, y, 0.0),
        forcing=lambda x, y, t: manufactured_forcing(
            x, y, t, mu=MU_STANDARD, rates=rates))


def make_example2(cos_theta: float = 1.0,
                  mu: float = MU_STANDARD) -> ProblemSpec:
    """Air-pollution transport model with the 10-species chemistry.

    Initial data are the constant concentrations EXAMPLE2_INITIAL; the
    boundary signal is const_l*(sin(t/4)+2) with const_l = u0_l/2, the unique
    amplitude for which boundary and initial data agree at t=0.
    """
    fields, _ = _wind_and_chemistry(cos_theta, mu)
    u0 = np.asarray(EXAMPLE2_INITIAL, dtype=float)
    consts = u0 / 2.0
    return ProblemSpec(
        **fields,
        boundary=lambda x, y, t: np.multiply.outer(
            airchem.boundary_signal(t, consts), np.ones(np.shape(x))),
        initial=lambda x, y: np.multiply.outer(u0, np.ones(np.shape(x))))


def check_compatibility(problem: ProblemSpec, grid: Grid2D,
                        g: np.ndarray) -> None:
    """Require the boundary data g at t=0 on the nodes of
    grid.boundary_ring(), shape (L, 2(Mx+My)), to equal initial(.,.) there;
    the error names the first species."""
    _, (x, y) = grid.boundary_ring()
    p = species_field("initial", problem.initial(x, y), problem.L, x.shape)
    dev, scale = np.abs(g - p), np.maximum(np.abs(p), 1.0)
    bad = np.any(dev > 1e-12 * scale, axis=1)
    if np.any(bad):
        l = int(np.argmax(bad))
        raise ValueError(
            f"species {l}: boundary data at t=0 incompatible with "
            f"initial data (max deviation {np.max((dev / scale)[l]):.3e})")
