"""The plane-stack stencil kernel: exact summation order, dense oracle and
boundary fold."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parabolic2d import build_grid, build_scheme
from parabolic2d.cds import OFFSETS, StencilMatrix, apply_full
from parabolic2d.krylov import matvec
from parabolic2d.stepper import (Scheme, _newton_stencil, _ring_product,
                                 boundary_fold)

from test_cds import constant_problem
from test_krylov import bits, species_varied_problem


def padded_window_sum(coeffs, w_full, offsets):
    """The stencil product as a loop over offset windows of the padded
    array: a zero start, then coefficient times shifted window, added one
    offset at a time in the given order."""
    ny, nx = coeffs.shape[-2:]
    out = np.zeros((len(coeffs), ny, nx))
    for k1, k2 in offsets:
        out += coeffs[:, k1 + 1, k2 + 1] \
            * w_full[:, 1 + k2:1 + k2 + ny, 1 + k1:1 + k1 + nx]
    return out


def operator(name, S):
    """P or Q of the species-varied problem, or B, each with L distinct
    species rows ("L"), or with species 2's row tiled over all L ("1")."""
    prob = species_varied_problem()
    g = build_grid(prob.X, prob.Y, 7, 6)
    sch = build_scheme(prob, g, "cds" if name == "cds" else "cfds")
    if S == "1":
        sch = Scheme(sch.kind, *(StencilMatrix.from_coeffs(
            g, A.coeffs[2:3], prob.L) for A in (sch.P, sch.Q) if A is not None))
    return {"cds": sch.P, "cfds-P": sch.P, "cfds-Q": sch.Q,
            "B": _newton_stencil(sch, 3.0, 0.4)}[name], prob.L


@pytest.mark.parametrize("S", ["1", "L"])
@pytest.mark.parametrize("name,live", [("cds", 5), ("cfds-P", 9),
                                       ("cfds-Q", 5), ("B", 9)])
def test_kernel_matches_padded_window_literal(name, live, S):
    A, L = operator(name, S)
    assert len(A.offsets) == live
    assert A.planes.shape[1] == L
    distinct = len(np.unique(A.coeffs.reshape(L, -1), axis=0))
    assert distinct == {"1": 1, "L": L}[S]
    g = A.grid
    rng = np.random.default_rng(83)
    w = rng.standard_normal((L, g.My + 1, g.Mx + 1))
    expected = padded_window_sum(A.coeffs, w, A.offsets)
    assert np.array_equal(bits(apply_full(A.planes, w, offsets=A.offsets)),
                          bits(expected))
    # matvec is the same product on a zero-padded operand
    x = rng.standard_normal((L, g.n_interior))
    padded = np.zeros_like(w)
    padded[:, 1:-1, 1:-1] = x.reshape(L, g.ny, g.nx)
    assert np.array_equal(
        bits(matvec(A, x)),
        bits(padded_window_sum(A.coeffs, padded, A.offsets).reshape(x.shape)))


def test_newton_stencil_adds_the_two_stacks():
    A, _ = operator("cfds-P", "L")
    Q, _ = operator("cfds-Q", "L")
    B, _ = operator("B", "L")
    assert B.offsets == A.offsets and set(Q.offsets) < set(B.offsets)
    assert np.array_equal(bits(B.coeffs), bits(Q.coeffs / 3.0 + 0.4 * A.coeffs))
    assert np.all(B.planes[..., [0, -1], :] == 0.0)
    assert np.all(B.planes[..., [0, -1]] == 0.0)


grids = st.tuples(st.integers(2, 7), st.integers(2, 7))
seeds = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=60, deadline=None)
@given(mesh=grids, L=st.integers(1, 3), shared=st.booleans(),
       live=st.sets(st.sampled_from(OFFSETS)), seed=seeds)
def test_matvec_matches_dense_oracle(mesh, L, shared, live, seed):
    # L distinct stencils, or one stencil array serving every species
    g = build_grid(1.0, 1.0, *mesh)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((1 if shared else L, 3, 3, g.ny, g.nx))
    for k1, k2 in set(OFFSETS) - live:
        coeffs[:, k1 + 1, k2 + 1] = 0.0
    A = StencilMatrix.from_coeffs(g, coeffs, L)
    assert A.offsets == tuple(o for o in OFFSETS if o in live)
    assert np.array_equal(A.coeffs, np.broadcast_to(coeffs, A.coeffs.shape))
    assert np.all(A.planes[..., [0, -1], :] == 0.0)
    assert np.all(A.planes[..., [0, -1]] == 0.0)
    x = rng.standard_normal((L, g.n_interior))
    expected = np.einsum("lij,lj->li", A.to_dense(), x)
    assert np.allclose(matvec(A, x), expected, rtol=0,
                       atol=1e-13 * max(1.0, np.max(np.abs(expected))))


@settings(max_examples=40, deadline=None)
@given(mesh=grids, kind=st.sampled_from(["cds", "cfds"]),
       L=st.integers(1, 3), seed=seeds)
def test_fold_matches_ring_definition(mesh, kind, L, seed):
    # Phi at an interior node collects, from every ring node inside its 3x3
    # footprint, -P times the data and, for cfds, Q times (r - rate); the
    # reaction of constant_problem is zero, and the rate term is the one
    # _boundary_phi subtracts
    g = build_grid(1.0, 1.0, *mesh)
    rng = np.random.default_rng(seed)
    P, Q = (StencilMatrix.from_coeffs(
        g, rng.standard_normal((L, 3, 3, g.ny, g.nx)), L) for _ in range(2))
    scheme = Scheme(kind, P, Q if kind == "cfds" else None)
    (j, i), _ = g.boundary_ring()
    data, rate = rng.standard_normal((2, L, len(i)))
    phi = boundary_fold(scheme, constant_problem(), g, 0.0, data)
    if kind == "cfds":
        phi -= _ring_product(Q, g, rate)
    expected = np.zeros((L, g.ny, g.nx))
    Pc, Qc = P.coeffs, Q.coeffs
    for r, (jr, ir) in enumerate(zip(j, i)):
        for k1, k2 in OFFSETS:
            i0, j0 = ir - k1 - 1, jr - k2 - 1   # interior index of the node
            if 0 <= i0 < g.nx and 0 <= j0 < g.ny:
                expected[:, j0, i0] -= Pc[:, k1 + 1, k2 + 1, j0, i0] * data[:, r]
                if kind == "cfds":
                    expected[:, j0, i0] -= Qc[:, k1 + 1, k2 + 1, j0, i0] \
                        * rate[:, r]
    assert np.allclose(phi, expected.reshape(L, g.n_interior), rtol=0,
                       atol=1e-13 * max(1.0, np.max(np.abs(expected))))
