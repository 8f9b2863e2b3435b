"""The plane-stack stencil kernel: exact summation order, dense oracle and
boundary fold."""

import dataclasses

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


def padded_window_sum(A, w_full):
    """The stencil product as a loop over offset windows of the padded
    array: a zero start, then a plane's interior times the shifted window,
    added one plane at a time in A's order."""
    ny, nx = A.grid.ny, A.grid.nx
    out = np.zeros((A.planes.shape[1], ny, nx))
    for plane, (k1, k2) in zip(A.planes, A.offsets):
        out += plane[:, 1:-1, 1:-1] \
            * w_full[:, 1 + k2:1 + k2 + ny, 1 + k1:1 + k1 + nx]
    return out


def operator(name, S):
    """P or Q of the species-varied problem, or B (the first operand of the
    compact Newton stack), each with L distinct species rows ("L"), or with
    species 2's row tiled over all L ("1")."""
    prob = species_varied_problem()
    g = build_grid(prob.X, prob.Y, 7, 6)
    sch = build_scheme(prob, g, "cds" if name == "cds" else "cfds")
    if S == "1":
        stack = "P" if sch.kind == "cds" else "QP"
        A = getattr(sch, stack)
        sch = dataclasses.replace(sch, **{stack: StencilMatrix(
            g, np.repeat(A.planes[:, 2:3], prob.L, axis=1), A.offsets)})
    if name == "B":
        return _newton_stencil(sch, 3.0, 0.4).operand(0), prob.L
    return {"cds": sch.P, "cfds-P": sch.P, "cfds-Q": sch.Q}[name], prob.L


@pytest.mark.parametrize("S", ["1", "L"])
@pytest.mark.parametrize("name,live", [("cds", 5), ("cfds-P", 9),
                                       ("cfds-Q", 5), ("B", 9)])
def test_kernel_matches_padded_window_literal(name, live, S):
    A, L = operator(name, S)
    assert len(A.offsets) == live
    assert A.planes.shape[1] == L
    distinct = len(np.unique(A.planes.swapaxes(0, 1).reshape(L, -1), axis=0))
    assert distinct == {"1": 1, "L": L}[S]
    g = A.grid
    rng = np.random.default_rng(83)
    w = rng.standard_normal((L, g.My + 1, g.Mx + 1))
    expected = padded_window_sum(A, w)
    assert np.array_equal(bits(apply_full(A.planes, w, offsets=A.offsets)),
                          bits(expected))
    # matvec is the same product on a zero-padded operand
    x = rng.standard_normal((L, g.n_interior))
    padded = np.zeros_like(w)
    padded[:, 1:-1, 1:-1] = x.reshape(L, g.ny, g.nx)
    assert np.array_equal(
        bits(matvec(A, x)),
        bits(padded_window_sum(A, padded).reshape(x.shape)))


def test_newton_stencil_adds_the_two_stacks():
    # the compact Newton stack is [B; -theta Q] over the operands (x, J x),
    # B = Q/tau + theta P, with every plane tagged by its operand
    A, _ = operator("cfds-P", "L")
    Q, _ = operator("cfds-Q", "L")
    prob = species_varied_problem()
    stack = _newton_stencil(build_scheme(prob, A.grid, "cfds"), 3.0, 0.4)
    assert stack.offsets == tuple(o + (0,) for o in A.offsets) \
        + tuple(o + (1,) for o in Q.offsets)
    B, minus_theta_q = stack.operand(0), stack.operand(1)
    assert set(Q.offsets) < set(B.offsets)
    for plane, p, o in zip(B.planes, A.planes, A.offsets):
        q = Q.planes[Q.offsets.index(o)] if o in Q.offsets else 0.0
        assert np.array_equal(bits(plane), bits(q / 3.0 + 0.4 * p))
    inner = (..., slice(1, -1), slice(1, -1))
    assert np.array_equal(bits(minus_theta_q.planes[inner]),
                          bits(-0.4 * Q.planes[inner]))
    assert np.all(stack.planes[..., [0, -1], :] == 0.0)
    assert np.all(stack.planes[..., [0, -1]] == 0.0)


@pytest.mark.parametrize("kind", ["cds", "cfds"])
def test_scheme_operators_are_views_of_one_stack(kind):
    prob = species_varied_problem()
    g = build_grid(prob.X, prob.Y, 7, 6)
    sch = build_scheme(prob, g, kind)
    if kind == "cds":
        assert sch.Q is None and sch.QP is None
        return
    assert sch.QP.offsets == tuple(o + (0,) for o in sch.Q.offsets) \
        + tuple(o + (1,) for o in sch.P.offsets)
    for A in (sch.P, sch.Q):
        assert A.planes.base is sch.QP.planes
    assert sch.P.planes.nbytes + sch.Q.planes.nbytes == sch.QP.planes.nbytes


grids = st.tuples(st.integers(2, 7), st.integers(2, 7))
seeds = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=60, deadline=None)
@given(mesh=grids, L=st.integers(1, 3), shared=st.booleans(),
       live=st.tuples(*2 * [st.sets(st.sampled_from(OFFSETS), min_size=1)]),
       seed=seeds)
def test_two_operand_stack_matches_padded_window_literal(mesh, L, shared,
                                                         live, seed):
    # one product of a stack over (u, v) is the literal sum, in plane order,
    # of A's windows of u and then C's windows of v, bit for bit; S = 1
    # (shared) tiles one coefficient row over the L species
    g = build_grid(1.0, 1.0, *mesh)
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((2, 1 if shared else L, 3, 3, g.ny, g.nx))
    for c, keep in zip(parts, live):
        for k1, k2 in set(OFFSETS) - keep:
            c[:, k1 + 1, k2 + 1] = 0.0
    stack = StencilMatrix.from_coeffs(g, list(parts), L)
    assert stack.offsets == tuple((k1, k2, o) for o, keep in enumerate(live)
                                  for k1, k2 in OFFSETS if (k1, k2) in keep)
    w = rng.standard_normal((2, L, g.My + 1, g.Mx + 1))
    coeffs = np.broadcast_to(parts, (2, L) + parts.shape[2:])
    expected = np.zeros((L, g.ny, g.nx))
    for k1, k2, o in stack.offsets:
        expected += coeffs[o][:, k1 + 1, k2 + 1] \
            * w[o][:, 1 + k2:1 + k2 + g.ny, 1 + k1:1 + k1 + g.nx]
    # the operands follow one another on the species axis
    operands = w.reshape(2 * L, g.My + 1, g.Mx + 1)
    assert np.array_equal(
        bits(apply_full(stack.planes, operands, offsets=stack.offsets)),
        bits(expected))
    # matvec pads each operand with a zero ring and makes the same product
    x, y = rng.standard_normal((2, L, g.n_interior))
    padded = np.zeros_like(operands)
    padded[:, 1:-1, 1:-1] = np.concatenate([x, y]).reshape(2 * L, g.ny, g.nx)
    assert np.array_equal(
        bits(matvec(stack, x, y)),
        bits(apply_full(stack.planes, padded,
                        offsets=stack.offsets).reshape(L, -1)))
    # and the operands' views are the one-operand stacks of each part
    for o, c in enumerate(parts):
        single = StencilMatrix.from_coeffs(g, c, L)
        assert stack.operand(o).offsets == single.offsets
        assert np.array_equal(bits(stack.operand(o).planes), bits(single.planes))


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
    for plane, (k1, k2) in zip(A.planes, A.offsets):
        assert np.array_equal(plane[:, 1:-1, 1:-1], np.broadcast_to(
            coeffs[:, k1 + 1, k2 + 1], (L, g.ny, g.nx)))
    assert np.all(A.planes[..., [0, -1], :] == 0.0)
    assert np.all(A.planes[..., [0, -1]] == 0.0)
    x = rng.standard_normal((L, g.n_interior))
    expected = np.einsum("lij,lj->li", A.to_dense(), x)
    assert np.allclose(matvec(A, x), expected, rtol=0,
                       atol=1e-13 * max(1.0, np.max(np.abs(expected))))


@settings(max_examples=60, deadline=None)
@given(mesh=grids, L=st.integers(1, 3), operands=st.integers(1, 2),
       ab=st.tuples(*2 * [st.floats(-10.0, 10.0).filter(
           lambda v: v == 0.0 or abs(v) >= 1e-3)]), seed=seeds)
def test_matvec_is_linear(mesh, L, operands, ab, seed):
    # A (a x + b y) against a A x + b A y, for a one- or two-operand stack;
    # the bound is relative to the same product with every term's magnitude;
    # |a|, |b| >= 1e-3 keeps the products clear of subnormal numbers
    g = build_grid(1.0, 1.0, *mesh)
    rng = np.random.default_rng(seed)
    parts = list(rng.standard_normal((operands, L, 3, 3, g.ny, g.nx)))
    A = StencilMatrix.from_coeffs(g, parts if operands > 1 else parts[0], L)
    a, b = ab
    x, y = rng.standard_normal((2, operands, L, g.n_interior))
    lhs = matvec(A, *(a * x + b * y))
    rhs = a * matvec(A, *x) + b * matvec(A, *y)
    absA = StencilMatrix(g, np.abs(A.planes), A.offsets)
    scale = abs(a) * matvec(absA, *np.abs(x)) + abs(b) * matvec(absA, *np.abs(y))
    assert np.all(np.abs(lhs - rhs) <= 4e-15 * np.max(scale))


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
    Pc, Qc = (rng.standard_normal((L, 3, 3, g.ny, g.nx)) for _ in range(2))
    scheme = (Scheme(kind, StencilMatrix.from_coeffs(g, Pc, L)) if kind == "cds"
              else Scheme(kind, None,
                          QP=StencilMatrix.from_coeffs(g, [Qc, Pc], L)))
    (j, i), _ = g.boundary_ring()
    data, rate = rng.standard_normal((2, L, len(i)))
    phi = boundary_fold(scheme, constant_problem(), g, 0.0, data)
    if kind == "cfds":
        phi -= _ring_product(scheme.Q, g, rate)
    expected = np.zeros((L, g.ny, g.nx))
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
