"""The plane-stack stencil kernel: exact summation order in the field and
full node layouts, the padded product it replaces, the dense oracle and the
boundary fold."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parabolic2d import (build_grid, build_scheme, make_example1,
                         make_example2)
from parabolic2d.cds import OFFSETS, StencilMatrix, apply_full
from parabolic2d.cfds import cfds_full_stencils
from parabolic2d.krylov import matvec
from parabolic2d.stepper import _ring_product, boundary_fold

from test_cds import constant_problem, lone_operators
from test_krylov import bits, species_varied_problem


def padded_window_sum(A, w_full):
    """The stencil product as a loop over offset windows of the full node
    arrays w_full (K L, My+1, Mx+1): a zero start, then a full plane's
    interior times the shifted window of its operand, added one plane at a
    time in A's order."""
    g = A.grid
    L = len(w_full) // (A.offsets[-1][2] + 1)
    out = np.zeros((L, g.ny, g.nx))
    for plane, (k1, k2, o) in zip(A.full, A.offsets):
        w = w_full[o * L:(o + 1) * L]
        out += plane[:, 1:-1, 1:-1] \
            * w[:, 1 + k2:1 + k2 + g.ny, 1 + k1:1 + k1 + g.nx]
    return out


def padded_product(A, *xs):
    """The product as it was made on zero-padded operands: each operand
    (L, n) copied into the interior of a zeroed full node array, then the
    padded window sum over A's full planes; shape (L, n)."""
    g, L = A.grid, len(xs[0])
    w = np.zeros((len(xs) * L, g.My + 1, g.Mx + 1))
    w[:, 1:-1, 1:-1] = np.concatenate(xs).reshape(-1, g.ny, g.nx)
    return padded_window_sum(A, w).reshape(L, g.n_interior)


def field_shift_sum(A, w):
    """The field-layout product as a literal: each plane times the
    flattened operands w (K L, n) shifted by o L n + k2 nx + k1, at the
    nodes where that shift stays inside w, one plane at a time in A's
    order; the first plane's products start the sum, and zeros where its
    shift leaves w."""
    L, n = A.planes.shape[1], A.planes[0].size
    flat = w.reshape(-1)
    out = np.zeros(n)
    for m, (plane, (k1, k2, o)) in enumerate(zip(A.planes, A.offsets)):
        at = np.arange(n) + o * n + k2 * A.grid.nx + k1
        inside = (0 <= at) & (at < flat.size)
        term = plane.reshape(-1)[inside] * flat[at[inside]]
        out[inside] = term if m == 0 else out[inside] + term
    return out.reshape(L, -1)


def reaches_ring(g, k1, k2):
    """The interior nodes (ny, nx) whose neighbour at (k1, k2) is a
    boundary node."""
    j, i = np.mgrid[0:g.ny, 0:g.nx]
    return (i + k1 < 0) | (i + k1 >= g.nx) | (j + k2 < 0) | (j + k2 >= g.ny)


def assert_layouts_agree(A):
    """A's product planes are its full planes' interiors, both with L
    species rows, zeroed where the offset reaches the ring; the full
    planes' ring is zero."""
    g, L = A.grid, A.planes.shape[1]
    assert A.planes.shape[2:] == (g.ny, g.nx)
    assert A.full.shape[1:] == (L, g.My + 1, g.Mx + 1)
    assert np.all(A.full[..., [0, -1], :] == 0.0)
    assert np.all(A.full[..., [0, -1]] == 0.0)
    for plane, full, (k1, k2, _) in zip(A.planes, A.full, A.offsets):
        ring = reaches_ring(g, k1, k2)
        assert np.all(bits(plane[:, ring]) == 0)
        assert np.array_equal(bits(plane[:, ~ring]),
                              bits(full[:, 1:-1, 1:-1][:, ~ring]))


def operator(name, S):
    """P or Q of the species-varied problem on a 7x6 mesh, built alone, with
    L distinct species rows ("L"), or with species 2's row tiled over all L
    ("1")."""
    prob = species_varied_problem()
    g = build_grid(prob.X, prob.Y, 7, 6)
    kind = "cds" if name == "cds" else "cfds"
    ops = lone_operators(prob, g, kind)
    A = ops[1] if name == "cfds-P" else ops[0]
    if S == "1":
        A = StencilMatrix(g, A.offsets,
                          np.repeat(A.full[:, 2:3], prob.L, axis=1))
    return A, prob.L


@pytest.mark.parametrize("S", ["1", "L"])
@pytest.mark.parametrize("name,live", [("cds", 5), ("cfds-P", 9),
                                       ("cfds-Q", 5)])
def test_kernel_matches_padded_window_literal(name, live, S):
    # on field arrays the kernel is the field-layout literal bit for bit,
    # and equals the padded window sum on zero-padded operands; on full
    # node arrays (a fold) it is the padded window sum bit for bit
    A, L = operator(name, S)
    assert len(A.offsets) == live
    assert A.planes.shape[1] == L
    for planes in (A.planes, A.full):
        distinct = len(np.unique(planes.swapaxes(0, 1).reshape(L, -1),
                                 axis=0))
        assert distinct == {"1": 1, "L": L}[S]
    assert_layouts_agree(A)
    g = A.grid
    rng = np.random.default_rng(83)
    x = rng.standard_normal((L, g.n_interior))
    expected = field_shift_sum(A, x)
    assert np.array_equal(
        bits(apply_full(A.planes, x.reshape(L, g.ny, g.nx),
                        plan=A.plan).reshape(L, -1)), bits(expected))
    # matvec is the same product, on the field array itself, and equals
    # the product on the zero-padded operand that it replaces
    assert np.array_equal(bits(matvec(A, x)), bits(expected))
    assert np.array_equal(matvec(A, x), padded_product(A, x))
    w = rng.standard_normal((L, g.My + 1, g.Mx + 1))
    assert np.array_equal(
        bits(apply_full(A.full, w, plan=A.full_plan)[:, 1:-1, 1:-1]),
        bits(padded_window_sum(A, w)))


@pytest.mark.parametrize("kind", ["cds", "cfds"])
@pytest.mark.parametrize("S", ["1", "L"])
def test_matvec_matches_padded_product(kind, S):
    # the scheme's one- or two-operand stack on random operands, 7x6 mesh
    prob = species_varied_problem()
    g = build_grid(prob.X, prob.Y, 7, 6)
    A = build_scheme(prob if S == "L" else make_example1(), g, kind)
    assert len(np.unique(A.full.swapaxes(0, 1).reshape(prob.L, -1),
                         axis=0)) == {"1": 1, "L": prob.L}[S]
    xs = np.random.default_rng(89).standard_normal(
        ({"cds": 1, "cfds": 2}[kind], prob.L, g.n_interior))
    assert np.array_equal(matvec(A, np.concatenate(xs)),
                          padded_product(A, *xs))


@pytest.mark.parametrize("make", [species_varied_problem, make_example2])
def test_compact_scheme_stack_is_one_stack_over_q_and_p(make):
    # the cfds stack is from_coeffs over the pair (q, p) bit for bit: Q's
    # live offsets on operand 0, then P's on operand 1
    prob = make()
    g = build_grid(prob.X, prob.Y, 7, 6)
    A = build_scheme(prob, g, "cfds")
    expected = StencilMatrix.from_coeffs(g, list(cfds_full_stencils(prob, g)),
                                         prob.L)
    Q, P = lone_operators(prob, g, "cfds")
    assert A.offsets == expected.offsets == Q.offsets + tuple(
        (k1, k2, 1) for k1, k2, _ in P.offsets)
    assert np.array_equal(bits(A.planes), bits(expected.planes))
    assert np.array_equal(bits(A.full), bits(expected.full))


grids = st.tuples(st.integers(2, 7), st.integers(2, 7))
seeds = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=60, deadline=None)
@given(mesh=grids, L=st.integers(1, 3), shared=st.booleans(),
       live=st.tuples(*2 * [st.sets(st.sampled_from(OFFSETS), min_size=1)]),
       seed=seeds)
def test_two_operand_stack_matches_padded_window_literal(mesh, L, shared,
                                                         live, seed):
    # on full node arrays, one product of a stack over (u, v) is the literal
    # sum, in plane order, of A's windows of u and then C's windows of v, bit
    # for bit; S = 1 (shared) tiles one coefficient row over the L species
    g = build_grid(1.0, 1.0, *mesh)
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((2, 1 if shared else L, 3, 3, g.ny, g.nx))
    for c, keep in zip(parts, live):
        for k1, k2 in set(OFFSETS) - keep:
            c[:, k1 + 1, k2 + 1] = 0.0
    stack = StencilMatrix.from_coeffs(g, list(parts), L)
    assert stack.offsets == tuple((k1, k2, o) for o, keep in enumerate(live)
                                  for k1, k2 in OFFSETS if (k1, k2) in keep)
    assert stack.full.shape[:2] == (len(stack.offsets), L)
    assert_layouts_agree(stack)
    w = rng.standard_normal((2, L, g.My + 1, g.Mx + 1))
    coeffs = np.broadcast_to(parts, (2, L) + parts.shape[2:])
    expected = np.zeros((L, g.ny, g.nx))
    for k1, k2, o in stack.offsets:
        expected += coeffs[o][:, k1 + 1, k2 + 1] \
            * w[o][:, 1 + k2:1 + k2 + g.ny, 1 + k1:1 + k1 + g.nx]
    # the operands follow one another on the species axis
    operands = w.reshape(2 * L, g.My + 1, g.Mx + 1)
    assert np.array_equal(
        bits(apply_full(stack.full, operands,
                        plan=stack.full_plan)[:, 1:-1, 1:-1]),
        bits(expected))
    # on field arrays matvec is the field literal, and equals the product
    # on zero-padded operands
    x, y = rng.standard_normal((2, L, g.n_interior))
    field = field_shift_sum(stack, np.concatenate([x, y]))
    xy = np.concatenate([x, y])
    assert np.array_equal(bits(matvec(stack, xy)), bits(field))
    assert np.array_equal(matvec(stack, xy), padded_product(stack, x, y))
    # and the planes of each operand are the one-operand stack of its part
    for o, c in enumerate(parts):
        single = StencilMatrix.from_coeffs(g, [c], L)
        m = [k for k, off in enumerate(stack.offsets) if off[2] == o]
        assert [stack.offsets[k][:2] for k in m] == [
            off[:2] for off in single.offsets]
        assert np.array_equal(bits(stack.planes[m]), bits(single.planes))
        assert np.array_equal(bits(stack.full[m]), bits(single.full))


@settings(max_examples=60, deadline=None)
@given(mesh=grids, L=st.integers(1, 3), shared=st.booleans(),
       live=st.sets(st.sampled_from(OFFSETS), min_size=1), seed=seeds)
def test_matvec_matches_dense_oracle(mesh, L, shared, live, seed):
    # L distinct stencils, or one stencil array serving every species; a
    # stack without a live offset is refused (test_stack_needs_a_live_offset)
    g = build_grid(1.0, 1.0, *mesh)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((1 if shared else L, 3, 3, g.ny, g.nx))
    for k1, k2 in set(OFFSETS) - live:
        coeffs[:, k1 + 1, k2 + 1] = 0.0
    A = StencilMatrix.from_coeffs(g, [coeffs], L)
    assert A.offsets == tuple((k1, k2, 0) for k1, k2 in OFFSETS
                              if (k1, k2) in live)
    for plane, (k1, k2, _) in zip(A.full, A.offsets):
        assert np.array_equal(plane[:, 1:-1, 1:-1], np.broadcast_to(
            coeffs[:, k1 + 1, k2 + 1], (L, g.ny, g.nx)))
    assert_layouts_agree(A)
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
    A = StencilMatrix.from_coeffs(g, parts, L)
    a, b = ab
    x, y = rng.standard_normal((2, operands * L, g.n_interior))
    lhs = matvec(A, a * x + b * y)
    rhs = a * matvec(A, x) + b * matvec(A, y)
    absA = StencilMatrix(g, A.offsets, np.abs(A.full))
    scale = abs(a) * matvec(absA, np.abs(x)) + abs(b) * matvec(absA, np.abs(y))
    assert np.all(np.abs(lhs - rhs) <= 4e-15 * np.max(scale))


def test_stack_needs_full_planes():
    # every stack carries its full planes, which the fold reads
    g = build_grid(1.0, 1.0, 4, 5)
    A = StencilMatrix.from_coeffs(g, [np.ones((1, 3, 3, g.ny, g.nx))], 2)
    with pytest.raises(TypeError, match="full"):
        StencilMatrix(g, A.offsets)


def test_stack_checks_its_planes_against_its_offsets_and_mesh():
    # a stack with more planes than offsets used to build, and give
    # products that differ from its own; one given another mesh failed only
    # at its first product, in a numpy reshape
    prob = make_example2()
    g = build_grid(prob.X, prob.Y, 8, 8)
    A = build_scheme(prob, g, "cds")
    k = len(A.offsets)
    with pytest.raises(ValueError, match=re.escape(
            f"full has shape {A.full.shape}, not (3, 'L', 9, 9)")):
        StencilMatrix(g, A.offsets[:3], A.full)
    with pytest.raises(ValueError, match=re.escape(
            f"not ({k}, 'L', 17, 17)")):
        StencilMatrix(build_grid(prob.X, prob.Y, 16, 16), A.offsets, A.full)
    for full in (A.full[:, 0], A.full[..., None]):   # not 4-dimensional
        with pytest.raises(ValueError, match="full has shape"):
            StencilMatrix(g, A.offsets, full)
    assert StencilMatrix(g, A.offsets, A.full).kind == "cds"


def test_stack_needs_a_live_offset():
    # the centre entry of the central P and of the compact Q is positive,
    # so all-zero coefficients are no operator of either scheme
    g = build_grid(1.0, 1.0, 4, 5)
    for operands in (1, 2):
        with pytest.raises(ValueError, match="at least one live offset"):
            StencilMatrix.from_coeffs(
                g, operands * [np.zeros((1, 3, 3, g.ny, g.nx))], 2)


def test_scheme_kind_is_the_operand_count():
    # a stack over one operand is the central scheme, over two the compact
    # one; no scheme reads three, and build_scheme knows no other kind
    prob = make_example2()
    g = build_grid(prob.X, prob.Y, 6, 5)
    c = np.random.default_rng(5).standard_normal((1, 3, 3, g.ny, g.nx))
    for K, kind in ((1, "cds"), (2, "cfds")):
        assert StencilMatrix.from_coeffs(g, K * [c], prob.L).kind == kind
        assert build_scheme(prob, g, kind).kind == kind
    with pytest.raises(ValueError, match="not 3"):
        StencilMatrix.from_coeffs(g, 3 * [c], prob.L)
    with pytest.raises(ValueError, match="unknown scheme kind 'xyz'"):
        build_scheme(prob, g, "xyz")


@settings(max_examples=40, deadline=None)
@given(mesh=grids, kind=st.sampled_from(["cds", "cfds"]),
       L=st.integers(1, 3), shared=st.booleans(), seed=seeds)
def test_fold_matches_ring_definition(mesh, kind, L, shared, seed):
    # Phi at an interior node collects, from every ring node inside its 3x3
    # footprint, -P times the data and, for cfds, Q times (r - rate); the
    # reaction of constant_problem is zero, and the rate term is the one
    # _boundary_phi subtracts
    g = build_grid(1.0, 1.0, *mesh)
    rng = np.random.default_rng(seed)
    S = 1 if shared else L
    Pc, Qc = (rng.standard_normal((S, 3, 3, g.ny, g.nx)) for _ in range(2))
    scheme = StencilMatrix.from_coeffs(
        g, [Pc] if kind == "cds" else [Qc, Pc], L)
    assert scheme.kind == kind
    (j, i), _ = g.boundary_ring
    data, rate = rng.standard_normal((2, L, len(i)))
    phi = boundary_fold(scheme, constant_problem(), 0.0, data)
    if kind == "cfds":
        phi -= _ring_product(scheme, rate, np.zeros_like(rate))
    expected = np.zeros((L, g.ny, g.nx))
    Pc, Qc = (np.broadcast_to(c, (L,) + c.shape[1:]) for c in (Pc, Qc))
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


@pytest.mark.parametrize("kind", ["cds", "cfds"])
@pytest.mark.parametrize("S", ["1", "L"])
def test_ring_product_is_the_padded_window_sum(kind, S):
    # a fold is the padded window sum of the full planes over the ring data,
    # bit for bit, whether the planes hold one species row or L
    prob = species_varied_problem()
    g = build_grid(prob.X, prob.Y, 7, 6)
    A = build_scheme(prob if S == "L" else make_example1(), g, kind)
    (j, i), _ = g.boundary_ring
    vs = np.random.default_rng(97).standard_normal(
        ({"cds": 1, "cfds": 2}[kind], prob.L, len(i)))
    w = np.zeros((len(vs) * prob.L, g.My + 1, g.Mx + 1))
    w[:, j, i] = np.concatenate(vs)
    assert np.array_equal(
        bits(_ring_product(A, *vs)),
        bits(padded_window_sum(A, w).reshape(prob.L, -1)))


@pytest.mark.parametrize("kind", ["cds", "cfds"])
@pytest.mark.parametrize("S", ["1", "L"])
def test_product_into_out_matches_allocating_product(kind, S):
    # matvec and apply_full write into a given out the bits of the
    # allocating call, on field arrays and on full node arrays, for the
    # scheme's one-operand (cds P) and two-operand (cfds [Q; P]) stacks
    prob = species_varied_problem()
    g = build_grid(prob.X, prob.Y, 7, 6)
    A = build_scheme(prob if S == "L" else make_example1(), g, kind)
    L = prob.L
    assert len(np.unique(A.full.swapaxes(0, 1).reshape(L, -1),
                         axis=0)) == {"1": 1, "L": L}[S]
    K = A.offsets[-1][2] + 1
    rng = np.random.default_rng(97)
    x = rng.standard_normal((K * L, g.n_interior))
    out = np.full((L, g.n_interior), np.nan)
    y = matvec(A, x, out=out)
    assert np.shares_memory(y, out)
    assert np.array_equal(bits(out), bits(matvec(A, x)))
    w = rng.standard_normal((K * L, g.My + 1, g.Mx + 1))
    out = np.full((L, g.My + 1, g.Mx + 1), np.nan)
    assert apply_full(A.full, w, plan=A.full_plan, out=out) is out
    assert np.array_equal(
        bits(out), bits(apply_full(A.full, w, plan=A.full_plan)))


def test_product_rejects_out_that_may_share_memory_with_operands():
    # the kernel reads shifted operands while it writes out, so an out that
    # overlaps them would give wrong sums without a sign
    prob, g = make_example1(), build_grid(1.0, 1.0, 6, 5)
    P, QP = (build_scheme(prob, g, kind) for kind in ("cds", "cfds"))
    L, n = prob.L, g.n_interior
    x = np.random.default_rng(3).standard_normal((2 * L, n))
    for A, w, out in ((P, x[:L], x[:L]), (QP, x, x[L:]), (QP, x, x[:L])):
        with pytest.raises(ValueError, match="share no memory"):
            matvec(A, w, out=out)
        with pytest.raises(ValueError, match="share no memory"):
            apply_full(A.planes, w, plan=A.plan, out=out)
    # an out of the wrong size, or not contiguous, is refused the same way
    for out in (np.empty((L, n + 1)), np.empty((2 * L, n))[::2]):
        with pytest.raises(ValueError, match="contiguous"):
            matvec(QP, x, out=out)


@pytest.mark.parametrize("kind", ["cds", "cfds"])
def test_stack_builds_its_plans_once(kind, monkeypatch):
    # a stack computes its product plans when it is built; products and
    # folds reuse them, so a whole run builds none
    from parabolic2d import cds, make_example2, stepper
    from parabolic2d.grid import build_time_grid

    built = []
    real = cds.product_plan
    monkeypatch.setattr(cds, "product_plan",
                        lambda *args: built.append(args) or real(*args))
    prob = make_example2()
    g = build_grid(prob.X, prob.Y, 6, 6)
    A = build_scheme(prob, g, kind)
    assert len(built) == 2   # the field and the full layout
    plans = A.plan, A.full_plan
    assert A.plan == real(A.offsets, A.planes.shape[1:])
    built.clear()
    stepper.integrate(prob, g, build_time_grid(60.0, 2), A)
    assert built == []
    assert A.plan is plans[0] and A.full_plan is plans[1]


@pytest.mark.parametrize("kind", ["cds", "cfds"])
@pytest.mark.parametrize("S", ["1", "L"])
def test_stack_derives_its_field_planes(kind, S):
    # a stack is built from its offsets and full planes alone: the field
    # planes, kind and plans it derives are those of build_scheme's stack
    # bit for bit, and the field planes are a copy, not a view of full
    prob = species_varied_problem() if S == "L" else make_example2()
    g = build_grid(prob.X, prob.Y, 7, 6)
    A = build_scheme(prob, g, kind)
    distinct = len(np.unique(A.planes.swapaxes(0, 1).reshape(prob.L, -1),
                             axis=0))
    assert distinct == {"1": 1, "L": prob.L}[S]
    B = StencilMatrix(g, A.offsets, A.full)
    assert np.array_equal(bits(B.planes), bits(A.planes))
    assert (B.kind, B.plan, B.full_plan) == (A.kind, A.plan, A.full_plan)
    assert not np.may_share_memory(B.planes, B.full)
    assert_layouts_agree(B)
    # the field planes are no longer an argument that could disagree
    with pytest.raises(TypeError):
        StencilMatrix(g, A.planes, A.offsets, A.full)
    assert [f.name for f in dataclasses.fields(StencilMatrix)] == [
        "grid", "offsets", "full"]
