import dataclasses
import re

import numpy as np
import pytest

from parabolic2d import build_grid, build_scheme, make_example1, make_example2
from parabolic2d.cds import StencilMatrix, cds_full_stencil
from parabolic2d.krylov import (KrylovBreakdown, KrylovReport, bicgstab_l,
                                check_solver_options, matvec)

from test_cds import lone_operators


def writing(f):
    """The operator A(v, out) of bicgstab_l for the function f(v) = A v."""
    return lambda v, out: np.copyto(out, f(v))


def identity_stencil(grid):
    c = np.zeros((1, 3, 3, grid.ny, grid.nx))
    c[0, 1, 1] = 1.0
    return StencilMatrix.from_coeffs(grid, [c], 1)


def test_matvec_identity():
    g = build_grid(1, 1, 5, 4)
    A = identity_stencil(g)
    x = np.arange(g.n_interior, dtype=float)[None]
    assert np.array_equal(matvec(A, x), x)


def test_matvec_annihilates_constants_in_full_interior():
    prob = make_example1()
    g = build_grid(prob.X, prob.Y, 8, 8)
    A = StencilMatrix.from_coeffs(g, [cds_full_stencil(prob, g)], 1)
    y = matvec(A, np.ones((1, g.n_interior))).reshape(g.ny, g.nx)
    assert np.allclose(y[1:-1, 1:-1], 0.0, atol=1e-14 * np.max(np.abs(A.planes)))


def test_matvec_against_dense_oracle():
    rng = np.random.default_rng(41)
    g = build_grid(1, 1, 4, 4)  # 3x3 interior
    c = rng.standard_normal((1, 3, 3, g.ny, g.nx))
    A = StencilMatrix.from_coeffs(g, [c], 1)
    dense = A.to_dense()[0]
    for _ in range(5):
        x = rng.standard_normal(g.n_interior)
        assert np.allclose(matvec(A, x[None])[0], dense @ x, rtol=0,
                           atol=1e-14)


def test_matvec_dimension_mismatch():
    g = build_grid(1, 1, 4, 4)
    with pytest.raises(ValueError):
        matvec(identity_stencil(g), np.zeros((1, 5)))
    with pytest.raises(ValueError):   # the species axis is required
        matvec(identity_stencil(g), np.zeros(g.n_interior))


def test_operator_linearity():
    prob = make_example1()
    g = build_grid(prob.X, prob.Y, 6, 6)
    A = StencilMatrix.from_coeffs(g, [cds_full_stencil(prob, g)], 1)
    op = lambda v: matvec(A, v[None])[0]
    rng = np.random.default_rng(8)
    for _ in range(10):
        x, y = rng.standard_normal((2, g.n_interior))
        a, b = rng.standard_normal(2)
        lhs = op(a * x + b * y)
        rhs = a * op(x) + b * op(y)
        assert np.allclose(lhs, rhs, atol=1e-12 * np.max(np.abs(rhs)))


def test_bicgstab_identity_one_cycle():
    n = 30
    op = writing(lambda v: v)
    b = np.arange(1.0, n + 1)
    x, rep = bicgstab_l(op, b)
    assert rep.converged and rep.iterations <= 1.0
    assert np.allclose(x, b, rtol=1e-12)


def test_bicgstab_two_by_two():
    op = writing(lambda v: np.array([2.0, 3.0]) * v)
    x, rep = bicgstab_l(op, np.array([2.0, 3.0]))
    assert rep.converged
    assert np.allclose(x, [1.0, 1.0], rtol=1e-10)


def test_bicgstab_zero_rhs():
    op = writing(lambda v: 2.0 * v)
    x, rep = bicgstab_l(op, np.zeros(4))
    assert rep.converged and rep.iterations == 0.0
    assert np.array_equal(x, np.zeros(4))


def test_bicgstab_random_nonsymmetric():
    rng = np.random.default_rng(15)
    n = 40
    A = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    op = writing(lambda v: A @ v)
    x, rep = bicgstab_l(op, b, tol=1e-12)
    assert rep.converged
    assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)
    assert np.allclose(x, np.linalg.solve(A, b), rtol=1e-8)


def test_bicgstab_spd_diagonal_few_cycles():
    rng = np.random.default_rng(19)
    n = 50
    d = rng.uniform(1.0, 3.0, size=n)
    op = writing(lambda v: d * v)
    b = rng.standard_normal(n)
    x, rep = bicgstab_l(op, b, tol=1e-12)
    assert rep.converged and rep.iterations <= n
    assert np.allclose(x, b / d, rtol=1e-9)


def test_bicgstab_report_contract():
    rng = np.random.default_rng(29)
    n = 25
    A = np.eye(n) + 0.2 * rng.standard_normal((n, n)) / np.sqrt(n)
    op = writing(lambda v: A @ v)
    tol = 1e-11
    b = rng.standard_normal(n)
    x, rep = bicgstab_l(op, b, tol=tol)
    assert rep.converged
    assert rep.final_relative_residual <= tol
    # the reported value is the recursive residual; the true one must also
    # meet the tolerance
    assert np.linalg.norm(b - A @ x) <= tol * np.linalg.norm(b)


def recording(A):
    """Operator of the matrix A that records every operand."""
    seen = []

    def apply(v, out):
        seen.append(v.copy())
        out[...] = A @ v

    return apply, seen


@pytest.mark.parametrize("seed,iterations,applications", [
    (52, 6.0, 24),   # stops after a minimal-residual step: 4 per cycle
    (53, 5.5, 21),   # stops inside the BiCG part: one application fewer
    (54, 6.0, 23)],  # stops after the second BiCG step of a cycle
    ids=["minimal-residual", "first-bicg", "second-bicg"])
def test_converged_solve_makes_two_ell_applications_per_cycle(
        seed, iterations, applications):
    rng = np.random.default_rng(seed)
    n = 30
    A = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    op, seen = recording(A)
    x, rep = bicgstab_l(op, rng.standard_normal(n), tol=1e-12)
    assert rep.converged
    assert (rep.iterations, len(seen)) == (iterations, applications)
    assert not any(np.all(v == 0.0) for v in seen)


@pytest.mark.parametrize("seed", [61, 62, 65])
def test_solve_stopping_inside_bicg_skips_its_last_application(seed):
    # a fractional iteration count means the solve stopped
    # after the first BiCG step of a cycle; that step's second application
    # only feeds the next step, so it is not made
    rng = np.random.default_rng(seed)
    n = 24
    A = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    op, seen = recording(A)
    b = rng.standard_normal(n)
    x, rep = bicgstab_l(op, b, tol=1e-12)
    assert rep.converged and rep.iterations % 1 == 0.5
    assert len(seen) == 2 * 2 * rep.iterations - 1
    assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)


def test_nonconverged_solve_reports_the_true_residual():
    rng = np.random.default_rng(59)
    n = 60
    A = np.diag(np.logspace(0, 8, n)) \
        + 1e-2 * rng.standard_normal((n, n)) / np.sqrt(n)
    op, seen = recording(A)
    b = rng.standard_normal(n)
    x, rep = bicgstab_l(op, b, tol=1e-14, maxit=1)
    assert not rep.converged
    # the last application is the residual check on the returned iterate
    assert np.array_equal(seen[-1], x)
    assert rep.final_relative_residual == \
        np.linalg.norm(b - A @ x) / np.linalg.norm(b)


def newton_matrix_apply(sch, prob, g, tau, theta, W, x, t):
    """The step's Newton matrix at iterate W applied to x (L, n), with the
    reaction Jacobian and the stencils that advance uses."""
    from parabolic2d.stepper import _apply_jacobian
    XX, YY = g.interior_mesh()
    J = np.asarray(prob.reaction_jacobian(XX.ravel(), YY.ravel(), t, W), float)
    out = np.empty_like(x)
    _apply_jacobian(sch, J, tau, theta, x, out)
    return out


def test_bicgstab_newton_matrix_cycle_count():
    # assembled manufactured-problem Newton operator at M=8: a handful of
    # cycles suffices for a 1e-10 relative residual
    prob = make_example1()
    g = build_grid(prob.X, prob.Y, 8, 8)
    sch = build_scheme(prob, g, "cds")
    tau = prob.T / 8
    from parabolic2d.stepper import initial_field
    W = initial_field(prob, g)
    n = W.size
    op = writing(lambda v: newton_matrix_apply(
        sch, prob, g, tau, 0.5, W, v.reshape(W.shape), tau).ravel())
    rng = np.random.default_rng(3)
    b = rng.standard_normal(n)
    x, rep = bicgstab_l(op, b, tol=1e-10)
    assert rep.converged
    assert rep.iterations <= 4.0


def test_bicgstab_breakdown_raises_after_restart():
    # the zero operator meets gam = A u . rtilde = 0 in its first BiCG step,
    # before and after the restart
    op = writing(lambda v: 0.0 * v)
    with pytest.raises(KrylovBreakdown, match=re.escape(
            "(cycle 0.00: gam = 0, then gam = 0)")):
        bicgstab_l(op, np.ones(3))


def test_minimal_residual_breakdowns():
    # the zero operator above breaks down inside the BiCG part; these
    # systems break down in the minimal-residual step instead.  A zero
    # sigma2 restarts once, after which the solve converges exactly
    op, seen = recording(np.array([[0, 1, -1], [1, 1, 1], [-1, -1, 0]],
                                  dtype=float))
    x, rep = bicgstab_l(op, np.array([-1.0, -1.0, -1.0]))
    assert x.tolist() == [4.0, -3.0, -2.0]
    assert rep == KrylovReport(1.5, 0.0, True) and len(seen) == 6
    # a zero sigma1 restarts, and a zero gam in the BiCG part after the
    # restart raises
    op, seen = recording(np.array([[1, 1, -1], [-1, -1, 0], [-1, -1, -1]],
                                  dtype=float))
    with pytest.raises(KrylovBreakdown, match=re.escape(
            "BiCGStab(2) breakdown persisted after restart "
            "(cycle 1.00: sigma1 = 0, then gam = 0)")):
        bicgstab_l(op, np.array([0.0, 0.0, -1.0]))
    assert len(seen) == 6


def test_bicgstab_maxit_reports_nonconvergence():
    rng = np.random.default_rng(37)
    n = 60
    d = np.logspace(0, 8, n)
    op = writing(lambda v: d * v)
    x, rep = bicgstab_l(op, rng.standard_normal(n), tol=1e-14, maxit=1)
    assert not rep.converged
    assert rep.iterations <= 1.0


def test_bicgstab_parameter_validation():
    op = writing(lambda v: v)
    with pytest.raises(TypeError, match="ell"):
        bicgstab_l(op, np.ones(2), ell=2)
    with pytest.raises(ValueError):
        bicgstab_l(op, np.ones(2), tol=0.0)


@pytest.mark.parametrize("option,value", [
    ("tol", float("nan")), ("tol", float("inf")), ("maxit", 2.5),
    ("maxit", float("nan")), ("maxit", 0), ("maxit", True), ("tol", True),
    ("tol", np.True_)])
def test_bicgstab_checks_options_like_advance(option, value):
    # the rules of check_solver_options, before any application of A
    from parabolic2d import stepper
    calls = []
    with pytest.raises(ValueError, match=rf"^{option} must be"):
        bicgstab_l(lambda v, out: calls.append(v), np.ones(3),
                   **{option: value})
    assert calls == []
    assert stepper.check_solver_options is check_solver_options


def test_bicgstab_stops_on_nonfinite_residual():
    # a NaN in the operator must not run the cycle limit
    applied = []

    def apply(v, out):
        applied.append(1)
        out[...] = 2.0 * v
        out[3] = np.nan

    _, rep = bicgstab_l(apply, np.ones(8), maxit=200)
    assert not rep.converged
    assert len(applied) <= 2 * 2 + 2   # at most one BiCGStab(2) cycle


def bits(a):
    """The IEEE bit patterns of a float array, sign of zero included."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def test_reused_output_buffer_matches_fresh_operator():
    # an operator that computes into one private buffer and copies it into
    # the solver's out gives the bits of the plain operator
    rng = np.random.default_rng(73)
    n = 40
    A = np.eye(n) + 0.4 * rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    private = np.empty(n)

    def reused(v, out):
        np.matmul(A, v, out=private)
        out[...] = private

    x_fresh, rep_fresh = bicgstab_l(writing(lambda v: A @ v), b, tol=1e-12)
    x_reused, rep_reused = bicgstab_l(reused, b, tol=1e-12)
    assert rep_fresh.converged and rep_fresh.iterations >= 2
    assert np.array_equal(bits(x_reused), bits(x_fresh))
    assert rep_reused == rep_fresh


@pytest.mark.parametrize("case", ["ell2", "nonconverged", "restart"])
def test_operator_out_shares_no_memory_with_its_operand_or_b(case):
    # every out handed to A(v, out), in the BiCG part, the true residual of
    # a non-converged solve and the restart, is solver storage apart from v
    # and b
    rng = np.random.default_rng(79)
    n = 30
    A = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    if case == "nonconverged":
        A = np.diag(np.logspace(0, 8, n))
    if case == "restart":
        A = np.zeros((n, n))
    b = rng.standard_normal(n)
    calls = []

    def apply(v, out):
        calls.append((v, out))
        out[...] = A @ v

    kwargs = {"ell2": {}, "nonconverged": {"tol": 1e-14, "maxit": 1},
              "restart": {}}[case]
    if case == "restart":
        with pytest.raises(KrylovBreakdown):
            bicgstab_l(apply, b, **kwargs)
    else:
        _, rep = bicgstab_l(apply, b, **kwargs)
        assert rep.converged == (case != "nonconverged")
    assert len(calls) >= 2
    for v, out in calls:
        assert not np.shares_memory(out, v)
        assert not np.shares_memory(out, b)


def test_bicgstab_leaves_its_inputs_alone():
    rng = np.random.default_rng(73)
    n = 30
    A = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    b_before = b.copy()
    x, rep = bicgstab_l(writing(lambda v: A @ v), b, tol=1e-12)
    assert rep.converged
    assert np.array_equal(bits(b), bits(b_before))
    assert not np.shares_memory(x, b)


def species_varied_problem():
    # the manufactured problem with a diffusion that differs per species
    return dataclasses.replace(
        make_example1(), diffusion_a=lambda x, y: np.multiply.outer(
            1.0 + 0.2 * np.arange(10), np.ones(np.shape(x))))


COEFFICIENTS = ("diffusion_a", "diffusion_b", "advection_c", "advection_d")


def species_problem(prob, l):
    """Species l of prob's coefficient fields as a problem of its own,
    L = 1."""
    def row(fn):
        return lambda x, y: np.broadcast_to(
            fn(x, y), (prob.L,) + np.shape(x))[l]
    return dataclasses.replace(prob, L=1, **{
        name: row(getattr(prob, name)) for name in COEFFICIENTS})


@pytest.mark.parametrize("kind", ["cds", "cfds"])
@pytest.mark.parametrize("make,S", [(species_varied_problem, 10),
                                    (make_example2, 1)])
def test_batched_matvec_matches_per_species_dense(make, S, kind):
    prob = make()
    g = build_grid(prob.X, prob.Y, 6, 5)
    x = np.random.default_rng(5).standard_normal((prob.L, g.n_interior))
    ops = lone_operators(prob, g, kind)
    # the species-at-a-time operators, each built from species l alone
    singles = [lone_operators(species_problem(prob, l), g, kind)
               for l in range(prob.L)]
    for k, A in enumerate(ops):
        # the stack holds S distinct stencils tiled over the L species, in
        # the field layout and over the full node array
        assert A.planes.shape[1:] == (prob.L, g.ny, g.nx)
        assert A.full.shape[1:] == (prob.L, g.My + 1, g.Mx + 1)
        for planes in (A.planes, A.full):
            assert len(np.unique(planes.swapaxes(0, 1).reshape(prob.L, -1),
                                 axis=0)) == S
        y = matvec(A, x)
        dense = A.to_dense()
        expected = np.einsum("lij,lj->li", dense, x)
        assert np.allclose(y, expected, rtol=0,
                           atol=1e-13 * np.max(np.abs(expected)))
        for l, single in enumerate(lone[k] for lone in singles):
            assert single.planes.shape[1] == 1
            assert np.array_equal(single.to_dense()[0], dense[l])
            assert np.array_equal(matvec(single, x[l:l + 1])[0], y[l])


@pytest.mark.parametrize("kind", ["cds", "cfds"])
def test_species_free_fields_match_fields_repeated_per_species(kind):
    # a field without a species axis holds for every species: the planes
    # equal those of the same field returned L times
    prob = make_example2()
    repeated = dataclasses.replace(prob, **{
        name: (lambda fn: lambda x, y: np.broadcast_to(
            fn(x, y), (prob.L,) + np.shape(x)).copy())(getattr(prob, name))
        for name in COEFFICIENTS})
    g = build_grid(prob.X, prob.Y, 7, 5)
    a, b = build_scheme(prob, g, kind), build_scheme(repeated, g, kind)
    assert a.offsets == b.offsets
    assert np.array_equal(bits(a.planes), bits(b.planes))
