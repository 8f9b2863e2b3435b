import numpy as np
import pytest

from parabolic2d import (build_grid, build_time_grid, lex_index, restrict,
                         to_interior_grid, validate_field)


def test_build_grid_paper_mesh():
    g = build_grid(500, 500, 8, 8)
    assert g.hx == pytest.approx(62.5) and g.hy == pytest.approx(62.5)
    assert g.hx * g.Mx == pytest.approx(g.X, abs=1e-12)
    assert g.n_interior == 49


def test_boundary_ring_lists_every_boundary_node_once():
    g = build_grid(3.0, 2.0, 7, 5)
    (j, i), (x, y) = g.boundary_ring()
    assert len(j) == len(i) == 2 * (g.Mx + g.My) == 24
    assert len(set(zip(j.tolist(), i.tolist()))) == 24
    on_edge = (i == 0) | (i == g.Mx) | (j == 0) | (j == g.My)
    assert np.all(on_edge)
    assert np.array_equal(x, g.x_nodes()[i]) and np.array_equal(y, g.y_nodes()[j])


def test_boundary_ring_is_built_once_and_read_only():
    g = build_grid(3.0, 2.0, 7, 5)
    (j, i), (x, y) = g.boundary_ring()
    (j2, i2), (x2, y2) = g.boundary_ring()
    assert j is j2 and i is i2 and x is x2 and y is y2
    for a in (j, i, x, y):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


def test_build_grid_smallest():
    g = build_grid(1, 1, 2, 2)
    assert g.n_interior == 1
    XX, YY = g.interior_mesh()
    assert XX.ravel()[0] == pytest.approx(0.5)
    assert YY.ravel()[0] == pytest.approx(0.5)


def test_build_grid_anisotropic_counts():
    g = build_grid(500, 250, 10, 5)
    assert g.hx == pytest.approx(50.0) and g.hy == pytest.approx(50.0)


@pytest.mark.parametrize("X,Y,Mx,My", [
    (0, 1, 4, 4), (1, -1, 4, 4), (1, 1, 1, 4), (1, 1, 4, 0),
    # a fractional count used to be truncated (Mx=2.5 gave Mx=2, hx=0.4),
    # and an infinite extent gave hx or hy = inf
    (1, 1, 2.5, 4), (1, 1, 4, 2.5), (1, 1, True, 4), (1, 1, 4, "4"),
    (1, 1, np.inf, 4), (np.inf, 1, 4, 4), (1, np.inf, 4, 4), (np.nan, 1, 4, 4),
    # a bool extent used to be taken as 1.0
    (True, 1, 4, 4), (np.True_, 1, 4, 4), (1, True, 4, 4), (1, np.True_, 4, 4)])
def test_build_grid_rejects(X, Y, Mx, My):
    with pytest.raises(ValueError):
        build_grid(X, Y, Mx, My)


def test_grid_builders_accept_integral_counts_of_any_number_type():
    g = build_grid(1, 1, np.int64(4), 2.0)
    assert (g.Mx, g.My, g.hx, g.hy) == (4, 2, 0.25, 0.5)
    assert type(g.Mx) is int and type(g.My) is int
    assert build_time_grid(1.0, 4.0) == build_time_grid(1.0, 4)


@pytest.mark.parametrize("T,N,match", [
    # N=2.5 used to give N=2, tau=0.4, so N*tau = 0.8 != T
    (1.0, 2.5, "N"), (1.0, np.inf, "N"), (1.0, True, "N"), (1.0, 0, "N"),
    (np.inf, 4, "T"), (np.nan, 4, "T"), (0.0, 4, "T"),
    # a bool T used to be taken as 1.0
    (True, 4, "T"), (np.True_, 4, "T")])
def test_build_time_grid_rejects(T, N, match):
    with pytest.raises(ValueError, match=match):
        build_time_grid(T, N)


def test_lex_index_values():
    assert lex_index(1, 1, 8) == 0
    assert lex_index(7, 1, 8) == 6
    assert lex_index(2, 3, 9) == 17


def test_lex_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        lex_index(0, 1, 8)
    with pytest.raises(ValueError):
        lex_index(8, 1, 8)
    with pytest.raises(ValueError):
        lex_index(3, 0, 8)


def test_lex_index_bijection_exhaustive():
    for Mx in range(2, 17):
        for My in range(2, 17):
            seen = set()
            for j in range(1, My):
                for i in range(1, Mx):
                    k = lex_index(i, j, Mx)
                    assert 0 <= k < (Mx - 1) * (My - 1)
                    seen.add(k)
            assert len(seen) == (Mx - 1) * (My - 1)


def test_restrict_identity():
    g = build_grid(1, 1, 6, 6)
    rng = np.random.default_rng(0)
    u = rng.standard_normal((3, g.n_interior))
    assert np.array_equal(restrict(u, g, g), u)


def test_restrict_picks_every_other_node():
    gc = build_grid(1, 1, 3, 3)
    gf = build_grid(1, 1, 6, 6)
    u = np.arange(gf.n_interior, dtype=float)[None, :]
    r = restrict(u, gf, gc)
    u2 = to_interior_grid(u, gf)[0]
    r2 = to_interior_grid(r, gc)[0]
    for j in range(1, 3):
        for i in range(1, 3):
            assert r2[j - 1, i - 1] == u2[2 * j - 1, 2 * i - 1]


def test_restrict_preserves_linear_field():
    gc = build_grid(2, 2, 4, 4)
    gf = build_grid(2, 2, 12, 12)
    Xf, Yf = gf.interior_mesh()
    Xc, Yc = gc.interior_mesh()
    u = (Xf + Yf).ravel()[None, :]
    r = restrict(u, gf, gc)
    assert np.allclose(r, (Xc + Yc).ravel()[None, :], rtol=0, atol=1e-14)


def test_restrict_rejects_non_nested():
    with pytest.raises(ValueError):
        restrict(np.zeros((1, 4 * 6)), build_grid(1, 1, 5, 7), build_grid(1, 1, 3, 3))
    with pytest.raises(ValueError):
        restrict(np.zeros((1, 25)), build_grid(1, 1, 6, 6), build_grid(2, 1, 3, 3))


def test_validate_field_rejects_nonfinite():
    g = build_grid(1, 1, 4, 4)
    u = np.zeros((2, g.n_interior))
    u[0, 3] = np.nan
    with pytest.raises(ValueError):
        validate_field(u, g)
    with pytest.raises(ValueError):
        validate_field(np.zeros((2, 5)), g)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_field_entry_named_by_species_and_node(bad):
    # flat index 7 of a 6x6 grid (5 interior nodes per row) is node (3, 2);
    # the first non-finite entry is named, for validate_field and restrict
    g = build_grid(1, 1, 6, 6)
    u = np.zeros((4, g.n_interior))
    u[3, 7] = u[3, 20] = bad
    msg = r"non-finite entry at species 3, node \(i=3, j=2\)"
    with pytest.raises(ValueError, match=msg):
        validate_field(u, g)
    with pytest.raises(ValueError, match=msg):
        restrict(u, g, build_grid(1, 1, 3, 3))
