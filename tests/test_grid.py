import dataclasses

import numpy as np
import pytest

from parabolic2d import (Grid2D, TimeGrid, build_grid, build_time_grid,
                         lex_index, restrict, to_interior_grid,
                         validate_field)


def test_build_grid_paper_mesh():
    g = build_grid(500, 500, 8, 8)
    assert g.hx == pytest.approx(62.5) and g.hy == pytest.approx(62.5)
    assert g.hx * g.Mx == pytest.approx(g.X, abs=1e-12)
    assert g.n_interior == 49


def test_boundary_ring_lists_every_boundary_node_once():
    g = build_grid(3.0, 2.0, 7, 5)
    (j, i), (x, y) = g.boundary_ring
    assert len(j) == len(i) == 2 * (g.Mx + g.My) == 24
    assert len(set(zip(j.tolist(), i.tolist()))) == 24
    on_edge = (i == 0) | (i == g.Mx) | (j == 0) | (j == g.My)
    assert np.all(on_edge)
    assert np.array_equal(x, g.x_nodes()[i]) and np.array_equal(y, g.y_nodes()[j])


def test_boundary_ring_is_built_once_and_read_only():
    g = build_grid(3.0, 2.0, 7, 5)
    (j, i), (x, y) = g.boundary_ring
    (j2, i2), (x2, y2) = g.boundary_ring
    assert j is j2 and i is i2 and x is x2 and y is y2
    for a in (j, i, x, y):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


def test_records_keep_only_what_they_are_built_from():
    # the spacings are derived from the extents and counts, so a replaced
    # count moves them: a grid replaced to My=16 used to keep hy = Y/8 and
    # put its nodes out to 2Y, a time grid its tau = T/8
    assert [f.name for f in dataclasses.fields(Grid2D)] == ["X", "Y", "Mx",
                                                           "My"]
    assert [f.name for f in dataclasses.fields(TimeGrid)] == ["T", "N"]
    g = dataclasses.replace(build_grid(500, 500, 8, 8), My=16)
    assert g == build_grid(500, 500, 8, 16)
    assert (g.hx, g.hy, g.y_nodes()[-1]) == (62.5, 31.25, 500.0)
    tg = dataclasses.replace(build_time_grid(1440, 8), N=16)
    assert tg == build_time_grid(1440, 16) and tg.tau == 90.0
    assert tg.t(tg.N) == tg.T
    with pytest.raises(TypeError):
        Grid2D(500.0, 500.0, 8, 8, 62.5, 62.5)
    with pytest.raises(TypeError):
        TimeGrid(1440.0, 8, 180.0)


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
    (True, 1, 4, 4), (np.True_, 1, 4, 4), (1, True, 4, 4), (1, np.True_, 4, 4),
    # a string extent used to fail in a comparison, as a TypeError
    ("500", 1, 4, 4)])
def test_build_grid_rejects(X, Y, Mx, My):
    # the record checks itself: a constructor call and a replace of a valid
    # grid used to build a grid that no rule had seen
    fields = dict(X=X, Y=Y, Mx=Mx, My=My)
    for build in (lambda: build_grid(X, Y, Mx, My), lambda: Grid2D(**fields),
                  lambda: dataclasses.replace(Grid2D(1, 1, 4, 4), **fields)):
        with pytest.raises(ValueError):
            build()


def test_grid_builders_accept_integral_counts_of_any_number_type():
    # the builders are the records, so there is one way to build each one
    assert build_grid is Grid2D and build_time_grid is TimeGrid
    g = build_grid(np.int64(1), 1, np.int64(4), 2.0)
    assert (g.Mx, g.My, g.hx, g.hy) == (4, 2, 0.25, 0.5)
    assert type(g.X) is float and type(g.Mx) is int and type(g.My) is int
    assert build_time_grid(1.0, 4.0) == build_time_grid(1.0, 4)


@pytest.mark.parametrize("T,N,match", [
    # N=2.5 used to give N=2, tau=0.4, so N*tau = 0.8 != T
    (1.0, 2.5, "N"), (1.0, np.inf, "N"), (1.0, True, "N"), (1.0, 0, "N"),
    (np.inf, 4, "T"), (np.nan, 4, "T"), (0.0, 4, "T"),
    # a bool T used to be taken as 1.0
    (True, 4, "T"), (np.True_, 4, "T"),
    # a string used to fail in a comparison or in range, as a TypeError
    ("1.0", 4, "T"), (1.0, "4", "N")])
def test_build_time_grid_rejects(T, N, match):
    # as for the grid: N=0 made through the constructor or a replace used
    # to fail only in tau, with a ZeroDivisionError
    for build in (lambda: build_time_grid(T, N), lambda: TimeGrid(T=T, N=N),
                  lambda: dataclasses.replace(TimeGrid(1.0, 4), T=T, N=N)):
        with pytest.raises(ValueError, match=f"^{match} must be"):
            build()


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


def test_refined_doubles_both_counts():
    assert Grid2D(500, 300, 4, 6).refined() == build_grid(500, 300, 8, 12)


def test_restrict_picks_every_other_node():
    gc = build_grid(1, 1, 3, 3)
    gf = build_grid(1, 1, 6, 6)
    u = np.arange(gf.n_interior, dtype=float)[None, :]
    r = restrict(u, gc)
    u2 = to_interior_grid(u, gf)[0]
    r2 = to_interior_grid(r, gc)[0]
    for j in range(1, 3):
        for i in range(1, 3):
            assert r2[j - 1, i - 1] == u2[2 * j - 1, 2 * i - 1]


def test_restrict_preserves_linear_field():
    gc = build_grid(2, 2, 4, 4)
    gf = build_grid(2, 2, 8, 8)
    Xf, Yf = gf.interior_mesh()
    Xc, Yc = gc.interior_mesh()
    u = (Xf + Yf).ravel()[None, :]
    r = restrict(u, gc)
    assert np.allclose(r, (Xc + Yc).ravel()[None, :], rtol=0, atol=1e-14)


def test_restrict_rejects_non_nested():
    # a field of a 5x7 grid is not one of the 6x6 refinement of 3x3
    with pytest.raises(ValueError, match="does not match grid"):
        restrict(np.zeros((1, 4 * 6)), build_grid(1, 1, 3, 3))


def test_two_halvings_are_the_factor_4_injection():
    g, g4 = build_grid(2, 3, 4, 6), build_grid(2, 3, 16, 24)
    u4 = np.random.default_rng(1).standard_normal((3, g4.n_interior))
    twice = restrict(restrict(u4, g.refined()), g)
    assert np.array_equal(to_interior_grid(twice, g),
                          to_interior_grid(u4, g4)[:, 3::4, 3::4])


def test_restrict_takes_only_the_coarse_grid():
    # the fine grid is derived; the old form restrict(fine, fine_grid,
    # coarse_grid) is a TypeError, never a shifted argument
    gc, gf = build_grid(1, 1, 3, 3), build_grid(1, 1, 6, 6)
    with pytest.raises(TypeError):
        restrict(np.zeros((1, gf.n_interior)), gf, gc)


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
        restrict(u, build_grid(1, 1, 3, 3))
