import math

import numpy as np
import pytest

from parabolic2d import (build_grid, max_norm_error, positivity_scan,
                         probe_values, ratio_and_order, runge_order)
from parabolic2d.grid import lex_index


def test_max_norm_zero_for_exact_field():
    g = build_grid(1, 1, 5, 5)
    XX, YY = g.interior_mesh()
    exact = lambda x, y, t: np.multiply.outer([1.0, 2.0], x * y) + t
    u = np.stack([(l + 1) * XX.ravel() * YY.ravel() + 3.0 for l in range(2)])
    assert np.array_equal(max_norm_error(u, exact, g, 3.0), np.zeros(2))
    # a result without a species axis holds for every species
    err = max_norm_error(u, lambda x, y, t: x * y + t, g, 3.0)
    assert err[0] == 0.0 and err[1] == np.max(XX * YY)
    with pytest.raises(ValueError, match="^exact: "):
        max_norm_error(u, lambda x, y, t: np.ones((3,) + x.shape), g, 3.0)


def test_ratio_and_order_doubling():
    rows = ratio_and_order([(32, 9.102e-05), (64, 2.276e-05)])
    assert math.isnan(rows[0].ratio) and math.isnan(rows[0].order)
    assert rows[1].ratio == pytest.approx(4.0, abs=5e-3)
    assert rows[1].order == pytest.approx(2.0, abs=2e-3)


def test_ratio_and_order_general_formula():
    rows = ratio_and_order([(6, 4.271e-02), (12, 5.007e-03)])
    assert rows[1].order == pytest.approx(3.09, abs=5e-3)


def test_ratio_and_order_equal_errors():
    rows = ratio_and_order([(4, 1.0), (8, 1.0)])
    assert rows[1].ratio == 1.0 and rows[1].order == 0.0


def test_ratio_and_order_zero_error_sentinel():
    rows = ratio_and_order([(4, 1.0), (8, 0.0)])
    assert rows[1].ratio == math.inf
    assert math.isnan(rows[1].order)


def test_ratio_and_order_scale_invariance():
    errs = [(4, 3e-2), (8, 7e-3), (16, 1.8e-3)]
    base = ratio_and_order(errs)
    scaled = ratio_and_order([(m, 7.3 * e) for m, e in errs])
    for b, s in zip(base[1:], scaled[1:]):
        assert s.ratio == pytest.approx(b.ratio, rel=1e-13)
        assert s.order == pytest.approx(b.order, rel=1e-13)


def test_ratio_and_order_requires_increasing_m():
    with pytest.raises(ValueError):
        ratio_and_order([(8, 1.0), (8, 0.5)])


def grids_and_powerlaw(sigma, Ms=(4, 8, 16)):
    grids = [build_grid(2, 2, M, M) for M in Ms]
    sols = []
    for g in grids:
        XX, YY = g.interior_mesh()
        star = np.sin(XX) * np.cos(YY)
        sols.append((star + 2.5 * g.hx ** sigma * (1 + XX * YY)).ravel()[None, :])
    return grids, sols


@pytest.mark.parametrize("sigma", [2, 4])
def test_runge_order_synthetic(sigma):
    grids, sols = grids_and_powerlaw(sigma)
    orders_node = runge_order(sols[0], sols[1], sols[2], *grids,
                              probe=(0.5, 1.0))
    assert orders_node[0] == pytest.approx(sigma, abs=1e-10)


def test_runge_order_needs_a_probe():
    # the order is read at a probe node only; there is no max-norm order
    grids, sols = grids_and_powerlaw(2)
    with pytest.raises(TypeError, match="probe"):
        runge_order(sols[0], sols[1], sols[2], *grids)


@pytest.mark.parametrize("Ms", [(4, 12, 36), (4, 8, 24)])
def test_runge_order_rejects_refinement_other_than_halving(Ms):
    # nested meshes refined by 3 would read log2(9) for an exact h^2 error
    grids, sols = grids_and_powerlaw(2, Ms)
    with pytest.raises(ValueError, match="factor-2 refinements"):
        runge_order(sols[0], sols[1], sols[2], *grids, probe=(0.5, 1.0))


def test_runge_order_nan_when_differences_vanish():
    # one function of the coordinates on each mesh: the nested meshes agree
    # exactly on the coincident nodes
    grids = [build_grid(2, 2, M, M) for M in (4, 8, 16)]
    u_h, u_h2, u_h4 = ((x + 3.0 * y)[None, :]
                       for x, y in (g.interior_xy for g in grids))
    orders = runge_order(u_h, u_h2, u_h4, *grids, probe=(0.5, 1.0))
    assert math.isnan(orders[0])


def test_positivity_scan_positive_field():
    g = build_grid(1, 1, 5, 5)
    u = np.ones((2, g.n_interior))
    mins = positivity_scan(u, g)
    assert all(m > 0 for m, _ in mins)


def test_positivity_scan_locates_negative_entry():
    g = build_grid(1, 1, 6, 6)
    u = np.ones((1, g.n_interior))
    u[0, lex_index(3, 4, 6)] = -1.0
    (mn, node), = positivity_scan(u, g)
    assert mn == -1.0 and node == (3, 4)


def test_probe_values_and_validation():
    g = build_grid(500, 500, 8, 8)
    u = np.arange(g.n_interior, dtype=float)[None, :]
    v = probe_values(u, g, 250.0, 250.0)
    assert v[0] == u[0, lex_index(4, 4, 8)]
    with pytest.raises(ValueError):
        probe_values(u, g, 83.33, 83.33)
    # a node on each of the four sides (top, bottom, left, right)
    for x, y in ((250.0, 500.0), (250.0, 0.0), (0.0, 250.0), (500.0, 250.0)):
        with pytest.raises(ValueError, match="outside interior range"):
            probe_values(u, g, x, y)
