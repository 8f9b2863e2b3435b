import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from parabolic2d import (build_grid, build_time_grid, extrapolate_space,
                         extrapolate_spacetime, re_weights, restrict)


@pytest.mark.parametrize("sigma,g1,g2", [(2, -1 / 3, 4 / 3),
                                         (4, -1 / 15, 16 / 15),
                                         (6, -1 / 63, 64 / 63)])
def test_weights_values(sigma, g1, g2):
    gamma1, gamma2 = re_weights(sigma)
    assert gamma1 == pytest.approx(g1, abs=1e-15)
    assert gamma2 == pytest.approx(g2, abs=1e-15)


@pytest.mark.parametrize("sigma", range(1, 12))
def test_weight_identities(sigma):
    gamma1, gamma2 = re_weights(sigma)
    assert abs(gamma1 + gamma2 - 1.0) <= 1e-15
    assert abs(gamma1 + gamma2 / 2 ** sigma) <= 1e-15


@given(sigma=st.integers(1, 40))
def test_weight_identities_up_to_sigma_40(sigma):
    # gamma1 = 1 - gamma2 is exact for gamma2 in (1, 2]; the cancellation
    # misses zero by at most a quarter of an ulp of 1 (2**-54) for sigma <= 40
    gamma1, gamma2 = re_weights(sigma)
    assert gamma1 + gamma2 == 1.0
    assert abs(gamma1 + gamma2 / 2 ** sigma) <= 2.0 ** -53


def test_weights_reject_bad_sigma():
    with pytest.raises(ValueError):
        re_weights(0)
    # a bool would pass the range check as order 1, a non-finite sigma
    # gives NaN weights, and a string used to fail as a TypeError
    for sigma in (True, np.True_, float("nan"), float("inf"),
                  np.float64("nan"), "2"):
        with pytest.raises(ValueError, match="^sigma must be"):
            re_weights(sigma)


def smooth(x, y):
    return np.sin(1.3 * x) * np.cos(0.7 * y) + 0.2 * x * y


def fields(grid, extra=0.0):
    XX, YY = grid.interior_mesh()
    return (smooth(XX, YY) + extra).ravel()[None, :]


def test_extrapolation_fixed_point():
    gc, gf = build_grid(2, 2, 4, 4), build_grid(2, 2, 8, 8)
    u = fields(gc)
    # the same function on the fine mesh: equal values on coincident nodes
    uf = fields(gf)
    assert np.array_equal(restrict(uf, gc), u)
    out = extrapolate_space(u, uf, gc, sigma=2)
    assert np.allclose(out, u, rtol=1e-14)


@pytest.mark.parametrize("sigma", [2, 4])
def test_synthetic_power_law_cancellation(sigma):
    gc, gf = build_grid(2, 2, 6, 6), build_grid(2, 2, 12, 12)
    C = 3.7
    u_h = fields(gc, extra=C * gc.hx ** sigma)
    u_h2 = fields(gf, extra=C * gf.hx ** sigma)
    out = extrapolate_space(u_h, u_h2, gc, sigma)
    assert np.allclose(out, fields(gc), rtol=0, atol=1e-12)


def test_affine_invariance():
    gc, gf = build_grid(1, 1, 4, 4), build_grid(1, 1, 8, 8)
    rng = np.random.default_rng(6)
    u = rng.standard_normal((2, gc.n_interior))
    uf = rng.standard_normal((2, gf.n_interior))
    c = 4.2
    base = extrapolate_space(u, uf, gc, 2)
    shifted = extrapolate_space(u + c, uf + c, gc, 2)
    assert np.allclose(shifted, base + c, rtol=1e-13)


def test_space_rejects_wrong_refinement():
    # a field of 12x12, not of the 8x8 refinement of 4x4
    gc = build_grid(1, 1, 4, 4)
    with pytest.raises(ValueError, match="does not match grid"):
        extrapolate_space(np.zeros((1, 9)), np.zeros((1, 121)), gc, 2)


def test_spacetime_fixed_point_and_cancellation():
    gc, gf = build_grid(2, 2, 6, 6), build_grid(2, 2, 12, 12)
    tc, tf = build_time_grid(1.0, 10), build_time_grid(1.0, 20)
    A, B, ps, qt = 2.1, -1.4, 2, 2
    u_star_c = fields(gc)
    u_hh = fields(gc, extra=A * gc.hx ** ps + B * tc.tau ** qt)
    u_ht = fields(gc, extra=A * gc.hx ** ps + B * tf.tau ** qt)
    u_fh = fields(gf, extra=A * gf.hx ** ps + B * tc.tau ** qt)
    u_ft = fields(gf, extra=A * gf.hx ** ps + B * tf.tau ** qt)
    out = extrapolate_spacetime(u_hh, u_ht, u_fh, u_ft, gc, ps, qt)
    assert np.allclose(out, u_star_c, rtol=0, atol=1e-12)
    same = extrapolate_spacetime(u_star_c, u_star_c, fields(gf), fields(gf),
                                 gc, 2, 2)
    assert np.allclose(same, u_star_c, rtol=1e-13)


@pytest.mark.parametrize("slot", [2, 3])
def test_spacetime_rejects_a_fine_field_of_another_mesh(slot):
    # a field of 12x12 in either fine slot, not of the 8x8 refinement of 4x4
    gc, gf = build_grid(1, 1, 4, 4), build_grid(1, 1, 8, 8)
    u = [np.zeros((1, g.n_interior)) for g in (gc, gc, gf, gf)]
    u[slot] = np.zeros((1, build_grid(1, 1, 12, 12).n_interior))
    with pytest.raises(ValueError, match=r"field shape \(1, 121\) does not "
                                         r"match grid \(expected \(L, 49\)\)"):
        extrapolate_spacetime(*u, gc, 2, 2)


def test_extrapolations_take_only_the_coarse_grid():
    # the fine grid and the time grids are derived or gone; each old call
    # form is a TypeError, never a shifted argument
    gc, gf = build_grid(1, 1, 4, 4), build_grid(1, 1, 8, 8)
    tc, tf = build_time_grid(1.0, 10), build_time_grid(1.0, 20)
    u, uf = np.zeros((1, gc.n_interior)), np.zeros((1, gf.n_interior))
    with pytest.raises(TypeError):
        extrapolate_space(u, uf, gc, gf, 2)
    with pytest.raises(TypeError):
        extrapolate_space(u, uf, gc, gf, sigma=2)
    with pytest.raises(TypeError):
        extrapolate_spacetime(u, u, uf, uf, gc, gf, tc, tf, 2, 2)
    with pytest.raises(TypeError):
        extrapolate_spacetime(u, u, uf, uf, gc, gf, tc, tf,
                              sigma_space=2, sigma_time=2)


def mismatched_coarse_fields(gc):
    # the coarse field of one species of ten, a coarse field of one node
    # per species, and a coarse field with a NaN
    W = np.random.default_rng(9).standard_normal((10, gc.n_interior))
    nan = W.copy()
    nan[3, 4] = np.nan
    return W, [(W[:1], "expected 10 species, got 1"),
               (W[:, :1], r"field shape \(10, 1\)"),
               (nan, "non-finite entry at species 3, node")]


def test_space_checks_the_coarse_field():
    # a coarse field used to broadcast against the restricted fine one
    # (W[:1] gave a (10, 9) result), and a NaN in it passed
    gc, gf = build_grid(1, 1, 4, 4), build_grid(1, 1, 8, 8)
    W, bad = mismatched_coarse_fields(gc)
    W2 = np.random.default_rng(10).standard_normal((10, gf.n_interior))
    assert extrapolate_space(W, W2, gc, 2).shape == W.shape
    for u_h, match in bad:
        with pytest.raises(ValueError, match=match):
            extrapolate_space(u_h, W2, gc, 2)


@pytest.mark.parametrize("slot", [0, 1])
def test_spacetime_checks_the_coarse_fields(slot):
    gc, gf = build_grid(1, 1, 4, 4), build_grid(1, 1, 8, 8)
    W, bad = mismatched_coarse_fields(gc)
    W2 = np.random.default_rng(10).standard_normal((10, gf.n_interior))
    for u, match in bad:
        coarse = [W, W]
        coarse[slot] = u
        with pytest.raises(ValueError, match=match):
            extrapolate_spacetime(*coarse, W2, W2, gc, 2, 2)
    # so is the second fine field, against the species of the first
    with pytest.raises(ValueError, match="expected 10 species, got 1"):
        extrapolate_spacetime(W, W, W2, W2[:1], gc, 2, 2)


def test_weights_are_a_pair():
    # re_weights gives the tuple (gamma1, gamma2); the record type is gone
    import parabolic2d
    assert re_weights(2) == (1.0 - 4.0 / 3.0, 4.0 / 3.0)
    assert not hasattr(parabolic2d, "REWeights")
