import numpy as np
import pytest

from parabolic2d import (boundary_signal, rate_coefficients, reaction_jacobian,
                         reaction_rates)


@pytest.fixture(scope="module")
def k1():
    return rate_coefficients(1.0)


def test_constant_coefficients(k1):
    assert k1.k1 == 6.0e-12
    assert k1.k3 == 8.0e-12 and k1.k4 == 8.0e-12
    assert k1.k6 == 1.6e-14 and k1.k8 == 2.3e-10
    assert k1.k9 == 1.0e-11 and k1.k10 == 2.9e-13


def test_photolytic_coefficients(k1):
    assert k1.k2 == pytest.approx(7.8e-5 * np.exp(-0.87), rel=1e-12)
    assert k1.k2 == pytest.approx(3.2678e-5, rel=1e-4)
    assert k1.k5 == pytest.approx(6.7706e-3, rel=1e-4)
    assert k1.k7 == pytest.approx(1.6e-4 * np.exp(-1.9), rel=1e-12)


def test_photolytic_monotone_in_cos_theta():
    lo, hi = rate_coefficients(0.3), rate_coefficients(0.9)
    assert lo.k2 < hi.k2 and lo.k5 < hi.k5 and lo.k7 < hi.k7


def test_rejects_nonpositive_cos_theta():
    with pytest.raises(ValueError):
        rate_coefficients(0.0)
    with pytest.raises(ValueError):
        rate_coefficients(-0.5)


@pytest.mark.parametrize("cos_theta", [float("nan"), float("inf"), 1.5])
def test_rejects_cos_theta_outside_unit_interval(cos_theta):
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        rate_coefficients(cos_theta)


@pytest.mark.parametrize("cos_theta", [True, np.True_])
def test_rejects_bool_cos_theta(cos_theta):
    # a bool passes 0 < cos_theta <= 1 as 1; it is not a cosine
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        rate_coefficients(cos_theta)


def test_rates_vanish_at_zero(k1):
    assert np.array_equal(reaction_rates(np.zeros(10), k1), np.zeros(10))


def test_rates_single_oh(k1):
    u = np.zeros(10)
    u[8] = 1.0  # OH only
    r = reaction_rates(u, k1)
    expected = np.zeros(10)
    expected[6] = k1.k10
    expected[8] = -k1.k10
    assert np.allclose(r, expected, rtol=0, atol=0)


def test_rates_hc_oh_pair(k1):
    u = np.zeros(10)
    u[2] = u[8] = 1.0  # HC and OH
    r = reaction_rates(u, k1)
    expected = np.zeros(10)
    expected[2] = -k1.k1
    expected[3] = 2 * k1.k1
    expected[6] = k1.k10
    expected[7] = 4 * k1.k1
    expected[8] = -(k1.k1 + k1.k10)
    assert np.allclose(r, expected, rtol=0, atol=0)


def test_rates_batch_broadcasting(k1):
    rng = np.random.default_rng(3)
    u = rng.uniform(0, 100, size=(10, 17))
    r = reaction_rates(u, k1)
    assert r.shape == (10, 17)
    for col in range(17):
        assert np.allclose(r[:, col], reaction_rates(u[:, col], k1))


def test_jacobian_structural_zeros(k1):
    rng = np.random.default_rng(5)
    u = rng.uniform(0, 1000, size=10)
    J = reaction_jacobian(u, k1)
    assert J[0, 3] == 0.0   # u4 never feeds the NO equation
    u[8] = 2.0
    J = reaction_jacobian(u, k1)
    assert J[2, 2] == pytest.approx(-2 * k1.k1, rel=1e-14)
    assert J[2, 2] == pytest.approx(-1.2e-11, rel=1e-12)


def test_jacobian_matches_finite_differences(k1):
    rng = np.random.default_rng(11)
    scales = np.array([1e3, 1e3, 1e3, 5e3, 5e3, 1e2, 1e-2, 1e-2, 1e-3, 1e-11])
    worst = 0.0
    for _ in range(50):
        u = rng.uniform(0, 1, size=10) * scales
        J = reaction_jacobian(u, k1)
        for m in range(10):
            h = 1e-6 * (1 + abs(u[m]))
            up, um = u.copy(), u.copy()
            up[m] += h
            um[m] -= h
            col = (reaction_rates(up, k1) - reaction_rates(um, k1)) / (2 * h)
            scale = max(np.max(np.abs(J)), np.max(np.abs(col)))
            worst = max(worst, np.max(np.abs(J[:, m] - col)) / scale)
    assert worst < 1e-6


def test_quasi_positivity(k1):
    # R_l(u) >= 0 whenever u_l = 0 and u >= 0
    rng = np.random.default_rng(23)
    scales = np.array([1e3, 1e3, 1e3, 5e3, 5e3, 1e2, 1e-2, 1e-2, 1e-3, 1e-11])
    violations = []
    for _ in range(1000):
        u = rng.uniform(0, 1, size=10) * scales
        for l in range(10):
            v = u.copy()
            v[l] = 0.0
            r = reaction_rates(v, k1)[l]
            if r < 0:
                violations.append((l, v, r))
    assert not violations, f"quasi-positivity violated at {violations[:3]}"


def test_rates_are_quadratic_polynomials(k1):
    # degree <= 2: values at lambda = 0, 1, 2 predict lambda = 3 exactly
    rng = np.random.default_rng(31)
    u = rng.uniform(0, 10, size=10)
    r0 = reaction_rates(0 * u, k1)
    r1 = reaction_rates(1 * u, k1)
    r2 = reaction_rates(2 * u, k1)
    r3 = reaction_rates(3 * u, k1)
    pred = 3 * r2 - 3 * r1 + r0
    assert np.allclose(r3, pred, rtol=1e-12, atol=1e-25)


def test_boundary_signal_compatibility_value():
    assert boundary_signal(0.0, 500.0) == pytest.approx(1000.0)


def test_boundary_signal_range_and_period():
    t = np.linspace(0, 1000, 20001)
    g = boundary_signal(t, 7.0)
    assert np.all(g >= 7.0 - 1e-12) and np.all(g <= 21.0 + 1e-12)
    assert boundary_signal(5.0, 7.0) == pytest.approx(
        boundary_signal(5.0 + 8 * np.pi, 7.0), rel=1e-12)
