"""Tests for the RK4 stepper."""

import numpy as np
import pytest

from sbpml.time_integration import rk4_step


def step(rhs, u, t, dt):
    """One in-place RK4 step of the array u; returns the integrand's increment."""
    k1 = np.empty_like(u)
    q1 = rhs(u, t, k1)
    return rk4_step(rhs, u, t, dt, k1, q1, [np.empty_like(u) for _ in range(4)])


def linear(a):
    """The right-hand side u' = a u (a scalar or matrix), with no integrand."""
    def rhs(v, t, out):
        out[:] = a @ v if np.ndim(a) else a * v
        return 0.0

    return rhs


def test_scalar_step_is_stability_polynomial():
    """One step on u' = lambda u multiplies by R(z) = sum_{k<=4} z^k / k!.

    Oracle: R(-0.1) = 0.9048375 exactly (a partial sum of e^{-0.1})."""
    u = np.array([1.0])
    step(linear(-1.0), u, 0.0, 0.1)
    u1 = u[0]
    z = -0.1
    r = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    assert u1 == pytest.approx(r, abs=1e-15)
    assert r == pytest.approx(0.9048375, abs=1e-12)
    # And R approximates e^z to O(z^5).
    assert abs(u1 - np.exp(z)) <= 1e-7


def test_linear_system_matches_truncated_matrix_exponential():
    """For u' = A u one RK4 step equals the degree-4 Taylor polynomial of
    exp(dt A) applied to u0, to round-off."""
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 6))
    u0 = rng.standard_normal(6)
    dt = 0.05
    got = u0.copy()
    step(linear(a), got, 0.0, dt)
    m = dt * a
    expect = u0.copy()
    term = u0.copy()
    for k in range(1, 5):
        term = m @ term / k
        expect = expect + term
    assert np.max(np.abs(got - expect)) <= 1e-13


def test_fourth_order_convergence_nonautonomous():
    """u' = cos(t) u has solution e^{sin t}; halving dt must reduce the final
    error by about 2^4."""
    def rhs(v, t, out):
        np.multiply(v, np.cos(t), out=out)
        return 0.0

    t_final = 2.0
    errs = []
    for n in (20, 40):
        dt = t_final / n
        u = np.array([1.0])
        for k in range(n):
            step(rhs, u, k * dt, dt)
        errs.append(abs(u[0] - np.exp(np.sin(t_final))))
    rate = np.log2(errs[0] / errs[1])
    assert rate == pytest.approx(4.0, abs=0.3)


def test_stage_times_are_used():
    """A purely time-dependent right-hand side integrates to Simpson's rule,
    which requires the half- and full-step stage times.  The integrand that
    rhs returns gets the same weights."""
    def rhs(v, t, out):
        out[:] = t**2
        return t**2

    u = np.array([0.0])
    increment = step(rhs, u, 0.0, 1.0)
    # k1 = 0, k2 = k3 = 1/4, k4 = 1 -> (0 + 2/4 + 2/4 + 1)/6 = 1/3.
    assert u[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert increment == pytest.approx(1.0 / 3.0, abs=1e-15)

