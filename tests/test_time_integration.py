"""Tests for the RK4 stepper and the fixed-step time grid."""

import numpy as np
import pytest

from sbpml.time_integration import TimeGrid, rk4_step


def test_time_grid_properties():
    tg = TimeGrid(dt=0.25, n_steps=8)
    assert tg.t_final == pytest.approx(2.0)
    assert TimeGrid(dt=0.25, n_steps=0).t_final == 0.0


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(dt=0.0, n_steps=5)
    with pytest.raises(ValueError):
        TimeGrid(dt=0.1, n_steps=-1)


def test_scalar_step_is_stability_polynomial():
    """One step on u' = lambda u multiplies by R(z) = sum_{k<=4} z^k / k!.

    Oracle: R(-0.1) = 0.9048375 exactly (a partial sum of e^{-0.1})."""
    u1 = rk4_step(lambda u, t: -1.0 * u, 1.0, 0.0, 0.1)
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
    got = rk4_step(lambda u, t: a @ u, u0, 0.0, dt)
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
    def rhs(u, t):
        return np.cos(t) * u

    t_final = 2.0
    errs = []
    for n in (20, 40):
        dt = t_final / n
        u = 1.0
        for k in range(n):
            u = rk4_step(rhs, u, k * dt, dt)
        errs.append(abs(u - np.exp(np.sin(t_final))))
    rate = np.log2(errs[0] / errs[1])
    assert rate == pytest.approx(4.0, abs=0.3)


def test_stage_times_are_used():
    """A purely time-dependent right-hand side integrates to Simpson's rule,
    which requires the half- and full-step stage times."""
    got = rk4_step(lambda u, t: t**2, 0.0, 0.0, 1.0)
    # k1 = 0, k2 = k3 = 1/4, k4 = 1 -> (0 + 2/4 + 2/4 + 1)/6 = 1/3.
    assert got == pytest.approx(1.0 / 3.0, abs=1e-15)
