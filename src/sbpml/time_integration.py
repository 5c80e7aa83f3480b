"""Classical fourth-order Runge-Kutta time stepping for the semi-discrete systems."""

from __future__ import annotations

import numpy as np


def rk4_step(rhs, u: np.ndarray, t: float, dt: float, k1: np.ndarray, q1: float, work) -> float:
    """Advance the array ``u`` in place by one classical four-stage Runge-Kutta step.

    ``rhs(v, s, out)`` writes dv/dt at time s into ``out`` and returns the
    integrand q of a scalar integrated beside the state (the boundary
    integral of the energies; 0.0 if there is none).  ``k1`` must hold
    rhs(u, t) and ``q1`` its integrand: ``scenarios_cli.march``, the one
    caller, has them from the end of the previous step.  ``work`` is four
    arrays shaped like ``u``, overwritten as the stage buffers; ``k1`` is
    left as is.
    Returns the scalar's increment dt/6 (q1 + 2 q2 + 2 q3 + q4), the same
    weights as the fields'.  Exactly linear in u when rhs is linear.
    """
    k2, k3, k4, v = work
    np.multiply(k1, 0.5 * dt, out=v)
    v += u
    q2 = rhs(v, t + 0.5 * dt, k2)
    np.multiply(k2, 0.5 * dt, out=v)
    v += u
    q3 = rhs(v, t + 0.5 * dt, k3)
    np.multiply(k3, dt, out=v)
    v += u
    q4 = rhs(v, t + dt, k4)
    # u += dt/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right.
    np.multiply(k2, 2.0, out=v)
    v += k1
    k3 *= 2.0
    v += k3
    v += k4
    v *= dt / 6.0
    u += v
    return (dt / 6.0) * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
