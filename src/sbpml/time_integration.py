"""Classical fourth-order Runge-Kutta time stepping for the semi-discrete systems."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TimeGrid:
    """Fixed-step time axis with t_final = dt * n_steps."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"time step must be positive, got {self.dt}")
        if self.n_steps < 0:
            raise ValueError(f"step count must be nonnegative, got {self.n_steps}")

    @property
    def t_final(self) -> float:
        return self.dt * self.n_steps


def rk4_step(rhs, u, t: float, dt: float):
    """One classical four-stage Runge-Kutta step.

    ``rhs`` maps (state, time) to a state of the same type; the state type
    must support addition and scalar multiplication.  Exactly linear in u
    when rhs is linear.
    """
    k1 = rhs(u, t)
    k2 = rhs(u + (0.5 * dt) * k1, t + 0.5 * dt)
    k3 = rhs(u + (0.5 * dt) * k2, t + 0.5 * dt)
    k4 = rhs(u + dt * k3, t + dt)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
