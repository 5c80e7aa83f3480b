"""Damping profiles and the semi-discrete right-hand sides of all PML models.

Five model kinds are implemented on top of the shared interior scheme:

* ``Interior``: Maxwell TMz with weak wall conditions, no layer.
* ``ModalUnsplit``: unsplit PML with auxiliary variable driven by
  sigma * dHx/dy.  The ``theta`` weight extends the weak y-wall treatment
  into the auxiliary equation; theta = 0 is the naive discretization,
  theta = 1 the stabilized one.
* ``PhysicallyMotivated``: PML whose auxiliary variable obeys the pointwise
  ODE dP/dt = sigma (Hx - P), with sigma (Hx - P) also forcing Hx.
* ``SplitFieldNaive``: Berenger-style splitting Ez = Ez^(x) + Ez^(y) with
  all Ez-equation penalties on the damped x-component.
* ``SplitFieldStable``: same splitting with the y-wall penalty moved to the
  undamped Ez^(y) equation, which makes the scheme exactly equivalent to
  the stabilized modal one under the substitution aux -> sigma * Ez^(y).

The damping sigma(x) acts per x-column (diag(sigma) kron Iy) and is a
monomial ramp d0 * r^p (cubic, p = 3, unless a caller asks otherwise)
inside layers of width delta at both ends of the x-interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sbpml.boundary_sat import BoundaryConfig, PenaltyParams, sat_contributions, sat_y_field, wall_residuals
from sbpml.grid_state import FieldState, Grid2D, OperatorPair

MODEL_KINDS = (
    "Interior",
    "ModalUnsplit",
    "PhysicallyMotivated",
    "SplitFieldNaive",
    "SplitFieldStable",
)

# Which FieldState.model each model kind advances.
STATE_MODEL = {
    "Interior": "Interior",
    "ModalUnsplit": "ModalUnsplit",
    "PhysicallyMotivated": "PhysicallyMotivated",
    "SplitFieldNaive": "SplitField",
    "SplitFieldStable": "SplitField",
}


@dataclass(frozen=True)
class ModelSpec:
    """Which semi-discrete system to evaluate, and its stabilization weight.

    ``theta`` only affects ModalUnsplit (weight of the stabilizing term in
    the auxiliary equation).
    """

    kind: str
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")


@dataclass(frozen=True)
class DampingProfile:
    """Monomial-ramp damping profile, precomputed at the x grid points."""

    x0: float
    delta: float
    d0: float
    sigma_values: np.ndarray

    @property
    def sigma_max(self) -> float:
        return float(np.max(self.sigma_values)) if self.sigma_values.size else 0.0


def damping_coefficient(delta: float, tol: float, power: int = 3) -> float:
    """Peak damping d0 = ((power + 1) / (2 delta)) * ln(1/tol) for relative error tol.

    The ramp d0 * r^power integrates to d0 * delta / (power + 1) over the
    layer, so this d0 reflects a normally incident wave by
    exp(-2 * integral of sigma) = tol; for the default cubic ramp the
    factor is 4 / (2 delta).
    """
    if delta <= 0:
        raise ValueError(f"layer width must be positive, got {delta}")
    if not 0 < tol < 1:
        raise ValueError(f"tolerance must lie in (0, 1), got {tol}")
    return ((power + 1.0) / (2.0 * delta)) * math.log(1.0 / tol)


def sigma_at(x, x0: float, delta: float, d0: float, power: int = 3):
    """Damping value d0 * ((|x| - x0)/delta)^power inside the layer, 0 elsewhere."""
    x = np.asarray(x, dtype=float)
    ramp = np.clip((np.abs(x) - x0) / delta, 0.0, None)
    return d0 * ramp**power


def make_damping_profile(grid: Grid2D, x0: float, delta: float, d0: float, power: int = 3) -> DampingProfile:
    """Sample the damping ramp d0 * r^power at the grid's x coordinates.

    d0 = 0 (or delta covering no grid point) gives the undamped interior
    problem.
    """
    return DampingProfile(x0=x0, delta=delta, d0=d0, sigma_values=sigma_at(grid.x, x0, delta, d0, power))


def zero_damping(grid: Grid2D) -> DampingProfile:
    return DampingProfile(x0=grid.x_max, delta=1.0, d0=0.0, sigma_values=np.zeros(grid.nx))


def evaluate_rhs(
    spec: ModelSpec,
    state: FieldState,
    prof: DampingProfile,
    bc: BoundaryConfig,
    penalties: PenaltyParams,
    ops: OperatorPair,
    grid: Grid2D,
    t: float,
) -> FieldState:
    """Time derivative of the state under the chosen semi-discrete model.

    The four wall residuals (and so any wall data) are evaluated once and
    shared by the SAT fields, the theta term and the split y-wall penalty.
    The returned state's ``bt`` is 0; ``run_scenario`` sets it to the
    integrand of the boundary time-integral that completes the model's
    energy functional, so that integral is advanced by the same time
    integrator as the fields (see ``diagnostics``).
    """
    if state.model != STATE_MODEL[spec.kind]:
        raise ValueError(f"state model {state.model!r} does not match spec kind {spec.kind!r}")
    ez_tot = state.ez_total
    if ez_tot.shape != (grid.nx, grid.ny):
        raise ValueError(f"state shape {ez_tot.shape} does not match grid {(grid.nx, grid.ny)}")

    sigma = prof.sigma_values[:, None]
    residuals = wall_residuals(ez_tot, state.hy, state.hx, bc, grid, t)
    _, _, r_bottom, r_top = residuals
    sat_ez, sat_hy, sat_hx = sat_contributions(residuals, penalties, ops)

    if spec.kind == "Interior":
        d_ez = -ops.dx(state.hy) + ops.dy(state.hx) + sat_ez
        d_hy = -ops.dx(state.ez) + sat_hy
        d_hx = ops.dy(state.ez) + sat_hx
        out = FieldState(model=state.model, ez=d_ez, hy=d_hy, hx=d_hx)

    elif spec.kind == "ModalUnsplit":
        ez, hy, hx, aux = state.ez, state.hy, state.hx, state.aux
        d_ez = -ops.dx(hy) + ops.dy(hx) + aux - sigma * ez + sat_ez
        d_hy = -ops.dx(ez) - sigma * hy + sat_hy
        d_hx = ops.dy(ez) + sat_hx
        # Auxiliary update with the weak y-wall treatment extended into it.
        bracket = ops.dy(hx)
        if spec.theta != 0.0:
            sat_y_field(r_bottom, r_top, spec.theta * penalties.alpha_y, ops, out=bracket)
        d_aux = sigma * bracket
        out = FieldState(model=state.model, ez=d_ez, hy=d_hy, hx=d_hx, aux=d_aux)

    elif spec.kind == "PhysicallyMotivated":
        ez, hy, hx, aux = state.ez, state.hy, state.hx, state.aux
        relax = sigma * (hx - aux)
        d_ez = -ops.dx(hy) + ops.dy(hx) - sigma * ez + sat_ez
        d_hy = -ops.dx(ez) - sigma * hy + sat_hy
        d_hx = ops.dy(ez) + relax + sat_hx
        out = FieldState(model=state.model, ez=d_ez, hy=d_hy, hx=d_hx, aux=relax.copy())

    else:  # SplitFieldNaive or SplitFieldStable
        ez_x, hy, hx = state.ez, state.hy, state.hx
        d_hy = -ops.dx(ez_tot) - sigma * hy + sat_hy
        d_hx = ops.dy(ez_tot) + sat_hx
        if spec.kind == "SplitFieldNaive":
            # Both Ez-equation penalties act on the damped x-component.
            d_ez_x = -ops.dx(hy) - sigma * ez_x + sat_ez
            d_ez_y = ops.dy(hx)
        else:
            # Move the y-wall penalty to the undamped component; this is
            # what makes the scheme conjugate to the stabilized modal one.
            saty = sat_y_field(r_bottom, r_top, penalties.alpha_y, ops)
            satx = sat_ez - saty
            d_ez_x = -ops.dx(hy) - sigma * ez_x + satx
            d_ez_y = ops.dy(hx) + saty
        out = FieldState(model=state.model, ez=d_ez_x, hy=d_hy, hx=d_hx, aux=d_ez_y)

    return out


def reduce_splitfield_to_modal(state: FieldState, prof: DampingProfile) -> FieldState:
    """Map a split-field state to the modal unknowns.

    The electric field is the sum of the split components and the modal
    auxiliary variable is sigma * Ez^(y) pointwise.  Applying this map to
    the stable split-field right-hand side reproduces the theta = 1 modal
    right-hand side of the mapped state.
    """
    if state.model != "SplitField":
        raise ValueError(f"expected a SplitField state, got {state.model!r}")
    sigma = prof.sigma_values[:, None]
    return FieldState(
        model="ModalUnsplit",
        ez=state.ez + state.aux,
        hy=state.hy.copy(),
        hx=state.hx.copy(),
        aux=sigma * state.aux,
        bt=state.bt,
    )
