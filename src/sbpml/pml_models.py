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
inside layers of width delta at both ends of the x-interval.  Every
damping term is applied on the one run of x rows that holds the damped
rows (``DampingProfile.rows``), not on the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from sbpml.boundary_sat import BoundaryConfig, PenaltyParams, WallTerms, sat_contributions, sat_y_field, wall_residuals
from sbpml.grid_state import FieldState, Grid2D, OperatorPair

# Which FieldState.model each model kind advances.
STATE_MODEL = {
    "Interior": "Interior",
    "ModalUnsplit": "ModalUnsplit",
    "PhysicallyMotivated": "PhysicallyMotivated",
    "SplitFieldNaive": "SplitField",
    "SplitFieldStable": "SplitField",
}
MODEL_KINDS = tuple(STATE_MODEL)


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
    """Monomial-ramp damping profile, precomputed at the grid points.

    ``sigma_values`` holds sigma at the x points of a grid with ``ny``
    points in y.  ``rows`` is the one slice of x rows, built once, from
    the first to the last row with sigma != 0: empty when nothing is
    damped, the last rows for a layer at one end, the whole axis for
    layers at both ends.  ``sigma`` is sigma on those rows repeated along
    y: a product with a broadcast column would make numpy allocate a
    buffer of up to 8192 entries, a whole field at desk size.
    """

    d0: float
    sigma_values: np.ndarray
    ny: int
    rows: slice = field(init=False, repr=False, compare=False)
    sigma: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        damped = np.flatnonzero(self.sigma_values)
        rows = slice(int(damped[0]), int(damped[-1]) + 1) if damped.size else slice(0, 0)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "sigma", np.repeat(self.sigma_values[rows, None], self.ny, axis=1))

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
    return DampingProfile(d0=d0, sigma_values=sigma_at(grid.x, x0, delta, d0, power), ny=grid.ny)


@dataclass(frozen=True, eq=False)
class SemiDiscrete:
    """One semi-discrete system: a model with its damping, walls, penalties and operators.

    Built once per scenario or assembly: ``__post_init__`` checks the
    damping profile against the operators and builds ``walls``, the
    ``WallTerms`` of (ops, bc, penalties, prof.rows), and ``model``, the
    ``FieldState.model`` this system advances.
    """

    spec: ModelSpec
    prof: DampingProfile
    bc: BoundaryConfig
    penalties: PenaltyParams
    ops: OperatorPair
    walls: WallTerms = field(init=False, repr=False)
    model: str = field(init=False, repr=False)

    def __post_init__(self):
        got, shape = (self.prof.sigma_values.size, self.prof.ny), (self.ops.x.n, self.ops.y.n)
        if got != shape:
            raise ValueError(f"damping profile shape {got} does not match operators {shape}")
        object.__setattr__(self, "walls", WallTerms(self.ops, self.bc, self.penalties, self.prof.rows))
        object.__setattr__(self, "model", STATE_MODEL[self.spec.kind])


def evaluate_rhs(system: SemiDiscrete, state: FieldState, t: float, out: Optional[FieldState] = None) -> FieldState:
    """Time derivative of the state under the system's semi-discrete model.

    The derivative is written into ``out``, a state of the same model and
    shape that shares no memory with ``state`` (a new state if None), and
    returned; every entry of ``out.data`` is overwritten.  The wall
    residuals (and so any wall data) are evaluated once, on the boundary
    vector, and shared by the SAT terms, the theta term and the split
    y-wall penalty.  Derivatives of two fields along one axis are one
    stacked apply where the outputs allow it.  The damping terms are
    applied on ``prof.rows`` only, with a rate written later as their
    scratch, so no full-size temporary is made; an auxiliary rate that
    carries sigma is exactly zero outside those rows.
    """
    spec, prof, ops, walls, data = system.spec, system.prof, system.ops, system.walls, state.data
    if state.model != system.model:
        raise ValueError(f"state model {state.model!r} does not match spec kind {spec.kind!r}")
    shape = (ops.x.n, ops.y.n)
    if data.shape[1:] != shape:
        raise ValueError(f"state shape {data.shape[1:]} does not match operators {shape}")
    if out is None:
        out = FieldState(state.model, np.empty_like(data))
    elif out.model != state.model or out.data.shape != data.shape:
        raise ValueError(f"output {out.model} {out.data.shape} does not match state {state.model} {data.shape}")

    kind, d = spec.kind, out.data
    d_ez, d_hy, d_hx = d[0], d[1], d[2]
    rows, sigma = prof.rows, prof.sigma

    if kind in ("SplitFieldNaive", "SplitFieldStable"):
        # The total Ez lives in d_aux until Dy Hx is written there.
        # d_hy = -(Dx Ez + sigma Hy), d_hx = Dy Ez, d_ez_x = -(Dx Hy + sigma
        # Ez_x), d_ez_y = Dy Hx; each sigma term formed in a later rate.
        ez_tot = np.add(data[0], data[3], out=d[3])
        residuals = wall_residuals(data, walls, t, True)
        ops.dx(ez_tot, out=d_hy)
        v = d_hy[rows]
        np.add(v, np.multiply(sigma, data[1, rows], out=d_ez[rows]), out=v)
        np.negative(d_hy, out=d_hy)
        ops.dy(ez_tot, out=d_hx)
        ops.dx(data[1], out=d_ez)
        v = d_ez[rows]
        np.add(v, np.multiply(sigma, data[0, rows], out=d[3, rows]), out=v)
        np.negative(d_ez, out=d_ez)
        ops.dy(data[2], out=d[3])
    else:
        # d_ez = Dy Hx - Dx Hy (+ aux) (- sigma Ez), d_hy = -(Dx Ez + sigma
        # Hy), with no sigma in Interior, and d_hx = Dy Ez.  Dx Hy and Dx Ez
        # are one stacked apply into d_ez and d_hy.
        residuals = wall_residuals(data, walls, t)
        ops.dx(data[1::-1], out=d[0:2])
        if kind == "PhysicallyMotivated":
            # Dy Ez and Dy Hx are one stacked apply into d_hx and d_aux.
            dy_hx = ops.dy(data[0:3:2], out=d[2:4])[1]
        else:
            # ModalUnsplit keeps Dy Hx in d_aux as the start of its
            # auxiliary bracket.
            dy_hx = ops.dy(data[2], out=d[3] if kind == "ModalUnsplit" else d_hx)
        np.subtract(dy_hx, d_ez, out=d_ez)
        if kind == "ModalUnsplit":
            np.add(d_ez, data[3], out=d_ez)
        if kind != "Interior":
            # The sigma terms are formed in a rate written after them: d_hx
            # before Dy Ez, or PhysicallyMotivated's d_aux once Dy Hx is used.
            scratch = (dy_hx if kind == "PhysicallyMotivated" else d_hx)[rows]
            v = d_ez[rows]
            np.subtract(v, np.multiply(sigma, data[0, rows], out=scratch), out=v)
            v = d_hy[rows]
            np.add(v, np.multiply(sigma, data[1, rows], out=scratch), out=v)
        np.negative(d_hy, out=d_hy)
        if kind == "PhysicallyMotivated":
            # The relaxation sigma (Hx - P) drives P and forces Hx.
            relax = np.subtract(data[2, rows], data[3, rows], out=scratch)
            relax *= sigma
            v = d_hx[rows]
            np.add(v, relax, out=v)
        else:
            ops.dy(data[0], out=d_hx)

    # In SplitFieldStable the y-wall penalty moves to the undamped
    # component; this is what makes the scheme conjugate to the stabilized
    # modal one.  SplitFieldNaive keeps both Ez penalties on the damped
    # x-component.
    sat_contributions(residuals, walls, d, kind == "SplitFieldStable")

    if kind == "ModalUnsplit":
        # Auxiliary update with the weak y-wall treatment extended into it.
        if spec.theta != 0.0:
            sat_y_field(residuals, spec.theta * system.penalties.alpha_y, walls, d)
        v = d[3, rows]
        np.multiply(v, sigma, out=v)
    if kind in ("ModalUnsplit", "PhysicallyMotivated"):
        if rows.start:
            d[3, : rows.start] = 0.0
        if rows.stop < shape[0]:
            d[3, rows.stop :] = 0.0

    return out
