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


@dataclass(frozen=True, eq=False)
class DampingProfile:
    """Monomial-ramp damping profile, precomputed at the grid points.

    ``sigma_values`` holds sigma at the x points of a grid with ``ny``
    points in y.  ``rows`` is the one slice of x rows, built once, from
    the first to the last row with sigma != 0: empty when nothing is
    damped, the last rows for a layer at one end, the whole axis for
    layers at both ends.  ``sigma`` is sigma on those rows repeated along
    y: a product with a broadcast column would make numpy allocate a
    buffer of up to 8192 entries, a whole field at desk size.  Profiles
    compare by identity.
    """

    d0: float
    sigma_values: np.ndarray
    ny: int
    rows: slice = field(init=False, repr=False)
    sigma: np.ndarray = field(init=False, repr=False)

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
    ``WallTerms`` of (ops, bc, penalties, spec.kind, spec.theta,
    prof.rows), and ``model``, the ``FieldState.model`` this system
    advances.
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
        walls = WallTerms(self.ops, self.bc, self.penalties, self.spec.kind, self.spec.theta, self.prof.rows)
        object.__setattr__(self, "walls", walls)
        object.__setattr__(self, "model", STATE_MODEL[self.spec.kind])

    def data_free(self) -> "SemiDiscrete":
        """This system without wall data: the same walls' reflection
        coefficients with zero data, so its RHS is a linear map of the state.
        The system itself when it has no wall data."""
        if not self.walls.data:
            return self
        return SemiDiscrete(self.spec, self.prof, BoundaryConfig(self.bc.r_x, self.bc.r_y), self.penalties, self.ops)


def evaluate_rhs(system: SemiDiscrete, state: FieldState, t: float, out: Optional[FieldState] = None) -> FieldState:
    """Time derivative of the state under the system's semi-discrete model.

    The derivative is written into ``out``, a state of the same model,
    shape and dtype that shares no memory with ``state`` (a new state if
    None), and returned; every entry of ``out.data`` is overwritten.  Both
    arrays must be C-contiguous, as the wall terms gather and scatter
    through their flat views (``FieldState.flat``).
    ``state`` may be one state or a stack (nfields, ..., nx, ny) of states,
    each of which gets the bits of its own rate: ``data[k]`` is field k of
    every state, one contiguous block, and every apply, product and
    scatter acts on each state of a stack as on one state.  The wall
    residuals (and so any wall data) are evaluated once, on the boundary
    vector, and shared by the SAT terms, the theta term and the split
    y-wall penalty.
    Derivatives of two fields along one axis are one stacked apply where
    the outputs allow it.  The damping terms are applied on ``prof.rows``
    only, with a rate written later as their scratch, so no full-size
    temporary is made; an auxiliary rate that carries sigma is exactly
    zero outside those rows.
    """
    spec, prof, ops, walls = system.spec, system.prof, system.ops, system.walls
    if state.model != system.model:
        raise ValueError(f"state model {state.model!r} does not match spec kind {spec.kind!r}")
    shape = (ops.x.n, ops.y.n)
    if state.data.shape[-2:] != shape:
        raise ValueError(f"state shape {state.data.shape[-2:]} does not match operators {shape}")
    if out is None:
        out = FieldState(state.model, np.empty_like(state.data))
    elif out.model != state.model or out.data.shape != state.data.shape or out.data.dtype != state.data.dtype:
        raise ValueError(
            f"output {out.model} {out.data.shape} {out.data.dtype} does not match "
            f"state {state.model} {state.data.shape} {state.data.dtype}"
        )
    if state.flat is None or out.flat is None:
        named = "state" if state.flat is None else "output"
        raise ValueError(f"the {named} array is not C-contiguous")

    # Fields first, for one state or a stack: data[k] is field k, and
    # data_r[k] its damped rows.  Ufuncs take their output positionally,
    # which skips keyword parsing on every call.
    kind, data, d = spec.kind, state.data, out.data
    d_ez, d_hy, d_hx = d[0], d[1], d[2]
    rows, sigma = prof.rows, prof.sigma
    residuals = wall_residuals(state, walls, t)

    if kind in ("SplitFieldNaive", "SplitFieldStable"):
        # The total Ez lives in d_aux until Dy Hx is written there.
        # d_hy = -(Dx Ez + sigma Hy), d_hx = Dy Ez, d_ez_x = -(Dx Hy + sigma
        # Ez_x), d_ez_y = Dy Hx; each sigma term formed in a later rate.
        data_r, d_r = data[:, ..., rows, :], d[:, ..., rows, :]
        ez_tot = np.add(data[0], data[3], d[3])
        ops.dx(ez_tot, out=d_hy)
        v = d_r[1]
        np.add(v, np.multiply(sigma, data_r[1], d_r[0]), v)
        np.negative(d_hy, d_hy)
        ops.dy(ez_tot, out=d_hx)
        ops.dx(data[1], out=d_ez)
        v = d_r[0]
        np.add(v, np.multiply(sigma, data_r[0], d_r[3]), v)
        np.negative(d_ez, d_ez)
        ops.dy(data[2], out=d[3])
    else:
        # d_ez = Dy Hx - Dx Hy (+ aux) (- sigma Ez), d_hy = -(Dx Ez + sigma
        # Hy), with no sigma in Interior, and d_hx = Dy Ez.  Dx Hy and Dx Ez
        # are one stacked apply into d_ez and d_hy.
        ops.dx(data[1::-1], out=d[0:2])
        if kind == "PhysicallyMotivated":
            # Dy Ez and Dy Hx are one stacked apply into d_hx and d_aux.
            dy_hx = ops.dy(data[0:3:2], out=d[2:4])[1]
        else:
            # ModalUnsplit keeps Dy Hx in d_aux as the start of its
            # auxiliary bracket.
            dy_hx = ops.dy(data[2], out=d[3] if kind == "ModalUnsplit" else d_hx)
        np.subtract(dy_hx, d_ez, d_ez)
        if kind == "ModalUnsplit":
            np.add(d_ez, data[3], d_ez)
        if kind != "Interior":
            # The sigma terms are formed in a rate written after them: d_hx
            # before Dy Ez, or PhysicallyMotivated's d_aux once Dy Hx is used.
            data_r, d_r = data[:, ..., rows, :], d[:, ..., rows, :]
            scratch = d_r[3] if kind == "PhysicallyMotivated" else d_r[2]
            v = d_r[0]
            np.subtract(v, np.multiply(sigma, data_r[0], scratch), v)
            v = d_r[1]
            np.add(v, np.multiply(sigma, data_r[1], scratch), v)
        np.negative(d_hy, d_hy)
        if kind == "PhysicallyMotivated":
            # The relaxation sigma (Hx - P) drives P and forces Hx.
            relax = np.subtract(data_r[2], data_r[3], scratch)
            relax *= sigma
            v = d_r[2]
            np.add(v, relax, v)
        else:
            ops.dy(data[0], out=d_hx)

    sat_contributions(residuals, walls, out)

    if kind == "ModalUnsplit":
        # Auxiliary update with the weak y-wall treatment extended into it,
        # skipped at theta = 0, where its zero increments could turn a -0.0
        # rate into +0.0.
        if spec.theta != 0.0:
            sat_y_field(residuals, walls, out)
        v = d_r[3]
        np.multiply(v, sigma, v)
    if kind in ("ModalUnsplit", "PhysicallyMotivated"):
        if rows.start:
            d[3, ..., : rows.start, :] = 0.0
        if rows.stop < shape[0]:
            d[3, ..., rows.stop :, :] = 0.0

    return out
