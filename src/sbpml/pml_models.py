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

from sbpml.boundary_sat import BoundaryConfig, PenaltyParams, WallTerms, sat_contributions, wall_residuals, wall_terms
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
    ``wall_terms`` of (ops, bc, penalties, spec.kind, spec.theta,
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
        walls = wall_terms(self.ops, self.bc, self.penalties, self.spec.kind, self.spec.theta, self.prof.rows)
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

    The derivative is written into ``out`` (a new state if None) and
    returned; every entry of ``out.data`` is overwritten.  The work is the
    ``rhs_plan`` of (system, state, out), which ``out.plan`` keeps with the
    system and the two arrays it was made for: a call that repeats that
    triple, as every RK4 stage and assembly chunk does, runs only the
    plan's numpy calls, and any other triple makes a new plan.
    """
    if out is None:
        out = FieldState(state.model, np.empty_like(state.data))
        rhs_plan(system, state, out)(t)
        return out
    plan = out.plan
    if plan is None or plan[0] is not system or plan[1] is not state.data or plan[2] is not out.data:
        plan = out.plan = (system, state.data, out.data, rhs_plan(system, state, out))
    plan[3](t)
    return out


def rhs_plan(system: SemiDiscrete, state: FieldState, out: FieldState):
    """The RHS of ``system`` from ``state``'s array into ``out``'s, as a function of t.

    ``out`` must match the state's model, shape and dtype and share no
    memory with it, and both must be C-contiguous for the walls' flat
    gathers and scatters.  That is checked here, once and before any write,
    where every view, operator product (``OperatorPair.calls``) and the
    walls ``on`` the state are made, so a call runs only its model kind's
    numpy calls.  The plan holds arrays and those walls, never ``state`` or
    ``out``, so a plan kept on ``out`` makes no reference cycle.  ``state``
    may be one state or a fields-first stack (nfields, ..., nx, ny), each
    state with the bits of its own rate.  The wall residuals (and data) are
    evaluated once per call and shared by every wall term, through this
    module's names, looked up when called.  The damping terms act on
    ``prof.rows`` only, with a rate written later as their scratch, so an
    auxiliary rate that carries sigma is exactly zero outside those rows.
    """
    spec, prof, ops = system.spec, system.prof, system.ops
    if state.model != system.model:
        raise ValueError(f"state model {state.model!r} does not match spec kind {spec.kind!r}")
    shape = (ops.x.n, ops.y.n)
    if state.data.shape[-2:] != shape:
        raise ValueError(f"state shape {state.data.shape[-2:]} does not match operators {shape}")
    if out.model != state.model or out.data.shape != state.data.shape or out.data.dtype != state.data.dtype:
        raise ValueError(
            f"output {out.model} {out.data.shape} {out.data.dtype} does not match "
            f"state {state.model} {state.data.shape} {state.data.dtype}"
        )
    if not (state.data.flags.c_contiguous and out.data.flags.c_contiguous):
        named = "output" if state.data.flags.c_contiguous else "state"
        raise ValueError(f"the {named} array is not C-contiguous")
    if np.may_share_memory(state.data, out.data):
        raise ValueError("the output array shares memory with the state array")

    # data[k] is field k of one state or a stack, data_r[k] its damped rows.
    kind, data, d = spec.kind, state.data, out.data
    source, rates, walls = data.reshape(-1), d.reshape(-1), system.walls.on(state)
    rows, sigma = prof.rows, prof.sigma
    data_r, d_r = data[:, ..., rows, :], d[:, ..., rows, :]
    add, subtract, multiply, negative = np.add, np.subtract, np.multiply, np.negative
    if kind in ("SplitFieldNaive", "SplitFieldStable"):
        # The total Ez lives in d_aux until Dy Hx is written there.
        # d_hy = -(Dx Ez + sigma Hy), d_hx = Dy Ez, d_ez_x = -(Dx Hy + sigma
        # Ez_x), d_ez_y = Dy Hx; each sigma term formed in a later rate.
        calls = [(add, (data[0], data[3], d[3])), *ops.calls(0, d[3], d[1]),
                 (multiply, (sigma, data_r[1], d_r[0])), (add, (d_r[1], d_r[0], d_r[1])), (negative, (d[1], d[1])),
                 *ops.calls(1, d[3], d[2]), *ops.calls(0, data[1], d[0]),
                 (multiply, (sigma, data_r[0], d_r[3])), (add, (d_r[0], d_r[3], d_r[0])), (negative, (d[0], d[0])),
                 *ops.calls(1, data[2], d[3])]
    else:
        # d_ez = Dy Hx - Dx Hy (+ aux) (- sigma Ez), d_hy = -(Dx Ez + sigma
        # Hy), with no sigma in Interior, and d_hx = Dy Ez.  Dx Hy and Dx Ez
        # are one stacked apply, as are PhysicallyMotivated's Dy Ez and Dy
        # Hx; ModalUnsplit keeps Dy Hx in d_aux to start its aux bracket.
        dy_hx = d[2] if kind == "Interior" else d[3]
        calls = ops.calls(0, data[1::-1], d[0:2])
        calls += ops.calls(1, data[0:3:2], d[2:4]) if kind == "PhysicallyMotivated" else ops.calls(1, data[2], dy_hx)
        calls.append((subtract, (dy_hx, d[0], d[0])))
        if kind == "ModalUnsplit":
            calls.append((add, (d[0], data[3], d[0])))
        if kind != "Interior":
            # The sigma terms are formed in a rate written after them: d_hx
            # before Dy Ez, or PhysicallyMotivated's d_aux once Dy Hx is used.
            scratch = d_r[3] if kind == "PhysicallyMotivated" else d_r[2]
            calls += [(multiply, (sigma, data_r[0], scratch)), (subtract, (d_r[0], scratch, d_r[0])),
                      (multiply, (sigma, data_r[1], scratch)), (add, (d_r[1], scratch, d_r[1]))]
        calls.append((negative, (d[1], d[1])))
        if kind == "PhysicallyMotivated":
            # The relaxation sigma (Hx - P) drives P and forces Hx.
            calls += [(subtract, (data_r[2], data_r[3], scratch)), (multiply, (scratch, sigma, scratch)),
                      (add, (d_r[2], scratch, d_r[2]))]
        else:
            calls += ops.calls(1, data[0], d[2])

    # ModalUnsplit's aux rate, the theta term included, times sigma; zero off the damped rows.
    tail = [(multiply, (d_r[3], sigma, d_r[3]))] if kind == "ModalUnsplit" else []
    if kind in ("ModalUnsplit", "PhysicallyMotivated"):
        if rows.start:
            tail.append((np.ndarray.fill, (d[3, ..., : rows.start, :], 0.0)))
        if rows.stop < shape[0]:
            tail.append((np.ndarray.fill, (d[3, ..., rows.stop :, :], 0.0)))

    def rhs(t):
        residuals = wall_residuals(source, walls, t)
        for f, args in calls:
            f(*args)
        sat_contributions(residuals, walls, rates)
        for f, args in tail:
            f(*args)

    return rhs
