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


def zero_damping(grid: Grid2D) -> DampingProfile:
    return DampingProfile(d0=0.0, sigma_values=np.zeros(grid.nx), ny=grid.ny)


@dataclass(frozen=True, eq=False)
class SemiDiscrete:
    """One semi-discrete system: a model with its damping, walls, penalties and operators.

    Built once per scenario or assembly: ``__post_init__`` checks the
    damping profile against the operators and builds ``walls``, the
    ``WallTerms`` of (ops, bc, penalties, prof.rows).
    """

    spec: ModelSpec
    prof: DampingProfile
    bc: BoundaryConfig
    penalties: PenaltyParams
    ops: OperatorPair
    walls: WallTerms = field(init=False, repr=False)

    def __post_init__(self):
        got, shape = (self.prof.sigma_values.size, self.prof.ny), (self.ops.x.n, self.ops.y.n)
        if got != shape:
            raise ValueError(f"damping profile shape {got} does not match operators {shape}")
        object.__setattr__(self, "walls", WallTerms(self.ops, self.bc, self.penalties, self.prof.rows))

    @property
    def model(self) -> str:
        """The ``FieldState.model`` this system advances."""
        return STATE_MODEL[self.spec.kind]


def evaluate_rhs(system: SemiDiscrete, state: FieldState, t: float, out: Optional[FieldState] = None) -> FieldState:
    """Time derivative of the state under the system's semi-discrete model.

    The derivative is written into ``out``, a state of the same model and
    shape that shares no memory with ``state`` (a new state if None), and
    returned; every entry of ``out.data`` is overwritten.  The wall
    residuals (and so any wall data) are evaluated once, on the boundary
    vector, and shared by the SAT terms, the theta term and the split
    y-wall penalty.  The damping terms are applied on ``prof.rows`` only,
    with a rate written later as their scratch, so no full-size temporary
    is made; an auxiliary rate that carries sigma is exactly zero outside
    those rows.
    """
    spec, prof, ops, walls = system.spec, system.prof, system.ops, system.walls
    if state.model != system.model:
        raise ValueError(f"state model {state.model!r} does not match spec kind {spec.kind!r}")
    shape = (ops.x.n, ops.y.n)
    if state.data.shape[1:] != shape:
        raise ValueError(f"state shape {state.data.shape[1:]} does not match operators {shape}")
    if out is None:
        out = FieldState(state.model, np.empty_like(state.data))
    elif out.model != state.model or out.data.shape != state.data.shape:
        raise ValueError(
            f"output {out.model} {out.data.shape} does not match state {state.model} {state.data.shape}"
        )

    kind = spec.kind
    ez, hy, hx, aux = state.ez, state.hy, state.hx, state.aux
    d_ez, d_hy, d_hx, d_aux = out.ez, out.hy, out.hx, out.aux
    rows, sigma = prof.rows, prof.sigma
    split = kind in ("SplitFieldNaive", "SplitFieldStable")

    # A split state's total Ez lives in d_aux until Dy Hx is written there.
    ez_tot = np.add(ez, aux, out=d_aux) if split else ez
    residuals = wall_residuals(state.data, walls, t, split)

    if not split:
        # d_ez = Dy Hx - Dx Hy (+ aux) (- sigma Ez), with Dx Hy and sigma Ez
        # formed in d_hx; ModalUnsplit keeps Dy Hx in d_aux as the start of
        # its auxiliary bracket.
        dy_hx = ops.dy(hx, out=d_aux if kind == "ModalUnsplit" else d_ez)
        np.subtract(dy_hx, ops.dx(hy, out=d_hx), out=d_ez)
        if kind == "ModalUnsplit":
            d_ez += aux
        if kind != "Interior":
            d_ez[rows] -= np.multiply(sigma, ez[rows], out=d_hx[rows])

    # Magnetic equations of every model, with the total Ez of a split
    # state: d_hy = -(Dx Ez + sigma Hy) (no sigma in Interior), d_hx = Dy Ez.
    # sigma Hy is formed in a rate that is written after it.
    ops.dx(ez_tot, out=d_hy)
    if kind != "Interior":
        scratch = d_ez if split else d_hx
        d_hy[rows] += np.multiply(sigma, hy[rows], out=scratch[rows])
    np.negative(d_hy, out=d_hy)
    ops.dy(ez_tot, out=d_hx)

    if split:
        # d_ez_x = -(Dx Hy + sigma Ez_x), d_ez_y = Dy Hx.
        ops.dx(hy, out=d_ez)
        d_ez[rows] += np.multiply(sigma, ez[rows], out=d_aux[rows])
        np.negative(d_ez, out=d_ez)
        ops.dy(hx, out=d_aux)

    if kind == "PhysicallyMotivated":
        # The relaxation sigma (Hx - P) drives P and forces Hx.
        relax = np.subtract(hx[rows], aux[rows], out=d_aux[rows])
        relax *= sigma
        d_hx[rows] += relax

    # In SplitFieldStable the y-wall penalty moves to the undamped
    # component; this is what makes the scheme conjugate to the stabilized
    # modal one.  SplitFieldNaive keeps both Ez penalties on the damped
    # x-component.
    sat_contributions(residuals, walls, out.data, ez_y=kind == "SplitFieldStable")

    if kind == "ModalUnsplit":
        # Auxiliary update with the weak y-wall treatment extended into it.
        if spec.theta != 0.0:
            sat_y_field(residuals, spec.theta * system.penalties.alpha_y, walls, out.data)
        d_aux[rows] *= sigma
    if kind in ("ModalUnsplit", "PhysicallyMotivated"):
        d_aux[: rows.start] = 0.0
        d_aux[rows.stop :] = 0.0

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
    return FieldState("ModalUnsplit", np.array([state.ez + state.aux, state.hy, state.hx, sigma * state.aux]))
