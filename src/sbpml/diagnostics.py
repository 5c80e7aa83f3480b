"""Discrete norms, energy functionals, growth-bound checks, and spectra.

Two energy functionals accompany the PML models:

* the modal energy: squared P-norms of dEz/dt, of the damped gradients
  (Dx Ez + sigma Hy) and (Dy Ez + sigma Hx), of sigma Hy and sigma Hx,
  plus a sigma-weighted y-wall quadratic and the accumulated boundary
  time-integral of dEz/dt;
* the physically-motivated energy: the four field P-norms plus the
  accumulated boundary dissipation integral.

Both satisfy d/dt sqrt(E) <= sigma_max sqrt(E) for the admissible
discretizations; ``growth_bound_check`` verifies that bound on sampled
histories.  ``assemble_system_matrix`` materializes the semi-discrete
operator, a stack of unit states at a time, so its spectrum can be
examined on small grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from sbpml.boundary_sat import BoundaryConfig, PenaltyParams, WallTerms
from sbpml.grid_state import FieldState, Grid2D, OperatorPair, nfields
from sbpml.pml_models import DampingProfile, ModelSpec, SemiDiscrete, evaluate_rhs

CSV_HEADER = "t,ez_norm,hy_norm,hx_norm,aux_norm,energy"

# The most unknowns a dense assembly takes: its matrix is then at most
# 200 MB in float64.
MAX_DENSE_UNKNOWNS = 5000

# Unit states per evaluate_rhs call of the dense assembly.  The stacks
# (nfields, ASSEMBLY_CHUNK, nx, ny) of unit states and of their rates bound
# the assembly's memory beside the matrix itself.
ASSEMBLY_CHUNK = 64


@dataclass
class EnergyHistory:
    """Sampled time history of field norms and an energy functional."""

    times: list = dc_field(default_factory=list)
    records: list = dc_field(default_factory=list)

    def append(self, t: float, record: dict):
        if self.times and t <= self.times[-1]:
            raise ValueError(f"times must be strictly increasing; got {t} after {self.times[-1]}")
        self.times.append(t)
        self.records.append(record)

    def series(self, key: str) -> np.ndarray:
        return np.array([r[key] for r in self.records])

    def to_csv(self, path):
        rows = np.column_stack([self.times] + [self.series(key) for key in CSV_HEADER.split(",")[1:]])
        np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=CSV_HEADER, comments="")


def field_squares(state: FieldState, ops: OperatorPair) -> tuple:
    """The squared P-norms (ez, hy, hx, aux) of a state, each formed once.

    ``ez`` is the split total, and ``aux`` is 0 for a state without one.
    ``discrete_l2_norms`` and the field energies take these values.
    """
    ez, aux = state.ez_total, state.aux
    aux_sq = 0.0 if aux is None else ops.inner(aux, aux)
    return ops.inner(ez, ez), ops.inner(state.hy, state.hy), ops.inner(state.hx, state.hx), aux_sq


def discrete_l2_norms(squares: tuple) -> dict:
    """P-weighted field norms from ``field_squares``; the electric field norm uses the split total."""
    return dict(zip(("ez_norm", "hy_norm", "hx_norm", "aux_norm"), map(math.sqrt, squares)))


def modal_bt_integrand(rhs_ez: np.ndarray, walls: WallTerms) -> float:
    """Integrand of the boundary time-integral in the modal energy.

    Equals 2 * (dEz/dt)^T ((E_R+E_L) kron Py + Px kron (E_R+E_L)) (dEz/dt):
    the squares of dEz/dt on the boundary vector, gathered in one take,
    against P of the axis along each wall.  It takes one state's (nx, ny)
    rate, not a stack's.
    """
    if rhs_ez.ndim != 2:
        raise ValueError(f"modal_bt_integrand takes one state's (nx, ny) rate, got shape {rhs_ez.shape}")
    rate = rhs_ez.take(walls.gather[0])
    rate *= rate
    return 2.0 * float(rate @ walls.p_tangent)


def modal_energy(state: FieldState, rhs_ez: np.ndarray, system: SemiDiscrete, bt_integral: float) -> float:
    """The modal-PML energy functional of a state of the ModalUnsplit ``system``.

    ``rhs_ez`` must be the current dEz/dt and ``bt_integral`` the
    accumulated boundary time-integral (of ``modal_bt_integrand``,
    advanced alongside the fields).  Two scratch arrays hold the damped
    gradient and the sigma term on ``prof.rows``, squared in place.
    """
    prof, ops, ez = system.prof, system.ops, state.ez
    rows, sigma = prof.rows, prof.sigma
    # sigma-weighted y-wall quadratic, Ez^T (sigma Px kron theta (E_R+E_L)) Ez.
    spx = prof.sigma_values * ops.x.p_diag
    e = system.spec.theta * float(np.sum(spx * (ez[:, 0] ** 2 + ez[:, -1] ** 2)))
    e += ops.inner(rhs_ez, rhs_ez)
    grad, damped = np.empty_like(ez), np.empty_like(sigma)
    for apply, h in ((ops.dx, state.hy), (ops.dy, state.hx)):
        # |D Ez + sigma H|^2 + |sigma H|^2, with sigma H on the damped rows.
        apply(ez, out=grad)
        np.multiply(sigma, h[rows], out=damped)
        grad[rows] += damped
        grad *= grad
        damped *= damped
        e += np.vdot(ops.weight, grad) + np.vdot(ops.weight[rows], damped)
    return float(e) + bt_integral


def phys_energy(squares: tuple, bt_integral: float) -> float:
    """The physically-motivated-PML energy: the four squared field norms of
    ``field_squares`` plus the boundary integral."""
    ez, hy, hx, aux = squares
    return ((ez + hy) + hx) + aux + bt_integral


def interior_energy(squares: tuple, bt_integral: float = 0.0) -> float:
    """The three squared field norms of ``field_squares`` (plus the boundary integral if tracked)."""
    ez, hy, hx, _ = squares
    return ez + (hy + hx) + bt_integral


@dataclass
class GrowthCheck:
    ok: bool
    max_ratio: float
    worst_index: Optional[int]


def growth_bound_check(times, energies, sigma_inf: float) -> GrowthCheck:
    """Verify sqrt(E(t_{k+1})) <= exp(sigma_inf dt) sqrt(E(t_k)) per sample.

    ``max_ratio`` is the worst ratio of the left to the right side, at the
    first sample that reaches it; values <= 1 + 1e-10 (1 + max sqrt(E)) pass.
    A zero right side gives inf, or 0 under a zero left side, and a NaN one
    (an overflowing exp times a zero energy) 0.  A non-finite energy fails
    with ratio inf at its first sample.  Unequal lengths are refused.
    """
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    if len(times) != len(energies):
        raise ValueError(f"growth_bound_check needs an energy per time: {len(times)} times, {len(energies)} energies")
    bad = np.flatnonzero(~np.isfinite(energies))
    if bad.size:
        return GrowthCheck(ok=False, max_ratio=float("inf"), worst_index=int(bad[0]))
    e = np.sqrt(np.clip(energies, 0.0, None))
    tol = 1e-10 * (1.0 + float(np.max(e, initial=0.0)))
    bound = np.exp(sigma_inf * np.diff(times)) * e[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = e[1:] / bound
    ratio[np.isnan(ratio)] = 0.0  # 0 / 0, and inf * 0 in the bound
    worst = float(np.max(ratio, initial=0.0))
    worst_idx = int(np.argmax(ratio)) + 1 if worst > 0.0 else None
    return GrowthCheck(ok=worst <= 1.0 + tol, max_ratio=worst, worst_index=worst_idx)


def assemble_system_matrix(system: SemiDiscrete, dtype=np.float64) -> np.ndarray:
    """Dense matrix, of ``dtype``, of the linear map u -> RHS(u) of ``system.data_free()``.

    Unknowns are ordered [ez, hy, hx, aux], each block stacked y-fastest,
    the order of a state's array.  The walls keep their reflection
    coefficients but not their data, so column j is L e_j and not
    L e_j + RHS(0).  Column j is the RHS of the j-th unit state, written
    as row j of the transpose, which is contiguous: one ``evaluate_rhs``
    call takes a fields-first stack of ``ASSEMBLY_CHUNK`` unit states, and
    their rates are copied into that many rows.  The unit and rate stacks
    are made once per call, so one RHS plan serves every chunk.  Each state
    of a stack gets the bits of its own rate, so the matrix does not depend
    on the chunk, nor on the zero states that pad a short last chunk.
    Systems of more than ``MAX_DENSE_UNKNOWNS`` unknowns are refused.
    """
    system = system.data_free()
    model = system.model
    shape = (nfields(model), system.ops.x.n, system.ops.y.n)
    m = math.prod(shape)
    if m > MAX_DENSE_UNKNOWNS:
        raise ValueError(f"{m} unknowns exceed the dense-assembly guard of {MAX_DENSE_UNKNOWNS}")

    # `unit` and `rate` are one pair of fields-first stacks (nfields, chunk,
    # nx, ny).  The chunk from column `start` puts e_(start+b) in state b < n,
    # at flat index start + b = f P + p, so at [f, b, p] of its (nfields,
    # chunk, P) view; a short last chunk leaves its other states zero.  Its n
    # rates go to rows start, ..., start + n - 1 of `at`.  evaluate_rhs
    # overwrites all of its output, so `rate` and `at` start uninitialized.
    plane = shape[1] * shape[2]
    chunk = min(ASSEMBLY_CHUNK, m)
    at = np.empty((m, m), dtype)
    stack = (shape[0], chunk) + shape[1:]
    unit, rate = FieldState(model, np.zeros(stack, dtype)), FieldState(model, np.empty(stack, dtype))
    view, rates = (state.data.reshape(shape[0], chunk, plane) for state in (unit, rate))
    for start in range(0, m, chunk):
        n = min(chunk, m - start)
        b = np.arange(n)
        f, p = np.divmod(start + b, plane)
        view[f, b, p] = 1
        evaluate_rhs(system, unit, 0.0, rate)
        view[f, b, p] = 0
        at[start : start + n].reshape(n, shape[0], plane)[...] = rates[:, :n].swapaxes(0, 1)
    return at.T


def assemble_semidiscrete_matrix(
    spec: ModelSpec,
    grid: Grid2D,
    prof: DampingProfile,
    bc: BoundaryConfig,
    penalties: PenaltyParams,
    ops: OperatorPair,
) -> np.ndarray:
    """``assemble_system_matrix`` of the system (spec, prof, bc, penalties,
    ops) in float64; ``grid`` must be the grid of ``ops``."""
    if (grid.nx, grid.ny) != (ops.x.n, ops.y.n):
        raise ValueError(f"grid {grid.nx}x{grid.ny} does not match operators {ops.x.n}x{ops.y.n}")
    return assemble_system_matrix(SemiDiscrete(spec, prof, bc, penalties, ops))
