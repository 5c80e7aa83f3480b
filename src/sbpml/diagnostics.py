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
histories.  ``assemble_semidiscrete_matrix`` materializes the semi-discrete
operator column by column so its spectrum can be examined on small grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from sbpml.boundary_sat import BoundaryConfig, PenaltyParams
from sbpml.grid_state import FieldState, Grid2D, OperatorPair
from sbpml.pml_models import STATE_MODEL, DampingProfile, ModelSpec, evaluate_rhs

CSV_HEADER = "t,ez_norm,hy_norm,hx_norm,aux_norm,energy"


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
        with open(path, "w") as f:
            f.write(CSV_HEADER + "\n")
            for t, r in zip(self.times, self.records):
                row = (t, r["ez_norm"], r["hy_norm"], r["hx_norm"], r["aux_norm"], r["energy"])
                f.write(",".join(f"{v:.17g}" for v in row) + "\n")


def discrete_l2_norms(state: FieldState, ops: OperatorPair) -> dict:
    """P-weighted field norms; the electric field norm uses the split total."""
    return {
        "ez_norm": ops.norm(state.ez_total),
        "hy_norm": ops.norm(state.hy),
        "hx_norm": ops.norm(state.hx),
        "aux_norm": 0.0 if state.aux is None else ops.norm(state.aux),
    }


def modal_bt_integrand(rhs_ez: np.ndarray, ops: OperatorPair) -> float:
    """Integrand of the boundary time-integral in the modal energy.

    Equals 2 * (dEz/dt)^T ((E_R+E_L) kron Py + Px kron (E_R+E_L)) (dEz/dt).
    """
    px, py = ops.x.p_diag, ops.y.p_diag
    val = np.sum(py * (rhs_ez[0, :] ** 2 + rhs_ez[-1, :] ** 2))
    val += np.sum(px * (rhs_ez[:, 0] ** 2 + rhs_ez[:, -1] ** 2))
    return 2.0 * float(val)


def modal_energy(
    state: FieldState,
    rhs_ez: np.ndarray,
    prof: DampingProfile,
    grid: Grid2D,
    ops: OperatorPair,
    theta: float,
    bt_integral: float,
) -> float:
    """The modal-PML energy functional of a state.

    ``rhs_ez`` must be the current dEz/dt and ``bt_integral`` the
    accumulated boundary time-integral (of ``modal_bt_integrand``,
    advanced alongside the fields).
    """
    sigma = prof.sigma_values[:, None]
    ez, hy, hx = state.ez, state.hy, state.hx
    e = ops.inner(rhs_ez, rhs_ez)
    gx = ops.dx(ez) + sigma * hy
    gy = ops.dy(ez) + sigma * hx
    e += ops.inner(gx, gx) + ops.inner(gy, gy)
    e += ops.inner(sigma * hy, sigma * hy) + ops.inner(sigma * hx, sigma * hx)
    # sigma-weighted y-wall quadratic, Ez^T (sigma Px kron theta (E_R+E_L)) Ez.
    spx = prof.sigma_values * ops.x.p_diag
    e += theta * float(np.sum(spx * (ez[:, 0] ** 2 + ez[:, -1] ** 2)))
    return float(e) + bt_integral


def phys_energy(state: FieldState, ops: OperatorPair, bt_integral: float) -> float:
    """The physically-motivated-PML energy: four field norms + boundary integral."""
    e = ops.inner(state.ez, state.ez) + ops.inner(state.hy, state.hy)
    e += ops.inner(state.hx, state.hx)
    if state.aux is not None:
        e += ops.inner(state.aux, state.aux)
    return float(e) + bt_integral


def interior_energy(state: FieldState, ops: OperatorPair, bt_integral: float = 0.0) -> float:
    """Sum of the squared field P-norms (plus boundary integral if tracked)."""
    e = ops.inner(state.ez_total, state.ez_total)
    e += ops.inner(state.hy, state.hy) + ops.inner(state.hx, state.hx)
    return float(e) + bt_integral


@dataclass
class GrowthCheck:
    ok: bool
    max_ratio: float
    worst_index: Optional[int]


def growth_bound_check(times, energies, sigma_inf: float, tol: float = None) -> GrowthCheck:
    """Verify sqrt(E(t_{k+1})) <= exp(sigma_inf dt) sqrt(E(t_k)) per sample.

    ``max_ratio`` is the worst observed ratio of the left to the right side;
    values <= 1 + tol pass.  A non-finite energy fails the check with ratio
    inf at the first such sample.
    """
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    bad = np.flatnonzero(~np.isfinite(energies))
    if bad.size:
        return GrowthCheck(ok=False, max_ratio=float("inf"), worst_index=int(bad[0]))
    e = np.sqrt(np.clip(energies, 0.0, None))
    if tol is None:
        tol = 1e-10 * (1.0 + float(np.max(e, initial=0.0)))
    worst, worst_idx = 0.0, None
    for k in range(len(times) - 1):
        bound = np.exp(sigma_inf * (times[k + 1] - times[k])) * e[k]
        if bound == 0.0:
            ratio = np.inf if e[k + 1] > 0 else 0.0
        else:
            ratio = e[k + 1] / bound
        if ratio > worst:
            worst, worst_idx = ratio, k + 1
    return GrowthCheck(ok=bool(worst <= 1.0 + tol), max_ratio=float(worst), worst_index=worst_idx)


def assemble_semidiscrete_matrix(
    spec: ModelSpec,
    grid: Grid2D,
    prof: DampingProfile,
    bc: BoundaryConfig,
    penalties: PenaltyParams,
    ops: OperatorPair,
    max_unknowns: int = 5000,
) -> np.ndarray:
    """Dense matrix of the linear map u -> RHS(u), assembled column by column.

    Unknowns are ordered [ez, hy, hx, aux], each block stacked y-fastest.
    The walls keep their reflection coefficients but not their data, so
    column j is L e_j and not L e_j + RHS(0).
    """
    model = STATE_MODEL[spec.kind]
    walls = BoundaryConfig(bc.r_x, bc.r_y)
    state = FieldState.zeros(grid, model)
    m = state.data.size
    if m > max_unknowns:
        raise ValueError(f"{m} unknowns exceed the dense-assembly guard of {max_unknowns}")

    # Column j of the matrix is the RHS of the j-th unit state; it is
    # written as row j of the transpose, which is contiguous.
    at = np.zeros((m, m))
    flat = state.data.reshape(-1)
    for col in range(m):
        flat[col] = 1.0
        out = FieldState(model, at[col].reshape(state.data.shape))
        evaluate_rhs(spec, state, prof, walls, penalties, ops, grid, 0.0, out)
        flat[col] = 0.0
    return at.T
