"""Weak (SAT) enforcement of reflection-coefficient wall conditions.

Each wall condition is parametrized by a reflection coefficient R in
[-1, 1]: R = 0 is the characteristic condition, R = 1 the insulated wall
(a condition on the tangential magnetic field alone), R = -1 the perfect
electric conductor.  The semi-discrete system enforces the conditions
weakly by penalty terms supported on the wall lines and scaled by the
inverse boundary weights of the SBP norm.

The per-wall boundary-condition residuals used throughout are

    left   (x = x_min): (1-Rx)/2 * Ez + (1+Rx)/2 * Hy - g
    right  (x = x_max): (1-Rx)/2 * Ez - (1+Rx)/2 * Hy - g
    bottom (y = y_min): (1-Ry)/2 * Ez - (1+Ry)/2 * Hx - g
    top    (y = y_max): (1-Ry)/2 * Ez + (1+Ry)/2 * Hx - g

Penalty admissibility reduces to nonnegativity of 2x2 symmetric matrices
per wall, whose eigenvalues have a closed form in (gamma, theta_bar); see
``penalty_matrix_eigenvalues``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from sbpml.grid_state import FieldState, Grid2D, OperatorPair

WallData = Optional[Callable[[np.ndarray, float], np.ndarray]]


@dataclass(frozen=True)
class BoundaryConfig:
    """Reflection coefficients and optional wall data for the four walls.

    Data callables receive (tangential coordinates, t) and return the wall
    values of the penalized boundary expression; ``None`` means zero.
    """

    r_x: float = 0.0
    r_y: float = 0.0
    g_left: WallData = None
    g_right: WallData = None
    g_bottom: WallData = None
    g_top: WallData = None

    def __post_init__(self):
        if abs(self.r_x) > 1 or abs(self.r_y) > 1:
            raise ValueError(f"reflection coefficients must lie in [-1, 1]: {self.r_x}, {self.r_y}")


@dataclass(frozen=True)
class PenaltyParams:
    """Penalty weights of the weak boundary treatment."""

    alpha_x: float
    alpha_y: float
    theta_x: float
    theta_y: float

    @classmethod
    def universal(cls) -> "PenaltyParams":
        """The unit set, admissible for every |R| <= 1."""
        return cls(1.0, 1.0, 1.0, 1.0)

    @classmethod
    def estimate_matching(
        cls, r_x: float, r_y: float, theta_bar_x: float = 0.0, theta_bar_y: float = 0.0
    ) -> "PenaltyParams":
        """The family alpha = 2/(1+R), theta = 2*theta_bar/(1+R); needs R != -1."""
        if r_x == -1 or r_y == -1:
            raise ValueError("estimate-matching penalties are undefined at R = -1")
        return cls(
            alpha_x=2.0 / (1.0 + r_x),
            alpha_y=2.0 / (1.0 + r_y),
            theta_x=2.0 * theta_bar_x / (1.0 + r_x),
            theta_y=2.0 * theta_bar_y / (1.0 + r_y),
        )


def gamma_from_reflection(r: float) -> float:
    """Impedance parameter gamma = (1-R)/(1+R) >= 0; undefined at R = -1 (PEC)."""
    if not -1 < r <= 1:
        if r == -1:
            raise ValueError("R = -1 is the PEC wall; gamma is undefined, use the R-form penalty")
        raise ValueError(f"reflection coefficient must lie in (-1, 1], got {r}")
    return (1.0 - r) / (1.0 + r)


def penalty_matrix_eigenvalues(gamma: float, theta_bar: float):
    """Closed-form eigenvalues (lambda_minus, lambda_plus) of the wall matrices.

    The wall dissipation matrices are [[g, -+ t*g/2], [-+ t*g/2, t]] with
    g = gamma, t = theta_bar; both sign choices share the spectrum.  A
    negative discriminant (complex pair) is reported via the third return
    value and signals an inadmissible penalty choice.
    """
    tr = gamma + theta_bar
    disc = tr**2 - 4.0 * gamma * theta_bar * (1.0 - gamma * theta_bar / 4.0)
    if disc < 0:
        root = complex(0.0, np.sqrt(-disc))
        return (tr - root) / 2.0, (tr + root) / 2.0, True
    root = np.sqrt(disc)
    return (tr - root) / 2.0, (tr + root) / 2.0, False


def _theta_bar_ok(gamma: float, theta_bar: float, tol: float = 1e-12) -> bool:
    if theta_bar < -tol:
        return False
    if gamma <= tol:
        return True  # upper bound 4/gamma is unbounded
    return theta_bar <= 4.0 / gamma + tol


def validate_penalties(bc: BoundaryConfig, p: PenaltyParams, tol: float = 1e-12) -> str:
    """Classify penalties as 'Universal', 'EstimateMatching', or 'Unstable'."""
    vals = (p.alpha_x, p.alpha_y, p.theta_x, p.theta_y)
    if all(abs(v - 1.0) <= tol for v in vals):
        return "Universal"
    if bc.r_x != -1 and bc.r_y != -1:
        ax = 2.0 / (1.0 + bc.r_x)
        ay = 2.0 / (1.0 + bc.r_y)
        if abs(p.alpha_x - ax) <= tol * max(1.0, ax) and abs(p.alpha_y - ay) <= tol * max(1.0, ay):
            tbx = p.theta_x * (1.0 + bc.r_x) / 2.0
            tby = p.theta_y * (1.0 + bc.r_y) / 2.0
            gx = gamma_from_reflection(bc.r_x)
            gy = gamma_from_reflection(bc.r_y)
            if _theta_bar_ok(gx, tbx) and _theta_bar_ok(gy, tby):
                return "EstimateMatching"
    return "Unstable"


def wall_residuals(ez, hy, hx, bc: BoundaryConfig, grid: Grid2D, t: float):
    """Boundary-condition residuals minus wall data, on the four wall lines."""
    cxm, cxp = 0.5 * (1.0 - bc.r_x), 0.5 * (1.0 + bc.r_x)
    cym, cyp = 0.5 * (1.0 - bc.r_y), 0.5 * (1.0 + bc.r_y)
    r_left = cxm * ez[0, :] + cxp * hy[0, :]
    r_right = cxm * ez[-1, :] - cxp * hy[-1, :]
    r_bottom = cym * ez[:, 0] - cyp * hx[:, 0]
    r_top = cym * ez[:, -1] + cyp * hx[:, -1]
    if bc.g_left is not None:
        r_left = r_left - bc.g_left(grid.y, t)
    if bc.g_right is not None:
        r_right = r_right - bc.g_right(grid.y, t)
    if bc.g_bottom is not None:
        r_bottom = r_bottom - bc.g_bottom(grid.x, t)
    if bc.g_top is not None:
        r_top = r_top - bc.g_top(grid.x, t)
    return r_left, r_right, r_bottom, r_top


def sat_y_field(
    r_bottom: np.ndarray,
    r_top: np.ndarray,
    weight: float,
    ops: OperatorPair,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The y-wall penalty field -weight * Py^{-1}(residual on each y wall).

    This combination appears both in the electric-field equation (weight
    alpha_y) and, scaled by theta * alpha_y, in the stabilized auxiliary
    equation, so it is factored out here.  It is added into ``out``, or
    into a new (nx, ny) zero field.
    """
    if out is None:
        out = np.zeros((len(r_bottom), ops.y.n))
    out[:, 0] -= weight * r_bottom / ops.y.p_diag[0]
    out[:, -1] -= weight * r_top / ops.y.p_diag[-1]
    return out


def sat_contributions(residuals, p: PenaltyParams, ops: OperatorPair):
    """Penalty fields for the Ez, Hy and Hx equations.

    ``residuals`` are the four wall residuals of ``wall_residuals`` (for
    SplitField states, formed with the total electric field ez + aux).
    Returns three (nx, ny) arrays, zero away from the walls.
    """
    r_left, r_right, r_bottom, r_top = residuals
    px0, px1 = ops.x.p_diag[0], ops.x.p_diag[-1]
    py0, py1 = ops.y.p_diag[0], ops.y.p_diag[-1]

    sat_ez = np.zeros((ops.x.n, ops.y.n))
    sat_ez[0, :] -= p.alpha_x * r_left / px0
    sat_ez[-1, :] -= p.alpha_x * r_right / px1
    sat_y_field(r_bottom, r_top, p.alpha_y, ops, out=sat_ez)

    sat_hy = np.zeros_like(sat_ez)
    sat_hy[0, :] -= p.theta_x * r_left / px0
    sat_hy[-1, :] += p.theta_x * r_right / px1

    sat_hx = np.zeros_like(sat_ez)
    sat_hx[:, 0] += p.theta_y * r_bottom / py0
    sat_hx[:, -1] -= p.theta_y * r_top / py1
    return sat_ez, sat_hy, sat_hx


def boundary_dissipation(
    state: FieldState, bc: BoundaryConfig, p: PenaltyParams, grid: Grid2D, ops: OperatorPair
) -> float:
    """The boundary term BT_s with d/dt(sum of squared field norms) = -BT_s.

    Valid for homogeneous wall data.  Implemented for the two admissible
    penalty families; the quadratic forms below were derived by collecting
    the wall contributions of 2<u, RHS(u)>_P and are verified against that
    identity in the test suite.  Other penalty sets return 0.0 (no energy
    functional is defined for them).
    """
    verdict = validate_penalties(bc, p)
    ez, hy, hx = state.ez_total, state.hy, state.hx
    py, px = ops.y.p_diag, ops.x.p_diag
    if verdict == "Universal":
        bt = (1.0 - bc.r_x) * np.sum(py * (ez[0, :] ** 2 + ez[-1, :] ** 2))
        bt += (1.0 + bc.r_x) * np.sum(py * (hy[0, :] ** 2 + hy[-1, :] ** 2))
        bt += (1.0 - bc.r_y) * np.sum(px * (ez[:, 0] ** 2 + ez[:, -1] ** 2))
        bt += (1.0 + bc.r_y) * np.sum(px * (hx[:, 0] ** 2 + hx[:, -1] ** 2))
        return float(bt)
    if verdict == "EstimateMatching":
        gx = gamma_from_reflection(bc.r_x)
        gy = gamma_from_reflection(bc.r_y)
        tbx = p.theta_x * (1.0 + bc.r_x) / 2.0
        tby = p.theta_y * (1.0 + bc.r_y) / 2.0
        # Wall quadratic forms 2*(g e^2 +- t g e m + t m^2); the cross-term
        # sign is + on the left/top walls and - on the right/bottom walls.
        bt = 2.0 * np.sum(py * (gx * ez[0, :] ** 2 + tbx * gx * ez[0, :] * hy[0, :] + tbx * hy[0, :] ** 2))
        bt += 2.0 * np.sum(py * (gx * ez[-1, :] ** 2 - tbx * gx * ez[-1, :] * hy[-1, :] + tbx * hy[-1, :] ** 2))
        bt += 2.0 * np.sum(px * (gy * ez[:, 0] ** 2 - tby * gy * ez[:, 0] * hx[:, 0] + tby * hx[:, 0] ** 2))
        bt += 2.0 * np.sum(px * (gy * ez[:, -1] ** 2 + tby * gy * ez[:, -1] * hx[:, -1] + tby * hx[:, -1] ** 2))
        return float(bt)
    return 0.0
