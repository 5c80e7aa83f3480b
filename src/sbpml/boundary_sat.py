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

Each direction's walls are one pair (``walls``); the y pair is the x pair
of the transposed fields, with its own signs (``X_SIGNS``, ``Y_SIGNS``).

A penalty set is admissible when the boundary term of the energy estimate,
on each wall a quadratic a e^2 + b e m + c m^2 in Ez and the tangential
magnetic field, is nonnegative for every wall state; see
``penalties_admissible``.  On the estimate-matching family its
eigenvalues have a closed form in (gamma, theta_bar); see
``penalty_matrix_eigenvalues``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from sbpml.grid_state import FieldState, OperatorPair

WallData = Optional[Callable[[float], np.ndarray]]


@dataclass(frozen=True)
class BoundaryConfig:
    """Reflection coefficients and optional wall data for the four walls.

    Data callables receive t and return the values of the penalized
    boundary expression along their wall, at its grid points; ``None``
    means zero.
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


def penalty_matrix_eigenvalues(gamma: float, theta_bar: float):
    """Closed-form eigenvalues (lambda_minus, lambda_plus) of the wall matrices.

    The wall dissipation matrices of the estimate-matching family are
    [[g, -+ t*g/2], [-+ t*g/2, t]] with g = gamma, t = theta_bar; both sign
    choices share the spectrum.  The discriminant (g - t)^2 + (g t)^2 is
    never negative, so the pair is real.
    """
    root = np.sqrt((gamma - theta_bar) ** 2 + (gamma * theta_bar) ** 2)
    return (gamma + theta_bar - root) / 2.0, (gamma + theta_bar + root) / 2.0


def _wall_coefficients(r: float, alpha: float, theta: float):
    """Coefficients (a, b, c) of one direction's wall quadratic a e^2 + b e m + c m^2.

    e is Ez and m the tangential magnetic field on the wall; a wall whose
    residual has the sign ``sign`` on m carries -sign * b.  Built from the
    residual weights (1 -+ R)/2 and the penalty weights alpha and theta of
    that direction.
    """
    cm, cp = 0.5 * (1.0 - r), 0.5 * (1.0 + r)
    return alpha * cm, 1.0 - alpha * cp - theta * cm, theta * cp


def penalties_admissible(bc: BoundaryConfig, p: PenaltyParams) -> bool:
    """Whether the wall term BT is nonnegative for every wall state.

    True iff on both directions a >= 0, c >= 0 and b^2 <= 4 a c, each to
    1e-12 relative to the largest coefficient: the 2x2 form is then
    positive semidefinite, whichever sign b has on a given wall.
    """
    tol = 1e-12
    for a, b, c in (
        _wall_coefficients(bc.r_x, p.alpha_x, p.theta_x),
        _wall_coefficients(bc.r_y, p.alpha_y, p.theta_y),
    ):
        scale = max(abs(a), abs(b), abs(c))
        if a < -tol * scale or c < -tol * scale or b * b - 4.0 * a * c > tol * scale**2:
            return False
    return True


def walls(u: np.ndarray) -> np.ndarray:
    """Rows 0 and -1 of ``u`` as a (2, n) view: (left, right) of a field, (bottom, top) of its transpose."""
    return u[:: len(u) - 1]


# The sign of the tangential magnetic field in each wall's residual, per
# pair: +Hy left and -Hy right, -Hx bottom and +Hx top.
X_SIGNS = np.array([[1.0], [-1.0]])
Y_SIGNS = -X_SIGNS


def wall_residuals(ez, hy, hx, bc: BoundaryConfig, t: float):
    """Boundary-condition residuals minus wall data: the pairs rx (left, right) and ry (bottom, top)."""

    def pair(e, m, r, signs, data):
        res = 0.5 * (1.0 - r) * walls(e) + 0.5 * (1.0 + r) * signs * walls(m)
        for i, g in enumerate(data):
            if g is not None:
                res[i] -= g(t)
        return res

    return (
        pair(ez, hy, bc.r_x, X_SIGNS, (bc.g_left, bc.g_right)),
        pair(ez.T, hx.T, bc.r_y, Y_SIGNS, (bc.g_bottom, bc.g_top)),
    )


def sat_y_field(ry: np.ndarray, weight: float, ops: OperatorPair, out: np.ndarray):
    """Add the y-wall penalty field -weight * Py^{-1} ry into ``out``.

    This combination appears both in the electric-field equation (weight
    alpha_y) and, scaled by theta * alpha_y, in the stabilized auxiliary
    equation, so it is factored out here.
    """
    w = walls(out.T)
    w -= weight * ry / ops.y.p_walls


def sat_contributions(
    residuals, p: PenaltyParams, ops: OperatorPair, ez, hy, hx, ez_y: Optional[np.ndarray] = None
):
    """Add the penalty terms of the Ez, Hy and Hx equations into ``ez``, ``hy`` and ``hx``.

    ``residuals`` are the wall pairs (rx, ry) of ``wall_residuals`` (for
    SplitField states, formed with the total electric field ez + aux).
    The terms live on the wall lines, so only those lines are touched.
    The y-wall term of the Ez equation goes into ``ez_y`` when it is given
    (the undamped component of the stable split-field model), else into
    ``ez``.
    """
    rx, ry = residuals
    ez_w, hy_w, hx_w = walls(ez), walls(hy), walls(hx.T)
    ez_w -= p.alpha_x * rx / ops.x.p_walls
    sat_y_field(ry, p.alpha_y, ops, ez if ez_y is None else ez_y)
    # The magnetic terms carry the walls' signs, X_SIGNS = -normal and Y_SIGNS = +normal.
    hy_w += p.theta_x * rx / ops.x.normal_p_walls
    hx_w -= p.theta_y * ry / ops.y.normal_p_walls


def boundary_dissipation(state: FieldState, bc: BoundaryConfig, p: PenaltyParams, ops: OperatorPair) -> float:
    """The boundary term BT with 2 <u, RHS(u)>_P = -BT for zero wall data and damping.

    u is (Ez, Hy, Hx) with the total electric field of a split state.  BT
    collects the SBP boundary terms of Dx and Dy and the SAT terms of
    ``sat_contributions``; with the wall residuals r of zero data it is

        2 Py [Ez_R Hy_R - Ez_L Hy_L + alpha_x (Ez_L r_L + Ez_R r_R) + theta_x (Hy_L r_L - Hy_R r_R)]
      + 2 Px [Ez_B Hx_B - Ez_T Hx_T + alpha_y (Ez_B r_B + Ez_T r_T) + theta_y (Hx_T r_T - Hx_B r_B)]

    summed along each wall, for every penalty set; it is nonnegative for
    every state exactly when ``penalties_admissible`` holds.  Expanding r
    gives on each wall the quadratic a e^2 - sign b e m + c m^2 in Ez and
    the tangential magnetic field, with the wall's sign in ``X_SIGNS`` or
    ``Y_SIGNS``, which is what is evaluated: the e m terms of the SBP and
    SAT parts cancel in the coefficient b, not in rounded wall values.
    """
    ez, hy, hx = state.ez_total, state.hy, state.hx
    # Each wall is summed on its own, and the sums add left, right, bottom,
    # top: one reduction over a (2, n) pair could add in another order.
    terms = []
    for e, m, r, alpha, theta, signs, w in (
        (ez, hy, bc.r_x, p.alpha_x, p.theta_x, X_SIGNS, ops.y.p_diag),
        (ez.T, hx.T, bc.r_y, p.alpha_y, p.theta_y, Y_SIGNS, ops.x.p_diag),
    ):
        a, b, c = _wall_coefficients(r, alpha, theta)
        e, m = walls(e), walls(m)
        q = w * (a * e**2 - signs * b * e * m + c * m**2)
        terms += [2.0 * np.sum(q[0]), 2.0 * np.sum(q[1])]
    left, right, bottom, top = terms
    return float(left + right + bottom + top)
