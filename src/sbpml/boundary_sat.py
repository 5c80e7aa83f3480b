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

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from sbpml.grid_state import FieldState, OperatorPair

WallData = Optional[Callable[[float], np.ndarray]]

# The sign of the tangential magnetic field in each wall's residual, per
# pair: +Hy left and -Hy right, -Hx bottom and +Hx top.
X_SIGNS = np.array([[1.0], [-1.0]])
Y_SIGNS = -X_SIGNS


@dataclass(frozen=True)
class BoundaryConfig:
    """Reflection coefficients and optional wall data for the four walls.

    Data callables receive t and return the values of the penalized
    boundary expression along their wall, at its grid points; ``None``
    means zero.  ``residual_weights`` holds, per direction, the residual's
    weight (1-R)/2 on Ez and its (2, 1) column of weights +-(1+R)/2 on the
    tangential magnetic field, built once here.
    """

    r_x: float = 0.0
    r_y: float = 0.0
    g_left: WallData = None
    g_right: WallData = None
    g_bottom: WallData = None
    g_top: WallData = None
    residual_weights: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if abs(self.r_x) > 1 or abs(self.r_y) > 1:
            raise ValueError(f"reflection coefficients must lie in [-1, 1]: {self.r_x}, {self.r_y}")
        weights = tuple(
            (0.5 * (1.0 - r), 0.5 * (1.0 + r) * signs) for r, signs in ((self.r_x, X_SIGNS), (self.r_y, Y_SIGNS))
        )
        object.__setattr__(self, "residual_weights", weights)


@dataclass(frozen=True)
class PenaltyParams:
    """Penalty weights of the weak boundary treatment.

    ``sat_weights`` holds, per direction, the (2, 2, 1) coefficients of
    P^{-1} r in the rates of (Ez, tangential H) on the (first, last) wall:
    -alpha on Ez and -theta times the wall's sign on H, built once here.
    """

    alpha_x: float
    alpha_y: float
    theta_x: float
    theta_y: float
    sat_weights: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = tuple(
            -np.array([np.full((2, 1), alpha), theta * signs])
            for alpha, theta, signs in ((self.alpha_x, self.theta_x, X_SIGNS), (self.alpha_y, self.theta_y, Y_SIGNS))
        )
        object.__setattr__(self, "sat_weights", weights)

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


def wall_residuals(ez, hy, hx, bc: BoundaryConfig, t: float):
    """Boundary-condition residuals minus wall data: the pairs rx (left, right) and ry (bottom, top)."""

    def pair(e, m, weights, data):
        on_e, on_m = weights
        res = on_e * walls(e)
        res += on_m * walls(m)
        for i, g in enumerate(data):
            if g is not None:
                res[i] -= g(t)
        return res

    x_weights, y_weights = bc.residual_weights
    return (
        pair(ez, hy, x_weights, (bc.g_left, bc.g_right)),
        pair(ez.T, hx.T, y_weights, (bc.g_bottom, bc.g_top)),
    )


def sat_y_field(ry: np.ndarray, weight: float, ops: OperatorPair, out: np.ndarray):
    """Add the y-wall penalty field -weight * Py^{-1} ry into ``out``.

    The stabilized auxiliary equation carries this term with weight
    theta * alpha_y; ``out`` may be a run of x rows, with the matching
    columns of ry.
    """
    w = walls(out.T)
    w -= weight * ry / ops.y.p_walls


def sat_contributions(residuals, p: PenaltyParams, ops: OperatorPair, rates: np.ndarray, ez_y: bool = False):
    """Add the penalty terms of the Ez, Hy and Hx equations into ``rates``.

    ``rates`` is the (nfields, nx, ny) array of the rates (Ez, Hy, Hx, ...)
    and ``residuals`` are the wall pairs (rx, ry) of ``wall_residuals``
    (for SplitField states, formed with the total electric field ez + aux).
    The terms live on the wall lines: each direction updates its two
    penalized fields, (Ez, Hy) on the x walls and (Ez, Hx) on the y walls,
    in one pass with ``PenaltyParams.sat_weights``.  With ``ez_y`` the
    y-wall term of the Ez equation goes into the fourth field instead (the
    undamped component of the stable split-field model).
    """
    rx, ry = residuals
    x_weights, y_weights = p.sat_weights
    nx, ny = rates.shape[1:]
    y_fields = slice(3, 1, -1) if ez_y else slice(0, 3, 2)
    x_lines = rates[0:2, :: nx - 1]
    y_lines = rates[y_fields, :, :: ny - 1].transpose(0, 2, 1)
    x_lines += x_weights * (rx / ops.x.p_walls)
    y_lines += y_weights * (ry / ops.y.p_walls)


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
    # The total electric field is formed on the wall lines only.
    ez_x, ez_y = walls(state.ez), walls(state.ez.T)
    if state.model == "SplitField":
        ez_x, ez_y = ez_x + walls(state.aux), ez_y + walls(state.aux.T)
    # A direction's P-weighted sums e^2, e m and m^2 on both walls are
    # entries of one Gram matrix of its four wall lines (e first, e last,
    # m first, m last), weighted by the P diagonal of the other axis; the
    # walls add left, right, bottom, top.
    terms = []
    for e, m, r, alpha, theta, signs, w in (
        (ez_x, walls(state.hy), bc.r_x, p.alpha_x, p.theta_x, X_SIGNS, ops.y.p_diag),
        (ez_y, walls(state.hx.T), bc.r_y, p.alpha_y, p.theta_y, Y_SIGNS, ops.x.p_diag),
    ):
        a, b, c = _wall_coefficients(r, alpha, theta)
        lines = np.concatenate((e, m))
        g = ((lines * w) @ lines.T).tolist()
        terms += [
            2.0 * (a * g[k][k] - sign * b * g[k][k + 2] + c * g[k + 2][k + 2]) for k, sign in enumerate(signs.flat)
        ]
    left, right, bottom, top = terms
    return float(left + right + bottom + top)
