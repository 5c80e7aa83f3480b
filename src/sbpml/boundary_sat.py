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

The four walls' points, left, right, bottom and top, form one boundary
vector (``OperatorPair.wall_index``).  ``WallTerms`` builds once what of
the wall terms does not depend on the state, so a right-hand side gathers
the wall values once and scatters the SAT penalties of both directions
once, and the modal theta term once.

A penalty set is admissible when the boundary term of the energy estimate,
on each wall a quadratic a e^2 + b e m + c m^2 in Ez and the tangential
magnetic field, is nonnegative for every wall state; see
``penalties_admissible``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from sbpml.grid_state import FieldState, OperatorPair

WallData = Optional[Callable[[float], np.ndarray]]

# The sign of the tangential magnetic field in each wall's residual: +Hy
# left, -Hy right, -Hx bottom and +Hx top.
WALL_SIGNS = (1.0, -1.0, -1.0, 1.0)


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


def _wall_coefficients(bc: BoundaryConfig, p: PenaltyParams):
    """Per direction, x then y, the coefficients (a, b, c) of its wall quadratic a e^2 + b e m + c m^2.

    e is Ez and m the tangential magnetic field on the wall; a wall whose
    residual has the sign ``sign`` on m carries -sign * b.  Built from the
    residual weights (1 -+ R)/2 and the penalty weights alpha and theta of
    that direction.
    """
    coefficients = []
    for r, alpha, theta in ((bc.r_x, p.alpha_x, p.theta_x), (bc.r_y, p.alpha_y, p.theta_y)):
        cm, cp = 0.5 * (1.0 - r), 0.5 * (1.0 + r)
        coefficients.append((alpha * cm, 1.0 - alpha * cp - theta * cm, theta * cp))
    return coefficients


def penalties_admissible(bc: BoundaryConfig, p: PenaltyParams) -> bool:
    """Whether the wall term BT is nonnegative for every wall state.

    True iff on both directions a >= 0, c >= 0 and b^2 <= 4 a c, each to
    1e-12 relative to the largest coefficient: the 2x2 form is then
    positive semidefinite, whichever sign b has on a given wall.
    """
    tol = 1e-12
    for a, b, c in _wall_coefficients(bc, p):
        scale = max(abs(a), abs(b), abs(c))
        if a < -tol * scale or c < -tol * scale or b * b - 4.0 * a * c > tol * scale**2:
            return False
    return True


@dataclass(frozen=True, eq=False)
class WallTerms:
    """The part of the wall terms that does not depend on the state, built once.

    Built from the operators, walls, penalties and ``rows``, the damped x
    rows that carry the modal theta term.  Per point of the boundary
    vector (``OperatorPair.wall_index``), ``gather[split]`` holds the flat
    indices in an (nfields, nx, ny) array of Ez and the tangential magnetic
    field, and with ``split`` of aux as well; ``residual`` the residual's
    weights on Ez and on that field; ``p_normal`` P across the wall; ``bt``
    BT's wall coefficients a, -sign b and c times 2 and P along the wall.
    ``sat[ez_y]`` is the one scatter of the SAT penalties: the x walls'
    then the y walls' rates of Ez (or, with ``ez_y``, aux on the y walls)
    and of the tangential H, each entry's place in the boundary vector and
    its weight, -alpha or -theta times the wall's sign.  ``theta`` is the
    scatter of the modal theta term into the aux rates at the y-wall points
    of ``rows``, with those points' places and -P across the wall.  A
    scatter's places in the rates are given twice: as flat indices, for a
    C-contiguous array, whose flat view is no copy, and as (field, i, j)
    index arrays, for any other.  ``data`` holds each wall's segment and data.
    """

    ops: OperatorPair
    bc: BoundaryConfig
    penalties: PenaltyParams
    rows: slice = field(default_factory=lambda: slice(0, 0))
    gather: dict = field(init=False, repr=False)
    residual: np.ndarray = field(init=False, repr=False)
    p_normal: np.ndarray = field(init=False, repr=False)
    bt: np.ndarray = field(init=False, repr=False)
    sat: dict = field(init=False, repr=False)
    theta: tuple = field(init=False, repr=False)
    data: tuple = field(init=False, repr=False)

    def __post_init__(self):
        ops, bc, p = self.ops, self.bc, self.penalties
        nx, ny = ops.x.n, ops.y.n
        plane, n, index = nx * ny, 2 * ny, ops.wall_index
        x, y = slice(0, n), slice(n, None)
        sign = np.repeat(WALL_SIGNS, (ny, ny, nx, nx))
        p_normal = np.repeat(np.concatenate((ops.x.p_diag[[0, -1]], ops.y.p_diag[[0, -1]])), (ny, ny, nx, nx))

        def per_direction(on_x, on_y):
            return np.concatenate((np.full(n, on_x), np.full(2 * nx, on_y)))

        tangent = np.concatenate((index[x] + plane, index[y] + 2 * plane))
        weights = -np.array([per_direction(p.alpha_x, p.alpha_y), per_direction(p.theta_x, p.theta_y) * sign])
        place = np.arange(index.size)

        def scatter(flat):
            return flat, (flat // plane, flat % plane // ny, flat % ny)

        def sat(ez_on_y):
            # x then y, so that add.at sums a corner in that order.
            return (*scatter(np.concatenate([index[x], tangent[x], ez_on_y, tangent[y]])),
                    np.concatenate([place[x], place[x], place[y], place[y]]),
                    np.concatenate([weights[0, x], weights[1, x], weights[0, y], weights[1, y]]))

        a, b, c = map(per_direction, *_wall_coefficients(bc, p))
        points = np.concatenate([np.arange(nx)[self.rows] + k for k in (n, n + nx)])
        walls = (slice(0, ny), slice(ny, n), slice(n, n + nx), slice(n + nx, None))
        data = zip(walls, (bc.g_left, bc.g_right, bc.g_bottom, bc.g_top))
        gather = np.array([index, tangent, index + 3 * plane])
        for name, value in (
            ("gather", {False: gather[:2], True: gather}),
            ("residual", np.array([per_direction(0.5 * (1.0 - bc.r_x), 0.5 * (1.0 - bc.r_y)),
                                   per_direction(0.5 * (1.0 + bc.r_x), 0.5 * (1.0 + bc.r_y)) * sign])),
            ("p_normal", p_normal),
            ("bt", 2.0 * np.array([a, -sign * b, c]) * ops.wall_p_tangent),
            ("sat", {False: sat(index[y]), True: sat(index[y] + 3 * plane)}),
            ("theta", (*scatter(index[points] + 3 * plane), points, -p_normal[points])),
            ("data", tuple((wall, g) for wall, g in data if g is not None)),
        ):
            object.__setattr__(self, name, value)


def wall_residuals(data: np.ndarray, walls: WallTerms, t: float, split: bool = False) -> np.ndarray:
    """Boundary-condition residuals on the boundary vector of a state's array,
    each wall's data at t subtracted on its segment.

    Ez (ez + aux with ``split``) and the tangential H come in one gather.
    """
    values = data.take(walls.gather[split])
    if split:
        values[0] += values[2]
        values = values[:2]
    values *= walls.residual
    r = np.add(values[0], values[1])
    for wall, g in walls.data:
        r[wall] -= g(t)
    return r


def sat_y_field(r: np.ndarray, weight: float, walls: WallTerms, rates: np.ndarray):
    """Add the y-wall penalty -weight * Py^{-1} r on ``walls.rows`` into the aux rate of ``rates``.

    The stabilized auxiliary equation carries this term with weight
    theta * alpha_y.  It is added as (weight r) / (-P), which has the bits
    of subtracting (weight r) / P.
    """
    flat, fij, points, minus_p = walls.theta
    increments = weight * r.take(points)
    increments /= minus_p
    if rates.flags.c_contiguous:
        np.add.at(rates.ravel(), flat, increments)
    else:
        np.add.at(rates, fij, increments)


def sat_contributions(r: np.ndarray, walls: WallTerms, rates: np.ndarray, ez_y: bool = False):
    """Add the penalty terms of the Ez, Hy and Hx equations into ``rates``.

    ``rates`` is the (nfields, nx, ny) array of the rates (Ez, Hy, Hx, ...)
    and ``r`` the residuals of ``wall_residuals``.  One ``np.add.at``
    scatters the increments of both directions, x then y: it adds repeated
    indices in order, so a corner sums in that order.  With ``ez_y`` the
    y-wall term of the Ez equation goes into the fourth field instead (the
    undamped component of the stable split field).
    """
    flat, fij, places, weights = walls.sat[ez_y]
    increments = (r / walls.p_normal).take(places)
    increments *= weights
    if rates.flags.c_contiguous:
        np.add.at(rates.ravel(), flat, increments)
    else:
        np.add.at(rates, fij, increments)


def boundary_dissipation(state: FieldState, walls: WallTerms) -> float:
    """The boundary term BT with 2 <u, RHS(u)>_P = -BT for zero wall data and damping.

    u is (Ez, Hy, Hx) with the total electric field of a split state.  BT
    collects the SBP boundary terms of Dx and Dy and the SAT terms of
    ``sat_contributions``; with the wall residuals r of zero data it is

        2 Py [Ez_R Hy_R - Ez_L Hy_L + alpha_x (Ez_L r_L + Ez_R r_R) + theta_x (Hy_L r_L - Hy_R r_R)]
      + 2 Px [Ez_B Hx_B - Ez_T Hx_T + alpha_y (Ez_B r_B + Ez_T r_T) + theta_y (Hx_T r_T - Hx_B r_B)]

    summed along each wall, for every penalty set; it is nonnegative for
    every state exactly when ``penalties_admissible`` holds.  Expanding r
    gives on each wall the quadratic a e^2 - sign b e m + c m^2 in Ez and
    the tangential magnetic field, with the wall's sign in ``WALL_SIGNS``,
    which is what is evaluated, as three dot products on the gathered wall
    values with ``WallTerms.bt``: the e m terms of the SBP and SAT parts
    cancel in the coefficient b, not in rounded wall values.
    """
    split = state.model == "SplitField"
    e, m, *aux = state.data.take(walls.gather[split])
    if split:
        e += aux[0]
    on_ee, on_em, on_mm = walls.bt
    return float(on_ee @ (e * e) + on_em @ (e * m) + on_mm @ (m * m))
