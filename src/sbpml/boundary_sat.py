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
vector.  ``wall_terms`` builds that vector, and for one model kind all of
the wall terms that does not depend on the state, once per system, so a
right-hand side gathers the wall values once and scatters the SAT
penalties of both directions and the modal theta term once, for one state
or for a stack of states alike.

A penalty set is admissible when the boundary term of the energy estimate,
on each wall a quadratic a e^2 + b e m + c m^2 in Ez and the tangential
magnetic field, is nonnegative for every wall state; see
``penalties_admissible``.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace
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
        if not (abs(self.r_x) <= 1 and abs(self.r_y) <= 1):
            raise ValueError(f"reflection coefficients must lie in [-1, 1]: {self.r_x}, {self.r_y}")


@dataclass(frozen=True)
class PenaltyParams:
    """Penalty weights of the weak boundary treatment."""

    alpha_x: float
    alpha_y: float
    theta_x: float
    theta_y: float

    def __post_init__(self):
        if not np.all(np.isfinite(astuple(self))):
            raise ValueError(f"penalty weights must be finite: {self}")

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
    1e-12 on the coefficients divided by the largest of them in magnitude,
    so that no square overflows: the 2x2 form is then positive
    semidefinite, whichever sign b has on a given wall; NaN fails.
    """
    tol = 1e-12
    for a, b, c in _wall_coefficients(bc, p):
        scale = max(abs(a), abs(b), abs(c)) or 1.0
        a, b, c = a / scale, b / scale, c / scale
        if not (a >= -tol and c >= -tol and b * b - 4.0 * a * c <= tol):
            return False
    return True


@dataclass(frozen=True, eq=False)
class WallTerms:
    """The wall terms of one model kind, all that does not depend on the state, built once by ``wall_terms``.

    The boundary vector is the wall points, left, right, bottom and top,
    each corner on two walls; ``p_tangent`` holds P along each point's
    wall.  Per point, ``gather`` holds the flat indices in an (nfields,
    nx, ny) array of Ez and the tangential magnetic field, and for the two
    SplitField kinds of aux as well; ``residual`` the residual's weights on
    Ez and on that field; ``bt`` BT's wall coefficients a, -sign b and c
    times 2 and P along the wall.  ``sat`` is the one scatter of the wall
    terms: the SAT penalties into the x walls' then the y walls' rates of
    Ez (aux on the y walls for SplitFieldStable) and of the tangential H,
    then for ModalUnsplit at theta != 0 the theta term into the aux rates
    at the y-wall points of the damped x rows.  It holds the entries' flat
    indices and places in the boundary vector, the SAT weights, -alpha or
    -theta times the wall's sign, the theta weight theta * alpha_y, each
    entry's divisor, P across its wall or -P for the theta term, and the
    increments' buffer that ``on`` makes.  The indices of a gather or a
    scatter are flat indices into one state; ``on`` maps them into a
    stack.  ``data`` holds each wall's segment and data.
    """

    gather: np.ndarray
    residual: np.ndarray
    p_tangent: np.ndarray
    bt: np.ndarray
    sat: tuple
    data: tuple

    def on(self, state: FieldState) -> "WallTerms":
        """A copy of these wall terms for ``state``, one state or a stack,
        whose gather and scatter indices are their places in every state
        (``FieldState.places``), those of the scatter raveled one state
        after another, with a buffer for its increments.  ``evaluate_rhs``
        makes this once per plan."""
        flat, places, *factors, _ = self.sat
        increments = np.empty(state.data.shape[1:-2] + places.shape, state.data.dtype)
        return replace(self, gather=state.places(self.gather),
                       sat=(state.places(flat).ravel(), places, *factors, increments))


def wall_terms(ops: OperatorPair, bc: BoundaryConfig, penalties: PenaltyParams, kind: str, theta: float = 0.0,
               rows: slice = slice(0, 0)) -> WallTerms:
    """The ``WallTerms`` of the operators, walls and penalties for the model
    ``kind`` with its ``theta``; ``rows``, the damped x rows, carry the
    modal theta term, whose entries are absent at theta = 0, where their
    zero increments could turn a -0.0 rate into +0.0."""
    p = penalties
    nx, ny, px, py = ops.x.n, ops.y.n, ops.x.p_diag, ops.y.p_diag
    i, j = np.arange(nx) * ny, np.arange(ny)
    index = np.concatenate((j, i[-1] + j, i, i + j[-1]))
    plane, n = nx * ny, 2 * ny
    x, y = slice(0, n), slice(n, None)
    sign = np.repeat(WALL_SIGNS, (ny, ny, nx, nx))
    p_normal = np.repeat(np.concatenate((px[[0, -1]], py[[0, -1]])), (ny, ny, nx, nx))
    p_tangent = np.concatenate((py, py, px, px))

    def per_direction(on_x, on_y):
        return np.concatenate((np.full(n, on_x), np.full(2 * nx, on_y)))

    tangent = np.concatenate((index[x] + plane, index[y] + 2 * plane))
    gather = np.array([index, tangent, index + 3 * plane])
    weights = -np.array([per_direction(p.alpha_x, p.alpha_y), per_direction(p.theta_x, p.theta_y) * sign])
    place = np.arange(index.size)
    # In SplitFieldStable the y-wall penalty of the Ez equation moves to
    # the undamped component, aux; this is what makes the scheme
    # conjugate to the stabilized modal one.  SplitFieldNaive keeps both
    # Ez penalties on the damped x-component.
    ez_y = gather[2, y] if kind == "SplitFieldStable" else index[y]
    a, b, c = map(per_direction, *_wall_coefficients(bc, p))
    # x then y, so that add.at sums a corner in that order, then the theta term.
    flat, places = [index[x], tangent[x], ez_y, tangent[y]], [place[x], place[x], place[y], place[y]]
    weights = np.concatenate((weights[:, x], weights[:, y]), axis=None)
    if kind == "ModalUnsplit" and theta != 0.0:
        points = np.concatenate([np.arange(nx)[rows] + k for k in (n, n + nx)])
        flat.append(gather[2, points])
        places.append(points)
    places = np.concatenate(places)
    divisors = p_normal[places]
    divisors[weights.size :] *= -1.0
    walls = (slice(0, ny), slice(ny, n), slice(n, n + nx), slice(n + nx, None))
    data = zip(walls, (bc.g_left, bc.g_right, bc.g_bottom, bc.g_top))
    return WallTerms(
        gather=gather if kind in ("SplitFieldNaive", "SplitFieldStable") else gather[:2],
        residual=np.array([per_direction(0.5 * (1.0 - bc.r_x), 0.5 * (1.0 - bc.r_y)),
                           per_direction(0.5 * (1.0 + bc.r_x), 0.5 * (1.0 + bc.r_y)) * sign]),
        p_tangent=p_tangent,
        bt=2.0 * np.array([a, -sign * b, c]) * p_tangent,
        sat=(np.concatenate(flat), places, weights, divisors, theta * p.alpha_y, None),
        data=tuple((wall, g) for wall, g in data if g is not None),
    )


def wall_residuals(state: np.ndarray, walls: WallTerms, t: float) -> np.ndarray:
    """Boundary-condition residuals on the boundary vector of a state,
    each wall's data at t subtracted on its segment.

    Ez and the tangential H come in one gather from ``state``, the flat
    view of a C-contiguous state; a split state's gather holds aux as a
    third row, and its Ez is ez + aux.  A stack of states, with the walls
    ``on`` it, gives a stack (..., npts) of boundary vectors.
    """
    values = state.take(walls.gather)
    if values.shape[-2] == 3:
        values[..., 0, :] += values[..., 2, :]
        values = values[..., :2, :]
    values *= walls.residual
    r = np.add(values[..., 0, :], values[..., 1, :])
    for wall, g in walls.data:
        r[..., wall] -= g(t)
    return r


def sat_contributions(r: np.ndarray, walls: WallTerms, rates: np.ndarray):
    """Add the wall terms of ``walls.sat`` into ``rates``: the penalties of
    the Ez, Hy and Hx equations and ModalUnsplit's theta term
    -theta alpha_y Py^{-1} r, the weak y-wall treatment extended into the
    auxiliary equation.

    ``rates`` is the 1-D flat view of the C-contiguous rates (Ez, Hy, Hx,
    ...) of one state or a stack, with the walls ``on`` it, and ``r`` the
    residuals of ``wall_residuals``.  Each step is on a slice: a SAT entry
    adds (r / P) * weight, a theta entry (theta alpha_y r) / (-P).  One
    1-D ``np.add.at``, numpy's fast path, adds them all, a state's
    repeated indices in order, so a corner sums x before y.  For a stack
    of states ``r`` and the increments are stacks (..., n) too.
    """
    flat, places, weights, divisors, theta_weight, increments = walls.sat
    # mode="clip" takes straight into the buffer; "raise" copies through a temporary.
    increments = r.take(places, axis=-1, out=increments, mode="clip")
    n = weights.size
    increments[..., n:] *= theta_weight
    increments /= divisors
    increments[..., :n] *= weights
    np.add.at(rates, flat, increments.reshape(-1))


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
    cancel in the coefficient b, not in rounded wall values.  It takes one
    state, not a stack.
    """
    if state.data.ndim != 3:
        raise ValueError(f"boundary_dissipation takes one state, got a stack of shape {state.data.shape}")
    e, m, *aux = state.data.take(walls.gather)
    if aux:
        e += aux[0]
    on_ee, on_em, on_mm = walls.bt
    return float(on_ee @ (e * e) + on_em @ (e * m) + on_mm @ (m * m))
