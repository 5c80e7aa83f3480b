"""Tests for the weak wall enforcement: penalty algebra, SAT assembly, and
the boundary dissipation identity."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sbpml.boundary_sat import (
    BoundaryConfig,
    PenaltyParams,
    WallTerms,
    boundary_dissipation,
    penalties_admissible,
    sat_contributions,
    wall_residuals,
)
from sbpml.grid_state import FieldState, Grid2D
from sbpml.pml_models import ModelSpec, SemiDiscrete, evaluate_rhs

from _oracles import dense_sat_oracle, penalty_matrix_eigenvalues, zero_damping


def random_interior_state(grid, rng):
    s = FieldState.zeros(grid, "Interior")
    s.ez[:] = rng.standard_normal(s.ez.shape)
    s.hy[:] = rng.standard_normal(s.ez.shape)
    s.hx[:] = rng.standard_normal(s.ez.shape)
    return s


def sat_of(s, bc, p, t, grid, ops):
    """The SAT fields (ez, hy, hx) of a state, from its wall residuals at time t, added into zero fields."""
    fields = np.zeros((3, grid.nx, grid.ny))
    walls = WallTerms(ops, bc, p)
    sat_contributions(wall_residuals(s.data, walls, t), walls, fields)
    return tuple(fields)


def residuals_by_wall(s, bc, t, grid):
    """The wall residuals of a state at time t as its (left, right, bottom, top) segments."""
    walls = WallTerms(grid.operators(2), bc, PenaltyParams.universal())
    r = wall_residuals(s.data, walls, t)
    assert r.shape == (2 * grid.ny + 2 * grid.nx,)
    return np.split(r, np.cumsum([grid.ny, grid.ny, grid.nx]))


# ---------------------------------------------------------------------------
# Penalty parameter algebra


def test_penalty_presets():
    u = PenaltyParams.universal()
    assert (u.alpha_x, u.alpha_y, u.theta_x, u.theta_y) == (1, 1, 1, 1)
    e = PenaltyParams.estimate_matching(0.0, 0.0)
    assert (e.alpha_x, e.alpha_y) == (2.0, 2.0)
    assert (e.theta_x, e.theta_y) == (0.0, 0.0)
    e2 = PenaltyParams.estimate_matching(0.0, 0.0, theta_bar_x=1.0, theta_bar_y=1.0)
    assert (e2.theta_x, e2.theta_y) == (2.0, 2.0)
    with pytest.raises(ValueError):
        PenaltyParams.estimate_matching(-1.0, 0.0)


def wall_matrix(gamma, theta_bar, sign):
    return np.array(
        [[gamma, sign * theta_bar * gamma / 2.0], [sign * theta_bar * gamma / 2.0, theta_bar]]
    )


@settings(max_examples=50, deadline=None)
@given(
    gamma=st.floats(1e-3, 10.0, allow_nan=False),
    theta_bar=st.floats(0.0, 20.0, allow_nan=False),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_penalty_eigenvalue_formula_matches_eigensolve(gamma, theta_bar, sign):
    lo, hi = penalty_matrix_eigenvalues(gamma, theta_bar)
    ev = np.linalg.eigvalsh(wall_matrix(gamma, theta_bar, sign))
    assert abs(lo - ev[0]) <= 1e-10 * max(1.0, abs(ev[0]))
    assert abs(hi - ev[1]) <= 1e-10 * max(1.0, abs(ev[1]))


def test_admissibility_boundary():
    """theta_bar = 4/gamma sits on the boundary of the admissible set: the
    smaller eigenvalue vanishes there."""
    for gamma in (0.25, 1.0, 4.0):
        lo, hi = penalty_matrix_eigenvalues(gamma, 4.0 / gamma)
        assert abs(lo) <= 1e-12 * max(1.0, hi)
        assert hi > 0
    # Slightly beyond the boundary the matrix is indefinite.
    lo, _ = penalty_matrix_eigenvalues(1.0, 4.0 + 1e-6)
    assert lo < 0


def test_penalties_admissible_classification():
    bc = BoundaryConfig(r_x=0.0, r_y=0.0)
    assert penalties_admissible(bc, PenaltyParams.universal())
    assert penalties_admissible(bc, PenaltyParams.estimate_matching(0, 0))
    # theta_bar = 4/gamma = 4 is the marginal estimate-matching set; 4.5 is beyond it.
    assert penalties_admissible(bc, PenaltyParams.estimate_matching(0, 0, theta_bar_x=4.0, theta_bar_y=4.0))
    assert not penalties_admissible(bc, PenaltyParams.estimate_matching(0, 0, theta_bar_x=4.5))
    assert not penalties_admissible(bc, PenaltyParams(3.0, 2.0, 0.0, 0.0))
    # Outside both families: a = 3/4, b = -1/4, c = 1/2 is positive definite.
    assert penalties_admissible(bc, PenaltyParams(1.5, 1.5, 1.0, 1.0))
    # On the insulated wall (R = 1) a = 0 and on the PEC wall (R = -1) c = 0;
    # with b = 0 there, the sign of the other coefficient decides.
    assert not penalties_admissible(BoundaryConfig(r_x=1.0, r_y=0.0), PenaltyParams(1.0, 1.0, -1.0, 1.0))
    assert not penalties_admissible(BoundaryConfig(r_x=-1.0, r_y=0.0), PenaltyParams(-1.0, 1.0, 1.0, 1.0))
    # Universal penalties are admissible for every R, the PEC wall R = -1 included.
    for r in np.linspace(-1.0, 1.0, 21):
        assert penalties_admissible(BoundaryConfig(r_x=r, r_y=-r), PenaltyParams.universal()), r


@settings(max_examples=200, deadline=None)
@given(r=st.floats(-0.99, 1.0), fraction=st.floats(0.0, 1.3))
def test_admissibility_matches_eigenvalue_lemma(r, fraction):
    """On estimate-matching sets the paper's lemma is the oracle: admissible
    iff the smaller closed-form eigenvalue is nonnegative, to 1e-12 of the
    larger.  Sets within 1e-9 of the margin beyond theta_bar = 4/gamma are
    left out, as the two tolerances may round them differently."""
    gamma = (1.0 - r) / (1.0 + r)
    theta_bar = fraction * (4.0 / gamma if gamma > 0 else 10.0)
    lo, hi = penalty_matrix_eigenvalues(gamma, theta_bar)
    assume(fraction <= 1.0 or abs(lo) > 1e-9 * hi)
    bc = BoundaryConfig(r_x=r, r_y=r)
    p = PenaltyParams.estimate_matching(r, r, theta_bar, theta_bar)
    assert penalties_admissible(bc, p) == (lo >= -1e-12 * hi)


@settings(max_examples=300, deadline=None)
@given(
    r_x=st.floats(-1.0, 1.0),
    r_y=st.floats(-1.0, 1.0),
    weights=st.tuples(*[st.floats(-1.0, 4.0)] * 4),
)
def test_admissibility_is_the_sign_of_the_wall_form(r_x, r_y, weights):
    """Every set that ``penalties_admissible`` rejects has a wall state with
    BT < 0, and every set it accepts has none.

    At one non-corner point of the left and of the bottom wall, the 2x2
    matrix of BT in (Ez, tangential H) is read off ``boundary_dissipation``
    by polarization.  A rejected direction has an eigenvalue below -1e-13
    of the matrix's largest entry, well clear of round-off; its
    eigenvector, placed at that point, must give BT < 0.  An accepted set's
    eigenvalues may fall below zero only by its 1e-12 relative tolerance.
    Weights in [-1, 4] make both outcomes common."""
    bc, p = BoundaryConfig(r_x=r_x, r_y=r_y), PenaltyParams(*weights)
    g = Grid2D(0.0, 2.0, 0.0, 1.5, 7, 6)
    walls = WallTerms(g.operators(2), bc, p)

    def bt(point, field, e, m):
        """BT of the state that is e in Ez and m in ``field`` at ``point``, zero elsewhere."""
        s = FieldState.zeros(g, "Interior")
        s.ez[point], getattr(s, field)[point] = e, m
        return boundary_dissipation(s, walls)

    admissible = penalties_admissible(bc, p)
    witnesses = []
    for wall in (((0, 2), "hy"), ((3, 0), "hx")):
        q_e, q_m = bt(*wall, 1.0, 0.0), bt(*wall, 0.0, 1.0)
        off = 0.5 * (bt(*wall, 1.0, 1.0) - q_e - q_m)
        m = np.array([[q_e, off], [off, q_m]])
        lam, vec = np.linalg.eigh(m)
        if admissible:
            assert lam[0] >= -3e-12 * np.max(np.abs(m)), (wall, lam)
        elif lam[0] < -1e-14 * np.max(np.abs(m)):
            witnesses.append(bt(*wall, *vec[:, 0]))
    if not admissible:
        assert witnesses and all(w < 0 for w in witnesses), witnesses


# ---------------------------------------------------------------------------
# Wall residuals and SAT assembly


def test_wall_residuals_characteristic_walls():
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 5, 4)
    rng = np.random.default_rng(3)
    s = random_interior_state(g, rng)
    bc = BoundaryConfig(r_x=0.0, r_y=0.0)
    rl, rr, rb, rt = residuals_by_wall(s, bc, 0.0, g)
    assert np.allclose(rl, 0.5 * (s.ez[0, :] + s.hy[0, :]))
    assert np.allclose(rr, 0.5 * (s.ez[-1, :] - s.hy[-1, :]))
    assert np.allclose(rb, 0.5 * (s.ez[:, 0] - s.hx[:, 0]))
    assert np.allclose(rt, 0.5 * (s.ez[:, -1] + s.hx[:, -1]))


def test_wall_residuals_insulating_and_pec():
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 5, 4)
    rng = np.random.default_rng(4)
    s = random_interior_state(g, rng)
    # R = 1: only the magnetic field enters; R = -1: only the electric field.
    bc = BoundaryConfig(r_x=1.0, r_y=-1.0)
    rl, rr, rb, rt = residuals_by_wall(s, bc, 0.0, g)
    assert np.allclose(rl, s.hy[0, :])
    assert np.allclose(rr, -s.hy[-1, :])
    assert np.allclose(rb, s.ez[:, 0])
    assert np.allclose(rt, s.ez[:, -1])


def test_wall_residuals_subtract_data():
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 5, 4)
    s = FieldState.zeros(g, "Interior")
    bc = BoundaryConfig(r_x=0.0, r_y=1.0, g_top=lambda t: g.x + t)
    rt = residuals_by_wall(s, bc, 2.0, g)[3]
    assert np.allclose(rt, -(g.x + 2.0))


def test_wall_residuals_data_on_every_wall():
    """Distinct data on each wall lands on that wall's row, beside its own sign of H."""
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 5, 4)
    rng = np.random.default_rng(6)
    s = random_interior_state(g, rng)
    x, y = g.x, g.y
    bc = BoundaryConfig(
        r_x=0.3,
        r_y=-0.6,
        g_left=lambda t: y + t,
        g_right=lambda t: 2.0 * y**2 - t,
        g_bottom=lambda t: np.cos(x) * t,
        g_top=lambda t: 3.0 - x * t,
    )
    t = 0.7
    left, right, bottom, top = residuals_by_wall(s, bc, t, g)
    assert left.shape == right.shape == (g.ny,) and bottom.shape == top.shape == (g.nx,)
    cxm, cxp, cym, cyp = 0.35, 0.65, 0.8, 0.2
    assert np.allclose(left, cxm * s.ez[0, :] + cxp * s.hy[0, :] - (y + t), rtol=0, atol=1e-14)
    assert np.allclose(right, cxm * s.ez[-1, :] - cxp * s.hy[-1, :] - (2.0 * y**2 - t), rtol=0, atol=1e-14)
    assert np.allclose(bottom, cym * s.ez[:, 0] - cyp * s.hx[:, 0] - np.cos(x) * t, rtol=0, atol=1e-14)
    assert np.allclose(top, cym * s.ez[:, -1] + cyp * s.hx[:, -1] - (3.0 - x * t), rtol=0, atol=1e-14)




@pytest.mark.parametrize("r_x,r_y", [(0.0, 0.0), (0.5, -0.5), (1.0, 0.25)])
@pytest.mark.parametrize("penalties", ["universal", "matching", "matching_theta"])
def test_sat_contributions_match_dense_oracle(r_x, r_y, penalties):
    g = Grid2D(0.0, 1.0, 0.0, 1.2, 6, 6)
    ops = g.operators(2)
    rng = np.random.default_rng(11)
    s = random_interior_state(g, rng)
    bc = BoundaryConfig(r_x=r_x, r_y=r_y)
    if penalties == "universal":
        p = PenaltyParams.universal()
    elif penalties == "matching":
        p = PenaltyParams.estimate_matching(r_x, r_y)
    else:
        p = PenaltyParams.estimate_matching(r_x, r_y, theta_bar_x=0.5, theta_bar_y=1.0)

    got = sat_of(s, bc, p, 0.0, g, ops)
    want = dense_sat_oracle(s, bc, p, g, ops)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-13


def test_sat_supported_on_walls_only():
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 7, 7)
    ops = g.operators(2)
    rng = np.random.default_rng(5)
    s = random_interior_state(g, rng)
    bc = BoundaryConfig(r_x=0.3, r_y=-0.3)
    sat_ez, sat_hy, sat_hx = sat_of(s, bc, PenaltyParams.universal(), 0.0, g, ops)
    assert np.all(sat_ez[1:-1, 1:-1] == 0.0)
    assert np.all(sat_hy[1:-1, :] == 0.0)
    assert np.all(sat_hx[:, 1:-1] == 0.0)


def test_sat_linear_in_state_and_affine_in_data():
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 6, 5)
    ops = g.operators(2)
    rng = np.random.default_rng(9)
    u = random_interior_state(g, rng)
    v = random_interior_state(g, rng)
    p = PenaltyParams.universal()
    bc0 = BoundaryConfig(r_x=0.2, r_y=0.4)
    bc_g = BoundaryConfig(
        r_x=0.2,
        r_y=0.4,
        g_left=lambda t: np.sin(g.y) + t,
        g_right=lambda t: np.cos(g.y) - t,
        g_bottom=lambda t: g.x**2 * t,
        g_top=lambda t: 1.0 - g.x,
    )

    su = sat_of(u, bc0, p, 0.0, g, ops)
    sv = sat_of(v, bc0, p, 0.0, g, ops)
    w = FieldState("Interior", 2 * u.data - 3 * v.data)
    sw = sat_of(w, bc0, p, 0.0, g, ops)
    for a, b, c in zip(sw, su, sv):
        assert np.allclose(a, 2 * b - 3 * c, atol=1e-12)

    # Data enters additively: SAT(u; g) - SAT(u; 0) = SAT(0; g).
    zero = FieldState.zeros(g, "Interior")
    for with_u, without, data_only in zip(
        sat_of(u, bc_g, p, 1.5, g, ops),
        sat_of(u, bc0, p, 1.5, g, ops),
        sat_of(zero, bc_g, p, 1.5, g, ops),
    ):
        assert np.allclose(with_u - without, data_only, atol=1e-12)


# ---------------------------------------------------------------------------
# Boundary dissipation identity


@pytest.mark.parametrize(
    "r_x,r_y,preset,theta_bars",
    [
        (0.0, 0.0, "universal", None),
        (0.5, -0.5, "universal", None),
        (-1.0, 1.0, "universal", None),
        (0.0, 0.0, "matching", (0.0, 0.0)),
        (0.0, 0.0, "matching", (1.0, 2.0)),
        (0.5, 0.25, "matching", (0.5, 3.0)),
    ],
)
def test_energy_identity_interior(r_x, r_y, preset, theta_bars):
    """2 <u, RHS(u)>_P = -BT_s for the undamped interior scheme.

    This is the oracle for ``boundary_dissipation``: the quadratic form it
    returns must equal the wall contribution of the energy derivative for
    every state, to round-off."""
    g = Grid2D(0.0, 2.0, 0.0, 1.5, 9, 8)
    ops = g.operators(4)
    rng = np.random.default_rng(21)
    bc = BoundaryConfig(r_x=r_x, r_y=r_y)
    if preset == "universal":
        p = PenaltyParams.universal()
    else:
        p = PenaltyParams.estimate_matching(r_x, r_y, *theta_bars)
    system = SemiDiscrete(ModelSpec("Interior"), zero_damping(g), bc, p, ops)
    for _ in range(5):
        s = random_interior_state(g, rng)
        rhs = evaluate_rhs(system, s, 0.0)
        de_dt = 2.0 * (
            ops.inner(s.ez, rhs.ez) + ops.inner(s.hy, rhs.hy) + ops.inner(s.hx, rhs.hx)
        )
        bt = boundary_dissipation(s, system.walls)
        assert de_dt == pytest.approx(-bt, abs=1e-12)
        assert bt >= -1e-12  # admissible penalties dissipate


@settings(max_examples=150, deadline=None)
@given(
    order=st.sampled_from([2, 4, 6]),
    kind=st.sampled_from(["Interior", "SplitFieldNaive", "SplitFieldStable"]),
    r_x=st.floats(-1.0, 1.0),
    r_y=st.floats(-1.0, 1.0),
    family=st.sampled_from(["any", "universal", "matching"]),
    weights=st.tuples(*[st.floats(-10.0, 10.0)] * 4),
    fractions=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**31),
)
def test_boundary_dissipation_identity(order, kind, r_x, r_y, family, weights, fractions, seed):
    """2 <u, RHS(u)>_P = -BT for every penalty set, with u = (Ez, Hy, Hx)
    and the total electric field of a split state, at zero damping.

    Penalties are any real weights, the universal set, or estimate-matching
    with theta_bar anywhere in its admissible range [0, 4/gamma] (up to 10
    at gamma = 0).  The identity must hold to 1e-12 of the size of its
    terms, sum |u| |RHS(u)| P.  Sets that ``penalties_admissible`` accepts,
    from any family, must also dissipate, BT >= -1e-12."""
    g = Grid2D(0.0, 2.0, 0.0, 1.5, 13, 12)
    ops = g.operators(order)
    bc = BoundaryConfig(r_x=r_x, r_y=r_y)
    if family == "any":
        p = PenaltyParams(*weights)
    elif family == "universal":
        p = PenaltyParams.universal()
    else:
        assume(r_x > -1.0 and r_y > -1.0)
        gx, gy = (1.0 - r_x) / (1.0 + r_x), (1.0 - r_y) / (1.0 + r_y)
        tbx, tby = (f * (4.0 / gam if gam > 0 else 10.0) for f, gam in zip(fractions, (gx, gy)))
        p = PenaltyParams.estimate_matching(r_x, r_y, tbx, tby)
    system = SemiDiscrete(ModelSpec(kind), zero_damping(g), bc, p, ops)
    s = FieldState.zeros(g, system.model)
    s.data[:] = np.random.default_rng(seed).standard_normal(s.data.shape)
    rhs = evaluate_rhs(system, s, 0.0)
    d_ez = rhs.ez if rhs.aux is None else rhs.ez + rhs.aux
    pairs = ((s.ez_total, d_ez), (s.hy, rhs.hy), (s.hx, rhs.hx))
    de_dt = 2.0 * sum(ops.inner(a, b) for a, b in pairs)
    scale = 2.0 * sum(ops.inner(np.abs(a), np.abs(b)) for a, b in pairs)
    bt = boundary_dissipation(s, system.walls)
    assert abs(de_dt + bt) <= 1e-12 * scale
    if penalties_admissible(bc, p):
        assert bt >= -1e-12
