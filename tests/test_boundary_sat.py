"""Tests for the weak wall enforcement: penalty algebra, SAT assembly, and
the boundary dissipation identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpml.boundary_sat import (
    BoundaryConfig,
    PenaltyParams,
    boundary_dissipation,
    gamma_from_reflection,
    penalty_matrix_eigenvalues,
    sat_contributions,
    validate_penalties,
    wall_residuals,
)
from sbpml.grid_state import FieldState, Grid2D
from sbpml.pml_models import ModelSpec, evaluate_rhs, zero_damping

from _oracles import dense_sat_oracle


def random_interior_state(grid, rng):
    s = FieldState.zeros(grid, "Interior")
    s.ez[:] = rng.standard_normal(s.ez.shape)
    s.hy[:] = rng.standard_normal(s.ez.shape)
    s.hx[:] = rng.standard_normal(s.ez.shape)
    return s


def sat_of(s, bc, p, t, grid, ops):
    """The SAT fields of a state, from its wall residuals at time t."""
    return sat_contributions(wall_residuals(s.ez, s.hy, s.hx, bc, grid, t), p, ops)


# ---------------------------------------------------------------------------
# Penalty parameter algebra


def test_gamma_from_reflection_values():
    assert gamma_from_reflection(0.0) == 1.0
    assert gamma_from_reflection(1.0) == 0.0
    assert gamma_from_reflection(1.0 / 3.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        gamma_from_reflection(-1.0)
    with pytest.raises(ValueError):
        gamma_from_reflection(1.5)


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
    lo, hi, is_complex = penalty_matrix_eigenvalues(gamma, theta_bar)
    m = wall_matrix(gamma, theta_bar, sign)
    ev = np.sort(np.linalg.eigvals(m))
    if is_complex:
        # A symmetric real matrix always has real eigenvalues, so the
        # complex flag can only fire for parameters outside the admissible
        # set; the closed form then reports the complex pair of the
        # characteristic polynomial.
        poly = np.array([1.0, -(gamma + theta_bar), gamma * theta_bar - (theta_bar * gamma / 2.0) ** 2])
        roots = np.sort_complex(np.roots(poly))
        assert abs(complex(lo) - roots[0]) <= 1e-10
    else:
        assert abs(lo - ev[0].real) <= 1e-10 * max(1.0, abs(ev[0]))
        assert abs(hi - ev[1].real) <= 1e-10 * max(1.0, abs(ev[1]))


def test_admissibility_boundary():
    """theta_bar = 4/gamma sits on the boundary of the admissible set: the
    smaller eigenvalue vanishes there."""
    for gamma in (0.25, 1.0, 4.0):
        lo, hi, is_complex = penalty_matrix_eigenvalues(gamma, 4.0 / gamma)
        assert not is_complex
        assert abs(lo) <= 1e-12 * max(1.0, hi)
        assert hi > 0
    # Slightly beyond the boundary the matrix is indefinite.
    lo, _, _ = penalty_matrix_eigenvalues(1.0, 4.0 + 1e-6)
    assert lo < 0


def test_validate_penalties_classification():
    bc = BoundaryConfig(r_x=0.0, r_y=0.0)
    assert validate_penalties(bc, PenaltyParams.universal()) == "Universal"
    assert validate_penalties(bc, PenaltyParams.estimate_matching(0, 0)) == "EstimateMatching"
    ok = PenaltyParams.estimate_matching(0, 0, theta_bar_x=4.0, theta_bar_y=4.0)
    assert validate_penalties(bc, ok) == "EstimateMatching"
    too_big = PenaltyParams.estimate_matching(0, 0, theta_bar_x=4.5)
    assert validate_penalties(bc, too_big) == "Unstable"
    wrong_alpha = PenaltyParams(3.0, 2.0, 0.0, 0.0)
    assert validate_penalties(bc, wrong_alpha) == "Unstable"
    # Universal penalties are admissible even at the PEC wall R = -1.
    pec = BoundaryConfig(r_x=-1.0, r_y=0.0)
    assert validate_penalties(pec, PenaltyParams.universal()) == "Universal"


# ---------------------------------------------------------------------------
# Wall residuals and SAT assembly


def test_wall_residuals_characteristic_walls():
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 5, 4)
    rng = np.random.default_rng(3)
    s = random_interior_state(g, rng)
    bc = BoundaryConfig(r_x=0.0, r_y=0.0)
    rl, rr, rb, rt = wall_residuals(s.ez, s.hy, s.hx, bc, g, 0.0)
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
    rl, rr, rb, rt = wall_residuals(s.ez, s.hy, s.hx, bc, g, 0.0)
    assert np.allclose(rl, s.hy[0, :])
    assert np.allclose(rr, -s.hy[-1, :])
    assert np.allclose(rb, s.ez[:, 0])
    assert np.allclose(rt, s.ez[:, -1])


def test_wall_residuals_subtract_data():
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 5, 4)
    s = FieldState.zeros(g, "Interior")
    bc = BoundaryConfig(r_x=0.0, r_y=1.0, g_top=lambda x, t: x + t)
    _, _, _, rt = wall_residuals(s.ez, s.hy, s.hx, bc, g, 2.0)
    assert np.allclose(rt, -(g.x + 2.0))




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
    bc_g = BoundaryConfig(r_x=0.2, r_y=0.4, g_left=lambda y, t: np.sin(y) + t)

    su = sat_of(u, bc0, p, 0.0, g, ops)
    sv = sat_of(v, bc0, p, 0.0, g, ops)
    w = FieldState(
        model="Interior", ez=2 * u.ez - 3 * v.ez, hy=2 * u.hy - 3 * v.hy, hx=2 * u.hx - 3 * v.hx
    )
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
    prof = zero_damping(g)
    spec = ModelSpec("Interior")
    for _ in range(5):
        s = random_interior_state(g, rng)
        rhs = evaluate_rhs(spec, s, prof, bc, p, ops, g, 0.0)
        de_dt = 2.0 * (
            ops.inner(s.ez, rhs.ez) + ops.inner(s.hy, rhs.hy) + ops.inner(s.hx, rhs.hx)
        )
        bt = boundary_dissipation(s, bc, p, g, ops)
        assert de_dt == pytest.approx(-bt, abs=1e-12)
        assert bt >= -1e-12  # admissible penalties dissipate


def test_boundary_dissipation_unknown_penalties():
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 5, 5)
    ops = g.operators(2)
    s = FieldState.zeros(g, "Interior")
    s.ez[:] = 1.0
    bc = BoundaryConfig(r_x=0.0, r_y=0.0)
    bad = PenaltyParams(3.0, 3.0, 0.0, 0.0)
    assert boundary_dissipation(s, bc, bad, g, ops) == 0.0
