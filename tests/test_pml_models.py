"""Tests for the damping profile and the five semi-discrete model systems."""

import math
import tracemalloc
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpml import sbp_core
from sbpml.boundary_sat import (
    BoundaryConfig,
    PenaltyParams,
    WallTerms,
    boundary_dissipation,
    sat_contributions,
    sat_y_field,
)
from sbpml.diagnostics import modal_bt_integrand
from sbpml.grid_state import FieldState, Grid2D
from sbpml.pml_models import (
    MODEL_KINDS,
    STATE_MODEL,
    ModelSpec,
    SemiDiscrete,
    damping_coefficient,
    evaluate_rhs,
    make_damping_profile,
    sigma_at,
)
from sbpml.scenarios_cli import build_scenario, cavity_config, march

from _oracles import (
    dense_rhs_oracle,
    reduce_splitfield_to_modal,
    sat_by_direction,
    theta_term_by_take_put,
    zero_damping,
)


def random_state(grid, model, rng):
    s = FieldState.zeros(grid, model)
    s.ez[:] = rng.standard_normal(s.ez.shape)
    s.hy[:] = rng.standard_normal(s.ez.shape)
    s.hx[:] = rng.standard_normal(s.ez.shape)
    if s.aux is not None:
        s.aux[:] = rng.standard_normal(s.ez.shape)
    return s


# ---------------------------------------------------------------------------
# Damping profile


def test_damping_coefficient_values():
    # Cavity setting: layer width 10, relative error 1e-4.
    assert damping_coefficient(10.0, 1e-4) == pytest.approx(0.2 * math.log(1e4), rel=1e-12)
    assert damping_coefficient(10.0, 1e-4) == pytest.approx(1.8420680743952367, rel=1e-10)
    # Waveguide width and tolerance: 0.4, tol = (1e-4 * h)^2 at h = 0.02,
    # on the cubic ramp and on the waveguide's quadratic one.
    tol = (1e-4 * 0.02) ** 2
    assert damping_coefficient(0.4, tol) == pytest.approx(5.0 * math.log(1.0 / tol), rel=1e-12)
    assert damping_coefficient(0.4, tol) == pytest.approx(131.2236, rel=1e-6)
    assert damping_coefficient(0.4, tol, 2) == pytest.approx(3.75 * math.log(1.0 / tol), rel=1e-12)
    # Every power integrates to the same d0 * delta / (power + 1) = ln(1/tol) / 2,
    # which is the designed normal-incidence reflection exp(-2 * integral) = tol.
    for power in (2, 3):
        d0 = damping_coefficient(0.4, tol, power)
        assert d0 * 0.4 / (power + 1) == pytest.approx(0.5 * math.log(1.0 / tol), rel=1e-12)
    with pytest.raises(ValueError):
        damping_coefficient(0.0, 1e-4)
    with pytest.raises(ValueError):
        damping_coefficient(1.0, 2.0)


def test_sigma_cubic_ramp():
    x0, delta, d0 = 2.0, 1.0, 8.0
    # Zero inside, cubic inside the layer, symmetric in x.
    assert sigma_at(0.0, x0, delta, d0) == 0.0
    assert sigma_at(2.0, x0, delta, d0) == 0.0
    assert sigma_at(2.5, x0, delta, d0) == pytest.approx(8.0 * 0.5**3)
    assert sigma_at(3.0, x0, delta, d0) == pytest.approx(8.0)
    assert sigma_at(-2.5, x0, delta, d0) == sigma_at(2.5, x0, delta, d0)
    # Other powers of the same ramp, as the waveguide's quadratic uses.
    assert sigma_at(2.5, x0, delta, d0, power=2) == pytest.approx(8.0 * 0.5**2)
    assert sigma_at(3.0, x0, delta, d0, power=2) == pytest.approx(8.0)


def test_make_damping_profile_and_zero():
    g = Grid2D(-3.0, 3.0, -1.0, 1.0, 13, 5)
    prof = make_damping_profile(g, 2.0, 1.0, 8.0)
    assert prof.sigma_values.shape == (13,)
    assert prof.sigma_max == pytest.approx(8.0)
    inside = np.abs(g.x) <= 2.0
    assert np.all(prof.sigma_values[inside] == 0.0)
    # Layers at both ends: the one damped run of rows is the whole axis.
    assert prof.rows == slice(0, 13)
    assert prof.sigma.shape == (13, 5) and np.all(prof.sigma == prof.sigma_values[:, None])
    z = zero_damping(g)
    assert z.sigma_max == 0.0
    assert np.all(z.sigma_values == 0.0)
    assert z.rows == slice(0, 0) and z.sigma.shape == (0, 5)


# ---------------------------------------------------------------------------
# Right-hand sides against the dense oracle


def make_problem(order=2, nx=6, ny=6, r_x=0.0, r_y=0.0, d0=3.0, penalties="matching"):
    g = Grid2D(-3.0, 3.0, -1.0, 1.0, nx, ny)
    ops = g.operators(order)
    prof = make_damping_profile(g, 1.0, 2.0, d0)
    bc = BoundaryConfig(r_x=r_x, r_y=r_y)
    if penalties == "universal":
        p = PenaltyParams.universal()
    else:
        p = PenaltyParams.estimate_matching(r_x, r_y)
    return g, ops, prof, bc, p


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("theta", [0.0, 1.0])
@pytest.mark.parametrize("penalties", ["matching", "universal"])
def test_rhs_matches_dense_oracle(kind, theta, penalties):
    g, ops, prof, bc, p = make_problem(penalties=penalties)
    spec = ModelSpec(kind, theta=theta)
    system = SemiDiscrete(spec, prof, bc, p, ops)
    rng = np.random.default_rng(17)
    for _ in range(3):
        s = random_state(g, STATE_MODEL[kind], rng)
        got = evaluate_rhs(system, s, 0.0)
        d_ez, d_hy, d_hx, d_aux = dense_rhs_oracle(spec, s, prof, bc, p, ops, g)
        assert np.max(np.abs(got.ez - d_ez)) <= 1e-12
        assert np.max(np.abs(got.hy - d_hy)) <= 1e-12
        assert np.max(np.abs(got.hx - d_hx)) <= 1e-12
        if d_aux is not None:
            assert np.max(np.abs(got.aux - d_aux)) <= 1e-12


def assert_rhs_matches_oracle(spec, g, ops, prof, r_x, r_y, penalties, t, seed):
    """evaluate_rhs writing into a NaN-filled buffer overwrites all of it
    with the dense Kronecker oracle's values, with top-wall data."""

    def g_top(t):
        return np.sin(3.0 * g.x) * (1.0 + t)

    bc = BoundaryConfig(r_x=r_x, r_y=r_y, g_top=g_top)
    p = PenaltyParams.universal() if penalties == "universal" else PenaltyParams.estimate_matching(r_x, r_y)
    s = random_state(g, STATE_MODEL[spec.kind], np.random.default_rng(seed))
    out = FieldState(s.model, np.full_like(s.data, np.nan))
    assert evaluate_rhs(SemiDiscrete(spec, prof, bc, p, ops), s, t, out) is out
    expect = dense_rhs_oracle(spec, s, prof, bc, p, ops, g, g_top=g_top(t))
    scale = 1.0 + max(np.max(np.abs(e)) for e in expect if e is not None)
    for got, e in zip(out.data, expect):
        assert np.max(np.abs(got - e)) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(MODEL_KINDS),
    order=st.sampled_from([2, 4, 6]),
    nx_extra=st.integers(0, 8),
    ny_extra=st.integers(0, 8),
    theta=st.floats(0.0, 2.0),
    penalties=st.sampled_from(["matching", "universal"]),
    r_x=st.floats(-0.9, 1.0),
    r_y=st.floats(-0.9, 1.0),
    t=st.floats(0.0, 1.0),
    small_blocks=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_rhs_into_buffer_matches_dense_oracle(
    kind, order, nx_extra, ny_extra, theta, penalties, r_x, r_y, t, small_blocks, seed
):
    """evaluate_rhs writing into a NaN-filled buffer overwrites all of it
    with the dense Kronecker oracle's values, on random small grids, with
    top-wall data; ``small_blocks`` builds the operators with 4-row blocks,
    so that both derivatives apply several blocks."""
    n_min = {2: 3, 4: 8, 6: 12}[order]
    g = Grid2D(-3.0, 3.0, -1.0, 1.0, n_min + nx_extra, n_min + ny_extra)
    with patch.object(sbp_core, "BLOCK_ROWS", 4 if small_blocks else sbp_core.BLOCK_ROWS):
        ops = g.operators(order)
    prof = make_damping_profile(g, 1.0, 2.0, 3.0)
    assert_rhs_matches_oracle(ModelSpec(kind, theta=theta), g, ops, prof, r_x, r_y, penalties, t, seed)


def bt_of_wall_residuals(state, bc, p, ops):
    """BT written out wall by wall from the residuals r of zero data:

        2 Py [Ez_R Hy_R - Ez_L Hy_L + alpha_x (Ez_L r_L + Ez_R r_R) + theta_x (Hy_L r_L - Hy_R r_R)]
      + 2 Px [Ez_B Hx_B - Ez_T Hx_T + alpha_y (Ez_B r_B + Ez_T r_T) + theta_y (Hx_T r_T - Hx_B r_B)]

    and the sum of the absolute values of its terms."""
    ez, hy, hx = state.ez_total, state.hy, state.hx
    cxm, cxp, cym, cyp = 0.5 * (1 - bc.r_x), 0.5 * (1 + bc.r_x), 0.5 * (1 - bc.r_y), 0.5 * (1 + bc.r_y)
    el, er, hl, hr = ez[0], ez[-1], hy[0], hy[-1]
    eb, et, hb, ht = ez[:, 0], ez[:, -1], hx[:, 0], hx[:, -1]
    rl, rr = cxm * el + cxp * hl, cxm * er - cxp * hr
    rb, rt = cym * eb - cyp * hb, cym * et + cyp * ht
    terms = [
        2 * ops.y.p_diag * (er * hr - el * hl + p.alpha_x * (el * rl + er * rr) + p.theta_x * (hl * rl - hr * rr)),
        2 * ops.x.p_diag * (eb * hb - et * ht + p.alpha_y * (eb * rb + et * rt) + p.theta_y * (ht * rt - hb * rb)),
    ]
    return sum(float(np.sum(t)) for t in terms), sum(float(np.sum(np.abs(t))) for t in terms)


def modal_bt_of_walls(rate, ops):
    """The modal boundary integrand wall by wall: twice the Py-weighted squares
    on the x walls plus the Px-weighted squares on the y walls."""
    px, py = ops.x.p_diag, ops.y.p_diag
    x_walls = np.sum(py * rate[0] ** 2) + np.sum(py * rate[-1] ** 2)
    return 2.0 * float(x_walls + np.sum(px * rate[:, 0] ** 2) + np.sum(px * rate[:, -1] ** 2))


@settings(max_examples=60, deadline=None)
@given(
    order=st.sampled_from([2, 4, 6]),
    nx_extra=st.integers(0, 5),
    ny_extra=st.integers(0, 3),
    theta=st.sampled_from([0.0, 1.0]),
    penalties=st.sampled_from(["matching", "universal"]),
    r_x=st.sampled_from([0.0, 1.0]) | st.floats(-0.9, 0.9),
    r_y=st.sampled_from([0.0, 1.0]) | st.floats(-0.9, 0.9),
    t=st.floats(0.0, 1.0),
    small_blocks=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_boundary_vector_matches_dense_oracle(
    order, nx_extra, ny_extra, theta, penalties, r_x, r_y, t, small_blocks, seed
):
    """The boundary vector of ``WallTerms``, on grids down to twice the
    boundary width, where the closures of the two walls meet and the
    corners matter.  Every model kind matches the dense oracle with
    top-wall data; the gather covers each wall point once per direction
    (each corner twice in all); each direction's scatter indices are
    distinct; and both energy integrands equal their wall-by-wall
    formulas."""
    n_min = {2: 3, 4: 8, 6: 12}[order]
    g = Grid2D(-3.0, 3.0, -1.0, 1.0, n_min + nx_extra, n_min + ny_extra)
    with patch.object(sbp_core, "BLOCK_ROWS", 4 if small_blocks else sbp_core.BLOCK_ROWS):
        ops = g.operators(order)
    prof = make_damping_profile(g, 1.0, 2.0, 3.0)
    for kind in MODEL_KINDS:
        assert_rhs_matches_oracle(ModelSpec(kind, theta=theta), g, ops, prof, r_x, r_y, penalties, t, seed)

    nx, ny = g.nx, g.ny
    plane = nx * ny
    index = ops.wall_index
    i, j = np.divmod(index, ny)
    assert np.array_equal(np.sort(index[: 2 * ny]), np.flatnonzero((np.arange(plane) // ny) % (nx - 1) == 0))
    assert np.array_equal(np.sort(index[2 * ny :]), np.flatnonzero((np.arange(plane) % ny) % (ny - 1) == 0))
    on_x = np.arange(index.size) < 2 * ny
    assert np.array_equal(ops.wall_p_tangent, np.where(on_x, ops.y.p_diag[j], ops.x.p_diag[i]))
    corners = [0, ny - 1, (nx - 1) * ny, plane - 1]
    assert all(np.count_nonzero(index == c) == 2 for c in corners)

    bc = BoundaryConfig(r_x=r_x, r_y=r_y)
    p = PenaltyParams.universal() if penalties == "universal" else PenaltyParams.estimate_matching(r_x, r_y)
    walls = WallTerms(ops, bc, p, prof.rows)
    assert np.array_equal(walls.p_normal, np.where(on_x, ops.x.p_diag[i], ops.y.p_diag[j]))
    tangent = np.concatenate((index[: 2 * ny] + plane, index[2 * ny :] + 2 * plane))
    assert np.array_equal(walls.gather[True], [index, tangent, index + 3 * plane])
    assert np.array_equal(walls.gather[False], [index, tangent])
    # One scatter of both directions, x walls first: each direction's
    # indices are distinct, and the (field, i, j) form names the same places.
    n_x = 2 * ny
    place = np.arange(index.size)
    for ez_y in (False, True):
        scatter, fij, places, weights = walls.sat[ez_y]
        for part in (scatter[: 2 * n_x], scatter[2 * n_x :]):
            assert np.unique(part).size == part.size
        assert scatter.size == 2 * index.size
        assert np.array_equal(np.ravel_multi_index(fij, (4, nx, ny)), scatter)
        assert np.array_equal(places, np.concatenate([place[:n_x], place[:n_x], place[n_x:], place[n_x:]]))
        assert weights.shape == scatter.shape
    theta_index, theta_fij, theta_points, minus_p = walls.theta
    assert np.unique(theta_index).size == theta_index.size == 2 * len(range(nx)[prof.rows])
    assert np.array_equal(theta_index, index[theta_points] + 3 * plane) and np.all(theta_points >= 2 * ny)
    assert np.array_equal(np.ravel_multi_index(theta_fij, (4, nx, ny)), theta_index)
    assert np.array_equal(minus_p, -walls.p_normal[theta_points])
    # The scatters add what one take, += and put per direction added, bit
    # for bit, a corner x first, into contiguous and strided rates alike.
    scatter_rng = np.random.default_rng(seed)
    r = scatter_rng.standard_normal(index.size)
    for ez_y in (False, True):
        want = scatter_rng.standard_normal((4, nx, ny))
        strided = np.empty(want.shape[::-1]).T
        strided[...] = got = want.copy()
        sat_by_direction(r, walls, want, ez_y)
        theta_term_by_take_put(r, 0.7, walls, want)
        for rates in (got, strided):
            sat_contributions(r, walls, rates, ez_y)
            sat_y_field(r, 0.7, walls, rates)
            assert np.array_equal(rates, want)

    rng = np.random.default_rng(seed)
    for kind in MODEL_KINDS:
        s = random_state(g, STATE_MODEL[kind], rng)
        # The gathers and scatters work on any layout: a strided output gets
        # the same rates, up to the derivative products' summation order.
        system = SemiDiscrete(ModelSpec(kind, theta=theta), prof, bc, p, ops)
        strided = np.empty(s.data.shape[::-1]).T
        got = evaluate_rhs(system, s, t, FieldState(s.model, strided)).data
        want = evaluate_rhs(system, s, t).data
        assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))
        bt, scale = bt_of_wall_residuals(s, bc, p, ops)
        assert abs(boundary_dissipation(s, walls) - bt) <= 1e-13 * scale
        rate = s.ez
        assert modal_bt_integrand(rate, ops) == pytest.approx(modal_bt_of_walls(rate, ops), rel=1e-13)


# Layer geometries as (x_min, x_max, x0, delta, d0) of the ramp sigma_at:
# no damped row, one end only (the right end, as in the waveguide, or the
# left), both ends, and a layer across the whole axis.
LAYERS = {
    "none": (-3.0, 3.0, 1.0, 2.0, 0.0),
    "right end": (-1.0, 3.0, 1.0, 2.0, 3.0),
    "left end": (-3.0, 1.0, 1.0, 2.0, 3.0),
    "both ends": (-3.0, 3.0, 1.0, 2.0, 3.0),
    "whole axis": (-3.0, 3.0, -1.0, 4.0, 3.0),
}


@settings(max_examples=50, deadline=None)
@given(
    layer=st.sampled_from(sorted(LAYERS)),
    order=st.sampled_from([2, 4, 6]),
    nx_extra=st.integers(0, 8),
    ny_extra=st.integers(0, 4),
    theta=st.floats(0.0, 2.0),
    penalties=st.sampled_from(["matching", "universal"]),
    r_x=st.floats(-0.9, 1.0),
    r_y=st.floats(-0.9, 1.0),
    t=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31),
)
def test_rhs_matches_dense_oracle_on_every_layer_geometry(
    layer, order, nx_extra, ny_extra, theta, penalties, r_x, r_y, t, seed
):
    """Every model kind matches the dense oracle, into a NaN-filled buffer,
    whichever run of rows the damping covers: the damping terms act on
    ``DampingProfile.rows`` only, and the auxiliary rates are written as
    zeros outside it."""
    x_min, x_max, x0, delta, d0 = LAYERS[layer]
    n_min = {2: 3, 4: 8, 6: 12}[order]
    g = Grid2D(x_min, x_max, -1.0, 1.0, n_min + nx_extra, n_min + ny_extra)
    ops = g.operators(order)
    prof = make_damping_profile(g, x0, delta, d0)
    damped = np.flatnonzero(prof.sigma_values)
    if layer == "none":
        assert prof.rows == slice(0, 0)
    else:
        assert prof.rows == slice(damped[0], damped[-1] + 1)
    if layer == "whole axis":
        assert damped.size == g.nx
    for kind in MODEL_KINDS:
        assert_rhs_matches_oracle(ModelSpec(kind, theta=theta), g, ops, prof, r_x, r_y, penalties, t, seed)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_rhs_allocates_no_field(kind):
    """A warm evaluate_rhs call into a given buffer on the 61x51 desk grid,
    with the scenario's system as run_scenario passes it, allocates less
    than half a field: no full-size temporary, only the wall lines."""
    setup = build_scenario(cavity_config(order=4, desk=True, model_kind=kind))
    s = random_state(setup.grid, STATE_MODEL[kind], np.random.default_rng(3))
    out = FieldState(s.model, np.empty_like(s.data))
    args = (setup.system, s, 0.5, out)
    evaluate_rhs(*args)
    tracemalloc.start()
    try:
        evaluate_rhs(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * s.ez.nbytes, peak / s.ez.nbytes


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_complex_state_rate_is_the_rate_of_its_parts(kind):
    """Over a data-free system the RHS is a real linear map, so a complex
    state a + i b has the rate RHS(a) + i RHS(b), to 1e-13 relative (the
    complex products may sum in another order), into a given complex
    buffer and into a new one, with no ComplexWarning.  The damped rows
    are one end of the x axis, so the aux rate is zeroed on the rest."""
    g = Grid2D(-1.0, 3.0, -1.0, 1.0, 14, 12)
    ops = g.operators(4)
    prof = make_damping_profile(g, 1.0, 2.0, 3.0)
    assert 0 < prof.rows.start < prof.rows.stop == g.nx
    bc = BoundaryConfig(r_x=0.3, r_y=-0.5)
    system = SemiDiscrete(ModelSpec(kind, theta=1.0), prof, bc, PenaltyParams.universal(), ops)
    rng = np.random.default_rng(21)
    a, b = (random_state(g, STATE_MODEL[kind], rng) for _ in range(2))
    z = FieldState(a.model, a.data + 1j * b.data)
    want = evaluate_rhs(system, a, 0.3).data + 1j * evaluate_rhs(system, b, 0.3).data
    out = FieldState(z.model, np.full_like(z.data, np.nan))
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        assert evaluate_rhs(system, z, 0.3, out) is out
        fresh = evaluate_rhs(system, z, 0.3)
    for got in (out.data, fresh.data):
        assert got.dtype == np.complex128
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_rhs_model_mismatch_rejected():
    """A state of another model or shape is rejected by evaluate_rhs; a
    damping profile of another shape already by the system's constructor."""
    g, ops, prof, bc, p = make_problem()
    s = FieldState.zeros(g, "Interior")
    with pytest.raises(ValueError):
        evaluate_rhs(SemiDiscrete(ModelSpec("ModalUnsplit"), prof, bc, p, ops), s, 0.0)
    other = Grid2D(-3.0, 3.0, -1.0, 1.0, 7, 6)
    interior = SemiDiscrete(ModelSpec("Interior"), prof, bc, p, ops)
    with pytest.raises(ValueError, match="does not match operators"):
        evaluate_rhs(interior, FieldState.zeros(other), 0.0)
    with pytest.raises(ValueError, match="damping profile shape"):
        SemiDiscrete(ModelSpec("Interior"), zero_damping(other), bc, p, ops)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_wall_data_evaluated_once_per_rhs(kind):
    """The wall residuals are formed once per RHS and reused by the theta
    term (ModalUnsplit) and the split y-wall penalty (SplitFieldStable), so
    the top-wall data is called exactly once."""
    g, ops, prof, _, p = make_problem()
    calls = []

    def g_top(t):
        calls.append(t)
        return np.sin(g.x) * t

    bc = BoundaryConfig(g_top=g_top)
    s = random_state(g, STATE_MODEL[kind], np.random.default_rng(5))
    evaluate_rhs(SemiDiscrete(ModelSpec(kind, theta=1.0), prof, bc, p, ops), s, 0.5)
    assert calls == [0.5]


def test_model_spec_validation():
    ModelSpec("Interior")
    with pytest.raises(ValueError):
        ModelSpec("Berenger")


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_rhs_linear_in_state(kind):
    g, ops, prof, bc, p = make_problem()
    system = SemiDiscrete(ModelSpec(kind, theta=1.0), prof, bc, p, ops)
    rng = np.random.default_rng(23)
    u = random_state(g, STATE_MODEL[kind], rng)
    v = random_state(g, STATE_MODEL[kind], rng)
    ru = evaluate_rhs(system, u, 0.0)
    rv = evaluate_rhs(system, v, 0.0)
    w = FieldState(u.model, 2.0 * u.data + (-0.5) * v.data)
    rw = evaluate_rhs(system, w, 0.0)
    for name in ("ez", "hy", "hx"):
        assert np.allclose(getattr(rw, name), 2 * getattr(ru, name) - 0.5 * getattr(rv, name), atol=1e-12)
    if ru.aux is not None:
        assert np.allclose(rw.aux, 2 * ru.aux - 0.5 * rv.aux, atol=1e-12)


@pytest.mark.parametrize("kind", ["ModalUnsplit", "PhysicallyMotivated", "SplitFieldNaive", "SplitFieldStable"])
def test_zero_damping_reduces_to_interior(kind):
    """With sigma = 0 every layer model advances the physical fields exactly
    like the interior scheme (and the modal auxiliary stays zero)."""
    g = Grid2D(-3.0, 3.0, -1.0, 1.0, 9, 8)
    ops = g.operators(4)
    prof = zero_damping(g)
    bc = BoundaryConfig(r_x=0.0, r_y=0.0)
    p = PenaltyParams.estimate_matching(0, 0)
    rng = np.random.default_rng(31)

    base = random_state(g, "Interior", rng)
    spec = ModelSpec(kind, theta=1.0)
    model = STATE_MODEL[kind]
    s = FieldState.zeros(g, model)
    if model == "SplitField":
        # Split the field arbitrarily; only the sum is physical.
        split = rng.standard_normal(base.ez.shape)
        s.ez[:] = base.ez - split
        s.aux[:] = split
    else:
        s.ez[:] = base.ez
    s.hy[:] = base.hy
    s.hx[:] = base.hx

    r_int = evaluate_rhs(SemiDiscrete(ModelSpec("Interior"), prof, bc, p, ops), base, 0.0)
    r = evaluate_rhs(SemiDiscrete(spec, prof, bc, p, ops), s, 0.0)
    ez_rate = r.ez + r.aux if model == "SplitField" else r.ez
    assert np.max(np.abs(ez_rate - r_int.ez)) <= 1e-12
    assert np.max(np.abs(r.hy - r_int.hy)) <= 1e-12
    assert np.max(np.abs(r.hx - r_int.hx)) <= 1e-12
    if kind == "ModalUnsplit":
        assert np.all(r.aux == 0.0)


def test_stable_split_conjugate_to_stabilized_modal():
    """Mapping (ez_x, ez_y) -> (ez_x + ez_y, sigma ez_y) intertwines the
    stable split-field system with the theta = 1 modal system."""
    g = Grid2D(-3.0, 3.0, -1.0, 1.0, 10, 10)
    ops = g.operators(4)
    prof = make_damping_profile(g, 1.0, 2.0, 4.0)
    bc = BoundaryConfig(r_x=0.0, r_y=0.0)
    p = PenaltyParams.estimate_matching(0, 0)
    split = SemiDiscrete(ModelSpec("SplitFieldStable"), prof, bc, p, ops)
    modal = SemiDiscrete(ModelSpec("ModalUnsplit", theta=1.0), prof, bc, p, ops)
    rng = np.random.default_rng(41)
    for _ in range(5):
        s = random_state(g, "SplitField", rng)
        mapped_rate = reduce_splitfield_to_modal(evaluate_rhs(split, s, 0.0), prof)
        r_modal = evaluate_rhs(modal, reduce_splitfield_to_modal(s, prof), 0.0)
        for name in ("ez", "hy", "hx", "aux"):
            a, b = getattr(mapped_rate, name), getattr(r_modal, name)
            assert np.max(np.abs(a - b)) <= 1e-12, name


def test_naive_split_differs_from_stable_only_at_y_walls():
    g, ops, prof, bc, p = make_problem()
    rng = np.random.default_rng(43)
    s = random_state(g, "SplitField", rng)
    r_naive = evaluate_rhs(SemiDiscrete(ModelSpec("SplitFieldNaive"), prof, bc, p, ops), s, 0.0)
    r_stable = evaluate_rhs(SemiDiscrete(ModelSpec("SplitFieldStable"), prof, bc, p, ops), s, 0.0)
    # The magnetic updates coincide; the split components differ only on
    # the y-wall lines, and their sums agree everywhere.
    assert np.allclose(r_naive.hy, r_stable.hy, atol=1e-13)
    assert np.allclose(r_naive.hx, r_stable.hx, atol=1e-13)
    assert np.allclose(r_naive.ez + r_naive.aux, r_stable.ez + r_stable.aux, atol=1e-13)
    diff = np.abs(r_naive.ez - r_stable.ez)
    assert np.all(diff[:, 1:-1] <= 1e-13)
    assert np.max(diff) > 0


def test_reduce_splitfield_requires_split_state():
    g = Grid2D(-1.0, 1.0, -1.0, 1.0, 4, 4)
    prof = zero_damping(g)
    with pytest.raises(ValueError):
        reduce_splitfield_to_modal(FieldState.zeros(g, "ModalUnsplit"), prof)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31), theta=st.floats(0.0, 2.0, allow_nan=False))
def test_modal_aux_rate_vanishes_outside_layer(seed, theta):
    """d(aux)/dt carries the factor sigma, so it is zero wherever sigma is."""
    g, ops, prof, bc, p = make_problem()
    rng = np.random.default_rng(seed)
    s = random_state(g, "ModalUnsplit", rng)
    r = evaluate_rhs(SemiDiscrete(ModelSpec("ModalUnsplit", theta=theta), prof, bc, p, ops), s, 0.0)
    outside = prof.sigma_values == 0.0
    assert np.all(r.aux[outside, :] == 0.0)


def test_layer_is_perfectly_matched_before_waves_arrive():
    """A pulse that cannot reach the layer within the simulated time evolves
    identically with and without damping (matching property)."""
    g = Grid2D(-15.0, 15.0, -10.0, 10.0, 61, 41)
    ops = g.operators(4)
    bc = BoundaryConfig(r_x=0.0, r_y=0.0)
    p = PenaltyParams.estimate_matching(0, 0)
    prof = make_damping_profile(g, 10.0, 5.0, 5.0)
    prof0 = zero_damping(g)

    def initial(model):
        s = FieldState.zeros(g, model)
        xx, yy = g.x[:, None], g.y[None, :]
        s.ez[:] = np.exp(-(xx**2 + yy**2))
        return s

    def advance(system, s, n_steps, dt):
        for _ in march(system, s, dt, n_steps):
            pass

    dt, n_steps = 0.2, 15  # waves travel at unit speed: 3 < 10 = layer start
    u = initial("ModalUnsplit")
    v = initial("Interior")
    advance(SemiDiscrete(ModelSpec("ModalUnsplit", theta=1.0), prof, bc, p, ops), u, n_steps, dt)
    advance(SemiDiscrete(ModelSpec("Interior"), prof0, bc, p, ops), v, n_steps, dt)
    assert np.max(np.abs(u.ez - v.ez)) <= 1e-10
    assert np.max(np.abs(u.hy - v.hy)) <= 1e-10
    assert np.max(np.abs(u.hx - v.hx)) <= 1e-10
