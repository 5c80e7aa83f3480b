"""Tests for the damping profile and the five semi-discrete model systems."""

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpml import sbp_core
from sbpml.boundary_sat import BoundaryConfig, PenaltyParams
from sbpml.grid_state import FieldState, Grid2D
from sbpml.pml_models import (
    MODEL_KINDS,
    STATE_MODEL,
    ModelSpec,
    damping_coefficient,
    evaluate_rhs,
    make_damping_profile,
    reduce_splitfield_to_modal,
    sigma_at,
    zero_damping,
)
from sbpml.time_integration import rk4_step

from _oracles import dense_rhs_oracle


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
    z = zero_damping(g)
    assert z.sigma_max == 0.0
    assert np.all(z.sigma_values == 0.0)


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
    rng = np.random.default_rng(17)
    for _ in range(3):
        s = random_state(g, STATE_MODEL[kind], rng)
        got = evaluate_rhs(spec, s, prof, bc, p, ops, 0.0)
        d_ez, d_hy, d_hx, d_aux = dense_rhs_oracle(spec, s, prof, bc, p, ops, g)
        assert np.max(np.abs(got.ez - d_ez)) <= 1e-12
        assert np.max(np.abs(got.hy - d_hy)) <= 1e-12
        assert np.max(np.abs(got.hx - d_hx)) <= 1e-12
        if d_aux is not None:
            assert np.max(np.abs(got.aux - d_aux)) <= 1e-12


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

    def g_top(t):
        return np.sin(3.0 * g.x) * (1.0 + t)

    bc = BoundaryConfig(r_x=r_x, r_y=r_y, g_top=g_top)
    p = PenaltyParams.universal() if penalties == "universal" else PenaltyParams.estimate_matching(r_x, r_y)
    spec = ModelSpec(kind, theta=theta)
    s = random_state(g, STATE_MODEL[kind], np.random.default_rng(seed))
    out = FieldState(s.model, np.full_like(s.data, np.nan))
    assert evaluate_rhs(spec, s, prof, bc, p, ops, t, out) is out
    expect = dense_rhs_oracle(spec, s, prof, bc, p, ops, g, g_top=g_top(t))
    scale = 1.0 + max(np.max(np.abs(e)) for e in expect if e is not None)
    for got, e in zip(out.data, expect):
        assert np.max(np.abs(got - e)) <= 1e-12 * scale


def test_rhs_model_mismatch_rejected():
    g, ops, prof, bc, p = make_problem()
    s = FieldState.zeros(g, "Interior")
    with pytest.raises(ValueError):
        evaluate_rhs(ModelSpec("ModalUnsplit"), s, prof, bc, p, ops, 0.0)
    other = Grid2D(-3.0, 3.0, -1.0, 1.0, 7, 6)
    with pytest.raises(ValueError, match="does not match operators"):
        evaluate_rhs(ModelSpec("Interior"), FieldState.zeros(other), prof, bc, p, ops, 0.0)


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
    evaluate_rhs(ModelSpec(kind, theta=1.0), s, prof, bc, p, ops, 0.5)
    assert calls == [0.5]


def test_model_spec_validation():
    ModelSpec("Interior")
    with pytest.raises(ValueError):
        ModelSpec("Berenger")


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_rhs_linear_in_state(kind):
    g, ops, prof, bc, p = make_problem()
    spec = ModelSpec(kind, theta=1.0)
    rng = np.random.default_rng(23)
    u = random_state(g, STATE_MODEL[kind], rng)
    v = random_state(g, STATE_MODEL[kind], rng)
    ru = evaluate_rhs(spec, u, prof, bc, p, ops, 0.0)
    rv = evaluate_rhs(spec, v, prof, bc, p, ops, 0.0)
    w = FieldState(u.model, 2.0 * u.data + (-0.5) * v.data)
    rw = evaluate_rhs(spec, w, prof, bc, p, ops, 0.0)
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

    r_int = evaluate_rhs(ModelSpec("Interior"), base, prof, bc, p, ops, 0.0)
    r = evaluate_rhs(spec, s, prof, bc, p, ops, 0.0)
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
    rng = np.random.default_rng(41)
    for _ in range(5):
        s = random_state(g, "SplitField", rng)
        r_split = evaluate_rhs(ModelSpec("SplitFieldStable"), s, prof, bc, p, ops, 0.0)
        mapped_rate = reduce_splitfield_to_modal(r_split, prof)
        r_modal = evaluate_rhs(
            ModelSpec("ModalUnsplit", theta=1.0),
            reduce_splitfield_to_modal(s, prof),
            prof, bc, p, ops, 0.0,
        )
        for name in ("ez", "hy", "hx", "aux"):
            a, b = getattr(mapped_rate, name), getattr(r_modal, name)
            assert np.max(np.abs(a - b)) <= 1e-12, name


def test_naive_split_differs_from_stable_only_at_y_walls():
    g, ops, prof, bc, p = make_problem()
    rng = np.random.default_rng(43)
    s = random_state(g, "SplitField", rng)
    r_naive = evaluate_rhs(ModelSpec("SplitFieldNaive"), s, prof, bc, p, ops, 0.0)
    r_stable = evaluate_rhs(ModelSpec("SplitFieldStable"), s, prof, bc, p, ops, 0.0)
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
    r = evaluate_rhs(ModelSpec("ModalUnsplit", theta=theta), s, prof, bc, p, ops, 0.0)
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

    def advance(spec, prof, s, n_steps, dt):
        def rhs(w, t, out):
            evaluate_rhs(spec, FieldState(s.model, w), prof, bc, p, ops, t, FieldState(s.model, out))
            return 0.0

        k1, work = np.empty_like(s.data), [np.empty_like(s.data) for _ in range(4)]
        for k in range(n_steps):
            rhs(s.data, k * dt, k1)
            rk4_step(rhs, s.data, k * dt, dt, k1, 0.0, work)

    dt, n_steps = 0.2, 15  # waves travel at unit speed: 3 < 10 = layer start
    u = initial("ModalUnsplit")
    v = initial("Interior")
    advance(ModelSpec("ModalUnsplit", theta=1.0), prof, u, n_steps, dt)
    advance(ModelSpec("Interior"), prof0, v, n_steps, dt)
    assert np.max(np.abs(u.ez - v.ez)) <= 1e-10
    assert np.max(np.abs(u.hy - v.hy)) <= 1e-10
    assert np.max(np.abs(u.hx - v.hx)) <= 1e-10
