"""Tests for the grid container, the operator pair, and field states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpml.grid_state import FieldState, Grid2D


def test_grid_geometry():
    g = Grid2D(-60.0, 60.0, -50.0, 50.0, 121, 101)
    assert g.hx == pytest.approx(1.0)
    assert g.hy == pytest.approx(1.0)
    assert g.x[0] == -60.0 and g.x[-1] == pytest.approx(60.0)
    assert g.y[0] == -50.0 and g.y[-1] == pytest.approx(50.0)
    assert g.zeros().shape == (121, 101)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(0.0, 1.0, 0.0, 1.0, 2, 5)
    with pytest.raises(ValueError):
        Grid2D(1.0, 0.0, 0.0, 1.0, 5, 5)


@pytest.mark.parametrize("order", [2, 4, 6])
def test_operator_pair_matches_dense_kronecker(order):
    """dx/dy/inner on (nx, ny) views equal dense (D kron I), (I kron D) and
    (Px kron Py) products on the stacked vector, y varying fastest.

    A 14x12 grid with hx = 0.3, hy = 0.2 and random fields; the dense
    Kronecker matrices are the oracle."""
    rng = np.random.default_rng(7)
    nx, ny = 14, 12
    g = Grid2D(0.0, 0.3 * (nx - 1), 0.0, 0.2 * (ny - 1), nx, ny)
    ops = g.operators(order)
    u = rng.standard_normal((nx, ny))
    v = rng.standard_normal((nx, ny))
    flat_u, flat_v = u.reshape(-1), v.reshape(-1)

    dx_dense = np.kron(ops.x.d, np.eye(ny))
    dy_dense = np.kron(np.eye(nx), ops.y.d)
    p_dense = np.kron(np.diag(ops.x.p_diag), np.diag(ops.y.p_diag))

    assert np.max(np.abs(ops.dx(u).reshape(-1) - dx_dense @ flat_u)) <= 1e-13
    assert np.max(np.abs(ops.dy(u).reshape(-1) - dy_dense @ flat_u)) <= 1e-13
    assert ops.inner(u, v) == pytest.approx(flat_v @ p_dense @ flat_u, rel=1e-13)
    assert ops.norm(u) == pytest.approx(np.sqrt(flat_u @ p_dense @ flat_u), rel=1e-13)


def test_field_state_invariants():
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 4, 4)
    FieldState.zeros(g, "Interior")
    for model in ("ModalUnsplit", "PhysicallyMotivated", "SplitField"):
        s = FieldState.zeros(g, model)
        assert s.aux is not None
    with pytest.raises(ValueError):
        FieldState(model="Interior", ez=g.zeros(), hy=g.zeros(), hx=g.zeros(), aux=g.zeros())
    with pytest.raises(ValueError):
        FieldState(model="ModalUnsplit", ez=g.zeros(), hy=g.zeros(), hx=g.zeros())
    with pytest.raises(ValueError):
        FieldState(model="Nope", ez=g.zeros(), hy=g.zeros(), hx=g.zeros())
    with pytest.raises(ValueError):
        FieldState(model="Interior", ez=g.zeros(), hy=g.zeros(), hx=np.zeros((3, 3)))


def test_ez_total_sums_split_components():
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 4, 4)
    s = FieldState.zeros(g, "SplitField")
    s.ez[:] = 1.0
    s.aux[:] = 2.0
    assert np.all(s.ez_total == 3.0)
    m = FieldState.zeros(g, "ModalUnsplit")
    m.ez[:] = 1.5
    assert np.all(m.ez_total == 1.5)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
    seed=st.integers(0, 2**31),
)
def test_field_state_vector_space_ops(a, b, seed):
    """a*u + b*v acts componentwise, including the bt slot (needed for the
    generic RK4 stepper)."""
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 4, 5)
    rng = np.random.default_rng(seed)

    def rand_state():
        s = FieldState.zeros(g, "ModalUnsplit")
        s.ez[:] = rng.standard_normal(s.ez.shape)
        s.hy[:] = rng.standard_normal(s.ez.shape)
        s.hx[:] = rng.standard_normal(s.ez.shape)
        s.aux[:] = rng.standard_normal(s.ez.shape)
        s.bt = float(rng.standard_normal())
        return s

    u, v = rand_state(), rand_state()
    w = a * u + b * v
    for name in ("ez", "hy", "hx", "aux"):
        expect = a * getattr(u, name) + b * getattr(v, name)
        assert np.allclose(getattr(w, name), expect, atol=1e-12)
    assert w.bt == pytest.approx(a * u.bt + b * v.bt, abs=1e-12)


def test_copy_is_deep_and_is_finite():
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 4, 4)
    s = FieldState.zeros(g, "ModalUnsplit")
    c = s.copy()
    c.ez[0, 0] = 5.0
    assert s.ez[0, 0] == 0.0
    assert s.is_finite()
    s.hy[1, 1] = np.inf
    assert not s.is_finite()
