"""Tests for the grid container, the operator pair, and field states."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpml import grid_state
from sbpml.grid_state import FieldState, Grid2D, OperatorPair
from sbpml.sbp_core import build_sbp_operator


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
    """The constructor takes one (nfields, nx, ny) array: three fields for
    Interior, four (with aux) for the other models."""
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 4, 4)
    FieldState.zeros(g, "Interior")
    for model in ("ModalUnsplit", "PhysicallyMotivated", "SplitField"):
        s = FieldState.zeros(g, model)
        assert s.aux is not None
    with pytest.raises(ValueError):
        FieldState("Interior", np.zeros((4, 4, 4)))  # aux on an Interior state
    with pytest.raises(ValueError):
        FieldState("ModalUnsplit", np.zeros((3, 4, 4)))  # no aux
    with pytest.raises(ValueError):
        FieldState("Nope", np.zeros((3, 4, 4)))
    with pytest.raises(ValueError):
        FieldState("Interior", np.zeros((3, 4)))  # not one array of fields
    with pytest.raises(ValueError):
        FieldState("Interior", np.zeros((1, 3, 4, 4)))


def test_ez_total_sums_split_components():
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 4, 4)
    s = FieldState.zeros(g, "SplitField")
    s.ez[:] = 1.0
    s.aux[:] = 2.0
    assert np.all(s.ez_total == 3.0)
    m = FieldState.zeros(g, "ModalUnsplit")
    m.ez[:] = 1.5
    assert np.all(m.ez_total == 1.5)


def test_field_state_fields_are_views_of_one_array():
    """ez, hy, hx and aux are views of one (nfields, nx, ny) array, and
    the constructor shares the caller's array rather than copying it."""
    data = np.arange(4 * 4 * 5, dtype=float).reshape(4, 4, 5)
    s = FieldState("ModalUnsplit", data)
    assert s.data is data
    for i, name in enumerate(("ez", "hy", "hx", "aux")):
        assert np.shares_memory(getattr(s, name), data)
        assert np.array_equal(getattr(s, name), data[i])
    s.hx[1, 2] = -1.0
    assert data[2, 1, 2] == -1.0
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 4, 5)
    interior = FieldState.zeros(g, "Interior")
    assert interior.data.shape == (3, 4, 5) and interior.aux is None
    with pytest.raises(ValueError):
        FieldState("Interior", data)
    with pytest.raises(ValueError):
        FieldState("ModalUnsplit", data[0])


@settings(max_examples=60, deadline=None)
@given(
    order=st.sampled_from([2, 4, 6]),
    extra=st.integers(0, 120),
    ny=st.integers(3, 9),
    h=st.floats(0.01, 2.0),
    banded=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_dx_matches_dense_product(order, extra, ny, h, banded, seed):
    """dx agrees with the dense product ops.x.d @ u to 1e-14 of the size of
    its terms, |d| @ |u|.  n starts at 2 * boundary width, where the
    closure blocks touch and there are no interior rows; ``banded`` forces
    the banded apply below BANDED_MIN_N as well."""
    bw = {2: 1, 4: 4, 6: 6}[order]
    n = max(2 * bw, 3) + extra
    ops = OperatorPair(x=build_sbp_operator(order, n, h), y=build_sbp_operator(order, max(ny, 2 * bw), 0.1))
    u = np.random.default_rng(seed).standard_normal((n, ops.y.n))
    expect = ops.x.d @ u
    scale = np.abs(ops.x.d) @ np.abs(u)
    with patch.object(grid_state, "BANDED_MIN_N", 0 if banded else grid_state.BANDED_MIN_N):
        got = ops.dx(u)
        out = np.full_like(u, np.nan)
        assert ops.dx(u, out=out) is out
    assert np.all(np.abs(got - expect) <= 1e-14 * scale)
    assert np.array_equal(out, got)
