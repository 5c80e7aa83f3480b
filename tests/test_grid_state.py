"""Tests for the grid container, the operator pair, and field states."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpml import sbp_core
from sbpml.grid_state import FieldState, Grid2D, OperatorPair
from sbpml.sbp_core import build_sbp_operator


def test_grid_geometry():
    g = Grid2D(-60.0, 60.0, -50.0, 50.0, 121, 101)
    assert g.hx == pytest.approx(1.0)
    assert g.hy == pytest.approx(1.0)
    assert g.x[0] == -60.0 and g.x[-1] == pytest.approx(60.0)
    assert g.y[0] == -50.0 and g.y[-1] == pytest.approx(50.0)


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
    small_blocks=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_dx_matches_dense_product(order, extra, ny, h, small_blocks, seed):
    """dx agrees with the dense product ops.x.d @ u to 1e-14 of the size of
    its terms, |d| @ |u|.  n starts at 2 * boundary width, where the
    closure blocks touch and there are no interior rows; ``small_blocks``
    builds the operators with 4-row blocks, so that small grids get
    several blocks, some of which straddle a closure."""
    bw = {2: 1, 4: 4, 6: 6}[order]
    n = max(2 * bw, 3) + extra
    with patch.object(sbp_core, "BLOCK_ROWS", 4 if small_blocks else sbp_core.BLOCK_ROWS):
        ops = OperatorPair(x=build_sbp_operator(order, n, h), y=build_sbp_operator(order, max(ny, 2 * bw), 0.1))
    u = np.random.default_rng(seed).standard_normal((n, ops.y.n))
    expect = ops.x.d @ u
    scale = np.abs(ops.x.d) @ np.abs(u)
    got = ops.dx(u)
    out = np.full_like(u, np.nan)
    assert ops.dx(u, out=out) is out
    assert np.all(np.abs(got - expect) <= 1e-14 * scale)
    assert np.array_equal(out, got)


@settings(max_examples=60, deadline=None)
@given(
    order=st.sampled_from([2, 4, 6]),
    extra=st.integers(0, 120),
    nx=st.integers(3, 9),
    h=st.floats(0.01, 2.0),
    small_blocks=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_dy_matches_dense_product(order, extra, nx, h, small_blocks, seed):
    """dy agrees with the dense product u @ ops.y.d.T to 1e-14 of the size
    of its terms, |u| @ |d|.T, for ny from 2 * boundary width (the
    closure blocks touch) to about 130, and writes the same values into
    ``out``; ``small_blocks`` as in ``test_dx_matches_dense_product``."""
    bw = {2: 1, 4: 4, 6: 6}[order]
    n = max(2 * bw, 3) + extra
    with patch.object(sbp_core, "BLOCK_ROWS", 4 if small_blocks else sbp_core.BLOCK_ROWS):
        ops = OperatorPair(x=build_sbp_operator(order, max(nx, 2 * bw), 0.1), y=build_sbp_operator(order, n, h))
    u = np.random.default_rng(seed).standard_normal((ops.x.n, n))
    expect = u @ ops.y.d.T
    scale = np.abs(u) @ np.abs(ops.y.d).T
    got = ops.dy(u)
    out = np.full_like(u, np.nan)
    assert ops.dy(u, out=out) is out
    assert np.all(np.abs(got - expect) <= 1e-14 * scale)
    assert np.array_equal(out, got)


@settings(max_examples=60, deadline=None)
@given(
    order=st.sampled_from([2, 4, 6]),
    nx_extra=st.integers(0, 40),
    ny_extra=st.integers(0, 40),
    small_blocks=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_stacked_apply_equals_per_field_applies(order, nx_extra, ny_extra, small_blocks, seed):
    """dx and dy of a stack (k, nx, ny) equal the applies to each field,
    bit for bit, into a stacked output and into a new array: on the
    contiguous stack, on the reversed view ``data[1::-1]`` and on the
    strided view ``data[0:3:2]``, into outputs of the same layouts, as
    ``evaluate_rhs`` uses them; ``small_blocks`` as in
    ``test_dx_matches_dense_product``."""
    n_min = max(2 * {2: 1, 4: 4, 6: 6}[order], 3)
    with patch.object(sbp_core, "BLOCK_ROWS", 4 if small_blocks else sbp_core.BLOCK_ROWS):
        ops = Grid2D(0.0, 1.0, 0.0, 2.0, n_min + nx_extra, n_min + ny_extra).operators(order)
    data = np.random.default_rng(seed).standard_normal((4, ops.x.n, ops.y.n))
    for view in (np.s_[:], np.s_[1::-1], np.s_[0:3:2]):
        stack = data[view]
        for apply in (ops.dx, ops.dy):
            each = np.array([apply(np.ascontiguousarray(field)) for field in stack])
            out = np.full_like(data, np.nan)
            assert apply(stack, out=out[view]).base is out
            assert np.array_equal(out[view], each)
            assert np.array_equal(apply(stack), each)


def test_operator_blocks_cover_d():
    """The blocks partition D's rows into n // BLOCK_ROWS runs of near-equal
    length (one block, the whole of D, below 2 * BLOCK_ROWS points), and
    each block holds every nonzero of its rows, transposed and contiguous."""
    for order, n in ((2, 3), (4, 63), (6, 64), (6, 101), (6, 501)):
        op = build_sbp_operator(order, n, 0.1)
        assert len(op.blocks) == max(1, n // sbp_core.BLOCK_ROWS)
        rebuilt = np.zeros((n, n))
        lengths = []
        for rows, cols, block_t in op.blocks:
            assert block_t.flags.c_contiguous
            rebuilt[rows, cols] = block_t.T
            lengths.append(rows.stop - rows.start)
        assert [b[0].start for b in op.blocks] == [0] + [b[0].stop for b in op.blocks[:-1]]
        assert op.blocks[-1][0].stop == n and max(lengths) - min(lengths) <= 1
        assert np.array_equal(rebuilt, op.d)
