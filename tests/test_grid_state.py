"""Tests for the grid container, the operator pair, and field states."""

import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpml import sbp_core
from sbpml.grid_state import FieldState, Grid2D, OperatorPair
from sbpml.sbp_core import build_sbp_operator

from _oracles import dense_d


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

    dx_dense = np.kron(dense_d(ops.x), np.eye(ny))
    dy_dense = np.kron(np.eye(nx), dense_d(ops.y))
    p_dense = np.kron(np.diag(ops.x.p_diag), np.diag(ops.y.p_diag))

    assert np.max(np.abs(ops.dx(u).reshape(-1) - dx_dense @ flat_u)) <= 1e-13
    assert np.max(np.abs(ops.dy(u).reshape(-1) - dy_dense @ flat_u)) <= 1e-13
    assert ops.inner(u, v) == pytest.approx(flat_v @ p_dense @ flat_u, rel=1e-13)
    assert math.sqrt(ops.inner(u, u)) == pytest.approx(np.sqrt(flat_u @ p_dense @ flat_u), rel=1e-13)


def test_field_state_invariants():
    """The constructor takes one (nfields, nx, ny) array, or a fields-first
    stack (nfields, ..., nx, ny) of them: three fields for Interior, four
    (with aux) for the other models."""
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
        FieldState("Interior", np.zeros((1, 3, 4, 4)))  # a stack whose states are not Interior states
    # A (3, 1, 4, 4) array is a stack of one Interior state, fields first.
    assert FieldState("Interior", np.zeros((3, 1, 4, 4))).ez.shape == (1, 4, 4)


def test_stacked_state_fields_index_axis_0():
    """A FieldState may hold a stack (nfields, ..., nx, ny) of states; its
    field properties are views along axis 0, one contiguous block each."""
    data = np.arange(4 * 2 * 3 * 5 * 6, dtype=float).reshape(4, 2, 3, 5, 6)
    s = FieldState("SplitField", data)
    for k, name in enumerate(("ez", "hy", "hx", "aux")):
        view = getattr(s, name)
        assert view.shape == (2, 3, 5, 6) and np.shares_memory(view, data)
        assert np.array_equal(view, data[k]) and view.flags.c_contiguous
    assert np.array_equal(s.ez_total, data[0] + data[3])
    assert FieldState("Interior", data[:3]).aux is None


@settings(max_examples=60, deadline=None)
@given(
    batch=st.lists(st.integers(1, 4), min_size=0, max_size=2).map(tuple),
    nfields=st.sampled_from([3, 4]),
    nx=st.integers(3, 6),
    ny=st.integers(3, 6),
    picks=st.lists(st.integers(0, 10**6), min_size=0, max_size=12),
    seed=st.integers(0, 2**31),
)
def test_places_map_one_states_indices_into_every_state(batch, nfields, nx, ny, picks, seed):
    """``FieldState.places`` maps flat indices of one state, repeats
    included, into the flat order of a stack with 0, 1 or 2 batch axes:
    reading through it gives each state's own entries, and one 1-D
    ``np.add.at`` through it, raveled as ``WallTerms.on`` ravels a
    scatter's places, touches exactly the entries that the per-state index
    touches in each state on its own, adding repeats in order.  For one
    state the map equals the index."""
    model = "Interior" if nfields == 3 else "ModalUnsplit"
    size = nfields * nx * ny
    index = np.array([k % size for k in picks], dtype=np.intp)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((nfields,) + batch + (nx, ny))
    s = FieldState(model, data)
    places = s.places(index)
    assert places.shape == batch + index.shape
    if not batch:
        assert np.array_equal(places, index)
    values = rng.standard_normal(batch + index.shape)
    want = data.copy()
    scattered = FieldState(model, data.copy())
    np.add.at(scattered.data.reshape(-1), places.ravel(), values.ravel())
    for b in np.ndindex(batch):
        one = np.ascontiguousarray(data[(slice(None),) + b])
        assert np.array_equal(data.reshape(-1)[places[b]], one.reshape(-1)[index])
        state = want[(slice(None),) + b].reshape(-1)
        np.add.at(state, index, values[b])
        want[(slice(None),) + b] = state.reshape(one.shape)
    assert np.array_equal(scattered.data, want)


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
    """dx agrees with the dense product d @ u, d the dense builder's Dx, to
    1e-14 of the size of its terms, |d| @ |u|.  n starts at 2 * boundary
    width, where the closure blocks touch and there are no interior rows;
    ``small_blocks`` builds the operators with 4-row blocks, so that small
    grids get several blocks, some of which straddle a closure."""
    bw = {2: 1, 4: 4, 6: 6}[order]
    n = max(2 * bw, 3) + extra
    with patch.object(sbp_core, "BLOCK_ROWS", 4 if small_blocks else sbp_core.BLOCK_ROWS):
        ops = OperatorPair(x=build_sbp_operator(order, n, h), y=build_sbp_operator(order, max(ny, 2 * bw), 0.1))
    u = np.random.default_rng(seed).standard_normal((n, ops.y.n))
    d = dense_d(ops.x)
    expect = d @ u
    scale = np.abs(d) @ np.abs(u)
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
    """dy agrees with the dense product u @ d.T, d the dense builder's Dy,
    to 1e-14 of the size of its terms, |u| @ |d|.T, for ny from 2 *
    boundary width (the closure blocks touch) to about 130, and writes the
    same values into ``out``; ``small_blocks`` as in
    ``test_dx_matches_dense_product``."""
    bw = {2: 1, 4: 4, 6: 6}[order]
    n = max(2 * bw, 3) + extra
    with patch.object(sbp_core, "BLOCK_ROWS", 4 if small_blocks else sbp_core.BLOCK_ROWS):
        ops = OperatorPair(x=build_sbp_operator(order, max(nx, 2 * bw), 0.1), y=build_sbp_operator(order, n, h))
    u = np.random.default_rng(seed).standard_normal((ops.x.n, n))
    d = dense_d(ops.y)
    expect = u @ d.T
    scale = np.abs(u) @ np.abs(d).T
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
        assert np.array_equal(rebuilt, dense_d(op))
