"""Tests for the 1D SBP operators and their verification report."""

import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbpml.sbp_core import (
    SUPPORTED_ORDERS,
    build_sbp_operator,
    operator_verification_report,
)

from _oracles import dense_from_band, dense_sbp_operator, dense_verification_report

ORDERS = list(SUPPORTED_ORDERS)


def boundary_matrices(n):
    e = np.zeros((n, n))
    e[0, 0] = -1.0
    e[-1, -1] = 1.0
    return e


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", [16, 33, 47, 64])
def test_sbp_identity_exact(order, n):
    """Q + Q^T must equal E_R - E_L to round-off (in fact exactly, by the
    skew-symmetric assembly)."""
    q = dense_from_band(build_sbp_operator(order, n, 0.1).q_band)
    res = np.max(np.abs(q + q.T - boundary_matrices(n)))
    assert res <= 1e-14


@pytest.mark.parametrize("order", ORDERS)
def test_norm_positive_and_symmetric(order):
    op = build_sbp_operator(order, 40, 0.25)
    assert np.all(op.p_diag > 0)
    # The closure weights are mirrored at both ends.
    assert np.allclose(op.p_diag, op.p_diag[::-1])
    # Interior weights are exactly h.
    bw = op.boundary_width
    assert np.all(op.p_diag[bw:-bw] == 0.25)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", [16, 33, 64])
def test_polynomial_exactness(order, n):
    """D x^k is exact for k up to the interior order on interior rows and up
    to half the order on boundary rows."""
    h = 1.0 / (n - 1)
    op = build_sbp_operator(order, n, h)
    rep = operator_verification_report(op)
    assert rep.sbp_residual <= 1e-14
    for key, res in rep.accuracy_residuals.items():
        assert res <= 1e-12, f"{key}: {res}"
    assert rep.ok


@pytest.mark.parametrize("order", ORDERS)
def test_quadrature_accuracy_of_norm(order):
    """The P diagonal integrates polynomials of the boundary-closure degree.

    For a diagonal-norm SBP operator of interior order 2r the norm is a
    quadrature rule of order at least 2r - 1 on [0, 1]; check degree up to
    order - 1 (oracle: exact integrals k+1 -> 1/(k+1))."""
    n = 64
    h = 1.0 / (n - 1)
    op = build_sbp_operator(order, n, h)
    x = np.arange(n) * h
    for k in range(order):
        quad = float(np.sum(op.p_diag * x**k))
        assert quad == pytest.approx(1.0 / (k + 1), abs=1e-10, rel=1e-10)


def test_convergence_rates_sine():
    """Global L2 convergence of D applied to sin on refining grids.

    The boundary closure of accuracy r limits the global rate to about
    r + 1; require at least order/2 + 0.8 measured between two refinements.
    """
    for order in ORDERS:
        errs = []
        for n in (64, 128):
            h = 1.0 / (n - 1)
            op = build_sbp_operator(order, n, h)
            x = np.arange(n) * h
            u = np.sin(2 * np.pi * x)
            du = 2 * np.pi * np.cos(2 * np.pi * x)
            e = dense_from_band(op.d_band) @ u - du
            err = np.sqrt(np.sum(op.p_diag * e**2))
            errs.append(err)
        rate = np.log2(errs[0] / errs[1])
        # Boundary rows of accuracy order/2 contribute h^(1/2) * h^(order/2)
        # to the P-norm, so the expected global rate is order/2 + 1/2.
        assert rate >= order / 2 + 0.4, f"order {order}: rate {rate}"


def test_minimum_size_enforced():
    for order, n_min in ((2, 3), (4, 8), (6, 12)):
        build_sbp_operator(order, n_min, 1.0)  # smallest legal size works
        with pytest.raises(ValueError):
            build_sbp_operator(order, n_min - 1, 1.0)
    with pytest.raises(ValueError):
        build_sbp_operator(3, 20, 1.0)
    with pytest.raises(ValueError):
        build_sbp_operator(4, 20, 0.0)


def test_smallest_grids_keep_sbp_identity():
    """Touching closures (n = 2 * boundary width) still satisfy the SBP
    identity and polynomial exactness."""
    for order, n_min in ((2, 3), (4, 8), (6, 12)):
        op = build_sbp_operator(order, n_min, 0.5)
        q = dense_from_band(op.q_band)
        res = np.max(np.abs(q + q.T - boundary_matrices(n_min)))
        assert res <= 1e-14
        rep = operator_verification_report(op)
        assert rep.sbp_residual <= 1e-14
        for key, val in rep.accuracy_residuals.items():
            assert val <= 1e-12, f"order {order}, n {n_min}, {key}: {val}"


def test_verification_report_flags_corruption():
    """A deliberately corrupted Q must be caught by the report."""
    op = build_sbp_operator(4, 20, 0.1)
    q_bad = op.q_band.copy()
    q_bad[0, q_bad.shape[1] // 2 + 1] += 1e-6  # Q[0, 1]
    bad = dataclasses.replace(op, q_band=q_bad, d_band=q_bad / op.p_diag[:, None])
    rep = operator_verification_report(bad)
    assert not rep.ok


@settings(max_examples=30, deadline=None)
@given(
    order=st.sampled_from(ORDERS),
    n=st.integers(min_value=13, max_value=80),
    h=st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
)
def test_sbp_identity_property(order, n, h):
    op = build_sbp_operator(order, n, h)
    q = dense_from_band(op.q_band)
    assert np.max(np.abs(q + q.T - boundary_matrices(n))) <= 1e-14
    assert np.all(op.p_diag > 0)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=13, max_value=60), seed=st.integers(0, 2**31))
def test_summation_by_parts_inner_product_property(n, seed):
    """<u, D v>_P + <D u, v>_P = u_n v_n - u_1 v_1 for all u, v."""
    rng = np.random.default_rng(seed)
    op = build_sbp_operator(6, n, 0.37)
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    d = dense_from_band(op.d_band)
    lhs = np.sum(op.p_diag * u * (d @ v)) + np.sum(op.p_diag * (d @ u) * v)
    rhs = u[-1] * v[-1] - u[0] * v[0]
    scale = max(1.0, np.max(np.abs(u)) * np.max(np.abs(v)))
    assert abs(lhs - rhs) <= 1e-12 * scale


def same_bits(a, b):
    """Equal shape, dtype and bytes: every value with its sign bit."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("order", ORDERS)
def test_banded_build_equals_dense_oracle(order):
    """The banded build gives the dense builder's p_diag, Q, D and blocks
    (rows, columns, values and sign bits, each block C-contiguous), at every
    n from the smallest to 140, where the closures touch and then part, and
    at the waveguide sizes 221, 251, 501 and 1001."""
    n_min = {2: 3, 4: 8, 6: 12}[order]
    for n in [*range(n_min, 141), 221, 251, 501, 1001]:
        op = build_sbp_operator(order, n, 0.37)
        p, q, d, blocks = dense_sbp_operator(order, n, 0.37)
        assert same_bits(op.p_diag, p), n
        assert same_bits(dense_from_band(op.q_band), q) and same_bits(dense_from_band(op.d_band), d), n
        assert len(op.blocks) == len(blocks), n
        for (rows, cols, block), (want_rows, want_cols, want) in zip(op.blocks, blocks):
            assert (rows, cols) == (want_rows, want_cols), n
            assert same_bits(block, want) and block.flags.c_contiguous, (n, rows)


@pytest.mark.parametrize("order", ORDERS)
def test_build_allocates_no_dense_matrix(order):
    """Building a 1001-point operator peaks under 1 MiB: one 1001 x 1001
    float64 matrix is 7.6 MiB, and the dense builder peaked at 23.3."""
    build_sbp_operator(order, 1001, 0.01)
    tracemalloc.start()
    try:
        build_sbp_operator(order, 1001, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak / 2**20


@pytest.mark.parametrize("n", [13, 51, 61])
def test_small_builds_no_slower_than_dense_oracle(n):
    """At the spectra and desk sizes the banded build takes no longer than
    the dense builder: the best of 20 interleaved rounds of 20 builds."""
    best = {build_sbp_operator: float("inf"), dense_sbp_operator: float("inf")}
    for _ in range(20):
        for build in best:
            t0 = time.perf_counter()
            for _ in range(20):
                build(6, n, 0.1)
            best[build] = min(best[build], time.perf_counter() - t0)
    assert best[build_sbp_operator] <= best[dense_sbp_operator], best


@pytest.mark.parametrize("order", ORDERS)
def test_band_report_equals_dense_report(order):
    """The report on the bands has the dense report's SBP residual exactly
    and each accuracy residual within 1e-13 of it, at every n from the
    smallest to 70 and at 501, on [0, 1] and with h = 0.1 as ``verify``
    builds them."""
    n_min = {2: 3, 4: 8, 6: 12}[order]
    for n in [*range(n_min, 71), 501]:
        for h in (1.0 / (n - 1), 0.1):
            op = build_sbp_operator(order, n, h)
            got, want = operator_verification_report(op), dense_verification_report(op)
            assert got.sbp_residual == want.sbp_residual, (n, h)
            assert got.accuracy_residuals.keys() == want.accuracy_residuals.keys()
            for name, value in want.accuracy_residuals.items():
                assert abs(got.accuracy_residuals[name] - value) <= 1e-13, (n, h, name)


def test_report_allocates_no_dense_matrix():
    """The report on a 1001-point order-6 operator peaks under 1 MiB; on
    the dense Q and D it peaked at 22.9 MiB, and at 30.7 MiB where it also
    made them."""
    op = build_sbp_operator(6, 1001, 0.01)
    operator_verification_report(op)
    tracemalloc.start()
    try:
        operator_verification_report(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak / 2**20


def test_report_reads_only_entries_inside_the_matrix():
    """A band's entries outside the matrix are no part of Q or D: set to 1,
    they leave the report passing, with the dense report's SBP residual."""
    op = build_sbp_operator(4, 40, 0.1)
    q, d = op.q_band.copy(), op.d_band.copy()
    q[0, 0] = q[-1, -1] = d[0, 0] = d[-1, -1] = 1.0
    outside = dataclasses.replace(op, q_band=q, d_band=d)
    rep = operator_verification_report(outside)
    assert rep.ok and rep.sbp_residual == dense_verification_report(outside).sbp_residual


@pytest.mark.parametrize("row", [20, 38])
@pytest.mark.parametrize("band", ["q", "d"])
def test_report_flags_corruption_inside_the_band(band, row):
    """A corrupted entry of an interior row (row 20) or of the right
    closure (row 38 of 40) is flagged: in Q by the SBP residual, in D alone
    by an accuracy residual, as the dense report flags them."""
    op = build_sbp_operator(4, 40, 0.1)
    w = op.q_band.shape[1] // 2
    bad = getattr(op, f"{band}_band").copy()
    bad[row, w - 1] += 1e-6  # the entry (row, row - 1)
    if band == "q":
        bad = dataclasses.replace(op, q_band=bad, d_band=bad / op.p_diag[:, None])
    else:
        bad = dataclasses.replace(op, d_band=bad)
    rep, dense = operator_verification_report(bad), dense_verification_report(bad)
    assert not rep.ok and not dense.ok
    assert rep.worst_failure[0] == dense.worst_failure[0]
    assert (rep.sbp_residual > 1e-14) == (band == "q")
