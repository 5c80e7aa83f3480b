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

from _oracles import dense_sbp_operator

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
    op = build_sbp_operator(order, n, 0.1)
    res = np.max(np.abs(op.q + op.q.T - boundary_matrices(n)))
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
            err = op.norm(op.d @ u - du)
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
        res = np.max(np.abs(op.q + op.q.T - boundary_matrices(n_min)))
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
    assert np.max(np.abs(op.q + op.q.T - boundary_matrices(n))) <= 1e-14
    assert np.all(op.p_diag > 0)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=13, max_value=60), seed=st.integers(0, 2**31))
def test_summation_by_parts_inner_product_property(n, seed):
    """<u, D v>_P + <D u, v>_P = u_n v_n - u_1 v_1 for all u, v."""
    rng = np.random.default_rng(seed)
    op = build_sbp_operator(6, n, 0.37)
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    lhs = np.sum(op.p_diag * u * (op.d @ v)) + np.sum(op.p_diag * (op.d @ u) * v)
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
        assert same_bits(op.p_diag, p) and same_bits(op.q, q) and same_bits(op.d, d), n
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
