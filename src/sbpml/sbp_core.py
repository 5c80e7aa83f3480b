"""Diagonal-norm summation-by-parts (SBP) first-derivative operators.

An SBP operator on n nodes with spacing h consists of a diagonal positive
norm matrix P and an almost-skew-symmetric matrix Q satisfying

    Q + Q^T = E_R - E_L,

where E_L = e_1 e_1^T and E_R = e_n e_n^T.  The difference operator is
D = P^{-1} Q and mimics integration by parts discretely, which is what
makes energy arguments transfer from the continuous problem to the
semi-discrete one.

Boundary-closure coefficients are stored as exact rationals.  The skew
part of Q is assembled as U - U^T from a single float per entry, so the
SBP identity holds exactly in floating point, not just to round-off.  Q
and D are banded, an interior stencil plus boundary closures, and are
built and kept as bands, in O(n) memory and time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

F = Fraction

# Interior stencil coefficients for the positive offsets +1..+w.  The full
# centered stencil is antisymmetric; offset -k carries -coeff[k].
_INTERIOR = {
    2: [F(1, 2)],
    4: [F(2, 3), F(-1, 12)],
    6: [F(3, 4), F(-3, 20), F(1, 60)],
}

# Diagonal of P divided by h for the boundary nodes (interior entries are 1).
_NORM_BOUNDARY = {
    2: [F(1, 2)],
    4: [F(17, 48), F(59, 48), F(43, 48), F(49, 48)],
    6: [
        F(13649, 43200),
        F(12013, 8640),
        F(2711, 4320),
        F(5359, 4320),
        F(7877, 8640),
        F(43801, 43200),
    ],
}

# Strictly-upper-triangle entries {(i, j): value}, i < j, of the left
# boundary block of Q.  Entries at columns >= boundary_width coincide with
# the interior stencil unless listed here.
_Q_BLOCK_UPPER = {
    2: {(0, 1): F(1, 2)},
    4: {
        (0, 1): F(59, 96),
        (0, 2): F(-1, 12),
        (0, 3): F(-1, 32),
        (1, 2): F(59, 96),
        (2, 3): F(59, 96),
        (2, 4): F(-1, 12),
        (3, 4): F(2, 3),
        (3, 5): F(-1, 12),
    },
    6: {
        (0, 1): F(385081, 599400),
        (0, 2): F(-85759, 1918080),
        (0, 3): F(-25273, 177600),
        (0, 4): F(316607, 9590400),
        (0, 5): F(55417, 4795200),
        (1, 2): F(127681, 319680),
        (1, 3): F(690233, 1918080),
        (1, 4): F(-30719, 319680),
        (1, 5): F(-22081, 1065600),
        (2, 3): F(182429, 479520),
        (2, 4): F(-1021, 71040),
        (2, 5): F(-3637, 319680),
        (3, 4): F(123791, 191808),
        (3, 5): F(-614387, 9590400),
        (4, 5): F(70057, 99900),
    },
}

# Number of boundary rows with one-sided stencils at each end: 1, 4 and 6.
_BOUNDARY_WIDTH = {order: len(norms) for order, norms in _NORM_BOUNDARY.items()}

SUPPORTED_ORDERS = tuple(_INTERIOR)

# Residual bounds of ``VerificationReport.ok``: the SBP identity to
# round-off, polynomial exactness to 1e-8 of the derivative's scale.
SBP_TOL = 1e-14
ACCURACY_TOL = 1e-8

# Rows per block of ``SbpOperator1D.blocks``: n // BLOCK_ROWS near-equal
# blocks, so any n < 2 * BLOCK_ROWS is one block, the whole of D.  At order
# 6 on one core, against the dense dy and a closure-plus-stencil dx, this
# took dy from 300 to 106 us and dx from 185 to 138 us at 501x101, and dy
# from 138 to 50 us and dx from 98 to 63 us at 221x101.
BLOCK_ROWS = 32

_NORM_FLOATS = {order: np.array([float(v) for v in _NORM_BOUNDARY[order]]) for order in SUPPORTED_ORDERS}
_Q_FLOATS = {
    order: ([float(c) for c in _INTERIOR[order]], {ij: float(v) for ij, v in _Q_BLOCK_UPPER[order].items()})
    for order in SUPPORTED_ORDERS
}


def _q_band(order: int, n: int) -> np.ndarray:
    """Q's n x (2w + 1) band, Q = U - U^T built on the bands.

    U has the interior stencil above the diagonal, the bw-by-bw block at
    each end zeroed, then the ``_Q_BLOCK_UPPER`` entries, mirrored at the
    right end; Q[0, 0] = -1/2 and Q[n-1, n-1] = 1/2.  The half-width w is
    the widest offset j - i of a nonzero U[i, j]; U[i, i + k] is
    upper[i, w + k], and U^T's band holds it at lower[i + k, w - k].
    """
    (stencil, table), bw = _Q_FLOATS[order], _BOUNDARY_WIDTH[order]
    w = max(len(stencil), bw - 1, *(j - i for i, j in table))
    upper, lower = np.zeros((n, 2 * w + 1)), np.zeros((n, 2 * w + 1))
    for k, c in enumerate(stencil, start=1):
        upper[: n - k, w + k] = c
    for k in range(1, bw):
        upper[: bw - k, w + k] = upper[n - bw : n - k, w + k] = 0.0
    for (i, j), v in table.items():
        upper[i, w + j - i] = upper[n - 1 - j, w + j - i] = v
    for k in range(1, w + 1):
        lower[k:, w - k] = upper[: n - k, w + k]
    q = upper - lower
    q[0, w], q[-1, w] = -0.5, 0.5
    return q


def _sheared(band: np.ndarray) -> np.ndarray:
    """The m x (m + 2w) matrix with band[i, k] at column i + k, zero elsewhere.

    For the rows r0 to r0 + m of a band, column c holds the matrix's
    column r0 - w + c.  band[i, k] is written at i (m + 2w + 1) + k of one
    zeroed buffer, which is the wanted place in rows of m + 2w.
    """
    m, width = band.shape
    cols = m + width - 1
    buffer = np.zeros(m * (cols + 1))
    buffer.reshape(m, cols + 1)[:, :width] = band
    return buffer[: m * cols].reshape(m, cols)


@dataclass(frozen=True, eq=False)
class SbpOperator1D:
    """A 1D diagonal-norm SBP first-derivative operator.

    ``p_diag`` is the physical norm diagonal (it includes the factor h),
    so P-weighted sums are quadrature rules directly.  Q and D = P^{-1} Q
    are kept by their bands: ``q_band[i, w + j - i]`` is Q[i, j], with
    w = ``q_band.shape[1] // 2``, and likewise ``d_band``; entries that
    fall outside the matrix are zero.  ``blocks`` holds D by runs of rows
    (``BLOCK_ROWS``) as ``(rows, cols, D[rows, cols].T)``, with ``cols``
    the run's nonzero columns and the transposed block C-contiguous.
    Operators compare by identity.
    """

    interior_order: int
    n: int
    h: float
    p_diag: np.ndarray
    boundary_width: int
    q_band: np.ndarray
    d_band: np.ndarray
    blocks: tuple

    @property
    def boundary_accuracy(self) -> int:
        """Order of accuracy of the boundary rows (half the interior order)."""
        return self.interior_order // 2


def build_sbp_operator(interior_order: int, n: int, h: float) -> SbpOperator1D:
    """Construct the diagonal-norm SBP operator of interior order 2, 4 or 6.

    Requires n >= 2 * boundary_width (the closure blocks may touch but not
    overlap; the coefficient tables are mirror-consistent) and h > 0.
    Q and D are built as bands of width 2 w + 1 (``SbpOperator1D``), in
    O(n w) memory and time, with no n x n array.
    """
    if interior_order not in SUPPORTED_ORDERS:
        raise ValueError(
            f"unsupported interior order {interior_order}; choose one of {SUPPORTED_ORDERS}"
        )
    bw = _BOUNDARY_WIDTH[interior_order]
    n_min = max(2 * bw, 3)
    if n < n_min:
        raise ValueError(f"order {interior_order} needs at least n = {n_min} points, got {n}")
    if not h > 0:
        raise ValueError(f"grid spacing must be positive, got {h}")

    band = _q_band(interior_order, n)
    norms = _NORM_FLOATS[interior_order] * h
    p = np.full(n, h)
    p[: norms.size] = norms
    p[n - norms.size :] = norms[::-1]
    d_band = band / p[:, None]
    return SbpOperator1D(interior_order, n, h, p, bw, band, d_band, _blocks(d_band))


def _blocks(d_band: np.ndarray) -> tuple:
    """``SbpOperator1D.blocks`` of the D with band ``d_band``: per run of
    rows, the columns from its first to its last nonzero one, and the
    transposed block copied out of the run's sheared rows."""
    n, w = d_band.shape[0], d_band.shape[1] // 2
    blocks, nb = [], max(1, n // BLOCK_ROWS)
    for k in range(nb):
        r0, r1 = k * n // nb, (k + 1) * n // nb
        sheared = _sheared(d_band[r0:r1])
        nonzero = np.flatnonzero(np.any(sheared != 0.0, axis=0))
        a, b = int(nonzero[0]), int(nonzero[-1]) + 1
        blocks.append((slice(r0, r1), slice(r0 - w + a, r0 - w + b), np.ascontiguousarray(sheared[:, a:b].T)))
    return tuple(blocks)


@dataclass
class VerificationReport:
    """Residuals of the defining SBP properties for one operator."""

    interior_order: int
    n: int
    sbp_residual: float
    accuracy_residuals: dict = field(default_factory=dict)

    @property
    def worst_failure(self):
        """(name, value) of the residual farthest over its tolerance (a NaN the farthest), or None."""
        checks = [("sbp_residual", self.sbp_residual, SBP_TOL)]
        checks += [(name, r, ACCURACY_TOL) for name, r in self.accuracy_residuals.items()]
        failing = [(r / tol if r == r else float("inf"), name, r) for name, r, tol in checks if not r <= tol]
        return max(failing)[1:] if failing else None

    @property
    def ok(self) -> bool:
        return self.worst_failure is None


def operator_verification_report(op: SbpOperator1D) -> VerificationReport:
    """Check Q + Q^T = E_R - E_L and polynomial exactness of D = P^{-1}Q.

    Interior rows must differentiate monomials x^k exactly up to the
    interior order; boundary rows up to half that.  Residuals are reported
    per degree, normalized by the magnitude of the exact derivative values.
    Both checks run on the bands, over their entries inside the matrix:
    entry (i, i + k) of Q + Q^T is q_band[i, w + k] + q_band[i + k, w - k],
    and row i of D x^k sums d_band[i, w + k] x^k[i + k].
    """
    n, h = op.n, op.h
    width = op.q_band.shape[1]
    w = width // 2
    # Band entry (i, c) is matrix entry (i, j) with j = i + c - w.
    cols = np.arange(width)
    j = np.arange(n)[:, None] + cols - w
    inside = (j >= 0) & (j < n)
    j[~inside] = 0
    sym = op.q_band + op.q_band[j, width - 1 - cols]
    sym[0, w] -= -1.0
    sym[-1, w] -= 1.0
    sbp_res = float(np.max(np.abs(sym[inside])))

    x = np.arange(n) * h
    bw = op.boundary_width
    interior = slice(bw, n - bw)
    residuals = {}
    for k in range(op.interior_order + 1):
        exact = k * x ** (k - 1) if k > 0 else np.zeros(n)
        scale = max(1.0, float(np.max(np.abs(exact))))
        dx_k = np.sum(op.d_band * np.where(inside, (x**k)[j], 0.0), axis=1)
        err = np.abs(dx_k - exact) / scale
        residuals[f"interior_deg{k}"] = float(np.max(err[interior], initial=0.0))
        if k <= op.boundary_accuracy:
            residuals[f"boundary_deg{k}"] = float(max(np.max(err[:bw]), np.max(err[n - bw :])))
    return VerificationReport(
        interior_order=op.interior_order,
        n=n,
        sbp_residual=sbp_res,
        accuracy_residuals=residuals,
    )
