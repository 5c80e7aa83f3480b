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
SBP identity holds exactly in floating point, not just to round-off.
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

# Number of boundary rows with one-sided stencils at each end.
_BOUNDARY_WIDTH = {2: 1, 4: 4, 6: 6}

SUPPORTED_ORDERS = (2, 4, 6)

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


@dataclass(frozen=True)
class SbpOperator1D:
    """A 1D diagonal-norm SBP first-derivative operator.

    ``p_diag`` is the physical norm diagonal (it includes the factor h),
    so P-weighted sums are quadrature rules directly.  ``d`` caches
    P^{-1} Q.  ``blocks`` holds D by runs of rows (``BLOCK_ROWS``) as
    ``(rows, cols, D[rows, cols].T)``, with ``cols`` the run's nonzero
    columns and the transposed block a contiguous copy.  ``p_walls`` is
    the (2, 1) column of P at the first and last node, and
    ``normal_p_walls`` that times the outward normal (-1, +1).
    """

    interior_order: int
    n: int
    h: float
    p_diag: np.ndarray
    q: np.ndarray
    boundary_width: int
    d: np.ndarray
    blocks: tuple
    p_walls: np.ndarray
    normal_p_walls: np.ndarray

    @property
    def boundary_accuracy(self) -> int:
        """Order of accuracy of the boundary rows (half the interior order)."""
        return self.interior_order // 2

    def norm(self, u: np.ndarray) -> float:
        """P-weighted l2 norm sqrt(u^T P u) of a 1D sequence."""
        return float(np.sqrt(np.sum(self.p_diag * np.asarray(u) ** 2)))


def build_sbp_operator(interior_order: int, n: int, h: float) -> SbpOperator1D:
    """Construct the diagonal-norm SBP operator of interior order 2, 4 or 6.

    Requires n >= 2 * boundary_width (the closure blocks may touch but not
    overlap; the coefficient tables are mirror-consistent) and h > 0.
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

    w = interior_order // 2
    stencil = [float(c) for c in _INTERIOR[interior_order]]

    # Upper triangle of Q; the skew part is U - U^T, so Q + Q^T is exactly
    # the diagonal correction regardless of rounding in the entries.
    upper = np.zeros((n, n))
    for k, c in enumerate(stencil, start=1):
        idx = np.arange(n - k)
        upper[idx, idx + k] = c

    # Entries inside the bw-by-bw closure block default to zero; couplings
    # to interior columns (j >= bw) keep the interior stencil values unless
    # the block table overrides them.
    for i in range(bw):
        for j in range(i + 1, bw):
            upper[i, j] = 0.0
            upper[n - 1 - j, n - 1 - i] = 0.0
    for (i, j), v in _Q_BLOCK_UPPER[interior_order].items():
        upper[i, j] = float(v)
        # Mirrored right closure: Q[n-1-i, n-1-j] = -Q[i, j].
        upper[n - 1 - j, n - 1 - i] = float(v)

    q = upper - upper.T
    q[0, 0] = -0.5
    q[-1, -1] = 0.5

    p = np.full(n, h)
    for i, v in enumerate(_NORM_BOUNDARY[interior_order]):
        p[i] = float(v) * h
        p[n - 1 - i] = float(v) * h

    d = q / p[:, None]
    blocks, nb = [], max(1, n // BLOCK_ROWS)
    for k in range(nb):
        rows = slice(k * n // nb, (k + 1) * n // nb)
        nonzero = np.flatnonzero(np.any(d[rows] != 0.0, axis=0))
        cols = slice(int(nonzero[0]), int(nonzero[-1]) + 1)
        blocks.append((rows, cols, np.ascontiguousarray(d[rows, cols].T)))
    p_walls = p[[0, -1], None]
    return SbpOperator1D(interior_order, n, h, p, q, bw, d, tuple(blocks), p_walls, [[-1.0], [1.0]] * p_walls)


@dataclass
class VerificationReport:
    """Residuals of the defining SBP properties for one operator."""

    interior_order: int
    n: int
    sbp_residual: float
    accuracy_residuals: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        if self.sbp_residual > SBP_TOL:
            return False
        return all(r <= ACCURACY_TOL for r in self.accuracy_residuals.values())


def operator_verification_report(op: SbpOperator1D) -> VerificationReport:
    """Check Q + Q^T = E_R - E_L and polynomial exactness of D = P^{-1}Q.

    Interior rows must differentiate monomials x^k exactly up to the
    interior order; boundary rows up to half that.  Residuals are reported
    per degree, normalized by the magnitude of the exact derivative values.
    """
    n, h = op.n, op.h
    e = np.zeros((n, n))
    e[0, 0] = -1.0
    e[-1, -1] = 1.0
    sbp_res = float(np.max(np.abs(op.q + op.q.T - e)))

    x = np.arange(n) * h
    bw = op.boundary_width
    interior = slice(bw, n - bw)
    residuals = {}
    for k in range(op.interior_order + 1):
        exact = k * x ** (k - 1) if k > 0 else np.zeros(n)
        scale = max(1.0, float(np.max(np.abs(exact))))
        err = np.abs(op.d @ x**k - exact) / scale
        residuals[f"interior_deg{k}"] = float(np.max(err[interior], initial=0.0))
        if k <= op.boundary_accuracy:
            residuals[f"boundary_deg{k}"] = float(max(np.max(err[:bw]), np.max(err[n - bw :])))
    return VerificationReport(
        interior_order=op.interior_order,
        n=n,
        sbp_residual=sbp_res,
        accuracy_residuals=residuals,
    )
