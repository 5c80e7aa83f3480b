"""Dense reference implementations used as oracles by the test suite.

Everything here is built from explicit Kronecker-product matrices so that
the production code's matrix-free evaluations can be checked term by term
on small grids.  The SBP operators' oracle is their old dense builder,
which made U, Q and D as n x n arrays, and their verification report's
oracle is the old report on those dense matrices.  The dense assembly's
oracle is its old column loop, one unit state per RHS.
"""

import cmath
import math

import numpy as np

from sbpml import sbp_core
from sbpml.grid_state import FieldState, nfields
from sbpml.pml_models import DampingProfile, evaluate_rhs


def random_state(grid, model, rng):
    """A ``model`` state on ``grid`` of standard normal fields, drawn in the order ez, hy, hx, aux."""
    s = FieldState.zeros(grid, model)
    s.ez[:] = rng.standard_normal(s.ez.shape)
    s.hy[:] = rng.standard_normal(s.ez.shape)
    s.hx[:] = rng.standard_normal(s.ez.shape)
    if s.aux is not None:
        s.aux[:] = rng.standard_normal(s.ez.shape)
    return s


def dense_sbp_operator(interior_order, n, h):
    """``build_sbp_operator`` as the dense builder it replaced: p_diag, Q,
    D = Q / P and the blocks cut from D, with U, Q and D made as n x n
    arrays.  Returns (p, q, d, blocks)."""
    bw = sbp_core._BOUNDARY_WIDTH[interior_order]
    stencil = [float(c) for c in sbp_core._INTERIOR[interior_order]]

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
    for (i, j), v in sbp_core._Q_BLOCK_UPPER[interior_order].items():
        upper[i, j] = float(v)
        # Mirrored right closure: Q[n-1-i, n-1-j] = -Q[i, j].
        upper[n - 1 - j, n - 1 - i] = float(v)

    q = upper - upper.T
    q[0, 0] = -0.5
    q[-1, -1] = 0.5

    p = np.full(n, h)
    for i, v in enumerate(sbp_core._NORM_BOUNDARY[interior_order]):
        p[i] = float(v) * h
        p[n - 1 - i] = float(v) * h

    d = q / p[:, None]
    blocks, nb = [], max(1, n // sbp_core.BLOCK_ROWS)
    for k in range(nb):
        rows = slice(k * n // nb, (k + 1) * n // nb)
        nonzero = np.flatnonzero(np.any(d[rows] != 0.0, axis=0))
        cols = slice(int(nonzero[0]), int(nonzero[-1]) + 1)
        blocks.append((rows, cols, np.ascontiguousarray(d[rows, cols].T)))
    return p, q, d, tuple(blocks)


def dense_from_band(band):
    """The n x n matrix M of a band: M[i, j] = band[i, w + j - i] for every
    |j - i| <= w, with w = band.shape[1] // 2, and +0.0 elsewhere."""
    n, width = band.shape
    m = np.zeros((n, n))
    for c in range(width):
        i = np.arange(max(0, width // 2 - c), min(n, n + width // 2 - c))
        m[i, i + c - width // 2] = band[i, c]
    return m


def dense_verification_report(op):
    """``operator_verification_report`` as it was on the dense Q and D."""
    q, d = dense_from_band(op.q_band), dense_from_band(op.d_band)
    n, h = op.n, op.h
    e = np.zeros((n, n))
    e[0, 0] = -1.0
    e[-1, -1] = 1.0
    sbp_res = float(np.max(np.abs(q + q.T - e)))

    x = np.arange(n) * h
    bw = op.boundary_width
    interior = slice(bw, n - bw)
    residuals = {}
    for k in range(op.interior_order + 1):
        exact = k * x ** (k - 1) if k > 0 else np.zeros(n)
        scale = max(1.0, float(np.max(np.abs(exact))))
        err = np.abs(d @ x**k - exact) / scale
        residuals[f"interior_deg{k}"] = float(np.max(err[interior], initial=0.0))
        if k <= op.boundary_accuracy:
            residuals[f"boundary_deg{k}"] = float(max(np.max(err[:bw]), np.max(err[n - bw :])))
    return sbp_core.VerificationReport(
        interior_order=op.interior_order,
        n=n,
        sbp_residual=sbp_res,
        accuracy_residuals=residuals,
    )


def read_snapshot(path):
    """The (nx, ny) values and hx, hy of a file of ``write_snapshot``."""
    with open(path) as f:
        nx, ny, hx, hy = f.readline().split()
        values = np.array([float(line) for line in f])
    return values.reshape(int(nx), int(ny)), float(hx), float(hy)


def selectors(n):
    """E_L = e_1 e_1^T and E_R = e_n e_n^T."""
    el = np.zeros((n, n))
    el[0, 0] = 1.0
    er = np.zeros((n, n))
    er[-1, -1] = 1.0
    return el, er


def dense_d(op):
    """D of an operator's order, size and spacing, from the dense builder."""
    return dense_sbp_operator(op.interior_order, op.n, op.h)[2]


def dense_operators(grid, ops):
    """Dense (Dx kron Iy) and (Ix kron Dy) for a grid's operator pair."""
    dx = np.kron(dense_d(ops.x), np.eye(grid.ny))
    dy = np.kron(np.eye(grid.nx), dense_d(ops.y))
    return dx, dy


def dense_sat_matrices(bc, p, grid, ops):
    """Matrices mapping the stacked (ez, hy, hx) to the three penalty fields.

    Returns a dict with keys 'ez', 'hy', 'hx'; each value is a triple of
    matrices acting on stacked ez, hy, hx respectively.
    """
    nx, ny = grid.nx, grid.ny
    ex_l, ex_r = selectors(nx)
    ey_l, ey_r = selectors(ny)
    px_inv = np.diag(1.0 / ops.x.p_diag)
    py_inv = np.diag(1.0 / ops.y.p_diag)
    iy, ix = np.eye(ny), np.eye(nx)

    cxm, cxp = 0.5 * (1 - bc.r_x), 0.5 * (1 + bc.r_x)
    cym, cyp = 0.5 * (1 - bc.r_y), 0.5 * (1 + bc.r_y)

    xw_sum = np.kron(px_inv @ (ex_r + ex_l), iy)
    xw_dif = np.kron(px_inv @ (ex_r - ex_l), iy)
    yw_sum = np.kron(ix, py_inv @ (ey_r + ey_l))
    yw_dif = np.kron(ix, py_inv @ (ey_r - ey_l))

    sat_ez = (
        -p.alpha_x * cxm * xw_sum - p.alpha_y * cym * yw_sum,
        p.alpha_x * cxp * xw_dif,
        -p.alpha_y * cyp * yw_dif,
    )
    sat_hy = (p.theta_x * cxm * xw_dif, -p.theta_x * cxp * xw_sum, np.zeros((nx * ny, nx * ny)))
    sat_hx = (-p.theta_y * cym * yw_dif, np.zeros((nx * ny, nx * ny)), -p.theta_y * cyp * yw_sum)
    return {"ez": sat_ez, "hy": sat_hy, "hx": sat_hx}


def dense_sat_y_matrices(bc, weight, grid, ops):
    """Matrices for the y-wall-only penalty field with the given weight."""
    nx, ny = grid.nx, grid.ny
    ey_l, ey_r = selectors(ny)
    py_inv = np.diag(1.0 / ops.y.p_diag)
    ix = np.eye(nx)
    cym, cyp = 0.5 * (1 - bc.r_y), 0.5 * (1 + bc.r_y)
    yw_sum = np.kron(ix, py_inv @ (ey_r + ey_l))
    yw_dif = np.kron(ix, py_inv @ (ey_r - ey_l))
    z = np.zeros((nx * ny, nx * ny))
    return (-weight * cym * yw_sum, z, -weight * cyp * yw_dif)


def apply_triple(triple, ez, hy, hx):
    m_ez, m_hy, m_hx = triple
    return m_ez @ ez + m_hy @ hy + m_hx @ hx


def dense_sat_oracle(state, bc, p, grid, ops):
    """The three penalty fields of an (interior-style) state, densely."""
    mats = dense_sat_matrices(bc, p, grid, ops)
    ez = state.ez_total.reshape(-1)
    hy = state.hy.reshape(-1)
    hx = state.hx.reshape(-1)
    shape = (grid.nx, grid.ny)
    return (
        apply_triple(mats["ez"], ez, hy, hx).reshape(shape),
        apply_triple(mats["hy"], ez, hy, hx).reshape(shape),
        apply_triple(mats["hx"], ez, hy, hx).reshape(shape),
    )


def dense_rhs_oracle(spec, state, prof, bc, p, ops, grid, g_top=None):
    """Dense evaluation of every semi-discrete model's right-hand side.

    Written independently of the production code: all spatial operators are
    explicit Kronecker matrices and the damping is an explicit diagonal
    matrix diag(sigma) kron Iy.  ``g_top`` holds the top-wall data values
    (one per x point) or None for homogeneous walls.
    """
    nx, ny = grid.nx, grid.ny
    shape = (nx, ny)
    dx, dy = dense_operators(grid, ops)
    sig = np.kron(np.diag(prof.sigma_values), np.eye(ny))
    mats = dense_sat_matrices(bc, p, grid, ops)

    # The top-wall residual is cym Ez + cyp Hx - g, and each penalty on it
    # carries -weight * Py^{-1}, so the data enters as +weight * Py^{-1} g.
    gw = np.zeros(shape)
    if g_top is not None:
        gw[:, -1] = g_top / ops.y.p_diag[-1]
    gw = gw.reshape(-1)
    data = {"ez": p.alpha_y * gw, "hy": 0.0, "hx": p.theta_y * gw}

    def sat(name, ez, hy, hx):
        return apply_triple(mats[name], ez, hy, hx) + data[name]

    def sat_y(weight, ez, hy, hx):
        return apply_triple(dense_sat_y_matrices(bc, weight, grid, ops), ez, hy, hx) + weight * gw

    hy = state.hy.reshape(-1)
    hx = state.hx.reshape(-1)

    if spec.kind == "Interior":
        ez = state.ez.reshape(-1)
        d_ez = -dx @ hy + dy @ hx + sat("ez", ez, hy, hx)
        d_hy = -dx @ ez + sat("hy", ez, hy, hx)
        d_hx = dy @ ez + sat("hx", ez, hy, hx)
        return d_ez.reshape(shape), d_hy.reshape(shape), d_hx.reshape(shape), None

    if spec.kind == "ModalUnsplit":
        ez = state.ez.reshape(-1)
        aux = state.aux.reshape(-1)
        d_ez = -dx @ hy + dy @ hx + aux - sig @ ez + sat("ez", ez, hy, hx)
        d_hy = -dx @ ez - sig @ hy + sat("hy", ez, hy, hx)
        d_hx = dy @ ez + sat("hx", ez, hy, hx)
        d_aux = sig @ (dy @ hx + sat_y(spec.theta * p.alpha_y, ez, hy, hx))
        return d_ez.reshape(shape), d_hy.reshape(shape), d_hx.reshape(shape), d_aux.reshape(shape)

    if spec.kind == "PhysicallyMotivated":
        ez = state.ez.reshape(-1)
        aux = state.aux.reshape(-1)
        d_ez = -dx @ hy + dy @ hx - sig @ ez + sat("ez", ez, hy, hx)
        d_hy = -dx @ ez - sig @ hy + sat("hy", ez, hy, hx)
        d_hx = dy @ ez + sig @ (hx - aux) + sat("hx", ez, hy, hx)
        d_aux = sig @ (hx - aux)
        return d_ez.reshape(shape), d_hy.reshape(shape), d_hx.reshape(shape), d_aux.reshape(shape)

    # Split-field variants: state.ez is the x-component, state.aux the
    # y-component; all wall residuals use the total field.
    ez_x = state.ez.reshape(-1)
    ez_y = state.aux.reshape(-1)
    ez_tot = ez_x + ez_y
    d_hy = -dx @ ez_tot - sig @ hy + sat("hy", ez_tot, hy, hx)
    d_hx = dy @ ez_tot + sat("hx", ez_tot, hy, hx)
    sat_ez = sat("ez", ez_tot, hy, hx)
    if spec.kind == "SplitFieldNaive":
        d_ez_x = -dx @ hy - sig @ ez_x + sat_ez
        d_ez_y = dy @ hx
    else:
        saty = sat_y(p.alpha_y, ez_tot, hy, hx)
        d_ez_x = -dx @ hy - sig @ ez_x + (sat_ez - saty)
        d_ez_y = dy @ hx + saty
    return d_ez_x.reshape(shape), d_hy.reshape(shape), d_hx.reshape(shape), d_ez_y.reshape(shape)


# ---------------------------------------------------------------------------
# Pointwise dispersion functions and root scan


def zero_damping(grid):
    """The profile with sigma = 0 everywhere: the undamped interior problem."""
    return DampingProfile(d0=0.0, sigma_values=np.zeros(grid.nx), ny=grid.ny)


def reduce_splitfield_to_modal(state, prof):
    """Map a split-field state to the modal unknowns.

    The electric field is the sum of the split components and the modal
    auxiliary variable is sigma * Ez^(y) pointwise.  Applying this map to
    the stable split-field right-hand side reproduces the theta = 1 modal
    right-hand side of the mapped state.
    """
    if state.model != "SplitField":
        raise ValueError(f"expected a SplitField state, got {state.model!r}")
    sigma = prof.sigma_values[:, None]
    return FieldState("ModalUnsplit", np.array([state.ez + state.aux, state.hy, state.hx, sigma * state.aux]))


def penalty_matrix_eigenvalues(gamma, theta_bar):
    """Closed-form eigenvalues (lambda_minus, lambda_plus) of the wall matrices.

    The wall dissipation matrices of the estimate-matching family are
    [[g, -+ t*g/2], [-+ t*g/2, t]] with g = gamma, t = theta_bar; both sign
    choices share the spectrum.  The discriminant (g - t)^2 + (g t)^2 is
    never negative, so the pair is real.
    """
    root = np.sqrt((gamma - theta_bar) ** 2 + (gamma * theta_bar) ** 2)
    return (gamma + theta_bar - root) / 2.0, (gamma + theta_bar + root) / 2.0


def _wall_points(ops):
    """The flat indices of the boundary vector's points, left, right, bottom
    and top, in one (nfields, nx, ny) state, and P across each point's wall."""
    nx, ny, px, py = ops.x.n, ops.y.n, ops.x.p_diag, ops.y.p_diag
    i, j = np.arange(nx) * ny, np.arange(ny)
    index = np.concatenate((j, (nx - 1) * ny + j, i, i + ny - 1))
    return index, np.repeat([px[0], px[-1], py[0], py[-1]], (ny, ny, nx, nx))


def sat_by_direction(r, rates, ops, p, kind):
    """``sat_contributions``' SAT penalties as one take, += and put of one
    state's flat ``rates`` per direction, x then y, the scatter they
    replaced: the residuals divided by P across the wall, then times the
    weight -alpha on Ez, and -theta times the wall's sign on the tangential
    H, the y walls' Ez term going to aux for SplitFieldStable."""
    nx, ny = ops.x.n, ops.y.n
    plane = nx * ny
    index, p_normal = _wall_points(ops)
    sign = np.repeat([1.0, -1.0, -1.0, 1.0], (ny, ny, nx, nx))
    q = r / p_normal
    x, y = slice(0, 2 * ny), slice(2 * ny, None)
    ez_y = index[y] + (3 * plane if kind == "SplitFieldStable" else 0)
    for part, ez, h, alpha, theta in (
        (x, index[x], index[x] + plane, p.alpha_x, p.theta_x),
        (y, ez_y, index[y] + 2 * plane, p.alpha_y, p.theta_y),
    ):
        flat = np.concatenate((ez, h))
        weights = np.concatenate((np.full(ez.size, -alpha), -(theta * sign[part])))
        lines = rates.take(flat)
        lines += weights * np.concatenate((q[part], q[part]))
        rates.put(flat, lines)


def theta_term_by_take_put(r, rates, ops, p, theta, rows):
    """The modal theta term -theta alpha_y Py^{-1} r at the y-wall points of
    the damped x ``rows``, as a take, -= and put of one state's flat aux
    ``rates``, the scatter it replaced."""
    nx, ny = ops.x.n, ops.y.n
    index, p_normal = _wall_points(ops)
    points = np.concatenate([np.arange(nx)[rows] + k for k in (2 * ny, 2 * ny + nx)])
    flat = index[points] + 3 * nx * ny
    lines = rates.take(flat)
    lines -= theta * p.alpha_y * r.take(points) / p_normal[points]
    rates.put(flat, lines)


def assemble_by_columns(system):
    """The dense matrix of ``system.data_free()`` with one ``evaluate_rhs``
    call per unknown, on one state: the column loop that the chunked
    ``assemble_system_matrix`` replaced."""
    system = system.data_free()
    shape = (nfields(system.model), system.ops.x.n, system.ops.y.n)
    m = math.prod(shape)
    state = FieldState(system.model, np.zeros(shape))
    at = np.empty((m, m))
    columns, flat = at.reshape((m,) + shape), state.data.reshape(-1)
    for col in range(m):
        flat[col] = 1.0
        evaluate_rhs(system, state, 0.0, FieldState(system.model, columns[col]))
        flat[col] = 0.0
    return at.T


def scalar_principal_sqrt(z):
    """Square root on -pi < arg z <= pi from the modulus and atan2 phase."""
    z = complex(z)
    r = abs(z)
    if r == 0.0:
        return 0.0j
    # math.atan2 underflows to 0 where cmath.phase raises OverflowError.
    return cmath.rect(cmath.sqrt(r).real, math.atan2(z.imag, z.real) / 2.0)


def scalar_dispersion_F1(s, kx, sigma, gamma_y):
    z = complex(s) + sigma
    return (scalar_principal_sqrt(z**2 + kx**2) + gamma_y * z) / z


def scalar_dispersion_F2(s, ky, gamma_x):
    s = complex(s)
    return (scalar_principal_sqrt(s**2 + ky**2) + gamma_x * s) / s
