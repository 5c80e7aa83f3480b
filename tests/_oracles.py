"""Dense reference implementations used as oracles by the test suite.

Everything here is built from explicit Kronecker-product matrices so that
the production code's matrix-free evaluations can be checked term by term
on small grids.  The root-scan oracle at the end evaluates one complex
number at a time, with Python loops over the grid and the contour.
"""

import cmath
import math

import numpy as np

from sbpml.grid_state import FieldState
from sbpml.modal_analysis import CANDIDATE_THRESHOLD, ROOT_TOLERANCE
from sbpml.pml_models import DampingProfile


def selectors(n):
    """E_L = e_1 e_1^T and E_R = e_n e_n^T."""
    el = np.zeros((n, n))
    el[0, 0] = 1.0
    er = np.zeros((n, n))
    er[-1, -1] = 1.0
    return el, er


def dense_operators(grid, ops):
    """Dense (Dx kron Iy) and (Ix kron Dy) for a grid's operator pair."""
    dx = np.kron(ops.x.d, np.eye(grid.ny))
    dy = np.kron(np.eye(grid.nx), ops.y.d)
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


def sat_by_direction(r, walls, rates, ez_y=False):
    """``sat_contributions`` as one take, += and put of the rates per
    direction, x then y, the scatter it replaced."""
    flat, _, places, weights = walls.sat[ez_y]
    q = r / walls.p_normal
    x_entries = 4 * walls.ops.y.n  # Ez and tangential H on the 2 ny x-wall points
    for part in (slice(0, x_entries), slice(x_entries, None)):
        lines = rates.take(flat[part])
        lines += weights[part] * q.take(places[part])
        rates.put(flat[part], lines)


def theta_term_by_take_put(r, weight, walls, rates):
    """``sat_y_field`` as a take, -= and put of the aux rates, the scatter it replaced."""
    flat, _, points, minus_p = walls.theta
    lines = rates.take(flat)
    lines -= weight * r.take(points) / -minus_p
    rates.put(flat, lines)


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


def _pointwise_winding_number(f, corners, n_per_edge=64):
    pts = []
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        for j in range(n_per_edge):
            pts.append(a + (b - a) * j / n_per_edge)
    vals = np.array([f(z) for z in pts])
    if np.any(vals == 0) or not np.all(np.isfinite(vals)):
        return -1
    phases = np.angle(vals)
    dphi = np.diff(np.concatenate([phases, phases[:1]]))
    dphi = (dphi + np.pi) % (2 * np.pi) - np.pi
    return int(round(np.sum(dphi) / (2 * np.pi)))


def _pointwise_newton(f, z0, steps=50, h=1e-7):
    z = complex(z0)
    for _ in range(steps):
        fz = f(z)
        if abs(fz) < 1e-14:
            break
        df = (f(z + h) - f(z - h)) / (2 * h)
        if df == 0:
            break
        step = fz / df
        z = z - step
        if abs(step) < 1e-15:
            break
    return z


def pointwise_scan(f, region):
    """``scan_unstable_roots`` with one call of f per grid and contour point.

    Same candidate rules, winding count, Newton refinement and dedup; f only
    needs to accept a Python complex.
    """
    re = np.linspace(region.re_min, region.re_max, region.n_re)
    im = np.linspace(region.im_min, region.im_max, region.n_im)
    mod = np.empty((region.n_re, region.n_im))
    for i, a in enumerate(re):
        for j, b in enumerate(im):
            mod[i, j] = abs(f(complex(a, b)))

    minima = []
    for i in range(region.n_re):
        for j in range(region.n_im):
            window = mod[max(i - 1, 0) : i + 2, max(j - 1, 0) : j + 2]
            if mod[i, j] <= window.min():
                minima.append((mod[i, j], i, j))
    minima.sort()
    typical = float(np.median(mod))
    cutoff = max(CANDIDATE_THRESHOLD, 0.25 * typical)
    candidates = [(i, j) for v, i, j in minima[:3]]
    candidates += [(i, j) for v, i, j in minima[3:50] if v < cutoff]
    candidates += [(i, j) for v, i, j in minima[50:] if v < CANDIDATE_THRESHOLD]

    dre = re[1] - re[0]
    dim = im[1] - im[0]
    roots = []
    for i, j in candidates:
        z0 = complex(re[i], im[j])
        corners = [
            z0 + complex(-dre, -dim),
            z0 + complex(dre, -dim),
            z0 + complex(dre, dim),
            z0 + complex(-dre, dim),
        ]
        wind = _pointwise_winding_number(f, corners)
        z = _pointwise_newton(f, z0)
        in_region = (
            region.re_min - dre <= z.real <= region.re_max + dre
            and region.im_min - dim <= z.imag <= region.im_max + dim
        )
        if in_region and z.real >= 0 and (abs(f(z)) < ROOT_TOLERANCE or wind > 0):
            roots.append(z)

    roots.sort(key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    dedup = []
    for z in roots:
        if not any(abs(z - w) < 0.5 * min(dre, dim) for w in dedup):
            dedup.append(z)
    return dedup
