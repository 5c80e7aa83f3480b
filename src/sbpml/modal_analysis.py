"""Half-plane mode analysis: branch conventions, sign identities, and
dispersion-relation root scans.

The continuous stability results reduce to two statements that can be
checked numerically: certain complex square-root combinations have strictly
positive real part whenever Re s > 0, and the boundary determinant
functions F1/F2 have no zeros in the closed right half of the s-plane.
``scan_unstable_roots`` performs a falsifiable search for such zeros by a
coarse modulus scan, an argument-principle winding count on suspicious
cells, and Newton refinement.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# |f| below which a local minimum of the modulus scan is always refined, and
# below which a refined point counts as a root.
CANDIDATE_THRESHOLD = 1e-6
ROOT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ComplexParamRegion:
    """A rectangle in the s-plane plus parameter ranges for scans."""

    re_min: float = 1e-9
    re_max: float = 3.0
    im_min: float = -20.0
    im_max: float = 20.0
    n_re: int = 200
    n_im: int = 200

    def __post_init__(self):
        if self.re_min < 0:
            raise ValueError("unstable-root scans require Re s >= 0")
        if not (self.re_max > self.re_min and self.im_max > self.im_min):
            raise ValueError("degenerate scan region")


def principal_sqrt(z: complex) -> complex:
    """Square root on the branch -pi < arg z <= pi, so Re(sqrt) >= 0."""
    z = complex(z)
    r = abs(z)
    if r == 0.0:
        return 0.0j
    # math.atan2 underflows to 0 where cmath.phase raises OverflowError
    # (for instance at z = 16 + 4e-323j); both give the same branch.
    phi = math.atan2(z.imag, z.real)  # in (-pi, pi]
    return cmath.rect(cmath.sqrt(r).real, phi / 2.0)


def kappa_lower(s: complex, kx: float, sigma: float) -> complex:
    """The x-direction wavenumber sqrt(s^2 + (kx/(1+sigma/s))^2), Re > 0.

    Evaluated in the product form (s/(s+sigma)) * sqrt((s+sigma)^2 + kx^2),
    which realizes the analytic continuation of the principal branch from
    sigma = 0 and keeps the real part positive for Re s > 0.
    """
    s = complex(s)
    if s.real <= 0:
        raise ValueError(f"requires Re s > 0, got {s}")
    return (s / (s + sigma)) * principal_sqrt((s + sigma) ** 2 + kx**2)


def kappa_left(s: complex, ky: float, sigma: float) -> complex:
    """(1 + sigma/s) * sqrt(s^2 + ky^2); its real part is positive for Re s > 0."""
    s = complex(s)
    if s.real <= 0:
        raise ValueError(f"requires Re s > 0, got {s}")
    return (1.0 + sigma / s) * principal_sqrt(s**2 + ky**2)


def sx_identities(s: complex, sigma: float) -> dict:
    """Three sign quantities of the layer metric S_x = 1 + sigma/s.

    Returns the directly computed values of Re(1/S_x), Re((s S_x)^*/S_x)
    and Re(s^*/S_x) together with their closed forms in a = Re s, b = Im s:

        A0 = (a^2+b^2) / ((a(a+sigma)+b^2)^2 + (sigma b)^2)
        Re(1/S_x)        = A0 (a(a+sigma) + b^2)
        Re((s S_x)^*/S_x) = A0 ((a+sigma)(a(a+sigma)+b^2) + sigma b^2)
        Re(s^*/S_x)      = A0 (a(a(a+sigma)+b^2) + sigma b^2)

    All three are positive for Re s > 0 and sigma >= 0.
    """
    s = complex(s)
    a, b = s.real, s.imag
    if a <= 0:
        raise ValueError(f"requires Re s > 0, got {s}")
    sx = 1.0 + sigma / s
    direct = {
        "re_inv_sx": (1.0 / sx).real,
        "re_ssx_conj_over_sx": ((s * sx).conjugate() / sx).real,
        "re_s_conj_over_sx": (s.conjugate() / sx).real,
    }
    denom = (a * (a + sigma) + b**2) ** 2 + (sigma * b) ** 2
    a0 = (a**2 + b**2) / denom
    closed = {
        "re_inv_sx": a0 * (a * (a + sigma) + b**2),
        "re_ssx_conj_over_sx": a0 * ((a + sigma) * (a * (a + sigma) + b**2) + sigma * b**2),
        "re_s_conj_over_sx": a0 * (a * (a * (a + sigma) + b**2) + sigma * b**2),
    }
    return {"direct": direct, "closed": closed}


def dispersion_F1(s: complex, kx: float, sigma: float, gamma_y: float) -> complex:
    """Lower-wall boundary determinant (sqrt((s+sigma)^2+kx^2) + gy (s+sigma))/(s+sigma).

    The damping enters only as the shift s -> s + sigma, so roots in
    Re s >= 0 would have to come from roots of the sigma = 0 function in
    Re s >= sigma.
    """
    s = complex(s)
    z = s + sigma
    if z == 0:
        raise ZeroDivisionError("pole at s = -sigma")
    return (principal_sqrt(z**2 + kx**2) + gamma_y * z) / z


def dispersion_F2(s: complex, ky: float, gamma_x: float) -> complex:
    """Left-wall boundary determinant (sqrt(s^2 + ky^2) + gx s)/s; sigma-independent."""
    s = complex(s)
    if s == 0:
        raise ZeroDivisionError("pole at s = 0")
    return (principal_sqrt(s**2 + ky**2) + gamma_x * s) / s


def _winding_number(f, corners, n_per_edge: int = 64) -> int:
    """Winding number of f around a rectangle, by summing phase increments."""
    pts = []
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        for j in range(n_per_edge):
            pts.append(a + (b - a) * j / n_per_edge)
    vals = np.array([f(z) for z in pts])
    if np.any(vals == 0) or not np.all(np.isfinite(vals)):
        return -1  # boundary hits a zero/pole; treat the cell as suspicious
    phases = np.angle(vals)
    dphi = np.diff(np.concatenate([phases, phases[:1]]))
    dphi = (dphi + np.pi) % (2 * np.pi) - np.pi
    return int(round(np.sum(dphi) / (2 * np.pi)))


def _newton_refine(f, z0: complex, steps: int = 50, h: float = 1e-7) -> complex:
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


def scan_unstable_roots(f, region: ComplexParamRegion):
    """Search for zeros of f in the right-half-plane rectangle.

    Strategy: evaluate |f| on an n_re-by-n_im grid; local minima (the 50
    smallest, plus anything below ``CANDIDATE_THRESHOLD``) get an
    argument-principle winding count on the surrounding cell and Newton
    refinement; only refined points with |f| < ``ROOT_TOLERANCE`` inside
    the region are returned, sorted and deduplicated.  An empty list means
    no unstable mode was found.
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
    # Refine the few deepest minima plus anything suspiciously small, both
    # in absolute terms and relative to the typical modulus.
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
        wind = _winding_number(f, corners)
        z = _newton_refine(f, z0)
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
