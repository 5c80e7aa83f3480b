"""Half-plane mode analysis: branch conventions, sign identities, and
dispersion-relation root counts.

The continuous stability results reduce to two statements that can be
checked numerically: certain complex square-root combinations have strictly
positive real part whenever Re s > 0, and the boundary determinant
functions F1/F2 have no zeros in the closed right half of the s-plane.
``scan_unstable_roots`` counts the zeros in a rectangle by the argument
principle, boxes each by bisection and polishes it with Newton.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PHASE_STEP = np.pi / 8  # the most a count lets f's phase turn, measured or predicted, between two points
MAX_SEGMENTS = 100_000  # the most boundary segments one count halves in one pass
SPLIT_AT = 0.487  # a box is cut at SPLIT_AT**k of its longer side, k = 1 first; off-centre, so round numbers miss it
CUTS = 4  # the most cuts tried on one box
INCONCLUSIVE = "inconclusive zero count on Re s in [{!r}, {!r}], Im s in [{!r}, {!r}]: "
LEAF_SIDE = 1e-4  # boxes are split until no side is longer
NEWTON_STEPS = 50  # the most steps of one Newton refinement
NEWTON_DIFF_STEP = 1e-7  # its central-difference spacing, and a count's forward one


class InconclusiveCount(ValueError):
    """A zero count that cannot be trusted; the message names the rectangle."""


@dataclass(frozen=True)
class ComplexParamRegion:
    """A finite rectangle in the s-plane, and a count's first boundary sampling
    on it: n_re points on each horizontal edge and n_im on each vertical one."""

    re_min: float = 1e-9
    re_max: float = 3.0
    im_min: float = -20.0
    im_max: float = 20.0
    n_re: int = 200
    n_im: int = 200

    def __post_init__(self):
        for name in ("re_min", "re_max", "im_min", "im_max"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.re_min < 0:
            raise ValueError("unstable-root scans require Re s >= 0")
        if not (self.re_max > self.re_min and self.im_max > self.im_min):
            raise ValueError("degenerate scan region")
        for name, n in (("n_re", self.n_re), ("n_im", self.n_im)):
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {n!r}")
            if n < 2:
                raise ValueError(f"{name} must be at least 2, got {n}")


def principal_sqrt(z):
    """Square root on the branch -pi < arg z <= pi, so Re(sqrt) >= 0; elementwise.

    This is numpy's complex sqrt, with the C99 cut: on the negative real axis
    an imaginary part of -0.0 selects the lower side, sqrt(-1 - 0j) = -1j.
    """
    return np.sqrt(np.asarray(z, dtype=complex))


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


def dispersion_F1(s, kx: float, sigma: float, gamma_y: float):
    """Lower-wall boundary determinant (sqrt((s+sigma)^2+kx^2) + gy (s+sigma))/(s+sigma).

    Elementwise in s.  The damping enters only as the shift s -> s + sigma,
    so roots in Re s >= 0 would have to come from roots of the sigma = 0
    function in Re s >= sigma.
    """
    z = np.asarray(s, dtype=complex) + sigma
    if np.any(z == 0):
        raise ZeroDivisionError("pole at s = -sigma")
    return (principal_sqrt(z**2 + kx**2) + gamma_y * z) / z


def dispersion_F2(s, ky: float, gamma_x: float):
    """Left-wall boundary determinant (sqrt(s^2 + ky^2) + gx s)/s, elementwise; sigma-independent."""
    s = np.asarray(s, dtype=complex)
    if np.any(s == 0):
        raise ZeroDivisionError("pole at s = 0")
    return (principal_sqrt(s**2 + ky**2) + gamma_x * s) / s


def _newton_refine(f, z0: complex) -> complex:
    z, h = complex(z0), NEWTON_DIFF_STEP
    for _ in range(NEWTON_STEPS):
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
    return complex(z)


def _count(f, rect, n_re: int, n_im: int) -> int:
    """Zeros minus poles of f in rect = (re0, re1, im0, im1), with multiplicity:
    f's winding number along the boundary, first sampled at n_re points per
    horizontal edge and n_im per vertical one.  A segment is halved, one call
    of f a pass, while its phase step or its length times |f'/f| at either end
    exceeds ``PHASE_STEP``: no zero near it can wind the phase a whole turn."""
    def sample(z):
        v = np.empty((2, z.size), dtype=complex)
        v[...] = f(z + np.array([[0.0], [NEWTON_DIFF_STEP]]))  # broadcast: a constant f works
        if np.any(v == 0) or not np.all(np.isfinite(v)):
            raise InconclusiveCount(INCONCLUSIVE.format(*rect) + "f is zero or not finite on its boundary")
        return np.angle(v[0]), np.abs(v[1] / v[0] - 1) / NEWTON_DIFF_STEP

    re0, re1, im0, im1 = rect
    c = [complex(re0, im0), complex(re1, im0), complex(re1, im1), complex(re0, im1)]
    za = np.concatenate([p + (q - p) * np.arange(n) / n for p, q, n in zip(c, c[1:] + c, (n_re, n_im) * 2)])
    pa, ga = sample(za)
    zb, pb, gb, total = np.roll(za, -1), np.roll(pa, -1), np.roll(ga, -1), 0.0
    while True:
        step = (pb - pa + np.pi) % (2 * np.pi) - np.pi
        halve = np.maximum(np.abs(step), np.abs(zb - za) * np.maximum(ga, gb)) > PHASE_STEP
        total += step[~halve].sum()
        if not halve.any():
            return int(np.rint(total / (2 * np.pi)))
        za, zb, pa, pb, ga, gb = za[halve], zb[halve], pa[halve], pb[halve], ga[halve], gb[halve]
        mid = (za + zb) / 2
        if za.size > MAX_SEGMENTS or np.any((mid == za) | (mid == zb)):
            raise InconclusiveCount(INCONCLUSIVE.format(*rect) + "its phase does not settle")
        pm, gm = sample(mid)
        za, zb, pa, pb = (np.concatenate(p) for p in ((za, mid), (mid, zb), (pa, pm), (pm, pb)))
        ga, gb = np.concatenate((ga, gm)), np.concatenate((gm, gb))


def scan_unstable_roots(f, region: ComplexParamRegion):
    """The zeros of f in the region's rectangle, by the argument principle.

    A box of nonzero count is cut across its longer side and its halves are
    counted (``SPLIT_AT``, ``CUTS``), down to ``LEAF_SIDE``; Newton polishes
    each last box from its centre, kept if Newton leaves the box.  Returns
    one complex per zero and unit of multiplicity, sorted: ``len`` is the
    count.  An inconclusive count raises InconclusiveCount.  f must be
    analytic on the rectangle (F1 and F2 are, in Re s > 0; a pole counts -1)
    and elementwise on arrays; Newton calls it on single complex numbers.
    """
    rect = tuple(float(v) for v in (region.re_min, region.re_max, region.im_min, region.im_max))
    boxes, roots = [(rect, _count(f, rect, region.n_re, region.n_im))], []
    while boxes:
        box, count = boxes.pop()
        re0, re1, im0, im1 = box
        i = 0 if re1 - re0 >= im1 - im0 else 2  # box[i] and box[i + 1] bound its longer side
        if count == 0:
            continue
        if box[i + 1] - box[i] <= LEAF_SIDE:
            centre = complex(re0 + re1, im0 + im1) / 2
            z = _newton_refine(f, centre)
            roots += [z if abs(z - centre) <= LEAF_SIDE else centre] * max(count, 0)
            continue
        for k in range(1, CUTS + 1):  # a zero on a cut, or halves that do not add up: cut nearer the edge
            cut = box[i] + SPLIT_AT**k * (box[i + 1] - box[i])
            halves = [box[: i + 1] + (cut,) + box[i + 2 :], box[:i] + (cut,) + box[i + 1 :]]
            try:
                counts = [_count(f, h, region.n_re, region.n_im) for h in halves]
            except InconclusiveCount:
                continue
            if sum(counts) == count:
                break
        else:
            raise InconclusiveCount(INCONCLUSIVE.format(*box) + f"no cut gives halves whose counts add up to {count}")
        boxes += zip(halves, counts)
    roots.sort(key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    return roots
