"""Tests for branch conventions, sign identities, and root scans."""

import cmath
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import (
    pointwise_scan,
    scalar_dispersion_F1,
    scalar_dispersion_F2,
    scalar_principal_sqrt,
)
from sbpml import modal_analysis
from sbpml.modal_analysis import (
    ComplexParamRegion,
    dispersion_F1,
    dispersion_F2,
    kappa_left,
    kappa_lower,
    principal_sqrt,
    scan_unstable_roots,
    sx_identities,
)


# ---------------------------------------------------------------------------
# Branch convention


def test_principal_sqrt_examples():
    assert principal_sqrt(4.0) == pytest.approx(2.0)
    assert principal_sqrt(complex(-1.0, 0.0)) == pytest.approx(1j)
    assert principal_sqrt(0.0) == 0.0
    assert principal_sqrt(2j) == pytest.approx(cmath.sqrt(2j))
    # A subnormal imaginary part: the phase underflows to 0 rather than raising.
    assert principal_sqrt(complex(16.0, 4e-323)) == pytest.approx(4.0)
    # Elementwise on arrays; an imaginary part of -0.0 takes the lower side of the cut.
    z = np.array([4.0, -1.0, complex(-1.0, -0.0), 0.0, 2j, complex(16.0, 4e-323)])
    np.testing.assert_allclose(principal_sqrt(z), [2.0, 1j, -1j, 0.0, cmath.sqrt(2j), 4.0])


@settings(max_examples=100, deadline=None)
@given(re=st.floats(-10, 10, allow_nan=False), im=st.floats(-10, 10, allow_nan=False))
def test_principal_sqrt_properties(re, im):
    z = complex(re, im)
    w = principal_sqrt(z)
    assert abs(w * w - z) <= 1e-10 * max(1.0, abs(z))
    assert w.real >= -1e-15


# ---------------------------------------------------------------------------
# Sign lemmas


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(1e-6, 10.0, allow_nan=False),
    b=st.floats(-20.0, 20.0, allow_nan=False),
    k=st.floats(-10.0, 10.0, allow_nan=False),
    sigma=st.floats(0.0, 10.0, allow_nan=False),
)
def test_wavenumber_real_parts_positive(a, b, k, sigma):
    s = complex(a, b)
    assert kappa_lower(s, k, sigma).real > 0
    assert kappa_left(s, k, sigma).real > 0


def test_wavenumbers_reduce_at_zero_damping():
    s = complex(0.3, -2.0)
    k = 1.7
    expect = principal_sqrt(s * s + k * k)
    assert kappa_lower(s, k, 0.0) == pytest.approx(expect)
    assert kappa_left(s, k, 0.0) == pytest.approx(expect)


def test_wavenumbers_require_right_half_plane():
    for f in (kappa_lower, kappa_left):
        with pytest.raises(ValueError):
            f(complex(-0.1, 1.0), 1.0, 1.0)
        with pytest.raises(ValueError):
            f(complex(0.0, 1.0), 1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(1e-6, 10.0, allow_nan=False),
    b=st.floats(-20.0, 20.0, allow_nan=False),
    sigma=st.floats(0.0, 10.0, allow_nan=False),
)
def test_metric_sign_identities(a, b, sigma):
    out = sx_identities(complex(a, b), sigma)
    for key in out["direct"]:
        direct, closed = out["direct"][key], out["closed"][key]
        assert abs(direct - closed) <= 1e-12 * max(1.0, abs(direct))
        assert direct > 0


# ---------------------------------------------------------------------------
# Dispersion functions


def test_dispersion_F1_shift_identity():
    """Damping enters F1 only through the shift s -> s + sigma."""
    for s in (complex(0.2, 3.0), complex(1.5, -7.0)):
        for kx, sigma, gy in ((2.0, 1.0, 0.25), (-5.0, 3.0, 4.0)):
            assert dispersion_F1(s, kx, sigma, gy) == pytest.approx(
                dispersion_F1(s + sigma, kx, 0.0, gy)
            )


def test_dispersion_values_at_zero_wavenumber():
    # kx = 0: sqrt(z^2) = z in the right half-plane, so F1 = 1 + gamma.
    s = complex(0.7, 0.4)
    assert dispersion_F1(s, 0.0, 0.0, 1.0) == pytest.approx(2.0)
    assert dispersion_F1(s, 0.0, 2.5, 0.25) == pytest.approx(1.25)
    assert dispersion_F2(s, 0.0, 4.0) == pytest.approx(5.0)


def test_dispersion_poles_raise():
    with pytest.raises(ZeroDivisionError):
        dispersion_F1(complex(-1.0, 0.0), 1.0, 1.0, 1.0)
    with pytest.raises(ZeroDivisionError):
        dispersion_F2(0.0, 1.0, 1.0)
    # One pole anywhere in an array raises too.
    with pytest.raises(ZeroDivisionError):
        dispersion_F1(np.array([1.0 + 1.0j, -1.0, 2.0]), 1.0, 1.0, 1.0)
    with pytest.raises(ZeroDivisionError):
        dispersion_F2(np.array([[1j, 0.0], [1.0, 2.0]]), 1.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    s=st.lists(st.builds(complex, st.floats(1e-9, 5.0), st.floats(-20.0, 20.0)), min_size=1, max_size=30),
    k=st.floats(-10.0, 10.0),
    sigma=st.floats(0.0, 10.0),
    gamma=st.floats(0.0, 10.0),
)
def test_dispersion_on_arrays_matches_pointwise_formula(s, k, sigma, gamma):
    """Arrays agree elementwise with the atan2-phase square root evaluated point by point.

    The square root agrees to 1e-15 of its modulus.  F1 and F2 agree to 1e-15
    of the size of their terms, (|sqrt| + |gamma z|)/|z|: for gamma < 1 F2 has
    roots on the imaginary axis, and next to them |F2| is far below its terms.
    """
    s = np.array(s)
    for w in ((s + sigma) ** 2 + k**2, s**2 + k**2):
        want = np.array([scalar_principal_sqrt(v) for v in w])
        assert np.all(np.abs(principal_sqrt(w) - want) <= 1e-15 * np.abs(want))
    cases = (
        (dispersion_F1(s, k, sigma, gamma), [scalar_dispersion_F1(v, k, sigma, gamma) for v in s], s + sigma),
        (dispersion_F2(s, k, gamma), [scalar_dispersion_F2(v, k, gamma) for v in s], s),
    )
    for got, want, z in cases:
        scale = (np.abs(principal_sqrt(z**2 + k**2)) + gamma * np.abs(z)) / np.abs(z)
        assert np.all(np.abs(got - np.array(want)) <= 1e-15 * scale)


# ---------------------------------------------------------------------------
# Root scans


def small_region(**kw):
    defaults = dict(re_min=1e-9, re_max=3.0, im_min=-5.0, im_max=5.0, n_re=60, n_im=60)
    defaults.update(kw)
    return ComplexParamRegion(**defaults)


def test_region_validation():
    with pytest.raises(ValueError):
        ComplexParamRegion(re_min=-1.0)
    with pytest.raises(ValueError):
        ComplexParamRegion(re_min=1.0, re_max=0.5)
    # A scan needs two points per axis for its cell size.
    with pytest.raises(ValueError, match="n_re must be at least 2"):
        ComplexParamRegion(n_re=1)
    with pytest.raises(ValueError, match="n_im must be at least 2"):
        ComplexParamRegion(n_im=0)


def test_planted_single_root_found():
    roots = scan_unstable_roots(lambda z: z - (1.0 + 2.0j), small_region())
    assert len(roots) == 1
    assert abs(roots[0] - (1.0 + 2.0j)) <= 1e-9


def test_planted_double_entire_function():
    f = lambda z: (z - 0.5) * (z - (2.0 - 3.0j))
    roots = scan_unstable_roots(f, small_region())
    assert len(roots) == 2
    assert min(abs(r - 0.5) for r in roots) <= 1e-8
    assert min(abs(r - (2.0 - 3.0j)) for r in roots) <= 1e-8


def test_left_half_plane_root_not_reported():
    roots = scan_unstable_roots(lambda z: z + 1.0, small_region())
    assert roots == []


def test_rootless_function_clean_scan():
    roots = scan_unstable_roots(lambda z: z + 2.0 + 0.1 * z**2 / (1 + abs(z)), small_region())
    assert roots == []


def test_dispersion_scan_small_sample_is_rootless():
    """A reduced-resolution version of the full acceptance scan."""
    region = small_region(n_re=40, n_im=40)
    for k in (-4.0, 0.0, 4.0):
        for gamma in (0.25, 4.0):
            assert scan_unstable_roots(lambda s: dispersion_F1(s, k, 1.0, gamma), region) == []
            assert scan_unstable_roots(lambda s: dispersion_F2(s, k, gamma), region) == []


def test_gamma_zero_boundary_roots_on_axis_only():
    """With gamma = 0 (insulated wall) F2 = sqrt(s^2+k^2)/s vanishes only at
    s = +- i k, on the imaginary axis; the open-half-plane scan with re_min
    bounded away from zero must stay clean."""
    region = small_region(re_min=1e-3)
    assert scan_unstable_roots(lambda s: dispersion_F2(s, 2.0, 0.0), region) == []


def test_scan_returns_python_complex_for_numpy_scalar_f():
    """Newton on an f that returns numpy scalars still yields plain complex roots,
    so the printed list (the `sbpml modal` CSV) reads the same."""
    f = lambda z: np.asarray(z, dtype=complex) - (1.0 + 2.0j)
    assert type(f(1j)) is np.complex128
    roots = scan_unstable_roots(f, small_region())
    assert len(roots) == 1 and type(roots[0]) is complex
    assert repr(roots) == repr([complex(roots[0])])
    # A constant f is broadcast to the grid.
    assert scan_unstable_roots(lambda z: 1.0, small_region()) == []


@settings(max_examples=40, deadline=None)
@example(re_min=0.0, width=1.0, im_min=0.0, height=3.0, n_re=36, n_im=6, planted=[(0.5, 0.5), (0.5, 0.5)])
@given(
    re_min=st.floats(0.0, 2.0),
    width=st.floats(0.5, 4.0),
    im_min=st.floats(-10.0, 10.0),
    height=st.floats(0.5, 20.0),
    n_re=st.integers(2, 60),
    n_im=st.integers(2, 60),
    planted=st.lists(st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)), min_size=1, max_size=3),
)
def test_scan_matches_pointwise_oracle(re_min, width, im_min, height, n_re, n_im, planted):
    """The array scan returns the roots of the pointwise scan, 1-3 planted roots.

    Newton stops at |f| < 1e-14, which puts it within about 1e-7 of a double
    root and 1e-5 of a triple one, at a point that depends on its start.  The
    two scans' grid moduli can differ in the last bit (numpy's array complex
    arithmetic against Python's scalar one), so at coincident roots they may
    start from mirror-image candidates: there both must find as many roots,
    each within 1e-4 of a planted one."""
    region = ComplexParamRegion(re_min, re_min + width, im_min, im_min + height, n_re, n_im)
    targets = [complex(re_min + a * width, im_min + b * height) for a, b in planted]

    def f(z):
        out = z - targets[0]
        for t in targets[1:]:
            out = out * (z - t)
        return out

    got = scan_unstable_roots(f, region)
    want = pointwise_scan(f, region)
    assert len(got) == len(want)
    if all(abs(s - t) > 1e-3 for s, t in itertools.combinations(targets, 2)):
        assert all(abs(g - w) <= 1e-12 for g, w in zip(got, want))
    else:
        assert all(min(abs(r - t) for t in targets) <= 1e-4 for r in got + want)
    assert all(type(g) is complex for g in got)


def test_scan_refines_the_oracle_candidates_in_order(monkeypatch):
    """Newton starts from the oracle's candidates in the oracle's order: ties
    in |f| go by (i, j), the rank cutoffs at 3 and 50 hold, and a cell next
    to a NaN is no minimum."""
    starts = {"scan": [], "oracle": []}

    def recording(side, newton):
        def wrapped(f, z0, *args):
            starts[side].append(z0)
            return newton(f, z0, *args)

        return wrapped

    monkeypatch.setattr(modal_analysis, "_newton_refine", recording("scan", modal_analysis._newton_refine))
    monkeypatch.setattr(_oracles, "_pointwise_newton", recording("oracle", _oracles._pointwise_newton))
    region = small_region(n_re=30, n_im=50)
    functions = (
        lambda z: 1.0,
        lambda z: np.cos(4.0 * z) + 0.3,
        lambda z: np.sin(3.0 * z) * np.cos(2.0 * z),
        # |f| falls towards the NaN columns, so the last finite column has minima only if NaN is ignored.
        lambda z: np.where(np.real(z) > 1.0, np.nan, np.cos(4.0 * z)),
    )
    for f in functions:
        starts["scan"].clear()
        starts["oracle"].clear()
        assert scan_unstable_roots(f, region) == pointwise_scan(f, region)
        assert starts["scan"] == starts["oracle"] != []


def test_winding_number_counts_zeros_and_poles():
    corners = [0.0, 2.0, 2.0 + 2.0j, 2.0j]
    wind = modal_analysis._winding_number
    near_corner = 1.95 + 1.95j  # outside the chord between two mid-edges
    assert wind(lambda z: z - near_corner, corners) == 1
    assert wind(lambda z: (z - 0.05 - 1.0j) ** 2, corners) == 2
    assert wind(lambda z: 1.0 / (z - 1.0 - 1.0j), corners) == -1
    assert wind(lambda z: z - 3.0, corners) == 0
    assert wind(lambda z: z - 1.0, corners) == -1  # zero on the contour
    assert wind(lambda z: 1.0, corners) == 0
