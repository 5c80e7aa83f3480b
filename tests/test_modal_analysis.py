"""Tests for branch conventions, sign identities, and root scans."""

import cmath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
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
    with pytest.raises(ValueError, match="n_re must be at least 2"):
        ComplexParamRegion(n_re=1)
    with pytest.raises(ValueError, match="n_im must be at least 2"):
        ComplexParamRegion(n_im=0)
    # An infinite rectangle has no boundary to count on: each bound is refused by name.
    for name in ("re_min", "re_max", "im_min", "im_max"):
        for value in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
                ComplexParamRegion(**{name: value})
    for name in ("n_re", "n_im"):
        for value in (40.5, 40.0, True, "40"):
            with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
                ComplexParamRegion(**{name: value})
    assert ComplexParamRegion(n_re=np.int64(40)).n_re == 40


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


def _polynomial(roots):
    def f(z):
        out = z - roots[0]
        for r in roots[1:]:
            out = out * (z - r)
        return out

    return f


def test_count_separates_close_pairs():
    """Three clusters of two roots 1e-3 apart count 6, each root located to 1e-8."""
    planted = [c + d for c in (0.5 + 1.0j, 1.5 - 2.0j, 2.5 + 4.0j) for d in (0.0, 1e-3 * (0.6 + 0.8j))]
    roots = scan_unstable_roots(_polynomial(planted), small_region())
    assert len(roots) == 6
    assert all(min(abs(r - t) for r in roots) <= 1e-8 for t in planted)


def test_count_double_root():
    """A double root and a simple root count 3; the double root is returned twice."""
    f = _polynomial([0.5 + 0.5j, 0.5 + 0.5j, 2.0 - 1.0j])
    roots = scan_unstable_roots(f, small_region())
    assert len(roots) == 3
    assert all(abs(r - (0.5 + 0.5j)) <= 1e-4 for r in roots[:2])
    assert abs(roots[2] - (2.0 - 1.0j)) <= 1e-8


def test_count_root_just_inside_the_edge():
    """A root 1e-6 inside the left edge is counted, with one more."""
    region = small_region()
    planted = [complex(region.re_min + 1e-6, 1.3), 1.7 - 2.2j]
    roots = scan_unstable_roots(_polynomial(planted), region)
    assert len(roots) == 2
    assert all(min(abs(r - t) for r in roots) <= 1e-8 for t in planted)


def test_count_roots_near_the_axis():
    """Seven roots at Re s = 0.01 to 0.07, beside the left edge, count 7."""
    planted = [complex(0.01 * j, j - 4.0) for j in range(1, 8)]
    roots = scan_unstable_roots(_polynomial(planted), small_region())
    assert len(roots) == 7
    assert all(min(abs(r - t) for r in roots) <= 1e-8 for t in planted)


def test_count_is_zeros_minus_poles():
    """With multiplicity: a pole counts -1, a zero with a pole 0, a triple zero 3."""
    rect, n = (1e-9, 3.0, -5.0, 5.0), 60
    assert modal_analysis._count(lambda z: 1.0 / (z - 1.0 - 1.0j), rect, n, n) == -1
    assert modal_analysis._count(lambda z: (z - 2.0) / (z - 1.0 - 1.0j), rect, n, n) == 0
    assert modal_analysis._count(lambda z: (z - 2.0) ** 3, rect, n, n) == 3
    assert modal_analysis._count(lambda z: z - 4.0, rect, n, n) == 0
    assert modal_analysis._count(lambda z: 1.0, rect, n, n) == 0


@pytest.mark.parametrize(
    "f",
    [
        pytest.param(lambda z: z - (1e-9 - 5.0j), id="zero-at-a-corner"),
        pytest.param(lambda z: z - (1.2345 - 5.0j), id="zero-between-points"),
        pytest.param(lambda z: np.where(np.real(z) > 2.0, np.nan, z - 1.0), id="nan-on-an-edge"),
        pytest.param(lambda z: np.where(np.imag(z) > 4.0, np.inf, z - 1.0), id="inf-on-an-edge"),
    ],
)
def test_inconclusive_count_raises_naming_the_rectangle(f):
    """A zero or a non-finite value on the boundary makes the count
    inconclusive: an error that names the rectangle, never an empty list."""
    with pytest.raises(ValueError, match=r"inconclusive zero count on Re s in \[1e-09, 3.0\], Im s in \[-5.0, 5.0\]"):
        scan_unstable_roots(f, small_region())


def test_zero_on_a_cut_moves_the_cut(monkeypatch):
    """A zero on the first cut of a box makes a half inconclusive, so the
    box is cut nearer its edge; halves whose counts never add up to their
    box's make the scan inconclusive, naming the box."""
    region = ComplexParamRegion(0.0, 1.0, 0.0, 1.0, 8, 8)
    planted = [complex(0.3, 0.487), complex(0.487, 0.7)]
    roots = scan_unstable_roots(_polynomial(planted), region)
    assert len(roots) == 2 and all(min(abs(r - t) for r in roots) <= 1e-8 for t in planted)
    count = modal_analysis._count
    monkeypatch.setattr(modal_analysis, "_count", lambda f, rect, *n: count(f, rect, *n) + (rect[3] < 1.0))
    with pytest.raises(ValueError, match=r"Im s in \[0.0, 1.0\]: no cut gives halves whose counts add up to 2"):
        scan_unstable_roots(_polynomial(planted), region)


# Fractions of the rectangle's sides: inside, 0.002 from the boundary is at
# least 1e-3 there, since no side is shorter than 0.5.
inner = st.floats(0.002, 0.998)


@settings(max_examples=40, deadline=None)
@example(re_min=0.0, width=1.0, im_min=0.0, height=3.0, n_re=36, n_im=6, planted=[(0.5, 0.5), (0.5, 0.5)], outside=[])
@given(
    re_min=st.floats(0.0, 2.0),
    width=st.floats(0.5, 4.0),
    im_min=st.floats(-10.0, 10.0),
    height=st.floats(0.5, 20.0),
    n_re=st.integers(2, 60),
    n_im=st.integers(2, 60),
    planted=st.lists(st.tuples(inner, inner), min_size=1, max_size=3),
    outside=st.lists(st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)), max_size=2),
)
def test_count_matches_the_planted_roots(re_min, width, im_min, height, n_re, n_im, planted, outside):
    """1-3 planted roots (coincident ones allowed) and 0-2 outside the
    rectangle, none within 1e-3 of its boundary: the scan returns as many
    roots as are planted inside, each a plain complex, each within 1e-8 of a
    planted root, or 1e-4 where another planted root lies within 1e-3."""
    # An outside draw that lands within 0.002 of the rectangle moves right, past it.
    outside = [(a + 1.004 if -0.002 <= min(a, b) and max(a, b) <= 1.002 else a, b) for a, b in outside]
    inside = [complex(re_min + a * width, im_min + b * height) for a, b in planted]
    others = [complex(re_min + a * width, im_min + b * height) for a, b in outside]
    region = ComplexParamRegion(re_min, re_min + width, im_min, im_min + height, n_re, n_im)
    roots = scan_unstable_roots(_polynomial(inside + others), region)
    assert len(roots) == len(inside)
    assert all(type(r) is complex for r in roots)
    for r in roots:
        t = min(inside, key=lambda t: abs(r - t))
        coincident = sum(abs(t - u) <= 1e-3 for u in inside) > 1
        assert abs(r - t) <= (1e-4 if coincident else 1e-8)
