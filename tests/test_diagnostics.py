"""Tests for norms, energy functionals, growth bounds, and spectra."""

import tracemalloc

import numpy as np
import pytest

from sbpml import diagnostics
from sbpml.boundary_sat import BoundaryConfig, PenaltyParams
from sbpml.diagnostics import (
    CSV_HEADER,
    EnergyHistory,
    assemble_semidiscrete_matrix,
    discrete_l2_norms,
    field_squares,
    growth_bound_check,
    interior_energy,
    modal_bt_integrand,
    modal_energy,
    phys_energy,
)
from sbpml.grid_state import FieldState, Grid2D
from sbpml.pml_models import (
    STATE_MODEL,
    ModelSpec,
    SemiDiscrete,
    damping_coefficient,
    evaluate_rhs,
    make_damping_profile,
)
from sbpml.scenarios_cli import build_scenario, cavity_config, march, waveguide_forcing

from _oracles import selectors, zero_damping


def random_state(grid, model, rng):
    s = FieldState.zeros(grid, model)
    s.ez[:] = rng.standard_normal(s.ez.shape)
    s.hy[:] = rng.standard_normal(s.ez.shape)
    s.hx[:] = rng.standard_normal(s.ez.shape)
    if s.aux is not None:
        s.aux[:] = rng.standard_normal(s.ez.shape)
    return s


def small_problem(order=4, nx=10, ny=9, d0=2.0):
    g = Grid2D(-3.0, 3.0, -1.0, 1.0, nx, ny)
    ops = g.operators(order)
    prof = make_damping_profile(g, 1.0, 2.0, d0)
    bc = BoundaryConfig(r_x=0.0, r_y=0.0)
    p = PenaltyParams.estimate_matching(0, 0)
    return g, ops, prof, bc, p


# ---------------------------------------------------------------------------
# Norms and history


def test_discrete_l2_norms_against_dense():
    g, ops, prof, bc, p = small_problem()
    rng = np.random.default_rng(1)
    s = random_state(g, "ModalUnsplit", rng)
    w = np.kron(np.diag(ops.x.p_diag), np.diag(ops.y.p_diag))
    rec = discrete_l2_norms(field_squares(s, ops))
    for key, fld in (("ez_norm", s.ez), ("hy_norm", s.hy), ("hx_norm", s.hx), ("aux_norm", s.aux)):
        flat = fld.reshape(-1)
        assert rec[key] == pytest.approx(np.sqrt(flat @ w @ flat), rel=1e-12)


def test_split_state_norm_uses_total_field():
    g, ops, _, _, _ = small_problem()
    s = FieldState.zeros(g, "SplitField")
    s.ez[:] = 1.0
    s.aux[:] = -1.0
    rec = discrete_l2_norms(field_squares(s, ops))
    assert rec["ez_norm"] == 0.0
    assert rec["aux_norm"] > 0.0


def test_energy_history_append_and_csv(tmp_path):
    h = EnergyHistory()
    rec = dict(ez_norm=1.0, hy_norm=2.0, hx_norm=3.0, aux_norm=0.0, energy=14.0)
    h.append(0.0, rec)
    h.append(0.5, dict(rec, energy=13.0))
    with pytest.raises(ValueError):
        h.append(0.5, rec)  # times must increase
    assert np.allclose(h.series("energy"), [14.0, 13.0])
    path = tmp_path / "hist.csv"
    h.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert [float(v) for v in lines[1].split(",")] == [0.0, 1.0, 2.0, 3.0, 0.0, 14.0]


# ---------------------------------------------------------------------------
# Energy functionals


def test_modal_bt_integrand_against_dense():
    g, ops, _, _, _ = small_problem()
    rng = np.random.default_rng(5)
    rate = rng.standard_normal((g.nx, g.ny))
    ex_l, ex_r = selectors(g.nx)
    ey_l, ey_r = selectors(g.ny)
    m = np.kron(ex_l + ex_r, np.diag(ops.y.p_diag)) + np.kron(np.diag(ops.x.p_diag), ey_l + ey_r)
    flat = rate.reshape(-1)
    assert modal_bt_integrand(rate, ops) == pytest.approx(2.0 * flat @ m @ flat, rel=1e-12)


def test_modal_energy_dense_oracle_and_positivity():
    """The modal energy equals the sum of P-norms of the rate and damped
    gradients plus the sigma-weighted wall quadratic, computed densely."""
    g, ops, prof, bc, p = small_problem()
    rng = np.random.default_rng(6)
    s = random_state(g, "ModalUnsplit", rng)
    system = SemiDiscrete(ModelSpec("ModalUnsplit", theta=1.0), prof, bc, p, ops)
    rhs = evaluate_rhs(system, s, 0.0)
    theta, bt = 1.0, 0.37
    got = modal_energy(s, rhs.ez, system, bt)

    w = np.kron(np.diag(ops.x.p_diag), np.diag(ops.y.p_diag))
    sig = prof.sigma_values[:, None]

    def pnorm2(a):
        f = a.reshape(-1)
        return f @ w @ f

    expect = pnorm2(rhs.ez)
    expect += pnorm2(ops.dx(s.ez) + sig * s.hy)
    expect += pnorm2(ops.dy(s.ez) + sig * s.hx)
    expect += pnorm2(sig * s.hy) + pnorm2(sig * s.hx)
    spx = prof.sigma_values * ops.x.p_diag
    expect += theta * np.sum(spx * (s.ez[:, 0] ** 2 + s.ez[:, -1] ** 2))
    expect += bt
    assert got == pytest.approx(expect, rel=1e-12)
    assert got >= 0.0


def test_modal_energy_allocates_at_most_two_fields():
    """A warm modal_energy call on the 61x51 desk cavity holds at most two
    field-sized arrays at once: the derivative of Ez and the sigma terms on
    the damped rows, which the two-sided layer spreads over the whole x
    axis.  The quarter field above two allows for the wall lines and the
    array views, not for a third field."""
    setup = build_scenario(cavity_config(order=4, desk=True))
    s = random_state(setup.grid, "ModalUnsplit", np.random.default_rng(8))
    rhs = evaluate_rhs(setup.system, s, 0.5)
    args = (s, rhs.ez, setup.system, 0.25)
    first = modal_energy(*args)
    tracemalloc.start()
    try:
        assert modal_energy(*args) == first
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * s.ez.nbytes, peak / s.ez.nbytes


def test_modal_energy_zero_damping_reduction():
    g, ops, _, bc, p = small_problem()
    prof0 = zero_damping(g)
    rng = np.random.default_rng(7)
    s = random_state(g, "ModalUnsplit", rng)
    s.aux[:] = 0.0
    system = SemiDiscrete(ModelSpec("ModalUnsplit", theta=1.0), prof0, bc, p, ops)
    rhs = evaluate_rhs(system, s, 0.0)
    got = modal_energy(s, rhs.ez, system, 0.0)
    expect = (
        ops.inner(rhs.ez, rhs.ez)
        + ops.inner(ops.dx(s.ez), ops.dx(s.ez))
        + ops.inner(ops.dy(s.ez), ops.dy(s.ez))
    )
    assert got == pytest.approx(expect, rel=1e-12)


def test_phys_and_interior_energy():
    g, ops, _, _, _ = small_problem()
    rng = np.random.default_rng(8)
    s = random_state(g, "PhysicallyMotivated", rng)
    e = phys_energy(field_squares(s, ops), 0.25)
    expect = sum(
        ops.inner(f, f) for f in (s.ez, s.hy, s.hx, s.aux)
    ) + 0.25
    assert e == pytest.approx(expect, rel=1e-12)

    i = random_state(g, "Interior", rng)
    assert interior_energy(field_squares(i, ops)) == pytest.approx(
        ops.inner(i.ez, i.ez) + ops.inner(i.hy, i.hy) + ops.inner(i.hx, i.hx), rel=1e-12
    )


# ---------------------------------------------------------------------------
# Growth bound checks


def test_growth_bound_check_synthetic():
    times = np.linspace(0.0, 2.0, 21)
    sigma = 0.5
    # Exactly at the bound: passes (within tolerance).
    e = np.exp(2 * sigma * times)
    assert growth_bound_check(times, e, sigma).ok
    # Decay passes easily.
    assert growth_bound_check(times, np.exp(-times), sigma).ok
    # Growth faster than the bound fails, and the first offending sample
    # index is reported.
    e_bad = np.exp(2 * 1.1 * sigma * times)
    chk = growth_bound_check(times, e_bad, sigma)
    assert not chk.ok
    assert chk.worst_index is not None
    assert chk.max_ratio > 1.0


def test_growth_bound_check_non_finite_energy():
    """A NaN energy fails the check at its own sample with ratio inf; the
    verdict is a plain bool."""
    times = np.linspace(0.0, 2.0, 21)
    e = np.exp(0.5 * times)
    assert growth_bound_check(times, e, 0.5).ok is True
    e[15] = np.nan
    chk = growth_bound_check(times, e, 0.5)
    assert chk.ok is False
    assert chk.max_ratio == np.inf
    assert chk.worst_index == 15


def test_growth_bound_check_zero_start():
    # A signal appearing out of exact zero violates any bound.
    chk = growth_bound_check([0.0, 1.0], [0.0, 1.0], 1.0)
    assert not chk.ok


def test_growth_bound_holds_along_stabilized_run():
    """sqrt(E) grows at most like exp(sigma_max t) along an RK4 trajectory of
    the stabilized modal layer (checked per sample)."""
    g, ops, prof, bc, p = small_problem(d0=damping_coefficient(2.0, 1e-4))
    system = SemiDiscrete(ModelSpec("ModalUnsplit", theta=1.0), prof, bc, p, ops)
    s = FieldState.zeros(g, "ModalUnsplit")
    xx, yy = g.x[:, None], g.y[None, :]
    s.ez[:] = np.exp(-(xx**2 + yy**2))
    dt = 0.4 * g.hx
    times, energies = [], []
    for k, ds, bt in march(system, s, dt, 79):
        times.append(k * dt)
        energies.append(modal_energy(s, ds.ez, system, bt))
    chk = growth_bound_check(times, energies, prof.sigma_max, tol=1e-8)
    assert chk.ok, (chk.max_ratio, chk.worst_index)


def test_phys_energy_bound_universal_penalties():
    g, ops, prof, bc, _ = small_problem()
    p = PenaltyParams.universal()
    system = SemiDiscrete(ModelSpec("PhysicallyMotivated"), prof, bc, p, ops)
    s = FieldState.zeros(g, "PhysicallyMotivated")
    xx, yy = g.x[:, None], g.y[None, :]
    s.ez[:] = np.exp(-(xx**2 + yy**2))
    dt = 0.2 * g.hx  # this model is stiffer; step conservatively
    times, energies = [], []
    for k, _, bt in march(system, s, dt, 79):
        times.append(k * dt)
        energies.append(phys_energy(field_squares(s, ops), bt))
    chk = growth_bound_check(times, energies, prof.sigma_max, tol=1e-8)
    assert chk.ok, (chk.max_ratio, chk.worst_index)


# ---------------------------------------------------------------------------
# Dense assembly of the semi-discrete operator


def forced_waveguide():
    """A 12x8 waveguide grid whose top-wall forcing is near its peak at t = 0."""
    g = Grid2D(-2.0, 2.4, -1.0, 1.0, 12, 8)
    ops = g.operators(4)
    prof = make_damping_profile(g, 2.0, 0.4, 10.0, 2)
    top = waveguide_forcing(g.x, 1.0)
    forced = BoundaryConfig(r_x=0.0, r_y=1.0, g_top=lambda t: top(t + 0.1))
    assert np.max(forced.g_top(0.0)) > 0.01
    return g, ops, prof, forced, PenaltyParams.estimate_matching(0.0, 1.0)


@pytest.mark.parametrize(
    "kind,forced",
    [(kind, False) for kind in ("Interior", "ModalUnsplit", "PhysicallyMotivated", "SplitFieldStable")]
    + [("ModalUnsplit", True)],
    ids=["Interior", "ModalUnsplit", "PhysicallyMotivated", "SplitFieldStable", "ModalUnsplit-forced-waveguide"],
)
def test_assembled_matrix_reproduces_rhs(kind, forced):
    """A v = RHS(v, t) - RHS(0, t): the assembled matrix is the linear part
    of the system, and on the forced waveguide the wall data enter only
    through the affine term RHS(0, t)."""
    g, ops, prof, bc, p = forced_waveguide() if forced else small_problem(order=2, nx=7, ny=6)
    spec = ModelSpec(kind, theta=1.0)
    a = assemble_semidiscrete_matrix(spec, g, prof, bc, p, ops)
    system = SemiDiscrete(spec, prof, bc, p, ops)
    rng = np.random.default_rng(12)
    model = STATE_MODEL[kind]
    s = random_state(g, model, rng)
    parts = [s.ez, s.hy, s.hx] + ([s.aux] if s.aux is not None else [])
    flat = np.concatenate([q.reshape(-1) for q in parts])
    got = a @ flat
    rhs0 = evaluate_rhs(system, FieldState.zeros(g, model), 0.0).data
    assert forced == bool(np.any(rhs0))
    # The state's array is the blocks [ez, hy, hx, aux] in the matrix's order.
    expect = (evaluate_rhs(system, s, 0.0).data - rhs0).reshape(-1)
    assert np.max(np.abs(got - expect)) <= 1e-12


def test_assembly_calls_rhs_once_per_unknown(monkeypatch):
    """The assembly evaluates ``diagnostics.evaluate_rhs``, the name that
    the benchmark's tracer wraps (``perfbench/spans.py``), exactly once per
    unknown, so that the traced RHS count of a spectrum stays right."""
    g, ops, prof, bc, p = small_problem(order=2, nx=7, ny=6)
    calls = []
    original = diagnostics.evaluate_rhs

    def counting(*args, **kw):
        calls.append(1)
        return original(*args, **kw)

    monkeypatch.setattr(diagnostics, "evaluate_rhs", counting)
    a = assemble_semidiscrete_matrix(ModelSpec("ModalUnsplit", theta=1.0), g, prof, bc, p, ops)
    assert len(calls) == a.shape[1] == 4 * g.nx * g.ny


def test_assembly_ignores_wall_data():
    """Column j is L e_j, not L e_j + RHS(0): a 12x8 waveguide grid with the
    top-wall forcing near its peak assembles the matrix of data-free walls."""
    g, ops, prof, forced, p = forced_waveguide()
    spec = ModelSpec("ModalUnsplit", theta=1.0)
    a = assemble_semidiscrete_matrix(spec, g, prof, forced, p, ops)
    free = assemble_semidiscrete_matrix(spec, g, prof, BoundaryConfig(r_x=0.0, r_y=1.0), p, ops)
    assert np.array_equal(a, free)


def test_assembly_guard():
    g, ops, prof, bc, p = small_problem(order=2, nx=7, ny=6)
    with pytest.raises(ValueError):
        assemble_semidiscrete_matrix(
            ModelSpec("ModalUnsplit"), g, prof, bc, p, ops, max_unknowns=10
        )


def test_stabilized_spectrum_nonpositive_small_grid():
    """On a coarse layer grid the stabilized modal operator has no
    eigenvalue in the right half-plane, while the naive one does."""
    g = Grid2D(-60.0, 60.0, -50.0, 50.0, 11, 11)
    ops = g.operators(4)
    prof = make_damping_profile(g, 50.0, 10.0, damping_coefficient(10.0, 1e-4))
    bc = BoundaryConfig(r_x=0.0, r_y=0.0)
    p = PenaltyParams.estimate_matching(0, 0)
    lam1 = np.linalg.eigvals(
        assemble_semidiscrete_matrix(ModelSpec("ModalUnsplit", theta=1.0), g, prof, bc, p, ops)
    )
    assert float(np.max(lam1.real)) <= 1e-8
    lam0 = np.linalg.eigvals(
        assemble_semidiscrete_matrix(ModelSpec("ModalUnsplit", theta=0.0), g, prof, bc, p, ops)
    )
    assert float(np.max(lam0.real)) > 1e-6
