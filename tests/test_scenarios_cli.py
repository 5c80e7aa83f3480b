"""Tests for scenario construction, run artifacts, config files, and the CLI."""

import argparse
import dataclasses
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbpml import pml_models, sbp_core, scenarios_cli
from sbpml.boundary_sat import boundary_dissipation
from sbpml.diagnostics import (
    CSV_HEADER,
    discrete_l2_norms,
    field_squares,
    interior_energy,
    modal_bt_integrand,
    modal_energy,
    phys_energy,
)
from sbpml.pml_models import evaluate_rhs
from sbpml.scenarios_cli import (
    ECHO_RESULT_KEYS,
    PRESETS,
    ScenarioConfig,
    build_scenario,
    cavity_config,
    cavity_initial_state,
    cli_entry,
    config_from_file,
    preset_config,
    reference_config,
    run_scenario,
    waveguide_config,
    waveguide_error_study,
    waveguide_forcing,
    write_snapshot,
)
from sbpml.grid_state import FieldState, Grid2D
from sbpml.modal_analysis import InconclusiveCount

from _oracles import read_snapshot


def tiny_cavity(**kw):
    cfg = dict(
        scenario="Cavity",
        x0=4.0,
        y0=4.0,
        delta=2.0,
        h=1.0,
        # The narrow test layer needs gentle damping and a conservative step
        # to keep sigma_max * dt inside the RK4 stability region.
        dt_factor=0.2,
        t_final=4.0,
        order=4,
        model_kind="ModalUnsplit",
        theta=1.0,
        tol=1e-2,
        stride=2,
    )
    cfg.update(kw)
    return ScenarioConfig(**cfg)


# The tiny cavity's geometry as a TOML config file, to which a test adds lines.
TINY_TOML = 'scenario = "Cavity"\nx0 = 4.0\ny0 = 4.0\ndelta = 2.0\nh = 1.0\nt_final = 4.0\n'


# ---------------------------------------------------------------------------
# Initial data and forcing


def test_cavity_initial_state_values():
    g = Grid2D(-6.0, 6.0, -4.0, 4.0, 13, 9)
    s = cavity_initial_state(g, "ModalUnsplit")
    # Peak 1 at the origin; exp(-1) at radius 3.
    assert s.ez[6, 4] == pytest.approx(1.0)
    assert s.ez[9, 4] == pytest.approx(math.exp(-1.0))
    assert s.ez[6, 0] == pytest.approx(math.exp(-16.0 / 9.0))
    assert np.all(s.hy == 0) and np.all(s.hx == 0) and np.all(s.aux == 0)


def test_waveguide_forcing_values():
    # Time factor peaks when 10 t = 1; space factor peaks at (1, 1).
    assert waveguide_forcing(1.0, 1.0)(0.1) == pytest.approx(1.0)
    assert waveguide_forcing(1.0, 1.0)(0.0) == pytest.approx(math.exp(-math.pi**2))
    assert waveguide_forcing(1.1, 1.0)(0.1) == pytest.approx(math.exp(-1.0))
    # Far from the source the forcing is negligible.
    assert waveguide_forcing(-2.0, 1.0)(0.1) < 1e-300


# ---------------------------------------------------------------------------
# Config resolution


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_cavity(scenario="Box")
    with pytest.raises(ValueError):
        tiny_cavity(penalties="strong")
    with pytest.raises(ValueError):
        tiny_cavity(h=-1.0)
    with pytest.raises(ValueError):
        tiny_cavity(delta=2.5)  # layer edge off the grid
    with pytest.raises(ValueError, match="stride"):
        tiny_cavity(stride=0)
    with pytest.raises(ValueError, match=r"unsupported order 5; expected one of \(2, 4, 6\)"):
        tiny_cavity(order=5)
    with pytest.raises(ValueError, match="unknown model kind 'Bogus'; expected one of"):
        tiny_cavity(model_kind="Bogus")
    # A step that is not finite and positive, or an amplifying layer.
    for bad in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="dt_factor must be finite and positive"):
            tiny_cavity(dt_factor=bad)
    with pytest.raises(ValueError, match="dt_factor must be finite and positive"):
        preset_config("cavity-desk-theta1", dt_factor=-1)
    with pytest.raises(ValueError, match="t_final must be finite and positive"):
        tiny_cavity(t_final=math.inf)
    for bad in (-0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="d0 must be finite and nonnegative"):
            tiny_cavity(d0=bad)
    assert tiny_cavity(d0=0.0).d0 == 0.0
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="theta must be finite"):
            tiny_cavity(theta=bad)
    # A reflection tolerance outside (0, 1) is refused with the config, not at build.
    for bad in (2.0, 1.0, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=re.escape(f"tol must lie in (0, 1), got {bad}")):
            tiny_cavity(tol=bad)
    with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
        reference_config(0.04, 4, tol=2.0)


@pytest.mark.parametrize("name,value", [("order", 4.0), ("order", True), ("stride", 2.5), ("stride", True)])
def test_config_refuses_non_integer_order_and_stride(tmp_path, name, value):
    """A float or bool order or stride is refused when built: it would run
    and echo a value that ``config_from_file`` refuses, so the run could not
    be reproduced from its echo.  An int, 2, reads back from the echo."""
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        preset_config("cavity-desk-theta1", **{name: value})
    cfg = tiny_cavity(output_dir=str(tmp_path), **{name: 2})
    assert config_from_file(run_scenario(cfg).config_echo_path) == cfg


_FLOAT_FIELDS = ("x0", "y0", "delta", "h", "dt_factor", "t_final", "theta", "tol", "d0")


@pytest.mark.parametrize(
    "preset,name,value",
    [
        pytest.param("cavity-desk-theta1", name, value, id=f"{name}-{value}")
        for name in _FLOAT_FIELDS
        for value in (True, False, "1", None)
        if value is not None or name != "d0"
    ]
    # The waveguide preset derives its tol from h, after h is checked.
    + [pytest.param("waveguide", "h", value, id=f"waveguide-h-{value}") for value in ("0.04", None)],
)
def test_config_refuses_a_bool_in_a_float_field(preset, name, value):
    """A bool in a float field is refused when built, though arithmetic
    would take it as 0 or 1.  A string is refused too, and None in every
    field but ``d0``, where it means "derived from tol"."""
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a number, got {value!r}")):
        preset_config(preset, **{name: value})


def test_build_cavity_geometry():
    setup = build_scenario(tiny_cavity())
    g = setup.grid
    assert (g.x_min, g.x_max) == (-6.0, 6.0)
    assert (g.nx, g.ny) == (13, 9)
    assert setup.system.bc.r_x == 0.0 and setup.system.bc.r_y == 0.0
    # Estimate-matching penalties at R = 0.
    assert setup.system.penalties.alpha_x == 2.0 and setup.system.penalties.theta_x == 0.0
    # Damping vanishes for |x| <= x0 and is d0 at the outer edge.
    sig = setup.prof.sigma_values
    assert np.all(sig[np.abs(g.x) <= 4.0] == 0.0)
    assert sig[0] == pytest.approx(setup.prof.d0)
    # Layers at both ends: the damped run of rows is the whole axis.
    assert setup.prof.rows == slice(0, 13)


def test_build_waveguide_geometry_and_dt():
    cfg = waveguide_config(0.04, 4)
    setup = build_scenario(cfg)
    g = setup.grid
    assert (g.x_min, g.x_max) == (-2.0, 2.4)
    assert (g.y_min, g.y_max) == (-1.0, 1.0)
    assert (g.nx, g.ny) == (111, 51)
    assert setup.system.bc.r_x == 0.0 and setup.system.bc.r_y == 1.0
    assert setup.system.bc.g_top is not None
    # dt_factor * h = 0.016 does not divide 5; the step shrinks to fit.
    assert setup.n_steps == 313
    assert setup.dt == pytest.approx(5.0 / 313)
    assert setup.dt * setup.n_steps == pytest.approx(5.0)
    # Empirical damping: tol = (1e-4 h)^2, on a quadratic ramp, whose peak is
    # (2 + 1) / (2 * 0.4) = 3.75 times ln(1/tol).
    assert setup.prof.d0 == pytest.approx(3.75 * math.log(1.0 / (1e-4 * 0.04) ** 2))
    r = np.clip((g.x - 2.0) / 0.4, 0.0, None)
    assert np.allclose(setup.prof.sigma_values, setup.prof.d0 * r**2)
    # The damping rate times the step stays inside RK4's stability interval
    # on the negative real axis, [-2.785, 0], at every preset resolution.
    # Only the layer's round(0.4 / h) rows at the right end are damped.
    for h in (0.04, 0.02, 0.01):
        s = build_scenario(waveguide_config(h, 6))
        assert s.dt * s.prof.sigma_max < 2.785
        assert s.prof.rows == slice(s.grid.nx - round(0.4 / h), s.grid.nx)


def test_waveguide_and_reference_overrides_replace_preset_values():
    cfg = waveguide_config(0.04, 4, delta=0.8, tol=1e-6, dt_factor=0.2)
    assert (cfg.delta, cfg.tol, cfg.dt_factor) == (0.8, 1e-6, 0.2)
    assert (cfg.x0, cfg.y0, cfg.t_final) == (2.0, 1.0, 5.0)
    setup = build_scenario(cfg)
    assert setup.grid.x_max == pytest.approx(2.8)
    ref = reference_config(0.04, 4, t_final=1.0)
    assert (ref.x0, ref.t_final) == (8.0, 1.0)


def test_build_reference_geometry():
    setup = build_scenario(reference_config(0.1, 4))
    g = setup.grid
    assert (g.x_min, g.x_max) == (-2.0, 8.0)
    # The reference is undamped whatever its d0 and tol.
    for cfg in (reference_config(0.1, 4), reference_config(0.1, 4, d0=5.0), reference_config(0.1, 4, tol=0.5)):
        prof = build_scenario(cfg).prof
        assert prof.d0 == 0.0
        assert np.all(prof.sigma_values == 0.0)
        assert prof.rows == slice(0, 0)


def test_cavity_presets():
    full = cavity_config(theta=0.0)
    assert (full.x0, full.delta, full.t_final) == (50.0, 10.0, 5000.0)
    desk = cavity_config(theta=0.0, desk=True)
    assert (desk.x0, desk.delta, desk.t_final) == (25.0, 5.0, 2000.0)


def test_named_presets_resolve_and_build():
    """Each CLI preset resolves to these literal values and builds."""
    fields = ("scenario", "x0", "y0", "delta", "h", "t_final", "order", "model_kind", "theta", "tol", "d0", "label")
    expect = {
        "cavity-theta0": ("Cavity", 50.0, 50.0, 10.0, 1.0, 5000.0, 4, "ModalUnsplit", 0.0, 1e-4, None, "cavity_theta0"),
        "cavity-theta1": ("Cavity", 50.0, 50.0, 10.0, 1.0, 5000.0, 4, "ModalUnsplit", 1.0, 1e-4, None, "cavity_theta1"),
        "cavity-desk-theta0": (
            "Cavity", 25.0, 25.0, 5.0, 1.0, 2000.0, 4, "ModalUnsplit", 0.0, 1e-4, None, "cavity_desk_theta0"
        ),
        "cavity-desk-theta1": (
            "Cavity", 25.0, 25.0, 5.0, 1.0, 2000.0, 4, "ModalUnsplit", 1.0, 1e-4, None, "cavity_desk_theta1"
        ),
        "cavity-interior": ("Cavity", 25.0, 25.0, 5.0, 1.0, 2000.0, 4, "Interior", 1.0, 1e-4, 0.0, "cavity_interior"),
        "waveguide": ("Waveguide", 2.0, 1.0, 0.4, 0.04, 5.0, 4, "ModalUnsplit", 1.0, (1e-4 * 0.04) ** 2, None, ""),
        "reference": ("Reference", 8.0, 1.0, 0.4, 0.04, 5.0, 4, "Interior", 0.0, 1e-4, None, ""),
    }
    assert sorted(PRESETS) == sorted(expect)
    for name, values in expect.items():
        cfg = preset_config(name)
        assert tuple(getattr(cfg, f) for f in fields) == values, name
        assert (cfg.dt_factor, cfg.penalties, cfg.stride) == (0.4, "estimate_matching", 10)
        build_scenario(cfg)
    # The waveguide's tolerance follows an overridden h unless tol is given.
    assert preset_config("waveguide", h=0.02).tol == (1e-4 * 0.02) ** 2
    assert preset_config("waveguide", h=0.02, tol=1e-6).tol == 1e-6
    with pytest.raises(ValueError, match="cavity-desk-theta1"):
        preset_config("nope")


# ---------------------------------------------------------------------------
# Snapshots and config files


def test_snapshot_round_trip(tmp_path):
    g = Grid2D(0.0, 1.0, 0.0, 2.0, 4, 5)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((4, 5))
    path = tmp_path / "snap.txt"
    write_snapshot(path, g, vals)
    back, hx, hy = read_snapshot(path)
    assert np.array_equal(back, vals)
    assert hx == g.hx and hy == g.hy


def test_config_from_file(tmp_path):
    path = tmp_path / "run.toml"
    path.write_text(f"# a comment\n{TINY_TOML}order = 4  # a trailing comment\n")
    cfg = config_from_file(path)
    assert cfg.scenario == "Cavity" and cfg.x0 == 4.0 and cfg.order == 4
    # Each value keeps its TOML type.
    assert type(cfg.x0) is float and type(cfg.order) is int

    typed = tmp_path / "typed.toml"
    typed.write_text('scenario = "Cavity"\ntol = 1e-3\nlabel = "run#1"  # a \'#\' inside quotes is text\n')
    cfg = config_from_file(typed)
    assert cfg.d0 is None and cfg.tol == 1e-3 and cfg.label == "run#1"

    for i, (line, message) in enumerate([
        ("width = 3", "unknown config keys: ['width']"),
        ('order = "four"', "order must be an integer, got 'four'"),
        ('h = "fine"', "h must be a number, got 'fine'"),
        ("order = 4.0", "order must be an integer, got 4.0"),
        ("label = 7", "label must be a string, got 7"),
    ]):
        bad = tmp_path / f"bad{i}.toml"
        bad.write_text(f'scenario = "Cavity"\n{line}\n')
        with pytest.raises(ValueError, match=re.escape(message)):
            config_from_file(bad)


# ---------------------------------------------------------------------------
# Runs


def test_run_scenario_artifacts_and_determinism(tmp_path):
    cfg = tiny_cavity(output_dir=str(tmp_path / "a"), label="tiny")
    art = run_scenario(cfg)
    assert not art.diverged
    assert os.path.exists(art.history_csv)
    assert os.path.exists(art.snapshot_path)
    assert os.path.exists(art.config_echo_path)
    # Samples at t = 0 plus every stride-th step: 20 steps, stride 2 -> 11 rows.
    assert len(art.history.times) == 11
    echo = Path(art.config_echo_path).read_text()
    assert "diverged = false" in echo
    assert "penalties_admissible = true" in echo

    # Bit-for-bit reproducibility.
    art2 = run_scenario(tiny_cavity(output_dir=str(tmp_path / "b"), label="tiny"))
    assert Path(art.history_csv).read_bytes() == Path(art2.history_csv).read_bytes()
    assert Path(art.snapshot_path).read_bytes() == Path(art2.snapshot_path).read_bytes()


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_config_echo_reads_back_and_reruns_the_run(tmp_path, capsys, name):
    """A run's config echo reads back as the run's config, and ``sbpml run
    --config`` on it writes the same history and snapshot, byte for byte,
    and the same echo but for ``output_dir``.  Each preset runs 5 steps."""
    base = preset_config(name)
    a, b = tmp_path / "a", tmp_path / "b"
    cfg = preset_config(name, t_final=5 * base.dt_factor * base.h, stride=2, output_dir=str(a))
    art = run_scenario(cfg)
    assert config_from_file(art.config_echo_path) == cfg
    assert cli_entry(["run", "--config", art.config_echo_path, "--out", str(b)]) == 0
    for path in (art.history_csv, art.snapshot_path):
        assert (b / Path(path).name).read_bytes() == Path(path).read_bytes()
    echo = Path(art.config_echo_path).read_text()
    assert (b / Path(art.config_echo_path).name).read_text() == echo.replace(
        f"= {json.dumps(str(a))}\n", f"= {json.dumps(str(b))}\n"
    )


@pytest.mark.parametrize(
    "label,out", [("run#1", "out #1"), (" spaced ", "out"), ("run", Path("out"))], ids=["hash", "outer-spaces", "path"]
)
def test_config_echo_quotes_what_reading_would_cut(tmp_path, capsys, label, out):
    """Every label and output_dir is echoed as a quoted TOML string, so one
    with a '#' or outer spaces reads back whole: ``sbpml run --config`` on
    the echo reads the same config back and writes the same files, byte for
    byte, at the same paths.  An output_dir may be a ``pathlib.Path``, which
    reads back as its text."""
    output_dir = tmp_path / out if isinstance(out, Path) else str(tmp_path / out)
    cfg = preset_config("cavity-desk-theta1", t_final=2.0, label=label, output_dir=output_dir)
    art = run_scenario(cfg)
    assert config_from_file(art.config_echo_path) == dataclasses.replace(cfg, output_dir=str(cfg.output_dir))
    written = {path: Path(path).read_bytes() for path in (art.history_csv, art.snapshot_path, art.config_echo_path)}
    echo = tmp_path / "echo.txt"
    echo.write_bytes(written[art.config_echo_path])
    for path in written:
        os.remove(path)
    assert cli_entry(["run", "--config", str(echo)]) == 0
    assert {path: Path(path).read_bytes() for path in written} == written
    assert sorted(os.listdir(cfg.output_dir)) == sorted(os.path.basename(path) for path in written)


@settings(deadline=None)
@given(label=st.text().filter(lambda text: not any(c in text for c in (os.sep, os.altsep, "\x00") if c)))
@example("\x7f")
@example('a"b')
@example("#")
@example("\n")
@example("none")
def test_any_label_reads_back_from_its_echo(tmp_path_factory, label):
    """Any text without a path separator or NUL is a label, and the config echo
    writes it as a TOML string that reads back as the same label."""
    cfg = tiny_cavity(label=label)
    path = tmp_path_factory.getbasetemp() / "label_config.txt"
    scenarios_cli._echo_config(path, cfg, build_scenario(cfg), False, 0)
    assert config_from_file(path) == cfg


@pytest.mark.parametrize("name", ["label", "output_dir"])
def test_config_refuses_text_that_utf8_cannot_carry(tmp_path, capsys, name):
    """A lone surrogate, which a file name on Linux can carry but the UTF-8
    config echo cannot, is refused in a label or output_dir when the config
    is built, and so is such an ``sbpml run --out``, before anything is
    written."""
    with pytest.raises(ValueError, match=f"{name} must encode as UTF-8"):
        preset_config("cavity-desk-theta1", **{name: "run\udc80"})
    if name == "output_dir":
        assert cli_entry(["run", "--preset", "cavity-desk-theta1", "--out", str(tmp_path / "run\udc80")]) == 1
        assert "output_dir must encode as UTF-8" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("name", ["label", "output_dir"])
@pytest.mark.parametrize("value", [None, 0, b"run"], ids=repr)
def test_config_refuses_what_its_echo_reads_back_otherwise(name, value):
    """A label or output_dir that is not a string (an output_dir may be a
    path) is refused when the config is built: its echo would read back as
    another value, or not at all, since TOML has no null."""
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a string")):
        preset_config("cavity-desk-theta1", **{name: value})


@pytest.mark.parametrize("name", ["label", "output_dir"])
def test_config_refuses_a_nul_character(tmp_path, capsys, name):
    """No file name can hold a NUL, so a label or output_dir with one is
    refused when the config is built, naming the field, not at the run's
    first write: ``sbpml run --config`` with such a label exits 1 and
    writes nothing."""
    with pytest.raises(ValueError, match=f"{name} must hold no NUL character"):
        preset_config("cavity-desk-theta1", **{name: "run\x00"})
    if name == "label":
        cfg_path = tmp_path / "run.toml"
        cfg_path.write_text(f'{TINY_TOML}dt_factor = 0.2\ntol = 1e-2\nlabel = "a\\u0000b"\n')
        assert cli_entry(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert "label must hold no NUL character" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.toml"]


def test_config_refuses_a_label_with_a_path_separator(tmp_path, capsys):
    """A label names the run's files inside output_dir, so one with a path
    separator is refused when the config is built, before anything runs:
    from a preset, and from a config file that ``sbpml run`` reads, which
    then writes no file, beside output_dir or anywhere else."""
    with pytest.raises(ValueError, match="label must hold no path separator"):
        preset_config("cavity-desk-theta1", label="a/b")
    cfg_path = tmp_path / "run.toml"
    cfg_path.write_text(f'{TINY_TOML}dt_factor = 0.2\ntol = 1e-2\norder = 4\nstride = 2\nlabel = "../esc"\n')
    assert cli_entry(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert "label must hold no path separator, got '../esc'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["run.toml"]


def test_config_echo_skips_only_its_result_keys(tmp_path):
    """The echo ends with the ``ECHO_RESULT_KEYS``, which reading it skips;
    a misspelled result key or field is still an unknown key."""
    art = run_scenario(tiny_cavity(output_dir=str(tmp_path), label="tiny"))
    echo = Path(art.config_echo_path).read_text()
    assert [line.partition(" = ")[0] for line in echo.splitlines()[-8:]] == list(ECHO_RESULT_KEYS)
    bad = tmp_path / "bad.toml"
    for key in ("resolved_dtt", "thetaa"):
        bad.write_text(f"{echo}{key} = 1\n")
        with pytest.raises(ValueError, match=re.escape(f"unknown config keys: ['{key}']")):
            config_from_file(bad)


def test_run_scenario_energy_column_finite_and_decaying(tmp_path):
    cfg = tiny_cavity(output_dir=str(tmp_path), t_final=8.0, stride=4)
    art = run_scenario(cfg)
    e = art.history.series("energy")
    assert np.all(np.isfinite(e))
    assert e[-1] <= e[0] * (1 + 1e-9)


def reference_history(cfg):
    """The history run_scenario should record, from an out-of-place RK4 loop
    that evaluates every step's first stage and every sample's derivative
    afresh: rows of (ez_norm, hy_norm, hx_norm, aux_norm, energy)."""
    setup = build_scenario(cfg)
    system, model = setup.system, setup.state0.model
    spec, ops = system.spec, system.ops

    def f(data, t):
        u = FieldState(model, data)
        r = evaluate_rhs(system, u, t)
        if spec.kind == "ModalUnsplit":
            return r.data, modal_bt_integrand(r.ez, system.walls)
        return r.data, boundary_dissipation(u, system.walls)

    def record(data, bt, t):
        u = FieldState(model, data)
        squares = field_squares(u, ops)
        norms = discrete_l2_norms(squares)
        if spec.kind == "ModalUnsplit":
            e = modal_energy(u, FieldState(model, f(data, t)[0]).ez, system, bt)
        elif spec.kind == "PhysicallyMotivated":
            e = phys_energy(squares, bt)
        else:
            e = interior_energy(squares, bt)
        return [norms["ez_norm"], norms["hy_norm"], norms["hx_norm"], norms["aux_norm"], e]

    u, bt, dt = setup.state0.data.copy(), 0.0, setup.dt
    rows = [record(u, bt, 0.0)]
    for k in range(setup.n_steps):
        t = k * dt
        k1, q1 = f(u, t)
        k2, q2 = f(u + (0.5 * dt) * k1, t + 0.5 * dt)
        k3, q3 = f(u + (0.5 * dt) * k2, t + 0.5 * dt)
        k4, q4 = f(u + dt * k3, t + dt)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        bt = bt + (dt / 6.0) * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
        if (k + 1) % cfg.stride == 0 or k + 1 == setup.n_steps:
            rows.append(record(u, bt, (k + 1) * dt))
    return np.array(rows)


@pytest.mark.parametrize(
    "kind,penalties,scenario",
    [
        ("ModalUnsplit", "estimate_matching", "Cavity"),
        ("PhysicallyMotivated", "universal", "Cavity"),
        ("SplitFieldStable", "estimate_matching", "Cavity"),
        ("Interior", "universal", "Cavity"),
        ("ModalUnsplit", "estimate_matching", "Waveguide"),
    ],
)
def test_run_scenario_matches_out_of_place_loop(tmp_path, monkeypatch, kind, penalties, scenario):
    """The in-place loop evaluates the RHS exactly 4 times a step plus once
    at t = 0: the derivative after each step serves both the sample and the
    next step's first stage.  Its history matches an out-of-place loop to
    1e-12 relative, per column, and a second run writes the same bytes."""
    if scenario == "Cavity":
        cfg = tiny_cavity(model_kind=kind, penalties=penalties, stride=3, output_dir=str(tmp_path / "a"), label="loop")
    else:
        cfg = waveguide_config(
            0.1, 4, t_final=0.3, penalties=penalties, stride=3, output_dir=str(tmp_path / "a"), label="loop"
        )
    calls = []
    original = scenarios_cli.evaluate_rhs

    def counting(*args, **kw):
        calls.append(1)
        return original(*args, **kw)

    monkeypatch.setattr(scenarios_cli, "evaluate_rhs", counting)
    art = run_scenario(cfg)
    n_steps = build_scenario(cfg).n_steps
    assert len(calls) == 4 * n_steps + 1

    keys = ("ez_norm", "hy_norm", "hx_norm", "aux_norm", "energy")
    got = np.array([[r[k] for k in keys] for r in art.history.records])
    expect = reference_history(cfg)
    assert got.shape == expect.shape
    assert np.all(np.abs(got - expect) <= 1e-12 * np.max(np.abs(expect), axis=0))

    cfg.output_dir = str(tmp_path / "b")
    again = run_scenario(cfg)
    assert Path(art.history_csv).read_bytes() == Path(again.history_csv).read_bytes()


def march_setup(scenario):
    """A few steps of the desk cavity (ModalUnsplit) or of a coarse waveguide."""
    if scenario == "Cavity":
        return build_scenario(preset_config("cavity-desk-theta1", t_final=4.0))
    return build_scenario(waveguide_config(0.1, 4, t_final=0.3))


@pytest.mark.parametrize("scenario", ["Cavity", "Waveguide"])
def test_march_yields_every_step_with_its_derivative(monkeypatch, scenario):
    """``march`` yields k = 0, 1, ..., n in order, with du bit for bit the
    derivative at t = k dt, and evaluates the RHS 4 n + 1 times.  The
    waveguide's top-wall data depend on t, so a wrong time would show."""
    setup = march_setup(scenario)
    calls = []
    original = scenarios_cli.evaluate_rhs

    def counting(*args, **kw):
        calls.append(1)
        return original(*args, **kw)

    monkeypatch.setattr(scenarios_cli, "evaluate_rhs", counting)
    u, steps = setup.state0, []
    for k, du, _ in scenarios_cli.march(setup.system, u, setup.dt, setup.n_steps):
        steps.append(k)
        assert np.array_equal(du.data, evaluate_rhs(setup.system, u, k * setup.dt).data), k
    assert steps == list(range(setup.n_steps + 1))
    assert len(calls) == 4 * setup.n_steps + 1


@pytest.mark.parametrize("scenario", ["Cavity", "Waveguide"])
def test_march_makes_two_rhs_plans(monkeypatch, scenario):
    """A march feeds the RHS two input-output pairs only, u -> du and the
    stage state -> the stage rate, so over many steps it makes two plans."""
    setup = march_setup(scenario)
    plans = []
    original = pml_models.rhs_plan

    def counting(*args):
        plans.append(args)
        return original(*args)

    monkeypatch.setattr(pml_models, "rhs_plan", counting)
    for _ in scenarios_cli.march(setup.system, setup.state0, setup.dt, setup.n_steps):
        pass
    assert setup.n_steps >= 3
    assert len(plans) == 2


def test_march_keeps_three_state_arrays():
    """A march allocates three state-sized arrays, du, the stage rate and the
    stage state, and no fourth: over 50 desk steps the traced peak, RHS
    plans included, stays below four states."""
    setup = build_scenario(preset_config("cavity-desk-theta1"))
    u = FieldState(setup.state0.model, setup.state0.data.copy())
    tracemalloc.start()
    try:
        for _ in scenarios_cli.march(setup.system, u, setup.dt, 50):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * u.data.nbytes, (peak, u.data.nbytes)


def test_non_finite_first_record_is_a_divergence(tmp_path):
    """The t = 0 record follows the loop's rule: d0 = 1e300 overflows the
    modal energy at once, so the run diverges at step 0 and writes no row."""
    cfg = preset_config("cavity-desk-theta1", d0=1e300, t_final=4, output_dir=str(tmp_path))
    art = run_scenario(cfg)
    assert art.diverged
    echo = Path(art.config_echo_path).read_text().splitlines()
    assert "diverged = true" in echo and "last_completed_step = 0" in echo
    assert Path(art.history_csv).read_text().splitlines() == [CSV_HEADER]


def test_error_study_structure(tmp_path):
    rows = waveguide_error_study([0.2, 0.1], [4], output_dir=str(tmp_path))
    assert [r[0] for r in rows] == [4, 4]
    assert [r[1] for r in rows] == [0.2, 0.1]
    assert math.isnan(rows[0][3]) and math.isfinite(rows[1][3])
    assert rows[0][2] > 0 and rows[1][2] > 0


def test_cli_converge_table_text(tmp_path, monkeypatch):
    """The error table's exact text: the order as an integer, each other
    value as %.17g, and the first h of an order with a NaN rate."""
    rows = [(4, 0.04, 1.5e-3, math.nan), (4, 0.02, 1e-4, math.log2(15.0))]
    monkeypatch.setattr(scenarios_cli, "waveguide_error_study", lambda hs, orders, output_dir: rows)
    assert cli_entry(["converge", "--orders", "4", "--h", "0.04,0.02", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "error_table.csv").read_text() == (
        "order,h,error,rate\n"
        "4,0.040000000000000001,0.0015,nan\n"
        "4,0.02,0.0001,3.9068905956085187\n"
    )


def usable_cpus(monkeypatch, n):
    """Make ``os.sched_getaffinity`` report n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_pooled_error_study_matches_in_process_cells(tmp_path, monkeypatch):
    """On two CPUs the cells run in a pool of two spawned workers; each row
    equals ``_layer_error`` called here, bit for bit, every file the study
    writes equals the in-process run's byte for byte, and no worker
    outlives the call."""
    import multiprocessing
    from concurrent import futures

    pools = []

    class Spy(futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    usable_cpus(monkeypatch, 2)
    monkeypatch.setattr(futures, "ProcessPoolExecutor", Spy)
    # The same relative output_dir on both sides, so the config echoes compare.
    (tmp_path / "pool").mkdir()
    monkeypatch.chdir(tmp_path / "pool")
    rows = waveguide_error_study([0.2, 0.1], [4], output_dir="out")
    assert len(pools) == 1 and pools[0]._max_workers == 2
    assert multiprocessing.active_children() == []

    (tmp_path / "here").mkdir()
    monkeypatch.chdir(tmp_path / "here")
    errors = [
        scenarios_cli._layer_error(waveguide_config(h, 4, output_dir="out"), reference_config(h, 4, output_dir="out"))
        for h in (0.2, 0.1)
    ]
    assert [r[2] for r in rows] == errors
    assert rows[1][3] == math.log2(errors[0] / errors[1])
    pooled = sorted(p.name for p in (tmp_path / "pool" / "out").iterdir())
    assert pooled == sorted(p.name for p in (tmp_path / "here" / "out").iterdir())
    assert len(pooled) == 12  # history, snapshot and echo of four runs
    for name in pooled:
        assert (tmp_path / "pool" / "out" / name).read_bytes() == (tmp_path / "here" / "out" / name).read_bytes()


def test_error_study_on_one_cpu_starts_no_pool(tmp_path, monkeypatch):
    from concurrent import futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started on one CPU")

    usable_cpus(monkeypatch, 1)
    monkeypatch.setattr(futures, "ProcessPoolExecutor", no_pool)
    out = str(tmp_path)
    rows = waveguide_error_study([0.2, 0.1], [4], output_dir=out)
    errors = [
        scenarios_cli._layer_error(waveguide_config(h, 4, output_dir=out), reference_config(h, 4, output_dir=out))
        for h in (0.2, 0.1)
    ]
    assert [r[2] for r in rows] == errors


def test_error_study_runs_the_stable_layer_against_a_layer_free_reference(tmp_path, monkeypatch):
    """The study's layer runs are the stable theta = 1 layer and its
    references run at theta = 0: every config echo says so."""
    usable_cpus(monkeypatch, 1)
    waveguide_error_study([0.2, 0.1], [4], output_dir=str(tmp_path))
    echoes = [echo.read_text().splitlines() for echo in tmp_path.glob("*_config.txt")]
    thetas = sorted((lines[0], next(x for x in lines if x.startswith("theta = "))) for lines in echoes)
    assert thetas == [('scenario = "Reference"', "theta = 0.0")] * 2 + [('scenario = "Waveguide"', "theta = 1.0")] * 2


def test_worker_error_reaches_the_caller(tmp_path, monkeypatch, capsys):
    """Order 6 at h = 0.2 gives ny = 11, under the 12 points order 6 needs;
    the worker's ValueError is raised here with its message."""
    usable_cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match="order 6 needs at least n = 12 points, got 11"):
        waveguide_error_study([0.2, 0.1], [6], output_dir=str(tmp_path / "study"))
    rc = cli_entry(["converge", "--orders", "6", "--h", "0.2,0.1", "--out", str(tmp_path / "cli")])
    assert rc == 1
    assert "order 6 needs at least n = 12 points, got 11" in capsys.readouterr().err


# A script that runs the study at module level, with no main guard, on 2 CPUs.
UNGUARDED_SCRIPT = """
import os
os.sched_getaffinity = lambda pid: {0, 1}
from sbpml.scenarios_cli import waveguide_error_study
waveguide_error_study([0.2, 0.1], [4], output_dir="out")
"""


def session_processes(sid):
    """The pids of the live processes of session ``sid``, read from /proc."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # After "pid (comm)": state, ppid, pgrp, session.
            state, _, _, session = stat.read_text().rsplit(")", 1)[1].split()[:4]
        except (OSError, ValueError):
            continue  # the process ended while being read
        if int(session) == sid and state != "Z":
            pids.append(int(stat.parent.name))
    return pids


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="reads each process's session from /proc")
def test_unguarded_script_is_told_to_add_the_main_guard(tmp_path):
    """Each spawned worker imports the calling script again, so an
    unguarded script's workers die in multiprocessing's bootstrapping
    check.  The script exits nonzero with a RuntimeError that names the
    main guard, chained to the BrokenProcessPool, and leaves no process
    behind in its session."""
    (tmp_path / "unguarded.py").write_text(UNGUARDED_SCRIPT)
    env = dict(os.environ, PYTHONPATH=str(Path(scenarios_cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "unguarded.py"], cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=120)
        deadline = time.monotonic() + 10
        while session_processes(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        left = session_processes(proc.pid)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    assert proc.returncode != 0
    assert "RuntimeError: a worker of the error study died" in err
    assert 'keep its entry code under `if __name__ == "__main__":`' in err
    assert "BrokenProcessPool" in err and "direct cause of the following exception" in err
    assert left == []


def test_error_study_rejects_a_repeated_order(tmp_path, capsys):
    """Two cells of one order would write the same files, at once in a pool."""
    with pytest.raises(ValueError, match=r"each order may appear once, got \[4, 4\]"):
        waveguide_error_study([0.2, 0.1], [4, 4], output_dir=str(tmp_path / "study"))
    rc = cli_entry(["converge", "--orders", "4,4", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "each order may appear once" in capsys.readouterr().err
    assert not (tmp_path / "study").exists() and not (tmp_path / "out").exists()


def test_cli_converge_reports_cells_processes_and_time(tmp_path, monkeypatch, capsys):
    usable_cpus(monkeypatch, 1)
    rc = cli_entry(["converge", "--orders", "4", "--h", "0.2,0.1", "--out", str(tmp_path)])
    assert rc == 0
    assert re.search(r"^error study: 2 cells on 1 process, \d+\.\d s$", capsys.readouterr().out, re.M)


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_with_config(tmp_path, capsys):
    cfg_path = tmp_path / "run.toml"
    cfg_path.write_text(f'{TINY_TOML}dt_factor = 0.2\ntol = 1e-2\norder = 4\nstride = 2\nlabel = "cli_tiny"\n')
    rc = cli_entry(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 0
    assert "history:" in captured.out
    hist = tmp_path / "out" / "cli_tiny_history.csv"
    assert hist.exists()
    assert len(hist.read_text().strip().splitlines()) == 12  # header + 11 samples


def test_cli_run_requires_source(tmp_path, capsys):
    rc = cli_entry(["run"])
    assert rc == 2
    # Exactly one source: a config file and a preset together are refused, and nothing runs.
    cfg_path = tmp_path / "run.toml"
    cfg_path.write_text(TINY_TOML)
    out = tmp_path / "out"
    rc = cli_entry(["run", "--config", str(cfg_path), "--preset", "cavity-desk-theta1", "--out", str(out)])
    assert rc == 2
    assert "not allowed with" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_unknown_command():
    assert cli_entry(["explode"]) != 0


def test_cli_rejects_stride_below_one(tmp_path, capsys):
    cfg_path = tmp_path / "run.toml"
    cfg_path.write_text(f"{TINY_TOML}stride = 0\n")
    rc = cli_entry(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "stride must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_a_repeated_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "run.toml"
    cfg_path.write_text(f"{TINY_TOML}theta = 0\ntheta = 1\n")
    rc = cli_entry(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"config file {cfg_path} is not valid TOML: Cannot overwrite a value (at line 8" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_names_a_config_file_that_is_not_toml(tmp_path, capsys):
    """A file in the key = value format that TOML replaced, whose strings
    are unquoted, exits 1 with a message that names the file and the format,
    and so does a file that is not UTF-8."""
    for name, text, reason in [
        ("old.cfg", b"scenario = Cavity\nx0 = 4\n", "Invalid value (at line 1"),
        ("latin1.toml", b'label = "caf\xe9"\n', "'utf-8' codec can't decode byte 0xe9"),
    ]:
        cfg_path = tmp_path / name
        cfg_path.write_bytes(text)
        rc = cli_entry(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"config file {cfg_path} is not valid TOML: {reason}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line,message",
    [
        ("output_dir = 0", "output_dir must be a string or a path, got 0"),
        ("stride = true", "stride must be an integer, got True"),
        ("h = true", "h must be a number, got True"),
    ],
)
def test_cli_rejects_values_of_the_wrong_type(tmp_path, capsys, line, message):
    """A value that is not of its field's declared type exits 1 with a
    message.  ``line`` takes the place of the base line of its key, since a
    key may be set once only."""
    key = line.partition(" = ")[0]
    base = [base_line for base_line in TINY_TOML.splitlines() if not base_line.startswith(f"{key} = ")]
    cfg_path = tmp_path / "run.toml"
    cfg_path.write_text("".join(f"{text}\n" for text in [*base, line]))
    rc = cli_entry(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_rejects_non_finite_theta(tmp_path, capsys, value):
    """theta = nan would run and read as a layer divergence; it is a bad input."""
    cfg_path = tmp_path / "run.toml"
    cfg_path.write_text(f"{TINY_TOML}theta = {value}\n")
    rc = cli_entry(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"theta must be finite, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_converge_rejects_h_that_does_not_halve(tmp_path, capsys):
    """Rates are log2 ratios, so 0.04 -> 0.01 would report twice the true rate."""
    rc = cli_entry(["converge", "--h", "0.04,0.01", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "each h must be half the one before" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_converge_rejects_unsupported_order(tmp_path, capsys):
    rc = cli_entry(["converge", "--orders", "8", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "unsupported order 8; expected one of (2, 4, 6)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_rejects_unsupported_order(tmp_path, capsys):
    cfg_path = tmp_path / "run.toml"
    cfg_path.write_text(f"{TINY_TOML}order = 5\n")
    rc = cli_entry(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "unsupported order 5; expected one of (2, 4, 6)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_zero_dt_factor(tmp_path, capsys):
    cfg_path = tmp_path / "run.toml"
    cfg_path.write_text(f"{TINY_TOML}dt_factor = 0\n")
    rc = cli_entry(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "dt_factor must be finite and positive, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_modal_rejects_single_point_axis(tmp_path, capsys):
    for flag, name in (("--n-re", "n_re"), ("--n-im", "n_im")):
        rc = cli_entry(["modal", flag, "1", "--nk", "1", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"{name} must be at least 2, got 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_modal_inconclusive_count_exits_1(tmp_path, monkeypatch, capsys):
    """A scan whose count is inconclusive (here F2 is NaN everywhere, after
    the F1 scans at the same k and gamma have passed) exits 1 through the
    CLI's error path, naming the scan and the rectangle, chained to the
    scan's own error.  It never reports a clean "0 root(s) counted", and
    writes no report, whose F1 rows would look clean."""
    monkeypatch.setattr(scenarios_cli, "dispersion_F2", lambda s, *args: np.full(np.shape(s), np.nan, dtype=complex))
    assert cli_entry(["modal", "--nk", "1", "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert "the F2 scan at k = -10.0, gamma = 0.25, sigma = 0 failed" in err
    assert "inconclusive zero count on Re s in [1e-09, 3.0], Im s in [-20.0, 20.0]" in err
    assert "root(s) counted" not in out
    assert not (tmp_path / "out").exists()
    args = argparse.Namespace(nk=1, gammas="4", sigmas="0", n_re=100, n_im=200, out=str(tmp_path / "out"))
    with pytest.raises(ValueError, match="the F2 scan at k = -10.0, gamma = 4.0, sigma = 0 failed") as info:
        scenarios_cli._cmd_modal(args)
    assert isinstance(info.value.__cause__, InconclusiveCount)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_cli_rejects_counts_that_check_nothing(tmp_path, capsys, count):
    """``verify`` with no Monte-Carlo samples and ``modal`` with no
    wavenumbers would check nothing and pass; both exit 1 naming the flag,
    before any check runs or any file is written."""
    assert cli_entry(["verify", "--samples", count]) == 1
    out, err = capsys.readouterr()
    assert not out and f"--samples must be at least 1, got {count}" in err
    assert cli_entry(["modal", "--nk", count, "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert not out and f"--nk must be at least 1, got {count}" in err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_unknown_preset(capsys):
    rc = cli_entry(["run", "--preset", "nope"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "unknown preset 'nope'" in err and "'waveguide'" in err


def test_cli_error_reported_not_raised(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text('scenario = "Cavity"\nwidth = 3\n')
    rc = cli_entry(["run", "--config", str(bad)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "unknown config keys" in captured.err


def test_cli_verify_passes(capsys):
    rc = cli_entry(["verify", "--samples", "500"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "verify: PASS" in captured.out


@pytest.mark.parametrize("corrupt", ["q", "d"])
def test_cli_verify_names_the_failing_residual(corrupt, monkeypatch, capsys):
    """A failing operator is reported by its worst failing residual, by name
    and value: the SBP residual for a corrupted Q (built as in
    ``test_verification_report_flags_corruption``), a polynomial-accuracy
    residual when only D is corrupted and Q + Q^T = E still holds, where
    the SBP residual passes and printing it would show a passing number."""

    def corrupted(order, n, h):
        op = sbp_core.build_sbp_operator(order, n, h)
        q01 = (0, op.q_band.shape[1] // 2 + 1)  # the band's place of Q[0, 1] and D[0, 1]
        if corrupt == "q":
            q_bad = op.q_band.copy()
            q_bad[q01] += 1e-6
            return dataclasses.replace(op, q_band=q_bad, d_band=q_bad / op.p_diag[:, None])
        d_bad = op.d_band.copy()
        d_bad[q01] += 1e-6
        return dataclasses.replace(op, d_band=d_bad)

    monkeypatch.setattr(scenarios_cli, "build_sbp_operator", corrupted)
    rc = cli_entry(["verify", "--samples", "50"])
    err = capsys.readouterr().err
    assert rc == 1
    rep = sbp_core.operator_verification_report(corrupted(4, 33, 0.1))
    name, value = rep.worst_failure
    if corrupt == "q":
        assert name == "sbp_residual" and value == pytest.approx(1e-6)
    else:
        assert rep.sbp_residual <= sbp_core.SBP_TOL
        assert name.startswith("boundary_deg") and value > sbp_core.ACCURACY_TOL
        assert "sbp_residual" not in err
    assert f"FAIL: operator order 4, n 33: {name} = {value:g}" in err
    assert err.count("FAIL: operator") == 9


def test_verification_report_worst_failure():
    """The worst failure is the residual farthest over its own tolerance,
    and a NaN residual fails."""
    rep = sbp_core.VerificationReport(4, 20, 0.0, {"interior_deg1": 1e-9, "boundary_deg0": 5e-9})
    assert rep.ok and rep.worst_failure is None
    rep.sbp_residual = 5e-14
    rep.accuracy_residuals["interior_deg2"] = 1e-6
    assert rep.worst_failure == ("interior_deg2", 1e-6) and not rep.ok
    rep.accuracy_residuals["boundary_deg1"] = float("nan")
    assert rep.worst_failure[0] == "boundary_deg1"


def test_waveguide_forcing_closure_matches_definition():
    """The top-wall data of a waveguide or reference scenario is
    ``waveguide_forcing`` on the top wall's points, bit for bit."""
    for cfg in (waveguide_config(0.04, 4), reference_config(0.04, 4)):
        setup = build_scenario(cfg)
        for t in (0.0, 0.1, 0.37, 1.0, 5.0):
            got = setup.system.bc.g_top(t)
            assert np.array_equal(got, waveguide_forcing(setup.grid.x, cfg.y0)(t))
        assert np.max(setup.system.bc.g_top(0.1)) > 0.5
