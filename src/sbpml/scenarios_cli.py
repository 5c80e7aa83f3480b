"""End-to-end experiment drivers and the command-line interface.

Three scenario families are provided:

* ``Cavity``: a square domain with absorbing layers on both x-ends,
  characteristic walls, and a Gaussian electric pulse at the origin.  Run
  long enough, this setup separates the naive and stabilized layer
  discretizations: the former grows, the latter decays.
* ``Waveguide``: a rectangle with insulated top/bottom walls, a magnetic
  surface forcing on the top wall, and a layer terminating the right end
  (a quadratic damping ramp; see ``WAVEGUIDE_RAMP_POWER``).
* ``Reference``: the waveguide without a layer on a domain extended far
  enough to the right that no reflection can re-enter the region of
  interest within the simulated time; used to measure layer errors.

Configs are TOML files; every run echoes its fully resolved
configuration as TOML, which ``sbpml run --config`` reads back, so
results can be reproduced bit-for-bit.
"""

from __future__ import annotations

import argparse
import math
import numbers
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

import numpy as np

from sbpml.boundary_sat import BoundaryConfig, PenaltyParams, boundary_dissipation, penalties_admissible
from sbpml.diagnostics import (
    EnergyHistory,
    discrete_l2_norms,
    field_squares,
    interior_energy,
    modal_bt_integrand,
    modal_energy,
    phys_energy,
    assemble_semidiscrete_matrix,
)
from sbpml.grid_state import FieldState, Grid2D
from sbpml.modal_analysis import (
    ComplexParamRegion, dispersion_F1, dispersion_F2, kappa_left, kappa_lower, scan_unstable_roots, sx_identities
)
from sbpml.pml_models import (
    MODEL_KINDS,
    ModelSpec,
    SemiDiscrete,
    damping_coefficient,
    evaluate_rhs,
    make_damping_profile,
)
from sbpml.sbp_core import SUPPORTED_ORDERS, build_sbp_operator, operator_verification_report

SCENARIOS = ("Cavity", "Waveguide", "Reference")
PENALTY_PRESETS = ("estimate_matching", "universal")

# Power of the waveguide's damping ramp d0 * r^p; the cavity keeps the
# cubic.  With the waveguide's tolerance tol = (1e-4 h)^2 a cubic ramp
# peaks at sigma_max * h = 2.6 for h = 0.02: the wave is cut off within
# the last few cells, and the terminating wall's closure turns that
# grid-scale decay into a sawtooth (x-wavenumber near pi/h) that the layer
# hardly absorbs on its way back.  At the same designed reflection a
# quadratic ramp peaks at 3/4 of the cubic's and sends back about a third
# of that sawtooth.  p = 2 was chosen after comparing p = 0 to 4 on the
# waveguide error table; see CHANGES.md for the measurements.
WAVEGUIDE_RAMP_POWER = 2


@dataclass
class ScenarioConfig:
    """Fully resolved description of one run."""

    scenario: str = "Cavity"
    x0: float = 50.0
    y0: float = 50.0
    delta: float = 10.0
    h: float = 1.0
    dt_factor: float = 0.4
    t_final: float = 5000.0
    order: int = 4
    model_kind: str = "ModalUnsplit"
    theta: float = 1.0
    penalties: str = "estimate_matching"
    tol: float = 1e-4
    d0: Optional[float] = None
    output_dir: str = "out"
    stride: int = 10
    label: str = ""

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        if self.penalties not in PENALTY_PRESETS:
            raise ValueError(
                f"unknown penalty preset {self.penalties!r}; expected one of {PENALTY_PRESETS}"
            )
        for name in ("order", "stride"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.order not in SUPPORTED_ORDERS:
            raise ValueError(f"unsupported order {self.order}; expected one of {SUPPORTED_ORDERS}")
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}; expected one of {MODEL_KINDS}")
        for name in ("x0", "y0", "delta", "h", "dt_factor", "t_final", "theta", "tol", "d0"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, numbers.Real) or v is None and name == "d0"):
                raise ValueError(f"{name} must be a number, got {v!r}")
        for name in ("x0", "y0", "delta", "h", "dt_factor", "t_final"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if not 0 < self.tol < 1:
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")
        if self.d0 is not None and not (math.isfinite(self.d0) and self.d0 >= 0):
            raise ValueError(f"d0 must be finite and nonnegative, got {self.d0}")
        if self.stride < 1:
            raise ValueError(f"stride must be at least 1, got {self.stride}")
        for name, kinds, what in (("label", str, "a string"), ("output_dir", (str, os.PathLike), "a string or a path")):
            v = getattr(self, name)
            if not isinstance(v, kinds):
                raise ValueError(f"{name} must be {what}, got {v!r}")
            # The config echo is UTF-8 text, which cannot carry a surrogate code point.
            if any("\ud800" <= c <= "\udfff" for c in str(v)):
                raise ValueError(f"{name} must encode as UTF-8, got {v!r}")
            if "\x00" in str(v):
                raise ValueError(f"{name} must hold no NUL character, got {v!r}")
        # The label is part of each output's file name, which must stay in output_dir.
        if any(sep in self.label for sep in (os.sep, os.altsep) if sep):
            raise ValueError(f"label must hold no path separator, got {self.label!r}")
        # Layer edges must sit on grid points.
        for name in ("x0", "delta"):
            v = getattr(self, name)
            if abs(v / self.h - round(v / self.h)) > 1e-9:
                raise ValueError(f"{name} = {v} is not an integer multiple of h = {self.h}")

    @property
    def run_label(self) -> str:
        if self.label:
            return self.label
        return f"{self.scenario.lower()}_{self.model_kind.lower()}_o{self.order}_h{self.h:g}"


@dataclass
class RunArtifacts:
    """Paths to the outputs of one run, plus the in-memory final state."""

    history_csv: str
    snapshot_path: str
    config_echo_path: str
    diverged: bool
    final_state: FieldState
    history: EnergyHistory
    grid: Grid2D


def cavity_initial_state(grid: Grid2D, model: str = "Interior") -> FieldState:
    """Gaussian electric pulse exp(-(x^2+y^2)/9); all other fields zero."""
    state = FieldState.zeros(grid, model=model)
    xx = grid.x[:, None]
    yy = grid.y[None, :]
    state.ez[:] = np.exp(-(xx**2 + yy**2) / 9.0)
    return state


def waveguide_forcing(x, y):
    """Top-wall magnetic forcing at the points (x, y), a time Gaussian localized
    around (1, 1), as a callable of t; its spatial factor is built once."""
    bump = np.exp(-((x - 1.0) ** 2 + (y - 1.0) ** 2) / 0.01)
    return lambda t: np.exp(-(np.pi**2) * (10.0 * t - 1.0) ** 2) * bump


@dataclass
class ScenarioSetup:
    grid: Grid2D
    system: SemiDiscrete
    state0: FieldState
    dt: float
    n_steps: int

    prof = property(lambda self: self.system.prof)


def _grid_points(length: float, h: float) -> int:
    n = length / h
    if abs(n - round(n)) > 1e-9:
        raise ValueError(f"domain length {length} is not an integer multiple of h = {h}")
    return int(round(n)) + 1


def build_scenario(cfg: ScenarioConfig) -> ScenarioSetup:
    """Resolve a config into its grid, its semi-discrete system, and the initial state."""
    if cfg.scenario == "Cavity":
        half = cfg.x0 + cfg.delta
        grid = Grid2D(-half, half, -cfg.y0, cfg.y0, _grid_points(2 * half, cfg.h), _grid_points(2 * cfg.y0, cfg.h))
        bc, power, initial_state = BoundaryConfig(r_x=0.0, r_y=0.0), 3, cavity_initial_state
    else:
        # The reference is the waveguide without its layer, ending at x0.
        x_right = cfg.x0 + cfg.delta if cfg.scenario == "Waveguide" else cfg.x0
        grid = Grid2D(
            -2.0, x_right, -cfg.y0, cfg.y0, _grid_points(x_right + 2.0, cfg.h), _grid_points(2 * cfg.y0, cfg.h)
        )
        bc = BoundaryConfig(r_x=0.0, r_y=1.0, g_top=waveguide_forcing(grid.x, cfg.y0))
        power, initial_state = WAVEGUIDE_RAMP_POWER, FieldState.zeros

    d0 = 0.0 if cfg.scenario == "Reference" else cfg.d0
    if d0 is None:
        d0 = damping_coefficient(cfg.delta, cfg.tol, power)
    prof = make_damping_profile(grid, cfg.x0, cfg.delta, d0, power)
    if cfg.penalties == "universal":
        penalties = PenaltyParams.universal()
    else:
        penalties = PenaltyParams.estimate_matching(bc.r_x, bc.r_y)
    dt = cfg.dt_factor * cfg.h
    n_steps = max(1, math.ceil(cfg.t_final / dt - 1e-12))
    system = SemiDiscrete(ModelSpec(cfg.model_kind, cfg.theta), prof, bc, penalties, grid.operators(cfg.order))
    return ScenarioSetup(grid, system, initial_state(grid, system.model), cfg.t_final / n_steps, n_steps)


def write_snapshot(path: str, grid: Grid2D, values: np.ndarray):
    """Plain-text dump: header 'nx ny hx hy', then row-major values."""
    with open(path, "w") as f:
        f.write(f"{grid.nx} {grid.ny} {grid.hx:.17g} {grid.hy:.17g}\n")
        for v in np.asarray(values).reshape(-1):
            f.write(f"{v:.17g}\n")


# The keys the config echo writes after the config's fields: what the run
# resolved and how it ended.  ``config_from_file`` skips them, so an echo
# reads back as the config of its run.
ECHO_RESULT_KEYS = ("resolved_dt", "resolved_n_steps", "resolved_nx", "resolved_ny", "resolved_d0",
                    "penalties_admissible", "diverged", "last_completed_step")


def _echo_config(path: str, cfg: ScenarioConfig, setup: ScenarioSetup, diverged: bool, last_step: int):
    import json

    results = (setup.dt, setup.n_steps, setup.grid.nx, setup.grid.ny, setup.prof.d0,
               penalties_admissible(setup.system.bc, setup.system.penalties), diverged, last_step)
    with open(path, "w", encoding="utf-8") as f:
        for k, v in [*asdict(cfg).items(), *zip(ECHO_RESULT_KEYS, results)]:
            if v is not None:  # TOML has no null; a None d0 is the field's default.
                v = v.item() if isinstance(v, np.generic) else str(v) if isinstance(v, os.PathLike) else v
                # JSON's strings, numbers and booleans are TOML's, but TOML takes no raw DEL in a string.
                text = json.dumps(v, ensure_ascii=False).replace("\x7f", r"\u007f")
                f.write(f"{k} = {text}\n")


def config_from_file(path: str) -> ScenarioConfig:
    """The config of a TOML file, such as a run's config echo, whose
    ``ECHO_RESULT_KEYS`` are skipped; any other key must be a field."""
    import tomllib

    try:
        with open(path, "rb") as f:
            table = {k: v for k, v in tomllib.load(f).items() if k not in ECHO_RESULT_KEYS}
    except ValueError as err:  # a TOMLDecodeError, or text that is not UTF-8
        raise ValueError(f"config file {path} is not valid TOML: {err}") from err
    unknown = set(table) - {field.name for field in fields(ScenarioConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ScenarioConfig(**table)


def rk4_step(rhs, u: np.ndarray, t: float, dt: float, k1: np.ndarray, q1: float, work) -> float:
    """Advance the array ``u`` in place by one classical four-stage Runge-Kutta step.

    ``rhs(v, s, out)`` writes dv/dt at time s into ``out`` and returns the
    integrand q of a scalar integrated beside the state (the boundary
    integral of the energies; 0.0 if there is none).  ``k1`` must hold
    rhs(u, t) and ``q1`` its integrand: ``march``, the one caller, has
    them from the end of the previous step.  ``work`` is two arrays
    ``(k, v)`` shaped like ``u``, overwritten: the rate of stages 2-4 in
    turn and the stage state.  ``k1`` is consumed: it sums the rates and
    comes back holding the increment dt/6 (k1 + 2 k2 + 2 k3 + k4).  Returns
    the scalar's increment dt/6 (q1 + 2 q2 + 2 q3 + q4), the same weights
    as the fields'.  Exactly linear in u when rhs is linear.
    """
    k, v = work
    np.multiply(k1, 0.5 * dt, v)
    v += u
    q2 = rhs(v, t + 0.5 * dt, k)
    # u += dt/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right in k1.
    np.multiply(k, 0.5 * dt, v)
    v += u
    k *= 2.0
    k1 += k
    q3 = rhs(v, t + 0.5 * dt, k)
    np.multiply(k, dt, v)
    v += u
    k *= 2.0
    k1 += k
    q4 = rhs(v, t + dt, k)
    k1 += k
    k1 *= dt / 6.0
    u += k1
    return (dt / 6.0) * (q1 + 2.0 * q2 + 2.0 * q3 + q4)


def march(system: SemiDiscrete, u: FieldState, dt: float, n_steps: int):
    """Advance ``u`` in place by ``n_steps`` RK4 steps of ``dt`` from t = 0.

    Yields ``(k, du, bt)`` at k = 0 and after every step.  ``du`` is the
    derivative at t = k dt, which is also the next step's first stage, so
    it must not be changed.  ``bt`` is the RK4-weighted time integral up
    to k dt of the boundary integrand that the energies take:
    ``modal_bt_integrand`` for ModalUnsplit, ``boundary_dissipation``
    otherwise.  The RHS is evaluated 4 times a step plus once at t = 0.
    """
    walls, model = system.walls, u.model
    modal = system.spec.kind == "ModalUnsplit"

    def rhs(v, t, out):
        state, d, ez = states[id(v), id(out)]
        evaluate_rhs(system, state, t, d)
        return modal_bt_integrand(ez, walls) if modal else boundary_dissipation(state, walls)

    du, rate, stage = (FieldState(model, np.empty_like(u.data)) for _ in range(3))
    # rk4_step feeds rhs only the pairs u -> du and v -> k, so each pair is wrapped once, with
    # the output's Ez view, and each output, always fed one state, keeps its RHS plan: two a run.
    states = {(id(s.data), id(d.data)): (s, d, d.ez) for s, d in ((u, du), (stage, rate))}
    q, bt = rhs(u.data, 0.0, du.data), 0.0
    yield 0, du, bt
    for k in range(n_steps):
        bt += rk4_step(rhs, u.data, k * dt, dt, du.data, q, (rate.data, stage.data))
        q = rhs(u.data, (k + 1) * dt, du.data)
        yield k + 1, du, bt


def run_scenario(cfg: ScenarioConfig) -> RunArtifacts:
    """Advance the configured scenario with ``march``, sampling norms and energy.

    A non-finite sampled record (a norm or the energy), the t = 0 record
    included, stops the time loop and is not kept; the history written so
    far is kept and the divergence is recorded in the config echo (a
    divergence is a result, not an error).
    """
    setup = build_scenario(cfg)
    grid, system, u, n_steps = setup.grid, setup.system, setup.state0, setup.n_steps
    ops, modal = system.ops, system.spec.kind == "ModalUnsplit"
    fields_energy = phys_energy if system.spec.kind == "PhysicallyMotivated" else interior_energy
    os.makedirs(cfg.output_dir, exist_ok=True)
    label = cfg.run_label
    history = EnergyHistory()
    last_step, diverged = 0, False
    # A diverging run overflows to inf/nan by design; that outcome is
    # detected and recorded rather than warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, du, bt in march(system, u, setup.dt, n_steps):
            if k % cfg.stride and k < n_steps:
                continue
            squares = field_squares(u, ops)
            rec = discrete_l2_norms(squares)
            rec["energy"] = modal_energy(u, du.ez, system, bt) if modal else fields_energy(squares, bt)
            last_step, diverged = k, not all(map(math.isfinite, rec.values()))
            if diverged:
                break
            history.append(k * setup.dt, rec)

    history_csv = os.path.join(cfg.output_dir, f"{label}_history.csv")
    history.to_csv(history_csv)
    snapshot_path = os.path.join(cfg.output_dir, f"{label}_final.txt")
    write_snapshot(snapshot_path, grid, np.full((grid.nx, grid.ny), np.nan) if diverged else u.ez_total)
    echo_path = os.path.join(cfg.output_dir, f"{label}_config.txt")
    _echo_config(echo_path, cfg, setup, diverged, last_step)
    return RunArtifacts(history_csv, snapshot_path, echo_path, diverged, u, history, grid)


# The named presets, as the ScenarioConfig fields they set; the defaults
# are the full-size cavity.  The waveguide's tol is (1e-4 h)^2, set by
# ``preset_config`` from the resolved h.
_DESK = dict(x0=25.0, y0=25.0, delta=5.0, t_final=2000.0)
PRESETS = {
    "cavity-theta0": dict(theta=0.0, label="cavity_theta0"),
    "cavity-theta1": dict(theta=1.0, label="cavity_theta1"),
    "cavity-desk-theta0": dict(_DESK, theta=0.0, label="cavity_desk_theta0"),
    "cavity-desk-theta1": dict(_DESK, theta=1.0, label="cavity_desk_theta1"),
    "cavity-interior": dict(_DESK, model_kind="Interior", d0=0.0, label="cavity_interior"),
    # x in [-2, 2.4], y in [-1, 1], layer width 0.4, t = 5.
    "waveguide": dict(scenario="Waveguide", x0=2.0, y0=1.0, delta=0.4, h=0.04, t_final=5.0),
    # Layer-free on x in [-2, 8]: reflections from the far wall cannot
    # reach x <= 2 again within t = 5 at unit wave speed.
    "reference": dict(
        scenario="Reference", x0=8.0, y0=1.0, delta=0.4, h=0.04, t_final=5.0, model_kind="Interior", theta=0.0
    ),
}


def preset_config(name: str, **kw) -> ScenarioConfig:
    """The named preset; keyword arguments replace preset values or set further fields."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    cfg = ScenarioConfig(**{**PRESETS[name], **kw})
    if name == "waveguide" and "tol" not in kw:
        cfg = replace(cfg, tol=(1e-4 * cfg.h) ** 2)
    return cfg


def waveguide_config(h: float, order: int, **kw) -> ScenarioConfig:
    """The waveguide preset at spacing h; keyword arguments replace preset values."""
    return preset_config("waveguide", h=h, order=order, **kw)


def reference_config(h: float, order: int, **kw) -> ScenarioConfig:
    """The layer-free reference preset at spacing h; keyword arguments replace preset values."""
    return preset_config("reference", h=h, order=order, **kw)


def cavity_config(desk: bool = False, **kw) -> ScenarioConfig:
    """The full-size cavity (desk-size with ``desk``), with no label; keyword arguments replace preset values."""
    kw.setdefault("label", "")
    return preset_config("cavity-desk-theta1" if desk else "cavity-theta1", **kw)


def study_processes(n_cells: int) -> int:
    """Processes for ``n_cells`` independent runs: one per usable CPU, at most one per cell."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, n_cells))


def _layer_error(cfg: ScenarioConfig, ref_cfg: ScenarioConfig) -> float:
    """One cell of the error study: the max-norm Ez difference over x <= x0
    between the layer run ``cfg`` and its reference ``ref_cfg``, at the final time."""
    pml, ref = run_scenario(cfg), run_scenario(ref_cfg)
    # Both grids start at x = -2 with spacing h; half a cell absorbs rounding.
    edge = cfg.x0 + 0.5 * cfg.h
    ez_p = pml.final_state.ez_total[pml.grid.x <= edge]
    ez_r = ref.final_state.ez_total[ref.grid.x <= edge]
    return float(np.max(np.abs(ez_p - ez_r)))


def waveguide_error_study(h_list, order_list, output_dir: str = "out"):
    """Layer error against the enlarged reference, per resolution and order.

    Error is the max-norm of the electric-field difference over the region
    x <= x0 at the final time.  Rates are log2 ratios between successive
    resolutions, so each h must be half the one before.  Returns rows of
    (order, h, error, rate) with rate = nan for the first h of each order.

    The (order, h) cells share nothing, so they run in ``study_processes``
    worker processes, finest h first; with one usable CPU they run here,
    one after another.  Every cell's ``ScenarioConfig`` fields are checked
    before any run starts; a config that passes them can still fail when
    its cell builds it (order 6 at h = 0.2 gives ny = 11, under the 12
    points order 6 needs), and that error is raised from its cell.
    """
    for coarse, fine in zip(h_list, h_list[1:]):
        if abs(coarse / fine - 2.0) > 1e-9:
            raise ValueError(f"each h must be half the one before (rates are log2 ratios), got {list(h_list)}")
    if len(set(order_list)) != len(order_list):
        # Two cells of one (order, h) would write the same output files.
        raise ValueError(f"each order may appear once, got {list(order_list)}")
    # The finest cells take the longest, so they start first.
    cells = sorted(((order, h) for order in order_list for h in h_list), key=lambda cell: cell[1])
    layer = [waveguide_config(h, order, output_dir=output_dir) for order, h in cells]
    reference = [reference_config(h, order, output_dir=output_dir) for order, h in cells]
    n_proc = study_processes(len(cells))
    if n_proc == 1:
        errors = list(map(_layer_error, layer, reference))
    else:
        # Imported here: concurrent.futures.process alone adds 30-40 ms
        # to the import that every run pays.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # spawn: a forked child would inherit the parent's threads' locks.
        try:
            with ProcessPoolExecutor(n_proc, mp_context=multiprocessing.get_context("spawn")) as pool:
                errors = list(pool.map(_layer_error, layer, reference))
        except BrokenProcessPool as err:
            raise RuntimeError(
                "a worker of the error study died before returning its cell. Each worker imports the "
                "calling script as its main module, so a script that calls waveguide_error_study must "
                'keep its entry code under `if __name__ == "__main__":`'
            ) from err
    error = dict(zip(cells, errors))
    rows = []
    for order in order_list:
        prev_err = None
        for h in h_list:
            err = error[order, h]
            rate = float("nan") if prev_err is None else math.log2(prev_err / err)
            rows.append((order, h, err, rate))
            prev_err = err
    return rows


# ---------------------------------------------------------------------------
# CLI


def _cmd_run(args) -> int:
    cfg = config_from_file(args.config) if args.preset is None else preset_config(args.preset)
    if args.out:
        cfg = replace(cfg, output_dir=args.out)
    art = run_scenario(cfg)
    print(f"history: {art.history_csv}")
    print(f"snapshot: {art.snapshot_path}")
    print(f"config echo: {art.config_echo_path}")
    if art.diverged:
        print("note: the solution left the finite range before t_final (recorded in the echo)")
    return 0


def _cmd_verify(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    failures = []
    # SBP operator checks.
    for order in (2, 4, 6):
        for n in (16, 33, 64):
            worst = operator_verification_report(build_sbp_operator(order, n, 0.1)).worst_failure
            if worst is not None:
                failures.append(f"operator order {order}, n {n}: {worst[0]} = {worst[1]:g}")
    print("operators: checked orders 2/4/6 at n in {16, 33, 64}")

    # Sign lemmas, Monte-Carlo.
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(args.samples):
        s = complex(rng.uniform(1e-6, 5.0), rng.uniform(-20, 20))
        k = rng.uniform(-10, 10)
        sig = rng.uniform(0, 5)
        if kappa_lower(s, k, sig).real <= 0 or kappa_left(s, k, sig).real <= 0:
            failures.append(f"sign lemma violated at s={s}, k={k}, sigma={sig}")
            break
        ident = sx_identities(s, sig)
        for key in ident["direct"]:
            worst = max(worst, abs(ident["direct"][key] - ident["closed"][key]))
    print(f"sign lemmas: {args.samples} samples, worst identity residual {worst:.3g}")
    if worst > 1e-12:
        failures.append(f"metric identity residual {worst:g} exceeds 1e-12")

    # Small-grid spectra.
    grid = Grid2D(-60.0, 60.0, -50.0, 50.0, 11, 11)
    ops = grid.operators(4)
    prof = make_damping_profile(grid, 50.0, 10.0, damping_coefficient(10.0, 1e-4))
    bc = BoundaryConfig(r_x=0.0, r_y=0.0)
    for label, spec, pen in (
        ("stabilized modal", ModelSpec("ModalUnsplit", theta=1.0), PenaltyParams.estimate_matching(0, 0)),
        ("physically motivated", ModelSpec("PhysicallyMotivated"), PenaltyParams.universal()),
    ):
        a = assemble_semidiscrete_matrix(spec, grid, prof, bc, pen, ops)
        lam = np.linalg.eigvals(a)
        mx = float(np.max(lam.real))
        print(f"spectrum ({label}): max Re lambda = {mx:.3e}")
        if mx > 1e-8:
            failures.append(f"{label}: max Re lambda = {mx:g} > 1e-8")

    for f in failures:
        print("FAIL:", f, file=sys.stderr)
    print("verify:", "PASS" if not failures else f"{len(failures)} failure(s)")
    return 0 if not failures else 1


def _cmd_converge(args) -> int:
    orders = [int(v) for v in args.orders.split(",")]
    hs = [float(v) for v in args.h.split(",")]
    t0 = time.perf_counter()
    rows = waveguide_error_study(hs, orders, output_dir=args.out)
    wall, n_proc = time.perf_counter() - t0, study_processes(len(rows))
    print(f"error study: {len(rows)} cells on {n_proc} process{'es' if n_proc > 1 else ''}, {wall:.1f} s")
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "error_table.csv")
    np.savetxt(path, rows, fmt="%d,%.17g,%.17g,%.17g", header="order,h,error,rate", comments="")
    for order, h, err, rate in rows:
        print(f"order {order}, h {h:g}: error {err:.3e}, rate {rate:.2f}")
    print(f"error table: {path}")
    return 0


def _cmd_modal(args) -> int:
    if args.nk < 1:
        raise ValueError(f"--nk must be at least 1, got {args.nk}")
    gammas = [float(v) for v in args.gammas.split(",")]
    sigmas = [float(v) for v in args.sigmas.split(",")]
    ks = np.linspace(-10.0, 10.0, args.nk)
    region = ComplexParamRegion(n_re=args.n_re, n_im=args.n_im)
    rows, total = ["relation,k,gamma,sigma,n_roots,roots\n"], 0
    for k in ks:
        for g in gammas:
            f1 = [("F1", sig, lambda s, sig=sig: dispersion_F1(s, k, sig, g)) for sig in sigmas]
            for relation, sig, fn in [*f1, ("F2", 0, lambda s: dispersion_F2(s, k, g))]:
                try:
                    roots = scan_unstable_roots(fn, region)
                except ValueError as err:
                    raise ValueError(f"the {relation} scan at k = {k}, gamma = {g}, sigma = {sig} failed: {err}") from err
                total += len(roots)
                rows.append(f"{relation},{k:.17g},{g:.17g},{sig:.17g},{len(roots)},\"{roots}\"\n")
    # Written once every scan has returned, so a failed scan leaves no report.
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "dispersion_scan.csv")
    with open(path, "w") as f:
        f.writelines(rows)
    print(f"scanned {len(ks)} wavenumbers x {len(gammas)} gammas; {total} root(s) counted")
    print(f"report: {path}")
    return 0 if total == 0 else 1


def cli_entry(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sbpml",
        description="SBP-SAT Maxwell TMz solver with stabilized absorbing layers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a config file or preset")
    source = p_run.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a TOML config file")
    source.add_argument("--preset", help="built-in scenario preset name")
    p_run.add_argument("--out", help="output directory override")
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify", help="operator, lemma and spectrum checks")
    p_ver.add_argument("--samples", type=int, default=10000, help="Monte-Carlo sample count")
    p_ver.set_defaults(func=_cmd_verify)

    p_con = sub.add_parser("converge", help="waveguide layer-error study")
    p_con.add_argument("--orders", default="4,6", help="comma-separated SBP orders")
    p_con.add_argument("--h", default="0.04,0.02", help="comma-separated grid spacings")
    p_con.add_argument("--out", default="out", help="output directory")
    p_con.set_defaults(func=_cmd_converge)

    p_mod = sub.add_parser("modal", help="dispersion-relation root scans")
    p_mod.add_argument("--gammas", default="0.25,1,4", help="comma-separated wall parameters")
    p_mod.add_argument("--sigmas", default="0,1", help="comma-separated damping values")
    p_mod.add_argument("--nk", type=int, default=11, help="number of wavenumber samples")
    p_mod.add_argument("--n-re", type=int, default=100, dest="n_re", help="first boundary sampling per horizontal edge")
    p_mod.add_argument("--n-im", type=int, default=200, dest="n_im", help="first boundary sampling per vertical edge")
    p_mod.add_argument("--out", default="out", help="output directory")
    p_mod.set_defaults(func=_cmd_modal)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_entry())


if __name__ == "__main__":
    main()
