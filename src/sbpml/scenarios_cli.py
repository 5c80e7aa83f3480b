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

Configs are plain key=value text files; every run echoes its fully
resolved configuration so results can be reproduced bit-for-bit.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, asdict
from typing import Optional, get_type_hints

import numpy as np

from sbpml.boundary_sat import BoundaryConfig, PenaltyParams, boundary_dissipation, penalties_admissible
from sbpml.diagnostics import (
    EnergyHistory,
    discrete_l2_norms,
    interior_energy,
    modal_bt_integrand,
    modal_energy,
    phys_energy,
    assemble_semidiscrete_matrix,
)
from sbpml.grid_state import FieldState, Grid2D, OperatorPair
from sbpml.modal_analysis import ComplexParamRegion, dispersion_F1, dispersion_F2, scan_unstable_roots
from sbpml.pml_models import (
    STATE_MODEL,
    DampingProfile,
    ModelSpec,
    damping_coefficient,
    evaluate_rhs,
    make_damping_profile,
)
from sbpml.sbp_core import build_sbp_operator, operator_verification_report
from sbpml.time_integration import rk4_step

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
    tol: Optional[float] = 1e-4
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
        for name in ("x0", "y0", "delta", "h", "dt_factor", "t_final"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v}")
        if self.d0 is not None and not (math.isfinite(self.d0) and self.d0 >= 0):
            raise ValueError(f"d0 must be finite and nonnegative, got {self.d0}")
        if self.stride < 1:
            raise ValueError(f"stride must be at least 1, got {self.stride}")
        if self.scenario != "Reference" and self.tol is None and self.d0 is None:
            raise ValueError("tol = none needs an explicit d0: give tol in (0, 1) or d0")
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


def waveguide_forcing(x, y, t: float):
    """Top-wall magnetic forcing: a time Gaussian localized around (1, 1)."""
    f0 = 10.0
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.exp(-(np.pi**2) * (f0 * t - 1.0) ** 2) * np.exp(
        -((x - 1.0) ** 2 + (y - 1.0) ** 2) / 0.01
    )


@dataclass
class ScenarioSetup:
    grid: Grid2D
    ops: OperatorPair
    prof: DampingProfile
    bc: BoundaryConfig
    penalties: PenaltyParams
    spec: ModelSpec
    state0: FieldState
    dt: float
    n_steps: int


def _grid_points(length: float, h: float) -> int:
    n = length / h
    if abs(n - round(n)) > 1e-9:
        raise ValueError(f"domain length {length} is not an integer multiple of h = {h}")
    return int(round(n)) + 1


def build_scenario(cfg: ScenarioConfig) -> ScenarioSetup:
    """Resolve a config into grid, operators, profile, walls, and initial state."""
    spec = ModelSpec(kind=cfg.model_kind, theta=cfg.theta)
    model = STATE_MODEL[cfg.model_kind]

    if cfg.scenario == "Cavity":
        half = cfg.x0 + cfg.delta
        grid = Grid2D(-half, half, -cfg.y0, cfg.y0, _grid_points(2 * half, cfg.h), _grid_points(2 * cfg.y0, cfg.h))
        bc = BoundaryConfig(r_x=0.0, r_y=0.0)
        d0 = cfg.d0 if cfg.d0 is not None else damping_coefficient(cfg.delta, cfg.tol)
        prof = make_damping_profile(grid, cfg.x0, cfg.delta, d0)
        state0 = cavity_initial_state(grid, model)
    else:
        y0 = cfg.y0
        x_right = cfg.x0 + cfg.delta if cfg.scenario == "Waveguide" else cfg.x0
        grid = Grid2D(
            -2.0, x_right, -y0, y0, _grid_points(x_right + 2.0, cfg.h), _grid_points(2 * y0, cfg.h)
        )
        top = lambda x, t: waveguide_forcing(x, y0, t)
        bc = BoundaryConfig(r_x=0.0, r_y=1.0, g_top=top)
        if cfg.scenario == "Waveguide":
            p = WAVEGUIDE_RAMP_POWER
            d0 = cfg.d0 if cfg.d0 is not None else damping_coefficient(cfg.delta, cfg.tol, p)
            prof = make_damping_profile(grid, cfg.x0, cfg.delta, d0, p)
        else:
            prof = make_damping_profile(grid, x_right, cfg.delta, 0.0)
        state0 = FieldState.zeros(grid, model=model)

    if cfg.penalties == "universal":
        penalties = PenaltyParams.universal()
    else:
        penalties = PenaltyParams.estimate_matching(bc.r_x, bc.r_y)
    dt = cfg.dt_factor * cfg.h
    n_steps = max(1, math.ceil(cfg.t_final / dt - 1e-12))
    ops = grid.operators(cfg.order)
    return ScenarioSetup(grid, ops, prof, bc, penalties, spec, state0, cfg.t_final / n_steps, n_steps)


def _energy_functions(setup: ScenarioSetup):
    """Per-model (integrand, energy) callables for the history's energy column.

    Both take a state and its time derivative; the energy also takes the
    accumulated time integral of the integrand.
    """
    spec, ops, prof = setup.spec, setup.ops, setup.prof
    bc, penalties, grid = setup.bc, setup.penalties, setup.grid

    if spec.kind == "ModalUnsplit":
        def integrand(u, rhs):
            return modal_bt_integrand(rhs.ez, ops)

        def energy(u, rhs, bt):
            return modal_energy(u, rhs.ez, prof, grid, ops, spec.theta, bt)

        return integrand, energy

    def integrand(u, rhs):
        return boundary_dissipation(u, bc, penalties, grid, ops)

    if spec.kind == "PhysicallyMotivated":
        def energy(u, rhs, bt):
            return phys_energy(u, ops, bt)

    else:
        def energy(u, rhs, bt):
            return interior_energy(u, ops, bt)

    return integrand, energy


def write_snapshot(path: str, grid: Grid2D, values: np.ndarray):
    """Plain-text dump: header 'nx ny hx hy', then row-major values."""
    with open(path, "w") as f:
        f.write(f"{grid.nx} {grid.ny} {grid.hx:.17g} {grid.hy:.17g}\n")
        for v in np.asarray(values).reshape(-1):
            f.write(f"{v:.17g}\n")


def read_snapshot(path: str):
    with open(path) as f:
        nx, ny, hx, hy = f.readline().split()
        values = np.array([float(line) for line in f])
    return values.reshape(int(nx), int(ny)), float(hx), float(hy)


def _echo_config(path: str, cfg: ScenarioConfig, setup: ScenarioSetup, diverged: bool, last_step: int):
    with open(path, "w") as f:
        for k, v in asdict(cfg).items():
            f.write(f"{k} = {v}\n")
        f.write(f"resolved_dt = {setup.dt:.17g}\n")
        f.write(f"resolved_n_steps = {setup.n_steps}\n")
        f.write(f"resolved_nx = {setup.grid.nx}\n")
        f.write(f"resolved_ny = {setup.grid.ny}\n")
        f.write(f"resolved_d0 = {setup.prof.d0:.17g}\n")
        f.write(f"penalties_admissible = {penalties_admissible(setup.bc, setup.penalties)}\n")
        f.write(f"diverged = {diverged}\n")
        f.write(f"last_completed_step = {last_step}\n")


def run_scenario(cfg: ScenarioConfig) -> RunArtifacts:
    """Advance the configured scenario with RK4, in place, sampling norms and energy.

    A non-finite sampled record (a norm or the energy) stops the time loop
    and is not kept; the history written so far is kept and the divergence
    is recorded in the config echo (a divergence is a result, not an
    error).
    """
    setup = build_scenario(cfg)
    grid, ops, prof = setup.grid, setup.ops, setup.prof
    bc, penalties, spec = setup.bc, setup.penalties, setup.spec
    integrand, energy = _energy_functions(setup)
    u = setup.state0
    model = u.model

    def rhs(v, t, out):
        state, d = FieldState(model, v), FieldState(model, out)
        evaluate_rhs(spec, state, prof, bc, penalties, ops, grid, t, d)
        return integrand(state, d)

    os.makedirs(cfg.output_dir, exist_ok=True)
    label = cfg.run_label
    history = EnergyHistory()

    def record(u, du, bt):
        rec = discrete_l2_norms(u, ops)
        rec["energy"] = energy(u, du, bt)
        return rec

    dt, n_steps = setup.dt, setup.n_steps
    # du holds the derivative at the current state: it is both what a
    # sample needs and the next step's first stage.
    du = FieldState(model, np.empty_like(u.data))
    work = [np.empty_like(u.data) for _ in range(4)]
    q = rhs(u.data, 0.0, du.data)
    bt = 0.0  # the time integral of q, which enters the energies
    history.append(0.0, record(u, du, bt))
    diverged = False
    last_step = 0
    # A diverging run overflows to inf/nan by design; that outcome is
    # detected and recorded rather than warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            bt += rk4_step(rhs, u.data, k * dt, dt, du.data, q, work)
            last_step = k + 1
            q = rhs(u.data, last_step * dt, du.data)
            if last_step % cfg.stride == 0 or last_step == n_steps:
                rec = record(u, du, bt)
                if not all(map(math.isfinite, rec.values())):
                    diverged = True
                    break
                history.append(last_step * dt, rec)

    history_csv = os.path.join(cfg.output_dir, f"{label}_history.csv")
    history.to_csv(history_csv)
    snapshot_path = os.path.join(cfg.output_dir, f"{label}_final.txt")
    write_snapshot(snapshot_path, grid, np.full((grid.nx, grid.ny), np.nan) if diverged else u.ez_total)
    echo_path = os.path.join(cfg.output_dir, f"{label}_config.txt")
    _echo_config(echo_path, cfg, setup, diverged, last_step)
    return RunArtifacts(
        history_csv=history_csv,
        snapshot_path=snapshot_path,
        config_echo_path=echo_path,
        diverged=diverged,
        final_state=u,
        history=history,
        grid=grid,
    )


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
    fields = {**PRESETS[name], **kw}
    if name == "waveguide" and "tol" not in kw:
        fields["tol"] = (1e-4 * fields["h"]) ** 2
    return ScenarioConfig(**fields)


def waveguide_config(h: float, order: int, theta: float = 1.0, **kw) -> ScenarioConfig:
    """The waveguide preset at spacing h; keyword arguments replace preset values."""
    return preset_config("waveguide", h=h, order=order, theta=theta, **kw)


def reference_config(h: float, order: int, **kw) -> ScenarioConfig:
    """The layer-free reference preset at spacing h; keyword arguments replace preset values."""
    return preset_config("reference", h=h, order=order, **kw)


def cavity_config(h: float = 1.0, order: int = 4, theta: float = 1.0, desk: bool = False, **kw) -> ScenarioConfig:
    """The full-size cavity (desk-size with ``desk``), with no label; keyword arguments replace preset values."""
    kw.setdefault("label", "")
    return preset_config("cavity-desk-theta1" if desk else "cavity-theta1", h=h, order=order, theta=theta, **kw)


def waveguide_error_study(h_list, order_list, output_dir: str = "out", theta: float = 1.0):
    """Layer error against the enlarged reference, per resolution and order.

    Error is the max-norm of the electric-field difference over the region
    x <= x0 at the final time.  Rates are log2 ratios between successive
    resolutions (expects h halving).  Returns rows of
    (order, h, error, rate) with rate = nan for the first h of each order.
    """
    rows = []
    for order in order_list:
        prev_err = None
        for h in h_list:
            cfg = waveguide_config(h, order, theta=theta, output_dir=output_dir)
            pml = run_scenario(cfg)
            ref = run_scenario(reference_config(h, order, output_dir=output_dir))
            # Both grids start at x = -2 with spacing h; half a cell absorbs rounding.
            ez_p = pml.final_state.ez_total[pml.grid.x <= cfg.x0 + 0.5 * h]
            ez_r = ref.final_state.ez_total[ref.grid.x <= cfg.x0 + 0.5 * h]
            err = float(np.max(np.abs(ez_p - ez_r)))
            rate = float("nan") if prev_err is None else math.log2(prev_err / err)
            rows.append((order, h, err, rate))
            prev_err = err
    return rows


def write_error_table(path: str, rows):
    with open(path, "w") as f:
        f.write("order,h,error,rate\n")
        for order, h, err, rate in rows:
            f.write(f"{order},{h:.17g},{err:.17g},{rate:.17g}\n")


# ---------------------------------------------------------------------------
# Config files


def parse_config_text(text: str) -> dict:
    """Parse flat 'key = value' lines into raw value strings; '#' starts a comment."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip().strip('"').strip("'")
    return out


def _field_value(key: str, text: str, kind):
    """The config text of field ``key`` as its declared type: str, int, float or Optional[float]."""
    if text.lower() == "none":
        if kind == Optional[float]:
            return None
        raise ValueError(f"config field {key!r} cannot be none")
    if kind is str:
        return text
    try:
        return int(text) if kind is int else float(text)
    except ValueError:
        need = "an integer" if kind is int else "numeric"
        raise ValueError(f"config field {key!r} must be {need}, got {text!r}") from None


def config_from_file(path: str) -> ScenarioConfig:
    with open(path) as f:
        raw = parse_config_text(f.read())
    kinds = get_type_hints(ScenarioConfig)
    unknown = set(raw) - set(kinds)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ScenarioConfig(**{key: _field_value(key, text, kinds[key]) for key, text in raw.items()})


# ---------------------------------------------------------------------------
# CLI


def _cmd_run(args) -> int:
    if args.config:
        cfg = config_from_file(args.config)
    elif args.preset:
        cfg = preset_config(args.preset)
    else:
        print("run: provide --config FILE or --preset NAME", file=sys.stderr)
        return 2
    if args.out:
        cfg.output_dir = args.out
    art = run_scenario(cfg)
    print(f"history: {art.history_csv}")
    print(f"snapshot: {art.snapshot_path}")
    print(f"config echo: {art.config_echo_path}")
    if art.diverged:
        print("note: the solution left the finite range before t_final (recorded in the echo)")
    return 0


def _cmd_verify(args) -> int:
    failures = []
    # SBP operator checks.
    for order in (2, 4, 6):
        for n in (16, 33, 64):
            rep = operator_verification_report(build_sbp_operator(order, n, 0.1))
            if not rep.ok:
                failures.append(f"operator order {order}, n {n}: residual {rep.sbp_residual:g}")
    print("operators: checked orders 2/4/6 at n in {16, 33, 64}")

    # Sign lemmas, Monte-Carlo.
    rng = np.random.default_rng(0)
    from sbpml.modal_analysis import kappa_left, kappa_lower, sx_identities

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
    rows = waveguide_error_study(hs, orders, output_dir=args.out)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "error_table.csv")
    write_error_table(path, rows)
    for order, h, err, rate in rows:
        print(f"order {order}, h {h:g}: error {err:.3e}, rate {rate:.2f}")
    print(f"error table: {path}")
    return 0


def _cmd_modal(args) -> int:
    gammas = [float(v) for v in args.gammas.split(",")]
    sigmas = [float(v) for v in args.sigmas.split(",")]
    ks = np.linspace(-10.0, 10.0, args.nk)
    region = ComplexParamRegion(n_re=args.n_re, n_im=args.n_im)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "dispersion_scan.csv")
    total = 0
    with open(path, "w") as f:
        f.write("relation,k,gamma,sigma,n_roots,roots\n")
        for k in ks:
            for g in gammas:
                for sig in sigmas:
                    roots = scan_unstable_roots(lambda s: dispersion_F1(s, k, sig, g), region)
                    total += len(roots)
                    f.write(f"F1,{k:.17g},{g:.17g},{sig:.17g},{len(roots)},\"{roots}\"\n")
                roots = scan_unstable_roots(lambda s: dispersion_F2(s, k, g), region)
                total += len(roots)
                f.write(f"F2,{k:.17g},{g:.17g},0,{len(roots)},\"{roots}\"\n")
    print(f"scanned {len(ks)} wavenumbers x {len(gammas)} gammas; {total} candidate root(s)")
    print(f"report: {path}")
    return 0 if total == 0 else 1


def cli_entry(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sbpml",
        description="SBP-SAT Maxwell TMz solver with stabilized absorbing layers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario from a config file or preset")
    p_run.add_argument("--config", help="path to a key=value config file")
    p_run.add_argument("--preset", help="built-in scenario preset name")
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
    p_mod.add_argument("--n-re", type=int, default=100, dest="n_re")
    p_mod.add_argument("--n-im", type=int, default=200, dest="n_im")
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
