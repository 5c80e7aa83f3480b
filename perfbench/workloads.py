"""The benchmark's three workloads.

A round runs the whole workload once, from its inputs to its checked
outputs.  ``Ops`` counts each scenario run, spectrum, scan and check as one
operation: an operation that raises is failed, and a check that does not
hold makes the run incorrect.  ``build`` repeats, on its own, the set-up
that precedes the first time step or assembly, so that it can be timed.
``WARMUP_ROUNDS`` rounds run, checked and counted but not timed, before the
timed ones: a process's first round runs 3-13% slower than later ones, so
with it in the median a run that has time for one more round reads faster.
Only the planted roots of the control scan depend on the seed.
"""

from __future__ import annotations

import os
import time
import traceback

import numpy as np

import checks
from sbpml import diagnostics, modal_analysis, scenarios_cli
from sbpml.boundary_sat import BoundaryConfig, PenaltyParams
from sbpml.grid_state import Grid2D
from sbpml.pml_models import ModelSpec, damping_coefficient, make_damping_profile

FAILED = object()


class Ops:
    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def run(self, label, fn, *args):
        self.attempted += 1
        self.tracer.run_id = self.attempted
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            print(f"operation failed: {label}", flush=True)
            traceback.print_exc()
            return FAILED

    def check(self, label, check, *inputs):
        """One operation: ``check(*inputs)``; it fails when an input's operation failed."""
        if any(x is FAILED for x in inputs):
            self.attempted += 1
            self.failed += 1
            return
        res = self.run(label, check, *inputs)
        if res is not FAILED and not res[0]:
            self.wrong.append(f"{label}: {res[1]}")


def completed_steps(echo_path: str) -> int:
    """The run's completed RK4 steps, from its config echo."""
    with open(echo_path) as f:
        for line in f:
            key, _, value = line.partition("=")
            if key.strip() == "last_completed_step":
                return int(value)
    raise ValueError(f"{echo_path} records no last_completed_step")


class CavityDesk:
    """The desk cavity (61x51, order 4, dt = 0.4, t = 2000) at theta = 0 and 1."""

    RUNS_BUILD = True  # run_scenario builds the scenario inside the timed run
    WARMUP_ROUNDS = 1

    def __init__(self, seed: int, out_dir: str):
        self.configs = [
            scenarios_cli.cavity_config(
                order=4, theta=theta, desk=True, output_dir=out_dir, label=f"cavity_desk_theta{theta:g}"
            )
            for theta in (0.0, 1.0)
        ]
        self.sigma_max = scenarios_cli.build_scenario(self.configs[1]).prof.sigma_max

    def build(self):
        for cfg in self.configs:
            scenarios_cli.build_scenario(cfg)

    def round(self, ops: Ops):
        """Returns [(RK4 steps, seconds in run_scenario)]."""
        arts, steps, run_s = [], 0, 0.0
        for cfg in self.configs:
            t0 = time.perf_counter()
            art = ops.run(f"run theta = {cfg.theta:g}", scenarios_cli.run_scenario, cfg)
            run_s += time.perf_counter() - t0
            if art is not FAILED:
                steps += completed_steps(art.config_echo_path)
            arts.append(art)
        grow, decay = arts
        t_final = self.configs[0].t_final
        ops.check("theta = 0 grows tenfold", lambda a: checks.tenfold_growth(
            a.history.times, a.history.series("ez_norm"), t_final), grow)
        ops.check("theta = 1 decays", lambda a: checks.decays(
            a.history.times, a.history.series("ez_norm"), a.diverged), decay)
        ops.check("theta = 1 growth bound", lambda a: checks.growth_bound(
            a.history.times, a.history.series("energy"), self.sigma_max), decay)
        return [(steps, run_s)]


class WaveguideTable:
    """``waveguide_error_study([0.04, 0.02], [4, 6])``: the paper's layer-error table."""

    RUNS_BUILD = True
    WARMUP_ROUNDS = 0  # one round is about as long as a whole run

    H = (0.04, 0.02)
    ORDERS = (4, 6)

    def __init__(self, seed: int, out_dir: str):
        self.out_dir = out_dir
        self.configs = []
        for order in self.ORDERS:
            for h in self.H:
                self.configs.append(scenarios_cli.waveguide_config(h, order, output_dir=out_dir))
                self.configs.append(scenarios_cli.reference_config(h, order, output_dir=out_dir))

    def build(self):
        for cfg in self.configs:
            scenarios_cli.build_scenario(cfg)

    def round(self, ops: Ops):
        t0 = time.perf_counter()
        rows = ops.run("error study", scenarios_cli.waveguide_error_study, list(self.H), list(self.ORDERS), self.out_dir)
        run_s = time.perf_counter() - t0
        # The study is eight scenario runs; each counts as an operation.
        ops.attempted += len(self.configs) - 1
        steps = 0
        if rows is FAILED:
            ops.failed += len(self.configs) - 1
        else:
            for cfg in self.configs:
                steps += completed_steps(os.path.join(self.out_dir, f"{cfg.run_label}_config.txt"))
        by_key = {} if rows is FAILED else {(o, h): (err, rate) for o, h, err, rate in rows}
        for order, h in checks.WAVEGUIDE_TARGETS:
            cell = by_key.get((order, h), (FAILED, FAILED))
            ops.check(f"table cell order {order}, h {h:g}", checks.table_cell, order, h, cell[0])
            if h == self.H[-1]:
                ops.check(f"rate order {order}", checks.table_rate, order, cell[1])
        return [(steps, run_s)]


class SpectraScans:
    """Spectra of the 13x13 cavity at orders 2, 4, 6, and the dispersion root scans."""

    RUNS_BUILD = False  # only the assembly is timed
    WARMUP_ROUNDS = 1
    ORDERS = (2, 4, 6)
    # (model, theta, penalties, expected max Re lambda).
    CASES = (
        ("ModalUnsplit", 1.0, PenaltyParams.estimate_matching(0, 0), "stable"),
        ("ModalUnsplit", 0.0, PenaltyParams.estimate_matching(0, 0), "unstable"),
        ("PhysicallyMotivated", 0.0, PenaltyParams.universal(), "stable"),
    )
    REGION = modal_analysis.ComplexParamRegion(re_min=1e-9, re_max=3.0, im_min=-20.0, im_max=20.0, n_re=40, n_im=160)
    GAMMAS = (0.25, 1.0, 4.0)
    KS = (-10.0, -4.0, -1.0, 0.0, 1.0, 4.0, 10.0)
    SIGMAS = (0.0, 1.0)

    def __init__(self, seed: int, out_dir: str):
        # Two roots planted well inside the scan region, at least 2 apart.
        rng = np.random.default_rng(seed)
        while True:
            roots = [complex(rng.uniform(0.25, 2.75), rng.uniform(-18.0, 18.0)) for _ in range(2)]
            if abs(roots[0] - roots[1]) >= 2.0:
                break
        self.planted = roots

    def build_one(self, order):
        grid = Grid2D(-60.0, 60.0, -50.0, 50.0, 13, 13)
        prof = make_damping_profile(grid, 50.0, 10.0, damping_coefficient(10.0, 1e-4))
        return grid, grid.operators(order), prof, BoundaryConfig(r_x=0.0, r_y=0.0)

    def build(self):
        for order in self.ORDERS:
            self.build_one(order)

    def _spectrum(self, tracer, kind, theta, penalties, setup):
        grid, ops, prof, bc = setup
        t0 = time.perf_counter()
        a = diagnostics.assemble_semidiscrete_matrix(ModelSpec(kind, theta=theta), grid, prof, bc, penalties, ops)
        assemble_s = time.perf_counter() - t0
        tracer.add("diagnostics.assemble_unknowns", a.shape[1])
        with tracer.span("diagnostics.eigvals"):
            lam = np.linalg.eigvals(a)
        return float(np.max(lam.real)), a.shape[1], assemble_s

    def round(self, ops: Ops):
        """Returns [(assembled unknowns, seconds of assembly)], one pair per spectrum."""
        assembled = []
        for order in self.ORDERS:
            setup = self.build_one(order)
            for kind, theta, penalties, expected in self.CASES:
                label = f"spectrum {kind} theta = {theta:g} order {order}"
                res = ops.run(label, self._spectrum, ops.tracer, kind, theta, penalties, setup)
                if res is not FAILED:
                    assembled.append(res[1:])
                max_re = FAILED if res is FAILED else res[0]
                if expected == "stable":
                    ops.check(label, checks.spectrum_stable, max_re)
                elif order > 2:
                    # Order 2 reads about 1.8e-9 at theta = 0: neither bound applies.
                    ops.check(label, checks.spectrum_unstable, max_re)

        scan = modal_analysis.scan_unstable_roots
        counted = ops.tracer.counted
        for gamma in self.GAMMAS:
            for k in self.KS:
                for sigma in self.SIGMAS:
                    label = f"scan F1 k {k:g} sigma {sigma:g} gamma {gamma:g}"
                    f = counted("modal_analysis.f_evals", lambda s: modal_analysis.dispersion_F1(s, k, sigma, gamma))
                    ops.check(label, checks.no_roots, ops.run(label, scan, f, self.REGION))
                label = f"scan F2 k {k:g} gamma {gamma:g}"
                f = counted("modal_analysis.f_evals", lambda s: modal_analysis.dispersion_F2(s, k, gamma))
                ops.check(label, checks.no_roots, ops.run(label, scan, f, self.REGION))

        r1, r2 = self.planted
        f = counted("modal_analysis.f_evals", lambda z: (z - r1) * (z - r2))
        roots = ops.run("control scan", scan, f, self.REGION)
        ops.check("control scan recovers the planted roots", checks.planted_roots, roots, self.planted)
        return assembled


WORKLOADS = {
    "cavity-desk": CavityDesk,
    "waveguide-table": WaveguideTable,
    "spectra-scans": SpectraScans,
}
