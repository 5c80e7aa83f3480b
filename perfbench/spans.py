"""Spans around the calls into each ``src/sbpml`` layer, recorded from outside.

``Tracer.install`` replaces each target below by a wrapper at the name its
caller looks up (``scenarios_cli.evaluate_rhs`` is the name ``run_scenario``
calls; ``pml_models.sat_contributions`` the one ``evaluate_rhs`` calls), so
the program itself is not changed.  A span is (kind, start, end, parent,
run id); spans are kept in flat arrays in memory and written to an ``.npz``
file when the run ends.  Self time is a span's duration minus that of its
child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from array import array

import numpy as np

# (module, attribute, span kind).  Two targets may share a kind.
TARGETS = (
    ("grid_state", "build_sbp_operator", "sbp_core.build"),
    ("grid_state", "OperatorPair.dx", "grid_state.dx"),
    ("grid_state", "OperatorPair.dy", "grid_state.dy"),
    ("grid_state", "FieldState.__add__", "grid_state.state_arith"),
    ("grid_state", "FieldState.__rmul__", "grid_state.state_arith"),
    ("grid_state", "FieldState.is_finite", "grid_state.is_finite"),
    ("pml_models", "sat_contributions", "boundary_sat.sat"),
    # The theta term of the modal auxiliary equation (evaluate_rhs's own calls).
    ("pml_models", "wall_residuals", "boundary_sat.aux_penalty"),
    ("pml_models", "sat_y_field", "boundary_sat.aux_penalty"),
    ("scenarios_cli", "evaluate_rhs", "pml_models.rhs"),
    ("diagnostics", "evaluate_rhs", "pml_models.rhs"),
    ("scenarios_cli", "rk4_step", "time_integration.step"),
    ("scenarios_cli", "discrete_l2_norms", "diagnostics.norms"),
    ("scenarios_cli", "modal_energy", "diagnostics.energy"),
    ("scenarios_cli", "phys_energy", "diagnostics.energy"),
    ("scenarios_cli", "interior_energy", "diagnostics.energy"),
    ("scenarios_cli", "modal_bt_integrand", "diagnostics.bt_integrand"),
    ("scenarios_cli", "boundary_dissipation", "diagnostics.bt_integrand"),
    ("diagnostics", "assemble_semidiscrete_matrix", "diagnostics.assemble"),
    ("modal_analysis", "scan_unstable_roots", "modal_analysis.scan"),
    ("scenarios_cli", "run_scenario", "scenarios_cli.run"),
    ("scenarios_cli", "build_scenario", "scenarios_cli.build"),
    ("scenarios_cli", "write_snapshot", "scenarios_cli.io"),
    ("scenarios_cli", "_echo_config", "scenarios_cli.io"),
    ("diagnostics", "EnergyHistory.to_csv", "scenarios_cli.io"),
)

# Counters kept beside the spans.
COUNTERS = ("scenarios_cli.io_bytes", "modal_analysis.f_evals", "diagnostics.assemble_unknowns")

# Every per-layer metric, with its unit; BENCHMARK.json lists the same.
PER_LAYER_UNITS = {
    "sbp_core.build_s": "s",
    "sbp_core.build_calls": "count",
    "grid_state.dx_s": "s",
    "grid_state.dx_calls": "count",
    "grid_state.dy_s": "s",
    "grid_state.dy_calls": "count",
    "grid_state.state_arith_s": "s",
    "grid_state.state_arith_calls": "count",
    "grid_state.is_finite_s": "s",
    "boundary_sat.sat_s": "s",
    "boundary_sat.sat_calls": "count",
    "boundary_sat.aux_penalty_s": "s",
    "pml_models.rhs_s": "s",
    "pml_models.rhs_self_s": "s",
    "pml_models.rhs_calls": "count",
    "pml_models.rhs_per_step": "ratio",
    "time_integration.steps": "count",
    "time_integration.step_self_s": "s",
    "time_integration.step_ms_p50": "ms",
    "time_integration.step_ms_p99": "ms",
    "diagnostics.sample_s": "s",
    "diagnostics.sample_calls": "count",
    "diagnostics.bt_integrand_s": "s",
    "diagnostics.assemble_s": "s",
    "diagnostics.assemble_unknowns": "count",
    "diagnostics.eigvals_s": "s",
    "modal_analysis.scan_s": "s",
    "modal_analysis.scans": "count",
    "modal_analysis.f_evals": "count",
    "scenarios_cli.build_s": "s",
    "scenarios_cli.io_s": "s",
    "scenarios_cli.io_bytes": "bytes",
    "scenarios_cli.loop_self_s": "s",
    "trace.round_wall_s": "s",
    "trace.spans": "count",
}


class NoTrace:
    """The untraced run: spans and counters cost nothing."""

    run_id = 0

    def span(self, kind):
        return contextlib.nullcontext()

    def counted(self, counter, fn):
        return fn

    def add(self, counter, n):
        pass


class Tracer:
    """Spans and counters of the traced run."""

    def __init__(self):
        self.kinds = sorted({k for _, _, k in TARGETS} | {"diagnostics.eigvals"})
        self._kind_id = {k: i for i, k in enumerate(self.kinds)}
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.run_id = 0
        self.missing = []
        self._stack = []
        self._saved = []

    # -- recording -----------------------------------------------------------

    def _open(self, kind_id):
        idx = len(self.kind)
        self.kind.append(kind_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, kind):
        idx = self._open(self._kind_id[kind])
        try:
            yield
        finally:
            self._close(idx)

    def counted(self, counter, fn):
        """``fn`` with each call added to ``counter`` (no span: these calls are many and tiny)."""

        def wrapper(*args):
            self.counters[counter] += 1
            return fn(*args)

        return wrapper

    def add(self, counter, n):
        self.counters[counter] += n

    def _wrap(self, fn, kind):
        kind_id = self._kind_id[kind]
        is_io = kind == "scenarios_cli.io"

        def wrapper(*args, **kwargs):
            idx = self._open(kind_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if is_io:
                path = next(a for a in args if isinstance(a, str))
                self.counters["scenarios_cli.io_bytes"] += os.path.getsize(path)
            return result

        return wrapper

    def install(self):
        for module, attr, kind in TARGETS:
            owner = importlib.import_module(f"sbpml.{module}")
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__.get(name)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, kind))

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def write(self, path):
        np.savez_compressed(
            path,
            kinds=np.array(self.kinds),
            kind=np.frombuffer(self.kind, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
        )

    # -- per-layer metrics -------------------------------------------------

    def mark(self):
        """Position to pass to ``round_metrics`` after the next round."""
        self.counters = dict.fromkeys(COUNTERS, 0)
        return len(self.kind)

    def round_metrics(self, first: int, wall_s: float) -> dict:
        """Per-layer metrics of the spans recorded since ``first`` (one round)."""
        kind = np.frombuffer(self.kind, dtype=np.int32)[first:]
        dur = np.frombuffer(self.end, dtype=np.float64)[first:] - np.frombuffer(self.start, dtype=np.float64)[first:]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:] - first
        has_parent = parent >= 0
        parent_kind = np.full(kind.shape, -1)
        parent_kind[has_parent] = kind[parent[has_parent]]
        child_s = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(kind))

        def ids(*kinds):
            return np.isin(kind, [self._kind_id[k] for k in kinds])

        def under(*kinds):
            return np.isin(parent_kind, [self._kind_id[k] for k in kinds])

        def total(mask):
            return float(dur[mask].sum())

        rhs = ids("pml_models.rhs")
        step = ids("time_integration.step")
        run = ids("scenarios_cli.run")
        bt = ids("diagnostics.bt_integrand")
        # sample() in run_scenario: norms, energy, and the RHS (and its
        # boundary integrand) that run_scenario calls outside rk4_step.
        sample = ids("diagnostics.norms", "diagnostics.energy") | ((rhs | bt) & under("scenarios_cli.run"))
        steps = int(step.sum())
        loop_rhs = int((rhs & under("time_integration.step", "scenarios_cli.run")).sum())
        step_ms = dur[step] * 1e3
        c = self.counters
        m = {
            "sbp_core.build_s": total(ids("sbp_core.build")),
            "sbp_core.build_calls": int(ids("sbp_core.build").sum()),
            "grid_state.dx_s": total(ids("grid_state.dx")),
            "grid_state.dx_calls": int(ids("grid_state.dx").sum()),
            "grid_state.dy_s": total(ids("grid_state.dy")),
            "grid_state.dy_calls": int(ids("grid_state.dy").sum()),
            "grid_state.state_arith_s": total(ids("grid_state.state_arith")),
            "grid_state.state_arith_calls": int(ids("grid_state.state_arith").sum()),
            "grid_state.is_finite_s": total(ids("grid_state.is_finite")),
            "boundary_sat.sat_s": total(ids("boundary_sat.sat")),
            "boundary_sat.sat_calls": int(ids("boundary_sat.sat").sum()),
            "boundary_sat.aux_penalty_s": total(ids("boundary_sat.aux_penalty")),
            "pml_models.rhs_s": total(rhs),
            "pml_models.rhs_self_s": float((dur[rhs] - child_s[rhs]).sum()),
            "pml_models.rhs_calls": int(rhs.sum()),
            "pml_models.rhs_per_step": loop_rhs / steps if steps else 0.0,
            "time_integration.steps": steps,
            "time_integration.step_self_s": total(step) - total((rhs | bt) & under("time_integration.step")),
            "time_integration.step_ms_p50": float(np.percentile(step_ms, 50)) if steps else 0.0,
            "time_integration.step_ms_p99": float(np.percentile(step_ms, 99)) if steps else 0.0,
            "diagnostics.sample_s": total(sample),
            "diagnostics.sample_calls": int((ids("diagnostics.norms") & under("scenarios_cli.run")).sum()),
            "diagnostics.bt_integrand_s": total(bt),
            "diagnostics.assemble_s": total(ids("diagnostics.assemble")),
            "diagnostics.assemble_unknowns": c["diagnostics.assemble_unknowns"],
            "diagnostics.eigvals_s": total(ids("diagnostics.eigvals")),
            "modal_analysis.scan_s": total(ids("modal_analysis.scan")),
            "modal_analysis.scans": int(ids("modal_analysis.scan").sum()),
            "modal_analysis.f_evals": c["modal_analysis.f_evals"],
            "scenarios_cli.build_s": total(ids("scenarios_cli.build")),
            "scenarios_cli.io_s": total(ids("scenarios_cli.io")),
            "scenarios_cli.io_bytes": c["scenarios_cli.io_bytes"],
            "scenarios_cli.loop_self_s": float((dur[run] - child_s[run]).sum()),
            "trace.round_wall_s": wall_s,
            "trace.spans": len(kind),
        }
        return m
