"""The benchmark's tracer must find every package attribute it wraps.

``perfbench/spans.py`` wraps each ``(module, attribute)`` of its
``TARGETS`` and skips, as "not traced", one it cannot find, so a renamed
or deleted function would make its per-layer metric read 0 without an
error.  Nor may a traced call move out of the module where the tracer
wraps its name.  These tests only read ``perfbench/spans.py``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from sbpml import scenarios_cli
from sbpml.pml_models import MODEL_KINDS

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Targets of methods that an earlier state representation had, and of the
# modal theta term's own scatter, now entries of ``sat_contributions``; the
# tracer reports them as not traced.
GONE = {
    "grid_state.FieldState.__add__",
    "grid_state.FieldState.__rmul__",
    "grid_state.FieldState.is_finite",
    "pml_models.sat_y_field",
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(module: str, attr: str) -> bool:
    """Whether ``Tracer.install`` finds ``attr`` on ``sbpml.<module>``, as it looks it up."""
    owner = importlib.import_module(f"sbpml.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner.__dict__.get(name) is not None


def test_every_trace_target_resolves():
    targets = [(module, attr) for module, attr, _ in load_spans().TARGETS]
    missing = {f"{module}.{attr}" for module, attr in targets if not resolves(module, attr)}
    assert missing == GONE
    # The wall terms and the integrands are traced where evaluate_rhs and
    # run_scenario look them up.
    for target in (
        ("pml_models", "sat_contributions"),
        ("pml_models", "wall_residuals"),
        ("scenarios_cli", "modal_bt_integrand"),
        ("scenarios_cli", "boundary_dissipation"),
    ):
        assert target in targets and resolves(*target)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_traced_run_counts_every_step_rhs_and_sample(tmp_path, kind):
    """A traced desk run counts n steps, 4 n + 1 RHS evaluations, one
    sample per history row and a nonzero boundary-integrand time.  That
    holds only while ``march`` and ``run_scenario`` call the traced
    functions through ``scenarios_cli``'s module globals.  The run is
    called through the module attribute: a ``run_scenario`` imported
    before ``install`` is not wrapped, and its samples read 0."""
    cfg = scenarios_cli.preset_config(
        "cavity-desk-theta1", model_kind=kind, t_final=12.0, stride=4, output_dir=str(tmp_path)
    )
    n = scenarios_cli.build_scenario(cfg).n_steps
    tracer = load_spans().Tracer()
    try:
        tracer.install()
        first = tracer.mark()
        art = scenarios_cli.run_scenario(cfg)
    finally:
        tracer.uninstall()
    m = tracer.round_metrics(first, 0.0)
    assert (n, len(art.history.times)) == (30, 9)
    assert m["time_integration.steps"] == n
    assert m["pml_models.rhs_calls"] == 4 * n + 1
    assert m["diagnostics.sample_calls"] == len(art.history.times)
    assert m["diagnostics.bt_integrand_s"] > 0
