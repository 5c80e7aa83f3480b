"""The benchmark's tracer must find every package attribute it wraps.

``perfbench/spans.py`` wraps each ``(module, attribute)`` of its
``TARGETS`` and skips, as "not traced", one it cannot find, so a renamed
or deleted function would make its per-layer metric read 0 without an
error.  This test only reads ``perfbench/spans.py``.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Targets of methods that an earlier state representation had; the tracer
# reports them as not traced.
GONE = {"grid_state.FieldState.__add__", "grid_state.FieldState.__rmul__", "grid_state.FieldState.is_finite"}


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
        ("pml_models", "sat_y_field"),
        ("scenarios_cli", "modal_bt_integrand"),
        ("scenarios_cli", "boundary_dissipation"),
    ):
        assert target in targets and resolves(*target)
