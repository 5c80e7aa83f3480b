"""Each module imports only the layers below it.

The package namespace re-exports nothing, so ``import sbpml.<module>`` in a
fresh interpreter loads that module and its own imports, no more.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sbpml

# The other sbpml modules that importing each module loads: each layer's
# own imports, and the layers below those.
LAYERS = {
    "sbp_core": set(),
    "modal_analysis": set(),
    "grid_state": {"sbp_core"},
    "boundary_sat": {"sbp_core", "grid_state"},
    "pml_models": {"sbp_core", "grid_state", "boundary_sat"},
    "diagnostics": {"sbp_core", "grid_state", "boundary_sat", "pml_models"},
    "scenarios_cli": {"sbp_core", "grid_state", "boundary_sat", "pml_models", "diagnostics", "modal_analysis"},
}


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_imports_only_its_layers(module):
    code = f"import sys, sbpml.{module}; print(' '.join(sorted(k for k in sys.modules if k.startswith('sbpml.'))))"
    env = dict(os.environ, PYTHONPATH=str(Path(sbpml.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert set(out.split()) - {f"sbpml.{module}"} == {f"sbpml.{name}" for name in LAYERS[module]}
