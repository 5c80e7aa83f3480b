"""SBP-SAT finite difference solver for 2D Maxwell TMz with stabilized
absorbing layers (PML)."""

from sbpml.sbp_core import SbpOperator1D, build_sbp_operator
from sbpml.grid_state import FieldState, Grid2D, OperatorPair
from sbpml.boundary_sat import BoundaryConfig, PenaltyParams
from sbpml.pml_models import DampingProfile, ModelSpec

__all__ = [
    "SbpOperator1D",
    "build_sbp_operator",
    "FieldState",
    "Grid2D",
    "OperatorPair",
    "BoundaryConfig",
    "PenaltyParams",
    "DampingProfile",
    "ModelSpec",
]
