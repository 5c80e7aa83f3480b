"""Rectangular grid, per-model solution states, and P-weighted inner products."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from sbpml.sbp_core import SbpOperator1D, build_sbp_operator

MODELS = ("Interior", "ModalUnsplit", "PhysicallyMotivated", "SplitField")


@dataclass(frozen=True)
class Grid2D:
    """A uniform tensor-product grid on [x_min, x_max] x [y_min, y_max]."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ValueError(f"need at least 3 points per direction, got {self.nx}x{self.ny}")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("degenerate domain")

    @property
    def hx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return (self.y_max - self.y_min) / (self.ny - 1)

    @property
    def x(self) -> np.ndarray:
        return self.x_min + np.arange(self.nx) * self.hx

    @property
    def y(self) -> np.ndarray:
        return self.y_min + np.arange(self.ny) * self.hy

    def zeros(self) -> np.ndarray:
        return np.zeros((self.nx, self.ny))

    def operators(self, order: int) -> "OperatorPair":
        return OperatorPair(
            x=build_sbp_operator(order, self.nx, self.hx),
            y=build_sbp_operator(order, self.ny, self.hy),
        )


@dataclass(frozen=True)
class OperatorPair:
    """The two 1D SBP operators acting along x and y."""

    x: SbpOperator1D
    y: SbpOperator1D

    def dx(self, u: np.ndarray) -> np.ndarray:
        """Apply (Dx kron Iy) to an (nx, ny) field."""
        return self.x.d @ u

    def dy(self, u: np.ndarray) -> np.ndarray:
        """Apply (Ix kron Dy) to an (nx, ny) field."""
        return u @ self.y.d.T

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        """The (Px kron Py)-weighted inner product on (nx, ny) fields."""
        return float(np.sum(self.x.p_diag[:, None] * self.y.p_diag[None, :] * u * v))

    def norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(self.inner(u, u)))


@dataclass
class FieldState:
    """The unknowns of one semi-discrete model, on the (nx, ny) grid view.

    ``aux`` is the model-specific extra unknown: the auxiliary variable
    driven by sigma * dHx/dy for ModalUnsplit, the recursive ODE variable
    for PhysicallyMotivated, and the second split component of Ez for
    SplitField (in which case ``ez`` holds the x-split component).  ``bt``
    accumulates the time integral of the boundary dissipation entering the
    discrete energies; it rides along through the time integrator.
    """

    model: str
    ez: np.ndarray
    hy: np.ndarray
    hx: np.ndarray
    aux: Optional[np.ndarray] = None
    bt: float = 0.0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if (self.aux is None) != (self.model == "Interior"):
            raise ValueError(f"aux must be present iff model != Interior (model={self.model})")
        shapes = {self.ez.shape, self.hy.shape, self.hx.shape}
        if self.aux is not None:
            shapes.add(self.aux.shape)
        if len(shapes) != 1:
            raise ValueError(f"field components have mismatched shapes: {shapes}")

    @property
    def ez_total(self) -> np.ndarray:
        """The physical electric field (sum of split components for SplitField)."""
        if self.model == "SplitField":
            return self.ez + self.aux
        return self.ez

    def __add__(self, other: "FieldState") -> "FieldState":
        aux = None if self.aux is None else self.aux + other.aux
        return FieldState(
            model=self.model,
            ez=self.ez + other.ez,
            hy=self.hy + other.hy,
            hx=self.hx + other.hx,
            aux=aux,
            bt=self.bt + other.bt,
        )

    def __rmul__(self, c: float) -> "FieldState":
        aux = None if self.aux is None else c * self.aux
        return FieldState(
            model=self.model, ez=c * self.ez, hy=c * self.hy, hx=c * self.hx, aux=aux, bt=c * self.bt
        )

    def copy(self) -> "FieldState":
        aux = None if self.aux is None else self.aux.copy()
        return FieldState(
            model=self.model, ez=self.ez.copy(), hy=self.hy.copy(), hx=self.hx.copy(), aux=aux, bt=self.bt
        )

    def is_finite(self) -> bool:
        parts = [self.ez, self.hy, self.hx] + ([] if self.aux is None else [self.aux])
        return all(np.all(np.isfinite(a)) for a in parts)

    @classmethod
    def zeros(cls, grid: Grid2D, model: str = "Interior") -> "FieldState":
        aux = None if model == "Interior" else grid.zeros()
        return cls(model=model, ez=grid.zeros(), hy=grid.zeros(), hx=grid.zeros(), aux=aux)
