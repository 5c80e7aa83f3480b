"""Rectangular grid, per-model solution states, and P-weighted inner products."""

from __future__ import annotations

from dataclasses import dataclass, field
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

    def operators(self, order: int) -> "OperatorPair":
        return OperatorPair(
            x=build_sbp_operator(order, self.nx, self.hx),
            y=build_sbp_operator(order, self.ny, self.hy),
        )


@dataclass(frozen=True)
class OperatorPair:
    """The two 1D SBP operators acting along x and y.

    ``weight`` is the (Px kron Py) diagonal as an (nx, ny) array.  The wall
    points, left, right, bottom and top, form one boundary vector:
    ``wall_index`` holds their flat indices in an (nx, ny) field and
    ``wall_p_tangent`` P of the axis along their wall.  All are built once.
    """

    x: SbpOperator1D
    y: SbpOperator1D
    weight: np.ndarray = field(init=False, repr=False, compare=False)
    wall_index: np.ndarray = field(init=False, repr=False, compare=False)
    wall_p_tangent: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        px, py = self.x.p_diag, self.y.p_diag
        i, j = np.arange(self.x.n) * self.y.n, np.arange(self.y.n)
        object.__setattr__(self, "weight", px[:, None] * py[None, :])
        object.__setattr__(self, "wall_index", np.concatenate((j, i[-1] + j, i, i + j[-1])))
        object.__setattr__(self, "wall_p_tangent", np.concatenate((py, py, px, px)))

    def dx(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply (Dx kron Iy) to an (nx, ny) field, or to each field of a
        stack (..., nx, ny), into ``out`` if given.

        The blocked apply of ``dy`` on the fields and outputs with their
        last two axes swapped.
        """
        out = np.empty_like(u) if out is None else out
        u_t, out_t, blocks = u.swapaxes(-1, -2), out.swapaxes(-1, -2), self.x.blocks
        if len(blocks) == 1:
            np.matmul(u_t, blocks[0][2], out=out_t)
        else:
            for rows, cols, block_t in blocks:
                np.matmul(u_t[..., cols], block_t, out=out_t[..., rows])
        return out

    def dy(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply (Ix kron Dy) to an (nx, ny) field, or to each field of a
        stack (..., nx, ny), into ``out`` if given.

        One product out[..., rows] = u[..., cols] @ D[rows, cols].T per
        block of Dy's rows (``SbpOperator1D.blocks``), with only the
        columns where the block is nonzero: O(nx ny) work where the dense
        product is O(nx ny^2), and that dense product on axes of fewer than
        2 * ``BLOCK_ROWS`` points, where the one block is applied to the
        whole field without slicing it.  numpy's matmul computes each field
        of a stack as its own product, so a stacked apply gives each field
        the bits of its own apply.
        """
        out = np.empty_like(u) if out is None else out
        blocks = self.y.blocks
        if len(blocks) == 1:
            np.matmul(u, blocks[0][2], out=out)
        else:
            for rows, cols, block_t in blocks:
                np.matmul(u[..., cols], block_t, out=out[..., rows])
        return out

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        """The (Px kron Py)-weighted inner product on (nx, ny) fields."""
        return float(np.sum(self.weight * u * v))

    def norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(self.inner(u, u)))


def _nfields(model: str) -> int:
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    return 3 if model == "Interior" else 4


class FieldState:
    """The unknowns of one semi-discrete model: one (nfields, nx, ny) array.

    ``data`` holds the fields in the order ez, hy, hx, aux, and the
    properties of those names are views of it.  ``aux`` is the
    model-specific extra unknown: the auxiliary variable driven by
    sigma * dHx/dy for ModalUnsplit, the recursive ODE variable for
    PhysicallyMotivated, and the second split component of Ez for
    SplitField (in which case ``ez`` holds the x-split component); an
    Interior state has no ``aux``.  The state wraps the given array
    without copying it.
    """

    def __init__(self, model: str, data: np.ndarray):
        if data.ndim != 3 or len(data) != _nfields(model):
            raise ValueError(f"a {model} state needs an ({_nfields(model)}, nx, ny) array, got {data.shape}")
        self.model, self.data = model, data

    @property
    def ez(self) -> np.ndarray:
        return self.data[0]

    @property
    def hy(self) -> np.ndarray:
        return self.data[1]

    @property
    def hx(self) -> np.ndarray:
        return self.data[2]

    @property
    def aux(self) -> Optional[np.ndarray]:
        return self.data[3] if len(self.data) == 4 else None

    @property
    def ez_total(self) -> np.ndarray:
        """The physical electric field (sum of split components for SplitField)."""
        if self.model == "SplitField":
            return self.ez + self.aux
        return self.ez

    @classmethod
    def zeros(cls, grid: Grid2D, model: str = "Interior") -> "FieldState":
        return cls(model, np.zeros((_nfields(model), grid.nx, grid.ny)))
