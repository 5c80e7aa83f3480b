"""Rectangular grid, per-model solution states, and P-weighted inner products."""

from __future__ import annotations

import math
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


@dataclass(frozen=True, eq=False)
class OperatorPair:
    """The two 1D SBP operators acting along x and y.

    ``weight`` is the (Px kron Py) diagonal as an (nx, ny) array, built
    once.  Pairs compare by identity.
    """

    x: SbpOperator1D
    y: SbpOperator1D
    weight: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "weight", self.x.p_diag[:, None] * self.y.p_diag[None, :])

    def dx(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply (Dx kron Iy) to an (nx, ny) field, or to each field of a
        stack (..., nx, ny), into ``out`` if given: the ``calls`` of axis 0."""
        out = np.empty_like(u) if out is None else out
        for f, args in self.calls(0, u, out):
            f(*args)
        return out

    def dy(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply (Ix kron Dy) to an (nx, ny) field, or to each field of a
        stack (..., nx, ny), into ``out`` if given: the ``calls`` of axis 1."""
        out = np.empty_like(u) if out is None else out
        for f, args in self.calls(1, u, out):
            f(*args)
        return out

    def calls(self, axis: int, u: np.ndarray, out: np.ndarray) -> list:
        """The (function, args) pairs, every view made, that apply D of
        ``axis`` (0 for Dx, 1 for Dy) to ``u`` into ``out`` when called.

        One product out[..., rows] = u[..., cols] @ D[rows, cols].T per
        block of D's rows (``SbpOperator1D.blocks``), only on the block's
        nonzero columns: O(nx ny) work, and the dense product on axes under
        2 * ``BLOCK_ROWS`` points, one block on the whole field.  Dx swaps
        the last two axes of the fields and outputs.  numpy's matmul gives
        each field of a stack the bits of its own product.
        """
        blocks = (self.x if axis == 0 else self.y).blocks
        if axis == 0:
            u, out = u.swapaxes(-1, -2), out.swapaxes(-1, -2)
        return [(np.matmul, (u[..., cols], block_t, out[..., rows])) for rows, cols, block_t in blocks]

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        """The (Px kron Py)-weighted inner product on (nx, ny) fields."""
        return float(np.sum(self.weight * u * v))


def nfields(model: str) -> int:
    """The fields of a ``model`` state: 3 for Interior, 4 (with aux) for the others."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    return 3 if model == "Interior" else 4


class FieldState:
    """The unknowns of one semi-discrete model: one (nfields, nx, ny) array,
    or a stack (nfields, ..., nx, ny) of such states, fields first.

    ``data`` holds the fields in the order ez, hy, hx, aux on its axis 0,
    so ``data[k]`` is field k of one state and of a stack alike, one
    contiguous block per field, and the properties of those names are
    views of it.  ``places`` maps one state's flat indices into the flat
    order of ``data``, one state being a stack of one; ``evaluate_rhs``
    takes C-contiguous states only, and keeps in ``plan`` the plan of its
    last call into this state.
    ``aux`` is the model-specific extra unknown: the auxiliary variable
    driven by sigma * dHx/dy for ModalUnsplit, the recursive ODE variable
    for PhysicallyMotivated, and the second split component of Ez for
    SplitField (in which case ``ez`` holds the x-split component); an
    Interior state has no ``aux``.  The state wraps the given array
    without copying it.
    """

    def __init__(self, model: str, data: np.ndarray):
        if data.ndim < 3 or data.shape[0] != nfields(model):
            raise ValueError(f"a {model} state needs an ({nfields(model)}, ..., nx, ny) array, got {data.shape}")
        self.model, self.data = model, data
        self.plan = None

    def places(self, index: np.ndarray) -> np.ndarray:
        """The places in ``data``'s flat order of one state's flat indices ``index``, in every state.

        A state's flat index f P + p, with P = nx ny, lies at f B P + b P + p
        in state b of a stack of B states; the result has the stack's axes
        then the axes of ``index``.  For one state, B = 1, it equals ``index``.
        """
        batch, plane = self.data.shape[1:-2], self.data.shape[-2] * self.data.shape[-1]
        count = math.prod(batch)
        f, p = np.divmod(index, plane)
        f *= count * plane
        f += p
        return f + (np.arange(count) * plane).reshape(batch + (1,) * index.ndim)

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
        return cls(model, np.zeros((nfields(model), grid.nx, grid.ny)))
