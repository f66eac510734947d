"""Sum-factorized application of tensor-product operators.

A ``TensorField`` stores cell- or patch-local coefficients as a flat vector
in lexicographic order: for extents (n1, ..., nd) the flat index of the
multi-index (i1, ..., id) is i1 + i2*n1 + i3*n1*n2, i.e. axis 0 varies
fastest.  ``contract_axis`` applies a dense matrix along one axis of a grid
at a cost of m_out * m_in * prod(other extents) multiply-adds, which it
counts; it is the one sweep every kernel runs.  ``apply_axis`` is that
sweep on one field with its shapes checked.  ``kron_batch`` composes it over
all axes of a batch of fields held as numpy grids, realizing the action of
the Kronecker matrix A_d x ... x A_1 without ever forming it; the batched
kernels of the operator (``cell_laplacian_kernel``, the ghost-penalty faces,
the right-hand side and the error integral on uncut cells) are sweeps of it.
``cell_laplacian_kernel`` is the Kronecker sum of the 1D stiffness and mass
matrices K1 and M1, which it builds once, with their scaled sweeps, when it
is made, and returns the batched kernel: exact on axis-aligned cells, with
no quadrature grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .tensor1d import mass_matrix_1d, stiffness_matrix_1d

# running multiply-add counter for the sum-factorization complexity checks
_madds = 0


def reset_madd_count() -> None:
    global _madds
    _madds = 0


def madd_count() -> int:
    return _madds


@dataclass
class TensorField:
    """Flat lexicographic coefficient vector with tensor extents (d = 2 or 3)."""

    extents: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        self.extents = tuple(int(n) for n in self.extents)
        if len(self.extents) not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {len(self.extents)}")
        if any(n < 1 for n in self.extents):
            raise ValueError(f"extents must be positive, got {self.extents}")
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != (prod(self.extents),):
            raise ValueError(
                f"data length {self.data.shape} does not match extents {self.extents}"
            )

    def as_grid(self) -> np.ndarray:
        """View with numpy shape (nd, ..., n1); the last numpy axis is axis 0."""
        return self.data.reshape(self.extents[::-1])


def contract_axis(a: np.ndarray, grid: np.ndarray, np_axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Contract matrix a (m_out, m_in) with one numpy axis of an nd array,
    into out (the result's shape) if given."""
    global _madds
    _madds += a.shape[0] * grid.size
    out = None if out is None else out.swapaxes(np_axis, -1)
    return np.matmul(grid.swapaxes(np_axis, -1), a.T, out=out).swapaxes(np_axis, -1)


def apply_axis(a: np.ndarray, u: TensorField, axis: int) -> TensorField:
    """Apply matrix a along one tensor axis (0-based, axis 0 fastest-varying).

    out[..., j, ...] = sum_i a[j, i] * u[..., i, ...] along ``axis``.
    """
    a = np.asarray(a, dtype=float)
    d = len(u.extents)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    if not 0 <= axis < d:
        raise ValueError(f"axis {axis} outside 0..{d - 1}")
    m_out, m_in = a.shape
    if u.extents[axis] != m_in:
        raise ValueError(
            f"extent {u.extents[axis]} along axis {axis} does not match matrix width {m_in}"
        )
    out = contract_axis(a, u.as_grid(), d - 1 - axis)
    extents = list(u.extents)
    extents[axis] = m_out
    return TensorField(tuple(extents), np.ascontiguousarray(out).ravel())


def reference_weight_grid(weights, d: int) -> np.ndarray:
    """Tensor-product quadrature weights as a flat lexicographic vector."""
    w = np.asarray(weights, dtype=float)
    grid = np.array(1.0)
    for _ in range(d):
        # prepend each new axis so that axis 0 ends up fastest-varying
        grid = np.multiply.outer(w, grid)
    return grid.ravel()


def kron_batch(mats, grid: np.ndarray) -> np.ndarray:
    """Apply mats[b] along tensor axis b of a batch of grids.

    ``grid`` has numpy shape (B, n_d, ..., n_1), the batched form of
    ``TensorField.as_grid``; the result keeps that layout with each extent
    replaced by the row count of its matrix.
    """
    for b, a in enumerate(mats):
        grid = contract_axis(a, grid, grid.ndim - 1 - b)
    return grid


def cell_laplacian_kernel(elem, spacing):
    """The weak Laplacian of batches of uncut axis-aligned cells, (C, nloc)
    to (C, nloc): w_i = int_K grad(u) . grad(phi_i), each cell mapped from
    [0,1]^d by per-axis spacings, as the Kronecker sum over the directions a
    of K1 / h_a along a and h_b M1 along every other axis b.  K1, M1 and the
    d x d scaled matrices are built here, once, for every call."""
    stiff, mass = stiffness_matrix_1d(elem), mass_matrix_1d(elem)
    d, n = len(spacing), elem.degree + 1
    sweeps = [[stiff / h if b == a else h * mass for b, h in enumerate(spacing)] for a in range(d)]

    def kernel(u_cells: np.ndarray) -> np.ndarray:
        grid = u_cells.reshape((len(u_cells),) + (n,) * d)
        out = np.zeros_like(grid)
        for mats in sweeps:
            out += kron_batch(mats, grid)
        return out.reshape(len(u_cells), -1)

    return kernel


def cell_laplacian(elem, spacing, u: TensorField) -> TensorField:
    """Weak Laplacian of one uncut cell: ``cell_laplacian_kernel`` on a batch of one."""
    d = len(u.extents)
    spacing = np.asarray(spacing, dtype=float)
    if spacing.shape != (d,):
        raise ValueError(f"expected {d} spacings, got {spacing.shape}")
    if any(ext != elem.degree + 1 for ext in u.extents):
        raise ValueError(f"extents {u.extents} do not match degree {elem.degree}")
    return TensorField(u.extents, cell_laplacian_kernel(elem, spacing)(u.data[None])[0])
