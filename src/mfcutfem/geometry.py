"""Background Cartesian mesh, level-set domains, cell classification and DoFs.

The domain is the open set {phi > 0} for a user-supplied level set phi; the
mesh never conforms to it.  Cells are classified by cut quadrature's sign
sampler into INSIDE / OUTSIDE / CUT, ghost-penalty faces are the interior
mesh faces that touch at least one CUT cell and no OUTSIDE cell, and degrees
of freedom are the tensor-product Lagrange nodes supported on at least one
non-OUTSIDE cell.

Conventions: flat cell index = c1 + c2*n1 + c3*n1*n2, flat DoF grid index
likewise with extents (k*n1+1, ...); axis numbering is 0-based with axis 0
the fastest-varying direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from math import prod

import numpy as np

from . import cutquad
from .tensor1d import gauss_lobatto_nodes


class Label(IntEnum):
    OUTSIDE = 0
    INSIDE = 1
    CUT = 2


@dataclass(frozen=True)
class CartesianMesh:
    """Axis-aligned tensor mesh: origin corner, cell counts and spacings per axis."""

    origin: tuple[float, ...]
    cells_per_axis: tuple[int, ...]
    spacing: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(x) for x in self.origin))
        object.__setattr__(self, "cells_per_axis", tuple(int(n) for n in self.cells_per_axis))
        object.__setattr__(self, "spacing", tuple(float(h) for h in self.spacing))
        if not (len(self.origin) == len(self.cells_per_axis) == len(self.spacing)):
            raise ValueError("origin, cells_per_axis and spacing must agree in length")
        if self.dim not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dim}")
        if any(n < 1 for n in self.cells_per_axis):
            raise ValueError(f"cell counts must be positive, got {self.cells_per_axis}")
        if not np.isfinite(self.origin + self.spacing).all():
            raise ValueError(f"origin and spacing must be finite, got origin {self.origin}, spacing {self.spacing}")
        if any(h <= 0 for h in self.spacing):
            raise ValueError(f"spacings must be positive, got {self.spacing}")

    @property
    def dim(self) -> int:
        return len(self.cells_per_axis)

    @property
    def n_cells(self) -> int:
        return prod(self.cells_per_axis)

    @property
    def cell_strides(self) -> tuple[int, ...]:
        s, out = 1, []
        for n in self.cells_per_axis:
            out.append(s)
            s *= n
        return tuple(out)

    def cell_multi(self, flat) -> np.ndarray:
        """Multi-indices (..., d) of flat cell indices in 0..n_cells-1."""
        flat = np.asarray(flat)
        bad = flat[(flat < 0) | (flat >= self.n_cells)]
        if bad.size:
            raise ValueError(f"cell index {bad.flat[0]} outside 0..{self.n_cells - 1}")
        out = np.empty(flat.shape + (self.dim,), dtype=np.int64)
        for a, (n, s) in enumerate(zip(self.cells_per_axis, self.cell_strides)):
            out[..., a] = (flat // s) % n
        return out

    def cell_box(self, multi) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners of a cell given by its multi-index."""
        multi = np.asarray(multi, dtype=float)
        lo = np.asarray(self.origin) + multi * np.asarray(self.spacing)
        return lo, lo + np.asarray(self.spacing)


def box_mesh(lo, hi, cells_per_axis) -> CartesianMesh:
    """Mesh of a box [lo, hi] with the given number of cells per axis."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = np.asarray(cells_per_axis, dtype=int)
    if np.any(n < 1):
        raise ValueError(f"cells_per_axis must be positive, got {cells_per_axis}")
    return CartesianMesh(tuple(lo), tuple(n), tuple((hi - lo) / n))


# ---------------------------------------------------------------------------
# level sets: phi > 0 inside the domain, vectorized over leading point axes


def _points(x, dim: int) -> np.ndarray:
    """x as float points (..., dim); points of another dimension are a
    ValueError that names both."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dim,):
        raise ValueError(f"a {dim}D level set got points of dimension {x.shape[-1] if x.ndim else 0}")
    return x


class BallUnionLevelSet:
    """phi(x) = max_i (r_i - |x - c_i|); gradient follows the argmax ball."""

    def __init__(self, centers, radii):
        self.centers = np.atleast_2d(np.asarray(centers, dtype=float))
        self.radii = np.atleast_1d(np.asarray(radii, dtype=float))
        if self.centers.shape[0] != self.radii.shape[0] or not self.radii.size:
            raise ValueError("need at least one ball, and one radius per center")
        if not (np.isfinite(self.centers).all() and ((0 < self.radii) & (self.radii < np.inf)).all()):
            raise ValueError("radii must be positive, and centers and radii finite")

    def _distance(self, x: np.ndarray, i: int) -> np.ndarray:
        """|x - c_i|, bitwise as np.linalg.norm(x - c_i, axis=-1) gives it:
        the square root of the per-axis squares added in axis order."""
        c = self.centers[i]
        s = (x[..., 0] - c[0]) ** 2
        for a in range(1, len(c)):
            s += (x[..., a] - c[a]) ** 2
        return np.sqrt(s)

    def value(self, x) -> np.ndarray:
        # loop over balls to keep memory at one scalar field per point
        x = _points(x, self.centers.shape[1])
        best = self.radii[0] - self._distance(x, 0)
        for i in range(1, len(self.radii)):
            v = self.radii[i] - self._distance(x, i)
            best = np.where(v > best, v, best)
        return best

    def gradient(self, x) -> np.ndarray:
        # value's loop, keeping the leading ball and its distance
        x = _points(x, self.centers.shape[1])
        dist = self._distance(x, 0)
        best_val, best = self.radii[0] - dist, np.zeros(x.shape[:-1], dtype=np.int64)
        for i in range(1, len(self.radii)):
            dist_i = self._distance(x, i)
            v = self.radii[i] - dist_i
            better = v > best_val
            best_val = np.where(better, v, best_val)
            best = np.where(better, i, best)
            dist = np.where(better, dist_i, dist)
        return -(x - self.centers[best]) / np.where(dist == 0.0, 1.0, dist)[..., None]


class SphereLevelSet(BallUnionLevelSet):
    """phi(x) = r - |x - c|, positive inside the ball: the one-ball union."""

    def __init__(self, center, radius: float):
        super().__init__([center], [radius])


class HalfSpaceLevelSet:
    """phi(x) = offset - n . x, positive on the n-negative side."""

    def __init__(self, normal, offset: float):
        self.normal = np.asarray(normal, dtype=float)
        self.offset = float(offset)
        if self.normal.ndim != 1:
            raise ValueError(f"normal must be a vector, got shape {self.normal.shape}")
        if not (np.isfinite(self.normal).all() and np.isfinite(self.offset)) or not self.normal.any():
            raise ValueError("normal must be nonzero, and normal and offset finite")

    def value(self, x) -> np.ndarray:
        x = _points(x, len(self.normal))
        return self.offset - (x * self.normal).sum(axis=-1)  # per point: no matmul blocking

    def gradient(self, x) -> np.ndarray:
        x = _points(x, len(self.normal))
        return np.broadcast_to(-self.normal, x.shape).copy()


# ---------------------------------------------------------------------------
# classification


@dataclass
class CellClassification:
    mesh: CartesianMesh
    labels: np.ndarray  # (n_cells,), int8 with Label values

    def count(self, label: Label) -> int:
        return int(np.count_nonzero(self.labels == label))

    def cells_with(self, label: Label) -> np.ndarray:
        return np.flatnonzero(self.labels == label).astype(np.int64)

    @property
    def cut_fraction(self) -> float:
        """Cut cells as a fraction of all non-OUTSIDE cells."""
        active = self.count(Label.INSIDE) + self.count(Label.CUT)
        return self.count(Label.CUT) / active if active else 0.0


def classify_cells(mesh: CartesianMesh, phi, samples_per_axis: int) -> CellClassification:
    """Label every cell by the signs of phi on a tensor sample grid.

    The grid has samples_per_axis points per direction including the cell
    corners (cutquad.box_signs).  Zero values count as inside, so: all
    samples >= 0 -> INSIDE, all < 0 -> OUTSIDE, otherwise CUT.  build_context
    samples as its cut rules do, cutquad.sign_samples(quad_order) per axis.
    Values of the wrong shape or not finite raise a ValueError naming the
    shape or the point, since no sign can be read.
    """
    if samples_per_axis < 2:
        raise ValueError(f"need at least 2 samples per axis, got {samples_per_axis}")
    cells = np.arange(mesh.n_cells)
    multi, origin, h = mesh.cell_multi(cells), np.asarray(mesh.origin), np.asarray(mesh.spacing)
    # upper corners origin + (m + 1) h, not cell_box's lo + h, which can differ
    # in the last bit: neighbours sample their shared face at one coordinate
    nonneg = cutquad.box_signs(phi, origin + multi * h, origin + (multi + 1) * h, samples_per_axis, cells)
    labels = np.where(nonneg.all(axis=1), Label.INSIDE, np.where(nonneg.any(axis=1), Label.CUT, Label.OUTSIDE))
    return CellClassification(mesh, labels.astype(np.int8))


# ---------------------------------------------------------------------------
# ghost faces


def ghost_faces(classification: CellClassification) -> np.ndarray:
    """Faces needing ghost stabilization: both neighbors non-OUTSIDE, at
    least one CUT.  Rows (axis, flat lower cell), shape (n_faces, 2), ordered
    by axis, then by flat lower-cell index; the upper cell is the lower cell
    plus ``mesh.cell_strides[axis]``."""
    mesh = classification.mesh
    labels = classification.labels
    flat = np.arange(mesh.n_cells, dtype=np.int64)
    rows = []
    for axis, (n_axis, stride) in enumerate(zip(mesh.cells_per_axis, mesh.cell_strides)):
        lower = flat[(flat // stride) % n_axis < n_axis - 1]
        ll, lu = labels[lower], labels[lower + stride]
        keep = (ll != Label.OUTSIDE) & (lu != Label.OUTSIDE) & ((ll == Label.CUT) | (lu == Label.CUT))
        rows.append(np.stack([np.full(np.count_nonzero(keep), axis, dtype=np.int64), lower[keep]], axis=1))
    return np.concatenate(rows)


# ---------------------------------------------------------------------------
# degrees of freedom


@dataclass
class DofMap:
    """Active tensor-product Lagrange DoFs of degree k over the mesh.

    ``compact`` maps the flat DoF-grid index to 0..n_active-1, or to -1
    when the DoF has no supporting non-OUTSIDE cell: the active DoFs are
    ``compact >= 0``, in flat order.  ``n_active`` is stored, since every
    vmult reads it.
    """

    mesh: CartesianMesh
    degree: int
    classification: CellClassification
    extents: tuple[int, ...]
    compact: np.ndarray = field(repr=False)
    n_active: int = 0

    @property
    def strides(self) -> tuple[int, ...]:
        s, out = 1, []
        for n in self.extents:
            out.append(s)
            s *= n
        return tuple(out)

    def cell_dofs(self, cells, axis: int | None = None) -> np.ndarray:
        """Flat DoF-grid indices of each cell's DoFs, shape (m, (k+1)^d), in
        local lexicographic order.

        With ``axis`` the cells are the lower cells of two-cell patches along
        that axis, and each row holds the patch's DoFs (``patch_extents``).
        A patch that leaves the mesh or touches an OUTSIDE cell raises
        ValueError."""
        cells = np.atleast_1d(np.asarray(cells, dtype=np.int64))
        multi = self.mesh.cell_multi(cells)
        if axis is not None:
            last = multi[:, axis] == self.mesh.cells_per_axis[axis] - 1
            if last.any():
                raise ValueError(f"cell {tuple(multi[last][0])} has no upper neighbor along axis {axis}")
            labels, upper = self.classification.labels, cells + self.mesh.cell_strides[axis]
            outside = (labels[cells] == Label.OUTSIDE) | (labels[upper] == Label.OUTSIDE)
            if outside.any():
                raise ValueError(f"face patch of lower cell {tuple(multi[outside][0])} touches an OUTSIDE cell")
        strides = np.asarray(self.strides, dtype=np.int64)
        off = np.zeros(1, dtype=np.int64)
        for a, n in enumerate(self.patch_extents(axis)):
            # later axes vary slower, keeping axis 0 fastest in the flat order
            off = (off[None, :] + (np.arange(n, dtype=np.int64) * strides[a])[:, None]).ravel()
        return ((self.degree * multi) @ strides)[:, None] + off[None, :]

    def compact_cell_dofs(self, cells, axis: int | None = None) -> np.ndarray:
        return self.compact[self.cell_dofs(cells, axis)]

    def patch_extents(self, axis: int | None) -> tuple[int, ...]:
        """Local DoF extents of one cell (axis None) or of a two-cell patch."""
        k = self.degree
        return tuple(2 * k + 1 if a == axis else k + 1 for a in range(self.mesh.dim))

    def dof_coordinates(self) -> np.ndarray:
        """Physical coordinates of the active DoFs, shape (n_active, d)."""
        k, nodes = self.degree, gauss_lobatto_nodes(self.degree)
        pts = np.empty((self.n_active, self.mesh.dim))
        flat = np.flatnonzero(self.compact >= 0)
        for a in range(self.mesh.dim):
            g = (flat // self.strides[a]) % self.extents[a]
            pts[:, a] = self.mesh.origin[a] + (g // k + nodes[g % k]) * self.mesh.spacing[a]
        return pts


def build_dofmap(mesh: CartesianMesh, k: int, classification: CellClassification) -> DofMap:
    """Mark a DoF active when at least one cell supporting it is non-OUTSIDE."""
    if k < 1:
        raise ValueError(f"degree must be >= 1, got {k}")
    extents = tuple(k * n + 1 for n in mesh.cells_per_axis)
    dm = DofMap(mesh=mesh, degree=k, classification=classification, extents=extents,
                compact=np.full(prod(extents), -1, dtype=np.int64))
    active = np.zeros(prod(extents), dtype=bool)
    keep = np.flatnonzero(classification.labels != Label.OUTSIDE).astype(np.int64)
    if keep.size:
        active[dm.cell_dofs(keep).ravel()] = True
    dm.n_active = int(np.count_nonzero(active))
    dm.compact[active] = np.arange(dm.n_active, dtype=np.int64)
    return dm


# ---------------------------------------------------------------------------
# ball configuration files


def generate_balls(n: int, seed: int, box_lo, box_hi, r0: float = 1.0):
    """n random balls of radius r0/n with centers uniform in the box shrunk
    by one radius (degenerating to the box center when the box is too small)."""
    if n < 1:
        raise ValueError("need at least one ball")
    lo = np.asarray(box_lo, dtype=float)
    hi = np.asarray(box_hi, dtype=float)
    r = r0 / n
    rng = np.random.default_rng(seed)
    slo, shi = lo + r, hi - r
    mid = 0.5 * (lo + hi)
    empty = slo >= shi
    slo = np.where(empty, mid, slo)
    shi = np.where(empty, mid, shi)
    centers = rng.uniform(slo, shi, size=(n, lo.size))
    return centers, np.full(n, r)


def save_balls(path, centers, radii) -> None:
    """One line per ball: center coordinates then radius, round-trip exact."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for c, r in zip(centers, radii):
            f.write(" ".join(repr(float(v)) for v in c) + f" {float(r)!r}\n")


def load_balls(path):
    centers, radii = [], []
    with open(path, encoding="utf-8") as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if len(parts) not in (3, 4):
                raise ValueError(f"expected 'cx cy [cz] r', got {line!r}")
            vals = [float(p) for p in parts]
            centers.append(vals[:-1])
            radii.append(vals[-1])
    return np.array(centers), np.array(radii)
