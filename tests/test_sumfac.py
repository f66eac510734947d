"""Tensor fields, axis contractions, Kronecker application, cell Laplacian,
and the multiply-add counter."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mfcutfem import sumfac, tensor1d
from mfcutfem.sumfac import (
    TensorField,
    apply_axis,
    cell_laplacian,
    cell_laplacian_kernel,
    kron_batch,
    madd_count,
    reference_weight_grid,
    reset_madd_count,
)
from mfcutfem.tensor1d import build_reference_element

import oracles


def test_tensor_field_validation():
    with pytest.raises(ValueError):
        TensorField((2,), np.zeros(2))  # 1D fields are not supported
    with pytest.raises(ValueError):
        TensorField((2, 2, 2, 2), np.zeros(16))
    with pytest.raises(ValueError):
        TensorField((2, 3), np.zeros(5))
    with pytest.raises(ValueError):
        TensorField((0, 3), np.zeros(0))


def test_flat_layout_axis0_fastest():
    # flat index i = i1 + n1*i2 ; the numpy grid view is indexed [i2, i1]
    u = TensorField((2, 3), np.arange(6.0))
    grid = u.as_grid()
    assert grid.shape == (3, 2)
    for i2 in range(3):
        for i1 in range(2):
            assert grid[i2, i1] == i1 + 2 * i2


def test_flat_layout_3d():
    u = TensorField((2, 3, 4), np.arange(24.0))
    grid = u.as_grid()
    assert grid.shape == (4, 3, 2)
    assert grid[1, 2, 0] == 0 + 2 * 2 + 6 * 1


@pytest.mark.parametrize("extents", [(3, 4), (2, 3, 4)])
def test_apply_axis_matches_dense_kron(extents, rng):
    u = TensorField(extents, rng.standard_normal(int(np.prod(extents))))
    for axis in range(len(extents)):
        a = rng.standard_normal((5, extents[axis]))  # rectangular: 5 outputs
        mats = [np.eye(n) for n in extents]
        mats[axis] = a
        dense = oracles.dense_kron(mats)
        out = apply_axis(a, u, axis)
        assert out.extents == tuple(5 if b == axis else n for b, n in enumerate(extents))
        assert_allclose(out.data, dense @ u.data, atol=1e-12)


def test_apply_axis_validates_shapes(rng):
    u = TensorField((3, 4), rng.standard_normal(12))
    with pytest.raises(ValueError):
        apply_axis(np.zeros((2, 5)), u, 0)  # inner dim mismatch
    with pytest.raises(ValueError):
        apply_axis(np.zeros((3, 3)), u, 2)  # no such axis


def test_apply_axis_madd_count_identity(rng):
    # counted multiply-adds must equal m_out * m_in * prod(other extents)
    for extents in [(3, 4), (4, 5, 6)]:
        u = TensorField(extents, rng.standard_normal(int(np.prod(extents))))
        for axis in range(len(extents)):
            for m_out in (2, 7):
                a = rng.standard_normal((m_out, extents[axis]))
                other = int(np.prod(extents)) // extents[axis]
                reset_madd_count()
                apply_axis(a, u, axis)
                assert madd_count() == m_out * extents[axis] * other


def test_madd_count_accumulates(rng):
    u = TensorField((3, 3), rng.standard_normal(9))
    a = rng.standard_normal((3, 3))
    reset_madd_count()
    apply_axis(a, u, 0)
    apply_axis(a, u, 1)
    assert madd_count() == 2 * 27


@pytest.mark.parametrize("extents", [(3, 4), (2, 3, 4)])
def test_kron_batch_matches_dense(extents, rng):
    # rectangular factors, and each field of the batch on its own
    mats = [rng.standard_normal((n + 1, n)) for n in extents]
    dense = oracles.dense_kron(mats)
    u = rng.standard_normal((5, int(np.prod(extents))))
    out = kron_batch(mats, u.reshape((5,) + extents[::-1]))
    assert out.shape == (5,) + tuple(n + 1 for n in extents[::-1])
    assert_allclose(out.reshape(5, -1), u @ dense.T, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_cell_laplacian_kernel_counts_every_sweep(d, k, rng):
    # d sweeps of (k+1) x (k+1) matrices per direction, each (k+1)^(d+1)
    # multiply-adds per cell
    n, cells = k + 1, 7
    u = rng.standard_normal((cells, n**d))
    kernel = cell_laplacian_kernel(build_reference_element(k), (0.3, 0.7, 0.45)[:d])
    reset_madd_count()
    kernel(u)
    assert madd_count() == cells * d * d * n ** (d + 1)


def test_cell_laplacian_kernel_builds_its_1d_matrices_once(monkeypatch, rng):
    # K1 is built when the kernel is made, from the element it is given,
    # and never when the kernel is applied
    elem = build_reference_element(2)
    u = rng.standard_normal((3, 9))
    builds = []
    build = sumfac.stiffness_matrix_1d
    monkeypatch.setattr(sumfac, "stiffness_matrix_1d", lambda e: builds.append(e) or build(e))
    kernel = cell_laplacian_kernel(elem, (0.3, 0.7))
    assert len(builds) == 1 and builds[0] is elem
    first = kernel(u)
    assert np.array_equal(kernel(u), first) and len(builds) == 1


def test_cell_laplacian_kernel_reads_its_elements_own_basis():
    # K1 and M1 come from the element given, not from the Gauss-Lobatto
    # element of its degree: on Gauss nodes the two bases differ
    elem = build_reference_element(2, nodes=tensor1d.gauss_rule(3)[0])
    stiff, mass = tensor1d.stiffness_matrix_1d(elem), tensor1d.mass_matrix_1d(elem)
    u = np.arange(9.0)
    h = (0.5, 0.25)  # axis 0 fastest: the axis-1 factor is the left Kronecker operand
    expected = (np.kron(h[1] * mass, stiff / h[0]) + np.kron(stiff / h[1], h[0] * mass)) @ u
    assert_allclose(cell_laplacian_kernel(elem, h)(u[None])[0], expected, rtol=1e-13, atol=1e-13)


def test_reference_weight_grid_layout():
    w = np.array([1.0, 2.0, 3.0])
    grid = reference_weight_grid(w, 2)
    # flat lexicographic: entry at i = i1 + 3*i2 equals w[i1] * w[i2]
    for i2 in range(3):
        for i1 in range(3):
            assert grid[i1 + 3 * i2] == w[i1] * w[i2]
    grid3 = reference_weight_grid(w, 3)
    assert grid3[1 + 3 * 2 + 9 * 0] == w[1] * w[2] * w[0]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_cell_laplacian_matches_dense_stiffness(d, k, rng):
    elem = build_reference_element(k)
    spacing = (0.3, 0.7, 0.45)[:d]
    n = k + 1
    nloc = n**d
    dense = oracles.dense_cell_stiffness(elem.nodes, spacing, len(elem.quad_points))
    probed = np.zeros((nloc, nloc))
    for j in range(nloc):
        e = np.zeros(nloc)
        e[j] = 1.0
        probed[:, j] = cell_laplacian(elem, spacing, TensorField((n,) * d, e)).data
    assert_allclose(probed, dense, atol=1e-11)
    assert_allclose(probed, probed.T, atol=1e-12)


def test_cell_laplacian_annihilates_constants():
    elem = build_reference_element(2)
    u = TensorField((3, 3), np.ones(9))
    assert np.max(np.abs(cell_laplacian(elem, (0.2, 0.4), u).data)) < 1e-13


def test_cell_laplacian_energy_of_linear_field():
    # u(x, y) = x on a cell of size hx x hy has energy |grad u|^2 * area
    elem = build_reference_element(1)
    hx, hy = 0.5, 0.25
    xs = np.array([0.0, hx, 0.0, hx])
    u = TensorField((2, 2), xs)
    w = cell_laplacian(elem, (hx, hy), u)
    assert_allclose(u.data @ w.data, 1.0 * hx * hy, rtol=1e-12)
