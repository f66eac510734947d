"""1D reference element: nodes, quadrature, mass, derivative jumps, ghost factors."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from numpy.testing import assert_allclose

from mfcutfem.tensor1d import (
    build_reference_element,
    gauss_lobatto_nodes,
    gauss_rule,
    ghost_matrix_1d,
    jump_vector,
    mass_matrix_1d,
    patch_nodes,
    stiffness_matrix_1d,
)

import oracles


def test_lobatto_nodes_low_orders():
    assert_allclose(gauss_lobatto_nodes(1), [0.0, 1.0])
    assert_allclose(gauss_lobatto_nodes(2), [0.0, 0.5, 1.0])
    # interior degree-3 points: (1 +/- 1/sqrt(5)) / 2
    inner = 0.5 / np.sqrt(5.0)
    assert_allclose(gauss_lobatto_nodes(3), [0.0, 0.5 - inner, 0.5 + inner, 1.0], atol=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_lobatto_nodes_sorted_symmetric(k):
    nodes = gauss_lobatto_nodes(k)
    assert nodes[0] == 0.0 and nodes[-1] == 1.0
    assert np.all(np.diff(nodes) > 0)
    assert_allclose(nodes + nodes[::-1], np.ones(k + 1), atol=1e-14)


@pytest.mark.parametrize("q", [1, 2, 3, 5, 8])
def test_gauss_rule_exactness(q):
    x, w = gauss_rule(q)
    assert_allclose(w.sum(), 1.0, rtol=1e-14)
    for p in range(2 * q):  # exact through degree 2q-1
        assert_allclose(np.sum(w * x**p), 1.0 / (p + 1), rtol=1e-13, err_msg=f"x^{p}")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_shape_values_match_lagrange_oracle(k, rng):
    elem = build_reference_element(k)
    x = rng.random(17)
    for deriv in range(k + 1):
        assert_allclose(
            elem.table(x, deriv=deriv).T,
            oracles.eval_basis(elem.nodes, x, deriv=deriv),
            atol=1e-11,
        )


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_table_has_the_bits_of_polyval(k, rng):
    # Horner's rule in polyval's order, written into one table: the same
    # bits for every derivative, shape of x and preallocated output
    elem = build_reference_element(k)
    for x in (rng.random(17), rng.random((3, 5)) * 2 - 0.5, np.float64(0.3), np.array([0.0, 1.0, -0.0])):
        for deriv in range(k + 1):
            ref = npoly.polyval(np.asarray(x), elem._deriv_coeffs[deriv])
            assert np.array_equal(elem.table(x, deriv), ref)
            out = np.full((k + 1,) + np.shape(x), np.nan)
            assert elem.table(x, deriv, out=out) is out and np.array_equal(out, ref)


def test_lagrange_basis_on_given_nodes():
    nodes = gauss_rule(5)[0]
    elem = build_reference_element(4, nodes=nodes)
    assert np.array_equal(elem.nodes, nodes)
    assert_allclose(elem.table(nodes), np.eye(5), atol=1e-12)
    with pytest.raises(ValueError, match="needs 5 nodes"):
        build_reference_element(4, nodes=nodes[:4])


def test_evaluate_nodal_property():
    elem = build_reference_element(3)
    assert_allclose(elem.table(elem.nodes), np.eye(4), atol=1e-12)


def test_partition_of_unity():
    elem = build_reference_element(3)
    x = np.linspace(0.0, 1.0, 11)
    assert_allclose(elem.table(x).sum(axis=0), np.ones(11), atol=1e-12)
    assert_allclose(elem.table(x, deriv=1).sum(axis=0), np.zeros(11), atol=1e-11)


def test_evaluate_rejects_high_derivative():
    elem = build_reference_element(2)
    with pytest.raises(ValueError):
        elem.table(np.array([0.5]), deriv=3)


def test_build_reference_element_validation():
    with pytest.raises(ValueError):
        build_reference_element(0)
    with pytest.raises(TypeError):
        build_reference_element(2, 4)  # the nodes are keyword-only, and there is no rule order to pass


def test_mass_matrix_linear():
    elem = build_reference_element(1)
    assert_allclose(mass_matrix_1d(elem), [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], rtol=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_mass_matrix_against_oracle(k):
    elem = build_reference_element(k)
    m = mass_matrix_1d(elem)
    assert_allclose(m, oracles.mass_matrix(elem.nodes), atol=1e-13)
    assert_allclose(m, m.T, atol=1e-15)
    assert np.all(np.linalg.eigvalsh(m) > 0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stiffness_matrix_against_oracle(k):
    # K1[i, j] = int_0^1 phi_i' phi_j' from the oracle's derivative products,
    # integrated exactly by a Gauss rule
    x, w = oracles.gauss_points_weights(k + 1)
    g = oracles.eval_basis(gauss_lobatto_nodes(k), x, deriv=1)
    exact = (g.T * w) @ g
    stiff = stiffness_matrix_1d(build_reference_element(k))
    assert_allclose(stiff, exact, atol=1e-12)
    assert_allclose(stiff, stiff.T, atol=1e-15 * np.abs(stiff).max())
    assert_allclose(stiff.sum(axis=1), 0.0, atol=1e-12 * np.abs(stiff).max())


def test_patch_nodes_layout():
    elem = build_reference_element(2)
    assert_allclose(patch_nodes(elem), [0.0, 0.5, 1.0, 1.5, 2.0])
    assert len(patch_nodes(build_reference_element(3))) == 7


def test_jump_vector_linear_first_derivative():
    elem = build_reference_element(1)
    assert_allclose(jump_vector(elem, 1), [1.0, -2.0, 1.0], atol=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_jump_vector_against_oracle(k, m):
    if m > k:
        return
    elem = build_reference_element(k)
    assert_allclose(jump_vector(elem, m), oracles.jump_vector(elem.nodes, m), atol=1e-10)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_jump_vectors_annihilate_global_polynomials(k):
    # a polynomial of degree <= k over the whole patch has no derivative jumps
    elem = build_reference_element(k)
    xs = patch_nodes(elem)
    for p in range(k + 1):
        vals = xs**p
        for m in range(1, k + 1):
            assert abs(jump_vector(elem, m) @ vals) < 1e-10


def test_jump_vector_range_checked():
    elem = build_reference_element(2)
    with pytest.raises(ValueError):
        jump_vector(elem, 3)
    with pytest.raises(ValueError):
        jump_vector(elem, -1)


def test_ghost_matrix_linear_unit_spacing():
    elem = build_reference_element(1)
    j = np.array([1.0, -2.0, 1.0])
    assert_allclose(ghost_matrix_1d(elem, 1.0), np.outer(j, j), atol=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ghost_matrix_against_oracle(k):
    elem = build_reference_element(k)
    for h in (1.0, 0.05, 3.7):
        assert_allclose(ghost_matrix_1d(elem, h), oracles.ghost_matrix(elem.nodes, h), rtol=1e-10, atol=1e-12)


def test_ghost_matrix_inverse_h_scaling():
    elem = build_reference_element(3)
    assert_allclose(ghost_matrix_1d(elem, 0.25), 4.0 * ghost_matrix_1d(elem, 1.0), rtol=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_ghost_matrix_psd_with_k_dimensional_kernel(k):
    # annihilating polynomials of degree <= k leaves rank 2k+1-(k+1) = k
    g = ghost_matrix_1d(build_reference_element(k), 0.7)
    ev = np.linalg.eigvalsh(g)
    assert ev.min() > -1e-10
    assert np.sum(ev > 1e-8 * ev.max()) == k


def test_ghost_matrix_rejects_bad_spacing():
    elem = build_reference_element(1)
    with pytest.raises(ValueError):
        ghost_matrix_1d(elem, 0.0)
    with pytest.raises(ValueError):
        ghost_matrix_1d(elem, -1.0)

