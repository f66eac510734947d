"""One-dimensional reference element and ghost-penalty building blocks.

Everything in this module lives either on the unit interval [0, 1] (a single
reference cell) or on the two-cell reference patch [0, 1] u [1, 2].  The
higher-dimensional operators are assembled purely as tensor (Kronecker)
products of the small dense matrices produced here:

* ``mass_matrix_1d``  -- the (k+1) x (k+1) cell mass matrix M1,
* ``stiffness_matrix_1d`` -- the (k+1) x (k+1) cell stiffness matrix K1; an
  uncut cell's Laplacian is the Kronecker sum of K1 and M1,
* ``jump_vector``     -- the jump of the m-th normal derivative across the
  shared patch point x = 1, expressed in the 2k+1 patch basis functions,
* ``ghost_matrix_1d`` -- G1(h) = h^-1 sum_m (1/m!)^2 j_m j_m^T, the 1D
  normal-direction factor of the ghost-penalty face operator.

The nodal basis uses Gauss-Lobatto support points so that cell endpoints
carry exactly one shared degree of freedom per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre
from numpy.polynomial import polynomial as npoly


def gauss_lobatto_nodes(k: int) -> np.ndarray:
    """Return the k+1 Gauss-Lobatto points on [0, 1], endpoints included."""
    if k < 1:
        raise ValueError(f"degree must be >= 1, got {k}")
    # interior points are the roots of P_k', with P_k the Legendre polynomial
    # (none for k = 1)
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    interior = legendre.legroots(legendre.legder(coeffs))
    nodes = np.concatenate(([-1.0], interior, [1.0]))
    return 0.5 * (nodes + 1.0)


def gauss_rule(q: int) -> tuple[np.ndarray, np.ndarray]:
    """q-point Gauss-Legendre rule mapped to [0, 1] (weights sum to 1)."""
    if q < 1:
        raise ValueError(f"need at least one quadrature point, got {q}")
    x, w = legendre.leggauss(q)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass
class ReferenceElement1D:
    """Nodal Lagrange basis of degree k on [0, 1] with its exact (k+1)-point
    Gauss rule, which integrates a product of two basis functions exactly:
    M1 and K1 depend only on the degree and the nodes.

    Values and derivatives of the basis at any points go through ``table``,
    basis first: ``mass_matrix_1d`` and ``stiffness_matrix_1d`` read it at
    the quadrature points and ``jump_vector`` at the cell endpoints.
    """

    degree: int
    nodes: np.ndarray
    quad_points: np.ndarray
    quad_weights: np.ndarray
    # monomial coefficients of every basis function and its derivatives;
    # _deriv_coeffs[m][j, i] is the x^j coefficient of phi_i^(m)
    _deriv_coeffs: list[np.ndarray] = field(repr=False)

    def table(self, x, deriv: int = 0, out: np.ndarray | None = None) -> np.ndarray:
        """Values of all basis functions (or a derivative) at points x, basis
        first: ``(k+1,) + x.shape``, written into out if given.  Horner's
        rule in the order of ``npoly.polyval``, so the bits are polyval's,
        with no temporary larger than x."""
        if not 0 <= deriv <= self.degree:
            raise ValueError(f"derivative order {deriv} outside 0..{self.degree}")
        x = np.asarray(x, dtype=float)
        coefs = self._deriv_coeffs[deriv]
        coefs = coefs.reshape(coefs.shape + (1,) * x.ndim)  # (powers, k+1, 1, ...)
        out = np.empty(coefs.shape[1:2] + x.shape) if out is None else out
        np.add(coefs[-1], x * 0, out=out)
        for c in coefs[-2::-1]:
            out *= x
            out += c
        return out


def build_reference_element(k: int, *, nodes: np.ndarray | None = None) -> ReferenceElement1D:
    """Build the degree-k reference element with its exact (k+1)-point Gauss
    rule.  The k+1 support points default to the Gauss-Lobatto points of
    [0, 1]; other nodes, anywhere on the line, give the Lagrange basis on
    them.  An integral of another order takes its own rule (gauss_rule).
    """
    if nodes is None:
        nodes = gauss_lobatto_nodes(k)  # rejects k < 1
    elif len(nodes) != k + 1:
        raise ValueError(f"degree {k} needs {k + 1} nodes, got {len(nodes)}")
    qx, qw = gauss_rule(k + 1)

    # Lagrange basis in monomial form via the inverse Vandermonde matrix:
    # column i of V^-1 holds the coefficients of phi_i.  Fine for the small
    # degrees used here (k <= 4 in practice, stable well beyond that).
    vander = np.vander(nodes, increasing=True)
    coeffs = np.linalg.inv(vander)
    deriv_coeffs = [coeffs]
    for _ in range(k):
        deriv_coeffs.append(npoly.polyder(deriv_coeffs[-1]))

    return ReferenceElement1D(k, nodes, qx, qw, deriv_coeffs)


def mass_matrix_1d(elem: ReferenceElement1D) -> np.ndarray:
    """Reference cell mass matrix M1[i, j] = int_0^1 phi_i phi_j dx."""
    sv = elem.table(elem.quad_points)  # (k+1, q)
    return (sv * elem.quad_weights) @ sv.T


def stiffness_matrix_1d(elem: ReferenceElement1D) -> np.ndarray:
    """Reference cell stiffness matrix K1[i, j] = int_0^1 phi_i' phi_j' dx."""
    sg = elem.table(elem.quad_points, deriv=1)  # (k+1, q)
    return (sg * elem.quad_weights) @ sg.T


def patch_nodes(elem: ReferenceElement1D) -> np.ndarray:
    """The 2k+1 nodal points of the two-cell patch [0, 1] u [1, 2]."""
    return np.concatenate((elem.nodes, 1.0 + elem.nodes[1:]))


def jump_vector(elem: ReferenceElement1D, m: int) -> np.ndarray:
    """Jump of the m-th derivative at x=1 for each of the 2k+1 patch basis
    functions (value from the right cell minus value from the left cell).

    Patch functions are numbered lexicographically: the k+1 nodal functions
    of the left cell first, then the k remaining nodal functions of the
    right cell; the shared node at x=1 appears once, at index k.
    """
    k = elem.degree
    left, right = elem.table(1.0, deriv=m), elem.table(0.0, deriv=m)
    # left cell only, the shared node (phi_k left, phi_0 right), right cell only
    return np.concatenate((-left[:k], [right[0] - left[k]], right[1:]))


def ghost_matrix_1d(elem: ReferenceElement1D, h: float) -> np.ndarray:
    """Normal-direction ghost-penalty factor on a patch of two cells of size h.

    G1(h) = h^-1 sum_{m=1}^{k} (1/m!)^2 j_m j_m^T.  The m = 0 term vanishes
    identically (the nodal basis is continuous across the shared node), so
    the sum starts at 1.  Scaling: the m-th derivative jump of a function on
    physical cells picks up h^-m per order and the face weight contributes
    h^(2m-1), leaving the single global factor h^-1.
    """
    if h <= 0:
        raise ValueError(f"cell size must be positive, got {h}")
    k = elem.degree
    g = np.zeros((2 * k + 1, 2 * k + 1))
    for m in range(1, k + 1):
        j = jump_vector(elem, m)
        g += np.outer(j, j) / math.factorial(m) ** 2
    return g / h

