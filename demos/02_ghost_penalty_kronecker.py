"""The ghost-penalty face operator as a Kronecker product.

Cut finite element methods go unstable when a cell keeps only a sliver
of the physical domain: basis functions supported there are nearly
invisible to the bilinear form and the system becomes arbitrarily
ill-conditioned.  The cure is a "ghost penalty" that ties the
polynomial on a cut cell to its neighbor across each shared face by
penalizing jumps in normal derivatives.

On tensor-product elements this face coupling has special structure.
Over the 2k+1 one-dimensional nodes of a two-cell patch (the shared
node counted once), jumps of the m-th normal derivative only involve
the direction normal to the face; the tangential directions contribute
plain mass matrices.  The whole face matrix is therefore a Kronecker
product of precomputed 1D factors

    gamma * (h M) x ... x G(h) x ... x (h M)

with the ghost matrix G in the normal slot.  It is never formed: it is
applied one axis at a time by sum factorization, at a cost linear in k
per degree of freedom instead of the quadratic-in-patch-size cost of a
dense face matrix.

This script verifies the structure numerically and measures the cost.

Run:  python3 demos/02_ghost_penalty_kronecker.py
"""

import numpy as np

from mfcutfem import (
    Parameters,
    SphereLevelSet,
    TensorField,
    apply_axis,
    box_mesh,
    build_context,
    build_reference_element,
    ghost_face_apply,
    ghost_matrix_1d,
    mass_matrix_1d,
    patch_nodes,
)
from mfcutfem.sumfac import madd_count, reset_madd_count

rng = np.random.default_rng(7)

# --- 1. The one-dimensional ghost matrix ---------------------------------
# G(h) acts on the 2k+1 nodal values of a two-cell patch.  It has rank k
# (one rank-1 term per derivative order 1..k) and annihilates exactly the
# functions that are a single polynomial of degree <= k across both cells.
k, h = 3, 0.25
elem = build_reference_element(k)
nodes = patch_nodes(elem)           # 2k+1 patch nodes on [0, 2]
G = ghost_matrix_1d(elem, h)
rank = np.linalg.matrix_rank(G)
print(f"degree k = {k}: patch has {nodes.size} nodes, "
      f"rank(G) = {rank} (expected {k}), "
      f"kernel dimension = {nodes.size - rank} (expected {k + 1})")
for deg in range(k + 1):
    smooth = nodes**deg             # one global polynomial across the patch
    print(f"  |G @ x^{deg}| = {np.linalg.norm(G @ smooth):.2e}  (annihilated)")
broken = np.where(nodes <= 1.0, nodes, 2.0 - nodes)  # kink at the face
print(f"  |G @ kinked| = {np.linalg.norm(G @ broken):.2e}  (penalized)")
print()

# --- 2. Face application == dense Kronecker product ----------------------
# Build a real cut discretization and compare the matrix-free face apply
# against an explicitly assembled Kronecker product.
mesh = box_mesh([-1.26] * 2, [1.26] * 2, [3, 3])
ctx = build_context(mesh, SphereLevelSet([0.0, 0.0], 1.0), Parameters(degree=k))
axis = ctx.faces[len(ctx.faces) // 2, 0]   # face rows are (axis, lower cell)
mass = mass_matrix_1d(ctx.elem)
mats = [
    ghost_matrix_1d(ctx.elem, hb) if b == axis else hb * mass
    for b, hb in enumerate(mesh.spacing)
]
dense = mats[0]
for m in mats[1:]:
    dense = np.kron(m, dense)       # axis 0 fastest in the flat ordering
dense *= ctx.params.gamma_ghost

extents = ctx.dofmap.patch_extents(axis)
worst = 0.0
for _ in range(10):
    u = TensorField(extents, rng.standard_normal(int(np.prod(extents))))
    got = ghost_face_apply(ctx, axis, u).data
    want = dense @ u.data
    worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
print(f"matrix-free face apply vs dense Kronecker matrix "
      f"(patch extents {extents}, 10 random vectors): "
      f"max relative deviation {worst:.2e}")
print()

# --- 3. Sum factorization cost -------------------------------------------
# Applying one n x n factor to a d-dimensional field of extent n per axis
# costs exactly n^(d+1) multiply-adds -- linear in the field size times n,
# not quadratic.  The counter in the kernel makes this auditable.
print("axis apply cost (d = 3 field, one n x n factor): n^4 multiply-adds")
print("  n    field size    madds     madds per dof")
for n in (2, 4, 8):
    a = rng.standard_normal((n, n))
    u = TensorField((n, n, n), rng.standard_normal(n**3))
    reset_madd_count()
    apply_axis(a, u, axis=0)
    c = madd_count()
    print(f"  {n}    {n**3:8d}    {c:8d}     {c / n**3:.1f}")
print()

# For the ghost face itself: a dense patch matrix costs nloc^2 madds per
# apply, the factored form one axis contraction per dimension.
nloc = int(np.prod(extents))
reset_madd_count()
ghost_face_apply(ctx, axis, TensorField(extents, rng.standard_normal(nloc)))
factored = madd_count()
print(f"one ghost-face apply (d = {mesh.dim}, k = {k}, patch {extents}): "
      f"dense would need {nloc**2} madds, factored uses {factored} "
      f"({nloc**2 / factored:.1f}x fewer).")
