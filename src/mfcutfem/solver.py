"""Conjugate-gradient solve, the L2 error norm and manufactured problems.

The solver is a plain unpreconditioned CG with x0 = 0 stopping at
||r|| <= tol_rel * ||b||; its report says why it stopped.  Each iteration
takes one reduction of r, whose square root is the residual norm, and
updates the search direction in place.  All reductions run in a fixed
order, so solves are bitwise reproducible for a fixed operator.
``l2_error`` takes the square root of ``operators.squared_l2_error``, which
checks its input and integrates with elevated-order rules (tensor Gauss on
uncut cells, cut-cell rules built in the call on intersected cells) so the
measurement resolves rates up to k+1.  The manufactured
problems give exact solutions and right-hand sides on the unit disk or ball.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .operators import OperatorContext, squared_l2_error, vmult


@dataclass
class SolveReport:
    """Outcome of a CG solve; carries the full residual-norm history.

    ``stop_reason`` is "converged", "max_iter", or "breakdown" when a search
    direction p gave p . Ap <= 0 (the operator is not positive definite) or
    a non-finite p . Ap (the operator returned NaN or infinity)."""

    solution: np.ndarray
    iterations: int
    converged: bool
    stop_reason: str
    relative_residual: float
    residual_history: np.ndarray
    wall_time: float


def cg_solve(apply, b: np.ndarray, tol_rel: float = 1e-8, max_iter: int | None = None) -> SolveReport:
    """Unpreconditioned CG from x0 = 0 for a symmetric positive operator.

    ``apply`` is either a callable ``v -> A v`` or an OperatorContext.  On
    non-convergence the report has converged=False, its stop_reason, and the
    residual history shows how far the solve got; no exception is raised,
    except a ValueError for a context with active DoFs and no cut cell, a
    non-finite right-hand side, a tol_rel that is not finite and >= 0, or a
    negative max_iter.
    """
    if isinstance(apply, OperatorContext):
        ctx = apply
        if ctx.n_dofs and not len(ctx.cut_cells):
            raise ValueError("no cut cell: Nitsche then imposes no boundary condition, so the operator is singular")
        apply = lambda v: vmult(ctx, v)
    b = np.asarray(b, dtype=float)
    if not np.isfinite(b).all():
        raise ValueError("right-hand side contains non-finite entries")
    if not 0.0 <= tol_rel < np.inf:
        raise ValueError(f"tol_rel must be finite and >= 0, got {tol_rel}")
    n = b.size
    if max_iter is None:
        max_iter = int(20 * np.sqrt(n)) + 1000
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")

    t0 = time.perf_counter()
    x = np.zeros_like(b)
    r = b.copy()
    rs = float(r @ r)
    norm_b = float(np.sqrt(rs))  # the bits of np.linalg.norm(r): sqrt(r . r)
    history = [norm_b]
    if norm_b == 0.0:
        return SolveReport(x, 0, True, "converged", 0.0, np.array(history), time.perf_counter() - t0)

    p = r.copy()
    stop_reason = "max_iter"
    iterations = 0
    for iterations in range(1, max_iter + 1):
        ap = apply(p)
        p_ap = float(p @ ap)
        if not 0.0 < p_ap < np.inf:
            # loss of positivity in finite precision, or a non-finite operator
            iterations -= 1
            stop_reason = "breakdown"
            break
        alpha = rs / p_ap
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        rn = float(np.sqrt(rs_new))
        history.append(rn)
        if rn <= tol_rel * norm_b:
            stop_reason = "converged"
            break
        p *= rs_new / rs  # p <- r + beta p in place, same bits
        p += r
        rs = rs_new

    return SolveReport(
        solution=x,
        iterations=iterations,
        converged=stop_reason == "converged",
        stop_reason=stop_reason,
        relative_residual=history[-1] / norm_b,
        residual_history=np.array(history),
        wall_time=time.perf_counter() - t0,
    )


def l2_error(ctx: OperatorContext, u_h: np.ndarray, u_exact) -> float:
    """sqrt of the integral of (u_h - u_exact)^2 over the physical domain.

    Uncut cells use a tensor Gauss rule of order k+2; cut cells use interior
    rules at that order, built in the call.
    """
    return float(np.sqrt(squared_l2_error(ctx, u_h, u_exact)))


def manufactured_problem(d: int):
    """Quadratic exact solution u = (2/d)(1 - |x|^2), zero on the unit sphere.

    Returns (u_exact, f) with f = -Laplacian(u) = 4 in any dimension.  The
    solution lies in the trial space for k >= 2, which makes it a sharp
    consistency check but useless for measuring convergence rates.
    """
    if d not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {d}")

    def u_exact(x):
        x = np.asarray(x, dtype=float)
        return (2.0 / d) * (1.0 - np.sum(x * x, axis=-1))

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], 4.0)

    return u_exact, f


def radial_cosine_problem(d: int):
    """Non-polynomial exact solution u = cos(pi |x|^2 / 2), zero on |x| = 1.

    Returns (u_exact, f) with f = pi^2 |x|^2 cos(pi |x|^2 / 2)
    + d pi sin(pi |x|^2 / 2).  Lying outside every Q_k space, it exercises
    genuine discretization error at all degrees.
    """
    if d not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {d}")

    def u_exact(x):
        x = np.asarray(x, dtype=float)
        return np.cos(0.5 * np.pi * np.sum(x * x, axis=-1))

    def f(x):
        x = np.asarray(x, dtype=float)
        r2 = np.sum(x * x, axis=-1)
        return np.pi**2 * r2 * np.cos(0.5 * np.pi * r2) + d * np.pi * np.sin(0.5 * np.pi * r2)

    return u_exact, f
