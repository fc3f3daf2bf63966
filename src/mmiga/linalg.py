"""Sparse SPD solves (preconditioned CG) and banded direct solves.

The conjugate gradient loop is written out explicitly so iteration counts,
breakdown detection and bit-reproducibility are under our control; matrices
are stored in scipy compressed-row form. The preconditioner is a callable
applying an SPD approximation of A^-1 to the residual, or None for none;
the Galerkin solves pass the fast-diagonalisation preconditioner that
:mod:`mmiga.assembly` builds from the knots. Banded systems (Greville
collocation matrices, which are totally positive, and the edge-trace mass
matrices of the Dirichlet projection) go through LAPACK's banded solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BreakdownError, ConvergenceError, SingularMatrixError

__all__ = ["LinearSolverSettings", "cg_solve", "banded_solve"]


@dataclass(frozen=True)
class LinearSolverSettings:
    """Iterative-solver knobs: relative residual and iteration cap."""

    tol: float = 1e-10
    maxit: int | None = None  # defaults to 10 * n

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if self.maxit is not None and (
            isinstance(self.maxit, bool) or not isinstance(self.maxit, (int, np.integer))
        ):
            raise TypeError(f"maxit must be an integer or None, got {self.maxit!r}")
        if self.maxit is not None and self.maxit < 1:
            raise ValueError(f"maxit must be >= 1 or None, got {self.maxit!r}")


def cg_solve(A, b, tol=1e-10, maxit=None, precond=None, callback=None, x0=None):
    """Conjugate gradients for SPD A; returns (x, iterations).

    ``x0`` is the initial guess (zero when None); a guess that already
    meets the stop test returns after 0 iterations, and one whose shape is
    not that of ``b`` raises ValueError. ``precond`` is a callable
    returning M^-1 r for an SPD M^-1 and a residual r, or None for the
    identity. Stops when ||b - A x|| <= tol * ||b||, with the residual
    updated by the recurrence; the bound is relative to ``b``, not to the
    initial residual, so a good guess saves iterations. Raises
    ConvergenceError when the iteration cap is hit and BreakdownError on a
    nonpositive curvature direction (A not SPD). ``callback(x)`` is invoked
    after every iteration.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if maxit is None:
        maxit = 10 * n
    apply = (lambda r: r) if precond is None else precond

    if x0 is None:
        x = np.zeros(n)
        r = b.copy()
    else:
        x = np.array(x0, dtype=float)
        if x.shape != b.shape:
            raise ValueError(f"initial guess of shape {x.shape} does not match {b.shape}")
        r = b - A @ x
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), 0
    if np.linalg.norm(r) <= tol * bnorm:
        return x, 0
    z = apply(r)
    p = z.copy()
    rz = r @ z
    for it in range(1, maxit + 1):
        Ap = A @ p
        pAp = p @ Ap
        if pAp <= 0.0:
            raise BreakdownError(
                f"zero/negative curvature (p·Ap = {pAp:.3e}) at iteration {it}"
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        if callback is not None:
            callback(x.copy())
        if np.linalg.norm(r) <= tol * bnorm:
            return x, it
        z = apply(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise ConvergenceError(
        f"conjugate gradients: no convergence in {maxit} iterations "
        f"(relative residual {np.linalg.norm(r) / bnorm:.3e})"
    )


def _to_banded(B):
    """Extract (l, u, ab) diagonal-ordered band storage from a dense matrix."""
    B = np.asarray(B, dtype=float)
    n = B.shape[0]
    nz = np.argwhere(B != 0.0)
    if nz.size == 0:
        raise SingularMatrixError("zero matrix")
    offsets = nz[:, 1] - nz[:, 0]
    u = max(int(offsets.max()), 0)
    l = max(int(-offsets.min()), 0)
    ab = np.zeros((l + u + 1, n))
    for d in range(-l, u + 1):
        diag = np.diagonal(B, offset=d)
        if d >= 0:
            ab[u - d, d:] = diag
        else:
            ab[u - d, : n + d] = diag
    return l, u, ab


def banded_solve(B, rhs):
    """Direct solve of a banded system for one or more right-hand sides.

    ``B`` is given densely (the bands are detected); the residual is verified
    against 1e-12 * ||rhs|| so a numerically singular system is reported
    rather than silently returned.
    """
    B = np.asarray(B, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    l, u, ab = _to_banded(B)
    try:
        x = scipy.linalg.solve_banded((l, u), ab, rhs)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("banded solve produced non-finite values")
    resid = np.linalg.norm(B @ x - rhs)
    if resid > 1e-12 * max(np.linalg.norm(rhs), 1e-300):
        raise SingularMatrixError(
            f"banded solve residual {resid:.3e} exceeds tolerance; matrix ill-conditioned"
        )
    return x
