"""Self-contained dense two-phase revised simplex.

Solves ``min c @ x  s.t.  A @ x <= b, x >= 0`` with an explicit basis
inverse, Dantzig pricing, and a Bland's-rule fallback that engages after a
degeneracy stall to guarantee termination.  Intended for desk-scale
instances; the dense basis factorization caps practical size well below
what the problem builder can emit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: consecutive non-improving pivots before switching to Bland's rule
_STALL_LIMIT = 60
#: pivots between basis-inverse refactorizations
_REFACTOR_EVERY = 128


@dataclass(frozen=True)
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
    x: np.ndarray | None
    objective: float | None
    iterations: int


class _Tableau:
    """Revised simplex state over an equality system ``A x = b, x >= 0``."""

    def __init__(self, A: np.ndarray, b: np.ndarray, basis: list[int], tol: float):
        self.A = A
        self.b = b
        self.basis = list(basis)
        self.tol = tol
        self.m = A.shape[0]
        self.refactor()
        self.iterations = 0

    def refactor(self):
        self.B_inv = np.linalg.inv(self.A[:, self.basis])
        self.xB = self.B_inv @ self.b
        tiny = (self.xB < 0) & (self.xB > -1e-7)
        self.xB[tiny] = 0.0

    def solution(self) -> np.ndarray:
        x = np.zeros(self.A.shape[1])
        x[self.basis] = self.xB
        return x

    def run(self, c: np.ndarray, allowed: np.ndarray, max_iterations: int) -> str:
        """Minimize ``c @ x``; only columns with ``allowed`` may enter."""
        tol = self.tol
        stall = 0
        bland = False
        best = np.inf
        while self.iterations < max_iterations:
            y = c[self.basis] @ self.B_inv
            reduced = c - y @ self.A
            reduced[self.basis] = 0.0
            candidates = np.nonzero((reduced < -tol) & allowed)[0]
            if candidates.size == 0:
                return "optimal"
            if bland:
                enter = int(candidates[0])
            else:
                enter = int(candidates[np.argmin(reduced[candidates])])
            d = self.B_inv @ self.A[:, enter]
            pos = d > tol
            if not pos.any():
                return "unbounded"
            ratios = np.full(self.m, np.inf)
            ratios[pos] = self.xB[pos] / d[pos]
            theta = float(ratios.min())
            ties = np.nonzero(ratios <= theta + tol)[0]
            if bland:
                leave = int(ties[np.argmin([self.basis[r] for r in ties])])
            else:
                # prefer kicking out the largest pivot element for stability
                leave = int(ties[np.argmax(d[ties])])
            self._pivot(enter, leave, d, max(theta, 0.0))
            self.iterations += 1
            if self.iterations % _REFACTOR_EVERY == 0:
                self.refactor()
            obj = float(c[self.basis] @ self.xB)
            if obj < best - tol:
                best, stall = obj, 0
            else:
                stall += 1
                if stall > _STALL_LIMIT:
                    bland = True
        return "iteration_limit"

    def _pivot(self, enter: int, leave: int, d: np.ndarray, theta: float):
        row = self.B_inv[leave, :] / d[leave]
        self.B_inv -= np.outer(d, self.B_inv[leave, :] / d[leave])
        self.B_inv[leave, :] = row
        self.xB -= theta * d
        self.xB[self.xB < 0] = 0.0
        self.xB[leave] = theta
        self.basis[leave] = enter


def solve_simplex(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    max_iterations: int = 20000,
    tol: float = 1e-9,
) -> SimplexResult:
    """Two-phase revised simplex for ``min c @ x, A x <= b, x >= 0``.

    Raises ``ValueError``, naming the argument, unless ``A`` is an
    ``(m, n)`` matrix, ``c`` has ``n`` entries and ``b`` has ``m``, all finite.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    if A.ndim != 2:
        raise ValueError(f"A must be a matrix, got shape {A.shape}")
    m, n = A.shape
    for name, value, shape in (("c", c, (n,)), ("b", b, (m,))):
        if value.shape != shape:
            raise ValueError(f"{name} has shape {value.shape}, expected {shape}")
    for name, value in (("c", c), ("A", A), ("b", b)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} has a non-finite entry")

    # Row equilibration: dividing an inequality by a positive constant leaves
    # the feasible set untouched but keeps rows with wildly different units
    # (budget vs. per-slot capacity) from distorting the phase-1
    # infeasibility threshold.
    scale = np.maximum(np.abs(A).max(axis=1, initial=0.0), np.abs(b))
    scale = np.where(scale > 0, scale, 1.0)
    A /= scale[:, None]
    b /= scale

    # Equality form: negate rows with negative rhs so b >= 0, giving slack
    # coefficients of -1 on those rows; artificials provide the start basis.
    slack = np.eye(m)
    neg = b < 0
    A[neg, :] *= -1.0
    b[neg] *= -1.0
    slack[neg, neg] = -1.0

    A_eq = np.hstack([A, slack, np.eye(m)])
    n_real = n + m  # structural + slack columns
    artificial = np.arange(n_real, n_real + m)
    basis = list(artificial)

    tab = _Tableau(A_eq, b, basis, tol)

    # Phase 1: drive artificial infeasibility to zero.
    c1 = np.zeros(n_real + m)
    c1[artificial] = 1.0
    allowed = np.ones(n_real + m, dtype=bool)
    status = tab.run(c1, allowed, max_iterations)
    if status == "iteration_limit":
        return SimplexResult("iteration_limit", None, None, tab.iterations)
    phase1 = float(c1[tab.basis] @ tab.xB)
    if phase1 > 1e-7 * max(1.0, abs(b).max()):
        return SimplexResult("infeasible", None, None, tab.iterations)

    # Pivot residual artificials (at zero level) out of the basis when possible.
    for pos in range(m):
        if tab.basis[pos] >= n_real:
            row = tab.B_inv[pos, :] @ tab.A[:, :n_real]
            cols = np.nonzero(np.abs(row) > 1e-8)[0]
            if cols.size:
                enter = int(cols[0])
                d = tab.B_inv @ tab.A[:, enter]
                tab._pivot(enter, pos, d, float(tab.xB[pos]))
        # a fully dependent row keeps its artificial, pinned at zero below

    # Phase 2: original objective, artificials barred from entering.
    c2 = np.concatenate([c, np.zeros(m), np.zeros(m)])
    allowed = np.ones(n_real + m, dtype=bool)
    allowed[artificial] = False
    tab.refactor()
    status = tab.run(c2, allowed, max_iterations - tab.iterations)
    if status != "optimal":
        return SimplexResult(status, None, None, tab.iterations)
    x = tab.solution()[:n]
    x[np.abs(x) < tol] = 0.0
    return SimplexResult("optimal", x, float(c @ x), tab.iterations)
