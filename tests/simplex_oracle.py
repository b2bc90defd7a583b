"""Test-only oracle: the one-LP dense two-phase simplex.

``solve_lp`` solves  min c.x  s.t.  A x = b, x >= 0  for one LP with
Bland's smallest-index rule for both the entering and the leaving
variable.  ``viatree.simplex.solve_lps`` solves stacks of same-shape LPs
and must return, for every LP, the status, ``x`` and iteration count this
routine returns for it, bitwise.  The routine is kept here as it was when
it left the library, so the reference does not move with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from viatree.simplex import SimplexError

PIVOT_TOL = 1e-11


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    piv = tab[row]
    for r in range(tab.shape[0]):
        if r != row and tab[r, col] != 0.0:
            tab[r] -= tab[r, col] * piv
    basis[row] = col


def _run_simplex(tab, basis, cost, tol, max_iter):
    """Bland-rule simplex on an m x (n+1) tableau (last column = rhs).

    ``cost`` covers the n structural columns.  Returns
    ("optimal" | "unbounded", iterations).
    """
    m, ncol = tab.shape
    n = ncol - 1
    it = 0
    while True:
        it += 1
        if it > max_iter:
            raise SimplexError(f"simplex exceeded {max_iter} iterations")
        red = cost - cost[basis] @ tab[:, :n]
        entering = -1
        for j in range(n):
            if red[j] < -tol and j not in basis:
                entering = j  # Bland: smallest improving index
                break
        if entering < 0:
            return "optimal", it
        col = tab[:, entering]
        best_ratio = None
        leave_row = -1
        for r in range(m):
            if col[r] > tol:
                ratio = tab[r, n] / col[r]
                take = (
                    best_ratio is None
                    or ratio < best_ratio - tol
                    or (abs(ratio - best_ratio) <= tol and basis[r] < basis[leave_row])
                )
                if take:
                    best_ratio = ratio
                    leave_row = r
        if leave_row < 0:
            return "unbounded", it
        _pivot(tab, basis, leave_row, entering)


def _basis_matrix(A: np.ndarray, basis: np.ndarray, n: int) -> np.ndarray:
    """Basis columns; indices >= n are phase-1 artificials (identity columns)."""
    m = A.shape[0]
    cols = [np.zeros((m, 0))]  # no columns when every row was dropped
    for j in basis:
        if j < n:
            cols.append(A[:, j : j + 1])
        else:
            e = np.zeros((m, 1))
            e[j - n] = 1.0
            cols.append(e)
    return np.hstack(cols)


def solve_lp(A, b, c, tol: float = PIVOT_TOL, max_iter: int = 10_000) -> LPResult:
    """min c.x s.t. A x = b, x >= 0 (dense two-phase simplex)."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64)).copy()
    b = np.asarray(b, dtype=np.float64).copy()
    c = np.asarray(c, dtype=np.float64)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")

    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # ---- phase 1: minimize the sum of artificials -------------------------
    tab = np.zeros((m, n + m + 1))
    tab[:, :n] = A
    tab[:, n : n + m] = np.eye(m)
    tab[:, -1] = b
    basis = np.arange(n, n + m)
    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    status, it1 = _run_simplex(tab, basis, cost1, tol, max_iter)
    if status != "optimal":  # phase-1 objective is bounded below by 0
        raise SimplexError("phase 1 did not terminate at an optimum")
    phase1_val = float(cost1[basis] @ tab[:, -1])
    if phase1_val > np.sqrt(tol):
        return LPResult(status="infeasible", iterations=it1)

    # Drive leftover artificials out of the basis; a row where no structural
    # pivot exists is a redundant equality and is dropped.
    keep = np.ones(m, dtype=bool)
    for r in range(m):
        if basis[r] >= n:
            piv = -1
            for j in range(n):
                if abs(tab[r, j]) > np.sqrt(tol) and j not in basis:
                    piv = j
                    break
            if piv >= 0:
                _pivot(tab, basis, r, piv)
            else:
                keep[r] = False
    rows_kept = np.nonzero(keep)[0]
    if rows_kept.size < m:
        tab = tab[keep]
        basis = basis[keep]

    # ---- phase 2 -----------------------------------------------------------
    tab2 = np.concatenate([tab[:, :n], tab[:, -1:]], axis=1)
    status, it2 = _run_simplex(tab2, basis, c, tol, max_iter)
    if status == "unbounded":
        return LPResult(status="unbounded", iterations=it1 + it2)

    A_kept = A[rows_kept]
    B = _basis_matrix(A_kept, basis, n)
    try:
        xb = np.linalg.solve(B, b[rows_kept])
    except np.linalg.LinAlgError:
        xb = tab2[:, -1].copy()
    x = np.zeros(n)
    x[basis] = xb
    np.clip(x, 0.0, None, out=x)
    return LPResult(status="optimal", x=x, objective=float(c @ x), iterations=it1 + it2)
