"""Dense two-phase primal simplex for tiny equality-form LPs.

Solves  min c.x  s.t.  A x = b, x >= 0  with Bland's smallest-index rule
for both the entering and the leaving variable, which rules out cycling.
Instances here have a handful of rows and columns, so a dense tableau in
double precision is the right trade: correctness over speed.

On termination the basic solution is recomputed from the original data
(not read off the updated tableau), which removes accumulated pivot drift.

``solve_lp`` solves one LP; ``solve_lps`` solves a stack of same-shape LPs
in lockstep with array operations and returns, for every LP, the status,
``x`` and iteration count ``solve_lp`` returns for it, bitwise: each step
is the same floating-point operation on the same operands, and the
reductions go through the same numpy calls with the same memory layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-11


class SimplexError(RuntimeError):
    pass


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0


@dataclass
class LPStack:
    """Outcomes of the LPs of one ``solve_lps`` call, one row per LP."""

    status: np.ndarray  # (G,) of "optimal" | "infeasible" | "unbounded"
    x: np.ndarray  # (G, n); NaN rows where the status is not "optimal"
    iterations: np.ndarray  # (G,)


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


# ---- stacked form: G same-shape LPs in lockstep ------------------------------


def _pivots(tab: np.ndarray, basis: np.ndarray, rows, cols) -> None:
    """``_pivot`` on every tableau of a stack, at (rows[g], cols[g])."""
    g = np.arange(tab.shape[0])
    tab[g, rows] /= tab[g, rows, cols][:, None]
    piv = tab[g, rows]
    f = tab[g, :, cols]
    upd = f != 0.0
    upd[g, rows] = False
    np.subtract(tab, f[:, :, None] * piv[:, None, :], out=tab, where=upd[:, :, None])
    basis[g, rows] = cols


def _run_simplex_stack(tab, basis, cost, tol, max_iter):
    """``_run_simplex`` on a (G, m, n+1) stack of tableaus with (G, n) costs.

    Each tableau leaves the loop at the iteration where ``_run_simplex``
    would return.  Returns (unbounded flags, iterations), both (G,).
    """
    G, m, ncol = tab.shape
    n = ncol - 1
    unbounded = np.zeros(G, dtype=bool)
    its = np.zeros(G, dtype=np.int64)
    ids = np.arange(G)
    T, B, C = tab, basis, cost
    it = 0
    while ids.size:
        it += 1
        if it > max_iter:
            raise SimplexError(f"simplex exceeded {max_iter} iterations")
        rows = np.arange(ids.size)[:, None]
        red = C - (C[rows, B][:, None, :] @ T[:, :, :n])[:, 0]
        improving = red < -tol
        improving[rows, B] = False  # Bland: skip basic columns
        entering = improving.argmax(axis=1)
        col = T[rows[:, 0], :, entering]
        pos = col > tol
        ratios = np.divide(T[:, :, n], col, out=np.zeros_like(col), where=pos)
        # Bland's leaving row: scan the rows in order, as _run_simplex does
        best, b_leave = np.zeros(ids.size), np.zeros(ids.size, dtype=B.dtype)
        leave = np.full(ids.size, -1)
        for r in range(m):
            ratio = ratios[:, r]
            tie = (np.abs(ratio - best) <= tol) & (B[:, r] < b_leave)
            take = pos[:, r] & ((leave < 0) | (ratio < best - tol) | tie)
            best = np.where(take, ratio, best)
            leave = np.where(take, r, leave)
            b_leave = np.where(take, B[:, r], b_leave)
        go = improving.any(axis=1)
        unbounded[ids] = go & (leave < 0)
        go &= leave >= 0
        if not go.all():
            its[ids[~go]] = it
            tab[ids], basis[ids] = T, B
            T, B, C, ids = T[go], B[go], C[go], ids[go]
            entering, leave = entering[go], leave[go]
        _pivots(T, B, leave, entering)
    return unbounded, its


def solve_lps(A, b, c, tol: float = PIVOT_TOL, max_iter: int = 10_000) -> LPStack:
    """``solve_lp`` on G same-shape LPs: A (G, m, n), b (G, m), c (n,) or (G, n)."""
    A = np.array(A, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    if A.ndim != 3 or b.shape != A.shape[:2]:
        raise ValueError("inconsistent LP dimensions")
    G, m, n = A.shape
    c = np.broadcast_to(np.asarray(c, dtype=np.float64), (G, n))
    status = np.full(G, "optimal", dtype="<U10")
    X = np.full((G, n), np.nan)

    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # ---- phase 1 -------------------------------------------------------------
    tab = np.zeros((G, m, n + m + 1))
    tab[:, :, :n] = A
    tab[:, :, n : n + m] = np.eye(m)
    tab[:, :, -1] = b
    basis = np.tile(np.arange(n, n + m), (G, 1))
    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    unbounded, its = _run_simplex_stack(
        tab, basis, np.broadcast_to(cost1, (G, n + m)), tol, max_iter
    )
    if unbounded.any():
        raise SimplexError("phase 1 did not terminate at an optimum")
    phase1_val = (cost1[basis][:, None, :] @ tab[:, :, -1:])[:, 0, 0]
    infeasible = phase1_val > np.sqrt(tol)
    status[infeasible] = "infeasible"

    # Drive leftover artificials out, row by row, as solve_lp does.
    keep = np.ones((G, m), dtype=bool)
    for r in range(m):
        g = np.flatnonzero(~infeasible & (basis[:, r] >= n))
        if not g.size:
            continue
        basic = np.zeros((g.size, n + m), dtype=bool)
        basic[np.arange(g.size)[:, None], basis[g]] = True
        cand = (np.abs(tab[g, r, :n]) > np.sqrt(tol)) & ~basic[:, :n]
        found = cand.any(axis=1)
        keep[g[~found], r] = False
        g, piv = g[found], cand[found].argmax(axis=1)
        if g.size:
            T, B = tab[g], basis[g]
            _pivots(T, B, np.full(g.size, r), piv)
            tab[g], basis[g] = T, B

    # ---- phase 2, once per pattern of kept rows ------------------------------
    todo = np.flatnonzero(~infeasible)
    while todo.size:
        same = (keep[todo] == keep[todo[0]]).all(axis=1)
        g, todo = todo[same], todo[~same]
        rows = np.flatnonzero(keep[g[0]])
        T = tab[g][:, rows]
        tab2 = np.concatenate([T[:, :, :n], T[:, :, -1:]], axis=2)
        B = basis[g][:, rows]
        unbounded, it2 = _run_simplex_stack(tab2, B, c[g], tol, max_iter)
        its[g] += it2
        status[g[unbounded]] = "unbounded"
        done = ~unbounded
        g, tab2, B = g[done], tab2[done], B[done]
        A_kept, b_kept = A[g][:, rows], b[g][:, rows]
        basis_mat = np.take_along_axis(A_kept, B[:, None, :], axis=2)
        try:
            xb = np.linalg.solve(basis_mat, b_kept[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:  # some basis is singular: go one by one
            xb = np.empty(B.shape)
            for i in range(g.size):
                try:
                    xb[i] = np.linalg.solve(basis_mat[i], b_kept[i])
                except np.linalg.LinAlgError:
                    xb[i] = tab2[i, :, -1]
        x = np.zeros((g.size, n))
        np.put_along_axis(x, B, xb, axis=1)
        X[g] = np.clip(x, 0.0, None)
    return LPStack(status=status, x=X, iterations=its)
