"""Dense two-phase primal simplex for stacks of tiny equality-form LPs.

``solve_lps`` solves G same-shape LPs  min c.x  s.t.  A x = b, x >= 0  in
lockstep with array operations, with Bland's smallest-index rule for both
the entering and the leaving variable, which rules out cycling.  Instances
here have a handful of rows and columns, so dense tableaus in double
precision are the right trade: correctness over speed.

On termination the basic solution is recomputed from the original data
(not read off the updated tableau), which removes accumulated pivot drift.
The same basis matrices give each LP's dual row y: at an optimum
y = c_B B^-1, with c - yA >= 0 and y.b = c.x; when phase 1 ends infeasible,
the Farkas ray cost1_B B^-1 of its artificial columns, with yA <= 0 and
y.b > 0.

Each LP of a stack gets the status, ``x`` and iteration count that the
one-LP routine kept in ``tests/simplex_oracle.py`` returns for it,
bitwise: each step is the same floating-point operation on the same
operands, and the reductions go through the same numpy calls with the
same memory layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-11
MAX_PIVOTS = 10_000  # lockstep iterations per phase


class SimplexError(RuntimeError):
    pass


@dataclass
class LPStack:
    """Outcomes of the LPs of one ``solve_lps`` call, one row per LP."""

    status: np.ndarray  # (G,) of "optimal" | "infeasible" | "unbounded"
    x: np.ndarray  # (G, n); NaN rows where the status is not "optimal"
    iterations: np.ndarray  # (G,)
    # (G, m) dual rows in the caller's row signs: c_B B^-1 where optimal,
    # the phase-1 Farkas ray where infeasible, NaN where unbounded; 0 on
    # rows dropped as redundant
    y: np.ndarray


def _pivots(tab: np.ndarray, basis: np.ndarray, rows, cols) -> None:
    """One pivot on every tableau of a stack, at (rows[g], cols[g])."""
    g = np.arange(tab.shape[0])
    tab[g, rows] /= tab[g, rows, cols][:, None]
    piv = tab[g, rows]
    f = tab[g, :, cols]
    upd = f != 0.0
    upd[g, rows] = False
    np.subtract(tab, f[:, :, None] * piv[:, None, :], out=tab, where=upd[:, :, None])
    basis[g, rows] = cols


def _run_simplex_stack(tab, basis, cost):
    """Bland-rule simplex on a (G, m, n+1) stack of tableaus (last column =
    rhs) with (G, n) costs.

    Each tableau leaves the loop at the iteration where it is optimal or
    unbounded.  Returns (unbounded flags, iterations), both (G,).
    """
    G, m, ncol = tab.shape
    n = ncol - 1
    unbounded = np.zeros(G, dtype=bool)
    its = np.zeros(G, dtype=np.int64)
    ids = np.arange(G)
    T, B, C = tab, basis, cost
    rows = ids[:, None]
    it = 0
    while ids.size:
        it += 1
        if it > MAX_PIVOTS:
            raise SimplexError(f"simplex exceeded {MAX_PIVOTS} iterations")
        red = C - (C[rows, B][:, None, :] @ T[:, :, :n])[:, 0]
        improving = red < -PIVOT_TOL
        improving[rows, B] = False  # Bland: skip basic columns
        entering = improving.argmax(axis=1)
        col = T[rows[:, 0], :, entering]
        # NaN ratios on rows with col <= PIVOT_TOL compare false: never taken
        ratios = np.divide(T[:, :, n], col, out=np.full_like(col, np.nan), where=col > PIVOT_TOL)
        # Bland's leaving row: scan the rows in order, ties to the smallest
        # basic index
        best, b_leave = np.full(ids.size, np.inf), np.zeros(ids.size, dtype=B.dtype)
        leave = np.full(ids.size, -1)
        for r in range(m):
            ratio = ratios[:, r]
            tie = (np.abs(ratio - best) <= PIVOT_TOL) & (B[:, r] < b_leave)
            take = (ratio < best - PIVOT_TOL) | tie
            np.copyto(best, ratio, where=take)
            np.copyto(leave, r, where=take)
            np.copyto(b_leave, B[:, r], where=take)
        improves = improving.any(axis=1)
        go = improves & (leave >= 0)
        if not go.all():
            # a tableau that stops with an improving column has no leaving row
            unbounded[ids[~go]] = improves[~go]
            its[ids[~go]] = it
            tab[ids], basis[ids] = T, B
            T, B, C, ids = T[go], B[go], C[go], ids[go]
            entering, leave = entering[go], leave[go]
            rows = np.arange(ids.size)[:, None]
        _pivots(T, B, leave, entering)
    return unbounded, its


def _solve_each(M: np.ndarray, rhs: np.ndarray, singular) -> np.ndarray:
    """Solve M[i] z = rhs[i] on a (G, r, r) stack in one call; if some M[i]
    is singular, solve one by one and take ``singular(i)`` for those."""
    try:
        return np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        z = np.empty(rhs.shape)
        for i in range(len(M)):
            try:
                z[i] = np.linalg.solve(M[i], rhs[i])
            except np.linalg.LinAlgError:
                z[i] = singular(i)
        return z


def solve_lps(A, b, c) -> LPStack:
    """min c.x s.t. A x = b, x >= 0 on G same-shape LPs: A (G, m, n),
    b (G, m), c (n,) or (G, n).

    Where a final basis matrix is singular, x is read off the tableau and
    y is the least-norm least-squares solution of B^T y = c_B.
    """
    A = np.array(A, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    if A.ndim != 3 or b.shape != A.shape[:2]:
        raise ValueError("inconsistent LP dimensions")
    G, m, n = A.shape
    c = np.broadcast_to(np.asarray(c, dtype=np.float64), (G, n))
    status = np.full(G, "optimal", dtype="<U10")
    X = np.full((G, n), np.nan)
    Y = np.zeros((G, m))

    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # ---- phase 1: minimize the sum of artificials ----------------------------
    tab = np.zeros((G, m, n + m + 1))
    tab[:, :, :n] = A
    tab[:, :, n : n + m] = np.eye(m)
    tab[:, :, -1] = b
    basis = np.tile(np.arange(n, n + m), (G, 1))
    cost1 = np.concatenate([np.zeros(n), np.ones(m)])
    unbounded, its = _run_simplex_stack(tab, basis, np.broadcast_to(cost1, (G, n + m)))
    if unbounded.any():  # the phase-1 objective is bounded below by 0
        raise SimplexError("phase 1 did not terminate at an optimum")
    phase1_val = (cost1[basis][:, None, :] @ tab[:, :, -1:])[:, 0, 0]
    infeasible = phase1_val > np.sqrt(PIVOT_TOL)
    status[infeasible] = "infeasible"
    # the artificial columns hold B^-1
    Y[infeasible] = (cost1[basis[infeasible]][:, None, :] @ tab[infeasible, :, n : n + m])[:, 0]

    # Drive leftover artificials out of the basis, row by row; a row where
    # no structural pivot exists is a redundant equality and is dropped.
    keep = np.ones((G, m), dtype=bool)
    for r in range(m):
        g = np.flatnonzero(~infeasible & (basis[:, r] >= n))
        if not g.size:
            continue
        basic = np.zeros((g.size, n + m), dtype=bool)
        basic[np.arange(g.size)[:, None], basis[g]] = True
        cand = (np.abs(tab[g, r, :n]) > np.sqrt(PIVOT_TOL)) & ~basic[:, :n]
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
        unbounded, it2 = _run_simplex_stack(tab2, B, c[g])
        its[g] += it2
        status[g[unbounded]] = "unbounded"
        Y[g[unbounded]] = np.nan
        done = ~unbounded
        g, tab2, B = g[done], tab2[done], B[done]
        A_kept, b_kept = A[g][:, rows], b[g][:, rows]
        basis_mat = np.take_along_axis(A_kept, B[:, None, :], axis=2)
        c_B = np.take_along_axis(c[g], B, axis=1)
        xb = _solve_each(basis_mat, b_kept, lambda i: tab2[i, :, -1])
        Y[g[:, None], rows] = _solve_each(
            basis_mat.transpose(0, 2, 1), c_B,
            lambda i: np.linalg.lstsq(basis_mat[i].T, c_B[i], rcond=None)[0],
        )
        x = np.zeros((g.size, n))
        np.put_along_axis(x, B, xb, axis=1)
        X[g] = np.clip(x, 0.0, None)
    Y[flip] *= -1.0
    return LPStack(status=status, x=X, iterations=its, y=Y)
