"""The damped-Newton routine behind every smooth concave solver.

The node log, power and exponential problems and the custom-utility
program all maximize concave functions whose Newton systems may be
singular (redundant assets, flat directions).  ``damped_newton`` solves a
stack of G such problems, one per row: every internal node for the log
problem, one tree level for the CRRA and exponential recursions.  Rows
never mix, so a row's result does not depend on its neighbours.  The
custom program (G = 1) steps by a pass over the tree in its own loop and
shares only the line search, ``ascend``.  Each caller passes an
``evaluate`` closure and keeps its own tolerances and error messages.
``damped_newton`` returns all the state it holds, negated Hessians
included, so a caller steps on from a solution without evaluating it again.
"""

from __future__ import annotations

import numpy as np

FOC_TOL = 1e-10  # gradient sup norm at which a fraction problem is solved
NEWTON_MAX_ITER = 200
ARMIJO = 1e-4
CONTRACTION = 0.9
FLAT = 1e-12  # relative drop in f that gradient contraction may still accept
MAX_HALVINGS = 60


def least_norm_step(hess, grad):
    """Least-norm solutions of the stacked PSD systems hess @ step = grad,
    for grad of shape (G, d), or (G, d, r) with r right-hand sides each.

    One ``eigh`` for the whole stack; eigenvalues at or below lstsq's
    default cutoff (machine epsilon x size x the largest) count as zero,
    so a singular system gets its minimal-norm solution, as from lstsq.
    """
    w, V = np.linalg.eigh(hess)
    a = np.abs(w)
    keep = a > np.finfo(np.float64).eps * w.shape[-1] * a.max(axis=-1, keepdims=True)
    inv = np.divide(1.0, w, out=np.zeros_like(w), where=keep)
    if grad.ndim == 3:
        return V @ (inv[:, :, None] * (V.transpose(0, 2, 1) @ grad))
    return (V @ (inv * (grad[:, None, :] @ V)[:, 0, :])[:, :, None])[:, :, 0]


def least_norm_fit(A, b):
    """Least-norm least-squares solutions of the stacked systems A x = b,
    A of shape (G, k, n) and b (G, k), through the normal equations and
    ``least_norm_step``; a zero row of A (a padded edge) drops out."""
    return least_norm_step(A.transpose(0, 2, 1) @ A, (b[:, None, :] @ A)[:, 0, :])


def ascend(evaluate, state, act, step):
    """One line search for the rows ``act`` of ``state`` = (x, f, grad,
    model, sup norm of grad), from x + t ``step`` at t = 1, or along the
    gradient where ``step`` is not an ascent direction; each rejection
    halves t, at most 60 times.  ``evaluate(x, rows)`` returns f, gradients
    and the per-row model (negated Hessians, for ``damped_newton``) of the
    problems ``rows``, with f = -inf outside the domain.  A point is accepted
    on the Armijo test f_c >= f + 1e-4 t slope or on gradient contraction
    max|grad_c| <= 0.9 max|grad| with f_c >= f - 1e-12 max(1, |f|): near the
    optimum f is flat to machine precision while Newton still shrinks the
    gradient, but a smaller gradient further downhill is no progress.
    Writes the accepted rows into ``state``; returns their indices."""
    x, f, grad, model, gnorm = state
    g = grad[act]
    slope = np.einsum("ij,ij->i", g, step)
    if np.any(up := slope <= 0.0):  # numerically null direction; nudge along gradient
        step[up] = g[up]
        slope[up] = np.einsum("ij,ij->i", g[up], g[up])
    x0, f0, cap = x[act], f[act], CONTRACTION * gnorm[act]
    floor = f0 - FLAT * np.maximum(1.0, np.abs(f0))
    moved, t = [], 1.0
    for _ in range(MAX_HALVINGS):
        cand = x0 + t * step
        fc, gc, mc = evaluate(cand, act)
        gn_c = np.max(np.abs(gc), axis=1, initial=0.0)
        ok = (fc >= f0 + ARMIJO * t * slope) | ((gn_c <= cap) & (fc >= floor))
        if not ok.all():
            cand, fc, gc, mc, gn_c = cand[ok], fc[ok], gc[ok], mc[ok], gn_c[ok]
        done = act[ok]
        x[done], f[done], grad[done], model[done], gnorm[done] = cand, fc, gc, mc, gn_c
        moved.append(done)
        if ok.all():
            break
        act, x0, f0, cap, floor, step, slope = (
            a[~ok] for a in (act, x0, f0, cap, floor, step, slope))
        t *= 0.5
    return np.concatenate(moved)


def damped_newton(evaluate, x, tol, max_iter):
    """Maximize G concave functions, one per row of ``x`` (shape (G, d)).

    ``evaluate(x, rows)`` takes the points of the problems ``rows`` (indices
    into the G rows) and returns f (n,), gradients (n, d) and negated (PSD)
    Hessians (n, d, d), with f = -inf outside the domain.  Each step is one
    ``ascend`` along the least-norm Newton step.  A row stops once its
    gradient is below ``tol``, after ``max_iter`` steps, or after a line
    search that accepts no point.  ``evaluate``'s first call is at ``x``
    over every row; each accepted step is written into its arrays.

    Returns (x, f, grad, negated Hessians, sup norm of grad, accepted
    steps), one row each: every row's values at its last accepted point.
    """
    x = np.array(x, dtype=np.float64)
    f, grad, hess = evaluate(x, np.arange(x.shape[0]))
    gnorm = np.max(np.abs(grad), axis=1, initial=0.0)
    steps = np.zeros(x.shape[0], dtype=np.int64)
    going = (gnorm >= tol) & (steps < max_iter)
    while (act := np.flatnonzero(going)).size:
        moved = ascend(evaluate, (x, f, grad, hess, gnorm), act, least_norm_step(hess[act], grad[act]))
        steps[moved] += 1
        going[act] = False
        going[moved] = (gnorm[moved] >= tol) & (steps[moved] < max_iter)
    return x, f, grad, hess, gnorm, steps


def raise_stalled(gnorm, tol, nodes, message) -> None:
    """Raise ``RuntimeError`` "at node v: ``message(gradient)``" for the
    first row (in stack order) whose gradient is not below ``tol``."""
    if np.any(stalled := gnorm >= tol):
        i = int(np.argmax(stalled))
        raise RuntimeError(f"at node {nodes[i]}: {message(gnorm[i])}")
