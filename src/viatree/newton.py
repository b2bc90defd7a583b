"""The damped-Newton routine behind every smooth concave solver.

The node log, power and exponential problems and the custom-utility
program all maximize concave functions whose Newton systems may be
singular (redundant assets, flat directions).  The routine solves a stack
of G such problems, one per row: every internal node for the log problem,
one tree level for the CRRA and exponential recursions, G = 1 for the
custom program, which steps by a pass over the tree.  Rows never mix, so a
row's result does not depend on its neighbours.  Each caller passes an
``evaluate`` closure and keeps its own tolerances and error messages.
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


def damped_newton(evaluate, x, tol, max_iter, newton_step=least_norm_step):
    """Maximize G concave functions, one per row of ``x`` (shape (G, d)).

    ``evaluate(x, rows)`` takes the points of the problems ``rows`` (indices
    into the G rows) and returns f (n,), gradients (n, d) and negated (PSD)
    Hessians (n, d, d), or any per-row model its ``newton_step`` reads, with
    f = -inf outside the domain.  Each step is ``newton_step(hess, grad)``,
    by default the least-norm Newton step, or the gradient when that is not
    an ascent direction.  A trial point is accepted on the Armijo test
    f_c >= f + 1e-4 t slope or on gradient contraction
    max|grad_c| <= 0.9 max|grad| with f_c >= f - 1e-12 max(1, |f|): near the
    optimum f is flat to machine precision while Newton still shrinks the
    gradient, but a smaller gradient further downhill is no progress.  A row
    stops once its gradient is below ``tol``, after ``max_iter`` steps, or
    after 60 rejected points in one line search.

    Returns (x, f, grad, sup norm of grad, accepted steps), one row each.
    """
    x = np.array(x, dtype=np.float64)
    n = x.shape[0]
    f, grad, hess = evaluate(x, np.arange(n))
    gnorm = np.max(np.abs(grad), axis=1, initial=0.0)
    steps = np.zeros(n, dtype=np.int64)
    going = (gnorm >= tol) & (steps < max_iter)
    while (act := np.flatnonzero(going)).size:
        g = grad[act]
        step = newton_step(hess[act], g)
        slope = np.einsum("ij,ij->i", g, step)
        if np.any(up := slope <= 0.0):  # numerically null direction; nudge along gradient
            step[up] = g[up]
            slope[up] = np.einsum("ij,ij->i", g[up], g[up])
        x0, f0, cap = x[act], f[act], CONTRACTION * gnorm[act]
        floor = f0 - FLAT * np.maximum(1.0, np.abs(f0))
        t = 1.0
        for _ in range(MAX_HALVINGS):
            cand = x0 + t * step
            fc, gc, hc = evaluate(cand, act)
            gn_c = np.max(np.abs(gc), axis=1, initial=0.0)
            ok = (fc >= f0 + ARMIJO * t * slope) | ((gn_c <= cap) & (fc >= floor))
            if not ok.all():
                cand, fc, gc, hc, gn_c = cand[ok], fc[ok], gc[ok], hc[ok], gn_c[ok]
            done = act[ok]
            x[done], f[done], grad[done], hess[done], gnorm[done] = cand, fc, gc, hc, gn_c
            steps[done] += 1
            going[done] = (gn_c >= tol) & (steps[done] < max_iter)
            if ok.all():
                break
            act, x0, f0, cap, floor, step, slope = (
                a[~ok] for a in (act, x0, f0, cap, floor, step, slope))
            t *= 0.5
        else:
            going[act] = False  # no admissible improvement left at this scale
    return x, f, grad, gnorm, steps


def raise_stalled(gnorm, tol, nodes, message) -> None:
    """Raise ``RuntimeError`` "at node v: ``message(gradient)``" for the
    first row (in stack order) whose gradient is not below ``tol``."""
    if np.any(stalled := gnorm >= tol):
        i = int(np.argmax(stalled))
        raise RuntimeError(f"at node {nodes[i]}: {message(gnorm[i])}")
