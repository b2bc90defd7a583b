"""The damped-Newton routine behind every smooth concave solver.

The node log, power and exponential problems and the custom-utility
program all maximize a concave function whose Newton system may be
singular (redundant assets, flat directions).
They differ only in how they evaluate the function, so each passes an
``evaluate`` closure and keeps its own tolerances and error messages.
"""

from __future__ import annotations

import numpy as np

ARMIJO = 1e-4
CONTRACTION = 0.9
FLAT = 1e-12  # relative drop in f that gradient contraction may still accept
MAX_HALVINGS = 60


def damped_newton(evaluate, x, tol, max_iter):
    """Maximize a concave function from ``x``.

    ``evaluate(x)`` returns ``(f, grad, hess)``, where ``hess()`` builds the
    negated (positive semidefinite) Hessian on demand, or None when ``x``
    lies outside the domain.  Each step is the least-norm ``lstsq`` solution
    of the Newton system, or the gradient itself when that is not an ascent
    direction.  A trial point is accepted on the Armijo test f_c >= f + 1e-4 t slope or on gradient
    contraction max|grad_c| <= 0.9 max|grad| with f_c >= f - 1e-12 max(1, |f|):
    near the optimum the objective is flat to machine precision while Newton
    still shrinks the gradient, but a smaller gradient further downhill (an
    overshoot) is no progress.
    Halving t stops after 60 rejected points; then, or after ``max_iter``
    steps, the caller sees a gradient at or above ``tol``.

    Returns (x, f, grad, sup norm of grad, accepted steps).
    """
    f, grad, hess = evaluate(x)
    gnorm = float(np.max(np.abs(grad), initial=0.0))
    steps = 0
    while gnorm >= tol and steps < max_iter:
        step, *_ = np.linalg.lstsq(hess(), grad, rcond=None)
        slope = float(grad @ step)
        if slope <= 0.0:  # numerically null direction; nudge along gradient
            step = grad
            slope = float(grad @ grad)
        t = 1.0
        for _ in range(MAX_HALVINGS):
            cand = x + t * step
            trial = evaluate(cand)
            if trial is not None:
                gn_c = float(np.max(np.abs(trial[1]), initial=0.0))
                if trial[0] >= f + ARMIJO * t * slope or (
                    gn_c <= CONTRACTION * gnorm and trial[0] >= f - FLAT * max(1.0, abs(f))
                ):
                    x, (f, grad, hess), gnorm = cand, trial, gn_c
                    steps += 1
                    break
            t *= 0.5
        else:
            break  # no admissible improvement left at this scale
    return x, f, grad, gnorm, steps
