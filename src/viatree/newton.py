"""The damped-Newton routine behind every smooth concave solver.

Node log and power problems, the custom-utility program, exponential
utility and the minimal-entropy measure all maximize a concave function
whose Newton system may be singular (redundant assets, flat directions).
They differ only in how they evaluate the function, so each passes an
``evaluate`` closure and keeps its own tolerances and error messages.
"""

from __future__ import annotations

import numpy as np

ARMIJO = 1e-4
CONTRACTION = 0.9
MAX_HALVINGS = 60


def damped_newton(evaluate, x, tol, max_iter, lift=None, project=None):
    """Maximize a concave function from ``x``.

    ``evaluate(x)`` returns ``(f, grad, hess)``, where ``hess()`` builds the
    negated (positive semidefinite) Hessian on demand, or None when ``x``
    lies outside the domain.  Each step is the least-norm ``lstsq`` solution
    of the Newton system, or the gradient itself when that is not an ascent
    direction.  ``lift`` maps a step to the search direction (a null-space
    basis, say) and ``project`` clips each trial point.  A trial point is
    accepted on the Armijo test f_c >= f + 1e-4 t slope or on gradient
    contraction max|grad_c| <= 0.9 max|grad|: near the optimum the objective
    is flat to machine precision while Newton still shrinks the gradient.
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
        direction = step if lift is None else lift(step)
        t = 1.0
        for _ in range(MAX_HALVINGS):
            cand = x + t * direction
            if project is not None:
                cand = project(cand)
            trial = evaluate(cand)
            if trial is not None:
                gn_c = float(np.max(np.abs(trial[1]), initial=0.0))
                if trial[0] >= f + ARMIJO * t * slope or gn_c <= CONTRACTION * gnorm:
                    x, (f, grad, hess), gnorm = cand, trial, gn_c
                    steps += 1
                    break
            t *= 0.5
        else:
            break  # no admissible improvement left at this scale
    return x, f, grad, gnorm, steps
