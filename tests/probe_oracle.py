"""Test-only oracle: the numeraire probes written as plain loops.

One strategy at a time and one internal node at a time, with wealth rolled
by matrix-vector products.  The loops draw from the generator in the same
order as the batched probes (strategy, internal node in breadth-first
order, asset), so the batched code must reproduce their strategies and
verdicts.
"""

import numpy as np

from viatree.numeraire import DEFLATOR_TOL, RATIO_TOL, random_stopping_time


def unconditional_probs(tree):
    p = np.ones(tree.n_nodes)
    for i in range(1, tree.n_nodes):
        p[i] = p[tree.parent[i]] * tree.branch_prob[i]
    return p


def wealth_from_units(m, h, x0):
    t = m.tree
    w = np.empty(t.n_nodes)
    w[0] = x0
    for v in t.internal:
        kids = t.children[v]
        w[kids] = w[v] + (m.prices[kids] - m.prices[v]) @ h[v]
    return w


def wealth_from_fractions(m, f, x0):
    t = m.tree
    growth = np.empty(t.n_nodes)
    growth[0] = 1.0
    for v in t.internal:
        kids = t.children[v]
        step = 1.0 + ((m.prices[kids] - m.prices[v]) / m.prices[v]) @ f[v]
        if np.any(step <= 0.0):
            j = kids[int(np.argmin(step))]
            raise ValueError(
                f"fraction strategy infeasible: wealth factor {step.min()!r} <= 0 "
                f"on edge {v} -> {j}"
            )
        growth[kids] = growth[v] * step
    return x0 * growth


def sample_feasible_fractions(m, rng, box=2.0, margin=1e-6):
    t = m.tree
    fr = np.zeros_like(m.prices)
    for v in t.internal:
        R = (m.prices[t.children[v]] - m.prices[v]) / m.prices[v]
        pi = rng.uniform(-box, box, size=m.d)
        while np.min(1.0 + R @ pi) < margin:
            pi *= 0.5
        fr[v] = pi
    return fr


def admissible_unit_strategies(m, rng, n, x0):
    """[(holdings, terminal wealth, scaled)] for n strategies."""
    t = m.tree
    out = []
    for _ in range(n):
        h = np.zeros_like(m.prices)
        h[t.internal] = rng.standard_normal((t.internal.size, m.d))
        low = float(wealth_from_units(m, h, 0.0).min())
        if low < 0.0:
            h *= x0 / (-low)
        out.append((h, wealth_from_units(m, h, x0)[t.leaves], low < 0.0))
    return out


def verify_numeraire(m, candidate, strategies=None, n_strategies=100, seed=0,
                     tol=RATIO_TOL, n_cuts=3):
    """``strategies`` is a list of ("fractions" | "units", array) pairs."""
    t = m.tree
    rng = np.random.default_rng(seed)
    if strategies is None:
        strategies = [
            ("fractions", sample_feasible_fractions(m, rng)) for _ in range(n_strategies)
        ]
    ratio_excess = -np.inf
    binary_gap = 0.0
    p = unconditional_probs(t)
    cuts = [random_stopping_time(t, rng) for _ in range(n_cuts)]
    cut_excess = -np.inf
    for kind, a in strategies:
        w = (wealth_from_fractions if kind == "fractions" else wealth_from_units)(
            m, a, candidate.x0
        )
        ratio = w / candidate.values
        for v in t.internal:
            kids = t.children[v]
            gap = float(t.branch_prob[kids] @ ratio[kids]) - ratio[v]
            ratio_excess = max(ratio_excess, gap)
            if kids.size == 2:
                binary_gap = max(binary_gap, abs(gap))
        for cut in cuts:
            ev = float(sum(p[v] * ratio[v] for v in cut.nodes))
            cut_excess = max(cut_excess, ev - ratio[0])
    return {
        "passed": bool(ratio_excess <= tol and cut_excess <= tol),
        "worst_ratio_excess": float(ratio_excess),
        "binary_martingale_gap": float(binary_gap),
        "worst_cut_excess": float(cut_excess),
        "cuts": [{"cut": list(cut.nodes)} for cut in cuts],
        "n_strategies": len(strategies),
        "tol": tol,
    }


def deflator_probe(m, candidate, n=200, seed=0, tol=RATIO_TOL):
    t = m.tree
    x0 = candidate.x0
    rng = np.random.default_rng(seed)
    p_leaf = unconditional_probs(t)[t.leaves]
    defl_T = x0 / candidate.values[t.leaves]
    base = float(p_leaf @ defl_T)
    worst = -np.inf
    for _, w_T, _ in admissible_unit_strategies(m, rng, n, x0):
        worst = max(worst, float(p_leaf @ (w_T * defl_T)) - x0)
    return {
        "passed": bool(worst <= tol and base <= 1.0 + DEFLATOR_TOL),
        "deflator_expectation": base,
        "worst_excess": float(worst),
        "n": n,
        "tol": tol,
    }

