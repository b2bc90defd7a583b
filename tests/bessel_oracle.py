"""Test-only oracle: the Bessel(3) study on a materialized path matrix.

These are the matrix functions as they stood before the study streamed
through path chunks: ``simulate_bes3`` stores every path in an
``(n_paths, n_steps + 1)`` array and each estimator re-scans it.
``tests/test_bessel.py`` requires the streaming estimators to return
bitwise the same estimates, probe rows, stopped rows and checkpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PATH_CHUNK = 4096
MIN_INTEGRAL_STEPS = 100
RECIPROCAL_MOMENT_1 = math.erf(1.0 / math.sqrt(2.0))  # E[1/S_1] = 2*Phi(1) - 1
LOG_VALUE_BOUND = 2.0 * math.log(2.0)


@dataclass
class Estimate:
    mean: float
    std_error: float
    n: int
    label: str

    @staticmethod
    def of(x: np.ndarray, label: str) -> "Estimate":
        x = np.asarray(x, dtype=np.float64)
        n = x.size
        se = float(np.std(x, ddof=1) / math.sqrt(n)) if n > 1 else float("nan")
        return Estimate(mean=float(np.mean(x)), std_error=se, n=n, label=label)


@dataclass
class McBatch:
    n_paths: int
    n_steps: int
    seed: int
    grid: np.ndarray  # (n_steps + 1,) uniform times on [0, 1]
    paths: np.ndarray  # (n_paths, n_steps + 1) values of S

    def __post_init__(self):
        if self.paths.shape != (self.n_paths, self.n_steps + 1):
            raise ValueError(
                f"paths shape {self.paths.shape} does not match "
                f"({self.n_paths}, {self.n_steps + 1})"
            )
        if not self.paths.size or float(self.paths.min()) <= 0.0:
            raise ValueError("batch must hold strictly positive path values")


def simulate_bes3(n_paths: int, n_steps: int, seed: int = 0) -> McBatch:
    """Exact-in-law Bessel(3) batch on the uniform grid of [0, 1].

    Each path uses its own Philox stream keyed by (seed, path index) and
    draws the (n_steps, 3) Gaussian increments of the driving Brownian
    motion in one block, so the batch is bit-reproducible and a prefix of
    paths is independent of n_paths.
    """
    if n_paths < 1 or n_steps < 1:
        raise ValueError("need n_paths >= 1 and n_steps >= 1")
    dt = 1.0 / n_steps
    sqdt = math.sqrt(dt)
    grid = np.linspace(0.0, 1.0, n_steps + 1)
    paths = np.empty((n_paths, n_steps + 1))
    paths[:, 0] = 1.0
    for j in range(n_paths):
        gen = np.random.Generator(np.random.Philox(key=[seed, j]))
        w = gen.standard_normal((n_steps, 3))
        w *= sqdt
        np.cumsum(w, axis=0, out=w)
        w[:, 0] += 1.0
        np.sqrt(np.einsum("ij,ij->i", w, w), out=paths[j, 1:])
    return McBatch(n_paths=n_paths, n_steps=n_steps, seed=seed, grid=grid, paths=paths)


def estimate_reciprocal_moment(b: McBatch) -> Estimate:
    """Mean and standard error of 1/S_1.

    The closed-form value is 2*Phi(1) - 1 = 0.6827; the shortfall
    1 - mean is the strict-local-martingale gap that excludes an
    equivalent martingale measure.
    """
    return Estimate.of(1.0 / b.paths[:, -1], "E[1/S_1]")


def reciprocal_checkpoints(b: McBatch, n_checkpoints: int = 10) -> list[Estimate]:
    """E[1/S_t] at evenly spaced grid checkpoints; nonincreasing in t."""
    idx = np.linspace(0, b.n_steps, n_checkpoints + 1).round().astype(int)[1:]
    return [
        Estimate.of(1.0 / b.paths[:, k], f"E[1/S_{b.grid[k]:g}]") for k in idx
    ]


def estimate_log_value(b: McBatch) -> dict:
    """Log-utility value and the time integral that controls it.

    Returns E[log S_1], the trapezoidal E[int_0^1 S_u^-2 du], the bound
    verdict mean <= 2 log 2 + 3 SE, and the pathwise-paired residual of
    the identity E[log S_1] = 0.5 E[int S^-2] (the stochastic-integral
    term has mean zero, so the paired mean must vanish within noise).
    """
    if b.n_steps < MIN_INTEGRAL_STEPS:
        raise ValueError(
            f"time integral needs at least {MIN_INTEGRAL_STEPS} steps, "
            f"got {b.n_steps}"
        )
    dt = 1.0 / b.n_steps
    log_s1 = np.log(b.paths[:, -1])
    integrals = np.empty(b.n_paths)
    for start in range(0, b.n_paths, PATH_CHUNK):
        stop = min(start + PATH_CHUNK, b.n_paths)
        f = b.paths[start:stop] ** -2.0
        integrals[start:stop] = dt * (
            f[:, 1:-1].sum(axis=1) + 0.5 * (f[:, 0] + f[:, -1])
        )
    e_log = Estimate.of(log_s1, "E[log S_1]")
    e_int = Estimate.of(integrals, "E[int_0^1 S^-2 du]")
    paired = log_s1 - 0.5 * integrals
    ito = Estimate.of(paired, "Ito residual")
    bound_ok = e_int.mean <= LOG_VALUE_BOUND + 3.0 * e_int.std_error
    ito_ok = abs(ito.mean) <= 3.0 * ito.std_error
    return {
        "ElogS1": e_log,
        "EintSinv2": e_int,
        "bound_limit": LOG_VALUE_BOUND,
        "bound_check": "pass" if bound_ok else "fail",
        "ito_residual": ito,
        "ito_check": "pass" if ito_ok else "fail",
    }


def _interval_extremes(b: McBatch, edges: np.ndarray):
    """Per path, min and max of S over each coarse interval [edge_k, edge_k+1]."""
    k = edges.size - 1
    mins = np.empty((b.n_paths, k))
    maxs = np.empty((b.n_paths, k))
    for i in range(k):
        seg = b.paths[:, edges[i] : edges[i + 1] + 1]
        mins[:, i] = seg.min(axis=1)
        maxs[:, i] = seg.max(axis=1)
    return mins, maxs


def numeraire_probe(
    b: McBatch,
    n_strats: int = 200,
    seed: int = 0,
    n_intervals: int = 10,
    bound: float = 1.0,
) -> dict:
    """Deflator test of the candidate numeraire S.

    Samples piecewise-constant holdings theta on a coarse subgrid, with
    |theta_k| <= bound, and forms the exact wealth of the corresponding
    simple strategy, X_T = 1 + sum theta_k (S_end - S_start).  Paths
    where the wealth dips below 0 (checked against within-interval path
    extremes, since X is linear in S inside an interval) are not covered
    by the deflator inequality and are rejected and counted.  Each
    strategy must satisfy mean(X_T / S_1) <= 1 + 3 SE.

    Two reference rows are always included: theta = 0 (ratio 1/S_1) and
    the self-ratio of holding one share throughout, whose wealth is S
    itself, so the ratio is identically 1.
    """
    edges = np.linspace(0, b.n_steps, n_intervals + 1).round().astype(int)
    s_nodes = b.paths[:, edges]  # (n_paths, n_intervals + 1)
    ds = np.diff(s_nodes, axis=1)  # (n_paths, n_intervals)
    s1 = b.paths[:, -1]
    mins, maxs = _interval_extremes(b, edges)
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-bound, bound, size=(n_strats, n_intervals))

    rows = []

    def add_row(label, theta):
        # wealth at interval starts, then worst within-interval excursion
        x_nodes = np.empty_like(s_nodes)
        x_nodes[:, 0] = 1.0
        np.cumsum(theta * ds, axis=1, out=x_nodes[:, 1:])
        x_nodes[:, 1:] += 1.0
        worst_s = np.where(theta >= 0.0, mins, maxs)
        excursion = x_nodes[:, :-1] + theta * (worst_s - s_nodes[:, :-1])
        ok = excursion.min(axis=1) >= 0.0
        n_rejected = int(np.sum(~ok))
        ratio = x_nodes[ok, -1] / s1[ok]
        if ratio.size < 2:  # no standard error
            rows.append({"label": label, "mean": float(ratio[0]) if ratio.size else None,
                         "std_error": None, "n_used": int(ratio.size),
                         "n_rejected": n_rejected, "margin": None, "pass": True})
            return
        est = Estimate.of(ratio, f"E[X_T/S_1] ({label})")
        passed = est.mean <= 1.0 + 3.0 * est.std_error
        rows.append(
            {
                "label": label,
                "mean": est.mean,
                "std_error": est.std_error,
                "n_used": est.n,
                "n_rejected": n_rejected,
                "margin": est.mean - 1.0,
                "pass": bool(passed),
            }
        )

    add_row("zero", np.zeros(n_intervals))
    # one share held throughout has wealth S by self-financing; its
    # deflated ratio is S_1/S_1 = 1 without accumulating rounding
    self_ratio = s1 / s1
    est = Estimate.of(self_ratio, "E[X_T/S_1] (one-share)")
    one_path = est.n < 2
    rows.append(
        {
            "label": "one-share",
            "mean": est.mean,
            "std_error": None if one_path else est.std_error,
            "n_used": est.n,
            "n_rejected": 0,
            "margin": None if one_path else est.mean - 1.0,
            "pass": True if one_path else bool(est.mean <= 1.0 + 3.0 * est.std_error),
        }
    )
    for i in range(n_strats):
        add_row(f"sampled-{i}", thetas[i])

    scored = [r for r in rows if r["margin"] is not None]
    worst = max(scored, key=lambda r: r["margin"]) if scored else {"label": None, "margin": None}
    return {
        "rows": rows,
        "n_strategies": n_strats,
        "n_intervals": n_intervals,
        "bound": bound,
        "worst_label": worst["label"],
        "worst_margin": worst["margin"],
        "all_pass": bool(all(r["pass"] for r in rows)),
        "total_rejected": int(sum(r["n_rejected"] for r in rows)),
    }


def stopped_experiments(b: McBatch, levels: list[int]) -> dict:
    """Localized log values at barrier exits.

    For each level n, tau_n is the first grid time with S outside the
    open band (1/n, n), or T if the band is never left.  Reports
    E[log S_{tau_n}] with standard error and the fraction of stopped
    paths; the values increase with n toward the unstopped E[log S_1].
    Level 1 stops immediately (S_0 = 1 is outside the empty band), so
    its value is log 1 = 0.
    """
    if not levels:
        raise ValueError("need at least one level")
    if any(int(n) < 1 for n in levels):
        raise ValueError("levels must be integers >= 1")
    unstopped = Estimate.of(np.log(b.paths[:, -1]), "E[log S_1]")
    rows = []
    path_idx = np.arange(b.n_paths)
    for n in levels:
        n = int(n)
        outside = (b.paths <= 1.0 / n) | (b.paths >= float(n))
        hit = outside.any(axis=1)
        first = np.argmax(outside, axis=1)
        stop_idx = np.where(hit, first, b.n_steps)
        values = np.log(b.paths[path_idx, stop_idx])
        est = Estimate.of(values, f"E[log S_tau_{n}]")
        rows.append(
            {
                "level": n,
                "mean": est.mean,
                "std_error": est.std_error,
                "frac_stopped": float(np.mean(stop_idx < b.n_steps)),
            }
        )
    return {
        "rows": rows,
        "unstopped_mean": unstopped.mean,
        "unstopped_std_error": unstopped.std_error,
    }
