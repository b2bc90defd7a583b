"""Monte Carlo study of the Bessel(3) market S_t = |B_t| with B a
3-dimensional Brownian motion started at (1, 0, 0).

S solves dS = (1/S)dt + d(beta) for a scalar Brownian motion beta, never
hits 0, and its reciprocal 1/S is a strict local martingale:
E[1/S_1] = 2*Phi(1) - 1 < 1.  That gap rules out an equivalent
martingale measure, yet S itself is the numeraire portfolio and the
log-utility value E[log S_1] = 0.5 * E[int_0^1 S_u^-2 du] <= 2 log 2 is
finite.  The routines here estimate all of those quantities with
standard errors, probe the deflator property E[X_T / S_1] <= 1 for
sampled piecewise-constant strategies, and localize log S at barrier
exits to show the stopped values climbing to the global one.

Simulation is exact in law at the grid points: the norm construction
S = sqrt((1 + W1)^2 + W2^2 + W3^2) has no Euler bias and is positive by
algebra.  Paths draw from counter-based generators keyed by
(seed, path index) as a 64-bit pair, so any worker split reproduces the
same batch.

The study streams.  ``simulate_bes3`` splits the paths into chunks and
fills each chunk in a reused buffer, then reduces it, while it is in
cache, to the per-path statistics the estimators read: the terminal
value, the trapezoid integral of S^-2, the coarse-node values with the
lows and highs of each coarse interval, the checkpoint values, and per
stop level the first-exit value and a stopped flag.  A batch holds these
statistics, not paths, stored interval-major as (k, n_paths) arrays, so
memory is O(n_paths x statistics + chunk).

The chunks run on one pool of worker threads, one per CPU and never more
than there are chunks, created and joined inside the call.  Each worker
owns its generator and buffers of PATH_CHUNK // workers paths, so all
buffers together stay one chunk, and writes its chunks' columns of the
batch.  numpy releases the interpreter lock in the normal draws, cumsum,
einsum, sqrt and reductions, which are nearly all of the work.  No
statistic reads another path, so the batch is bitwise the same for any
worker count and schedule.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from numbers import Integral

import numpy as np

PATH_CHUNK = 128  # paths in all buffers together: 128 x 1000 steps x 3 normals is 3 MB
MIN_INTEGRAL_STEPS = 100
N_INTERVALS = 10  # coarse intervals of numeraire_probe's strategies
N_CHECKPOINTS = 10  # evenly spaced grid times of reciprocal_checkpoints
PROBE_BOUND = 1.0  # |theta_k| bound of numeraire_probe's holdings
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
    """Per-path statistics of a simulated batch.  Row k of a 2-D field is
    coarse node, interval, checkpoint or stop level k across all paths."""

    n_paths: int
    n_steps: int
    seed: int
    grid: np.ndarray  # (n_steps + 1,) uniform times on [0, 1]
    terminal: np.ndarray  # (n_paths,) S_1
    integral: np.ndarray  # (n_paths,) trapezoid int_0^1 S_u^-2 du
    edges: np.ndarray  # (N_INTERVALS + 1,) grid indices of the coarse nodes
    nodes: np.ndarray  # (N_INTERVALS + 1, n_paths) S at the coarse nodes
    lows: np.ndarray  # (N_INTERVALS, n_paths) min of S on [edge_k, edge_k+1]
    highs: np.ndarray  # (N_INTERVALS, n_paths) max of S on the same
    checkpoints: np.ndarray  # distinct grid indices above 0
    at_checkpoints: np.ndarray  # (checkpoints.size, n_paths) S there
    levels: tuple  # stop levels n: tau_n leaves the band (1/n, n)
    stop_values: np.ndarray  # (n_levels, n_paths) S_tau_n
    stopped: np.ndarray  # (n_levels, n_paths) tau_n before the last grid time


def _is_count(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= 1


def _coarse(n_steps: int, k: int) -> np.ndarray:
    """k + 1 grid indices spread evenly over 0 .. n_steps (repeats when
    n_steps < k)."""
    return np.linspace(0, n_steps, k + 1).round().astype(int)


def _cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _chunk_filler(n_steps: int, seed: int, rows: int):
    """Return fill(start, c), which simulates paths start .. start + c - 1
    (c <= rows) and returns them as the rows of a (c, n_steps + 1) view of
    its own buffer, which the next fill overwrites.

    Path j draws the (n_steps, 3) Gaussian increments of its driving
    Brownian motion from its own Philox stream keyed by (seed, j).  A
    filler owns its generator, buffers and temporaries, so fillers on
    different threads share nothing.
    """
    sqdt = math.sqrt(1.0 / n_steps)
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state  # counter 0; re-keying it restarts a path's stream
    key = fresh["state"]["key"]
    w = np.empty((rows, n_steps, 3))
    s = np.empty((rows, n_steps + 1))
    s[:, 0] = 1.0

    def fill(start: int, c: int) -> np.ndarray:
        for i in range(c):
            key[1] = start + i
            bitgen.state = fresh
            gen.standard_normal(out=w[i])
        wc = w[:c]
        wc *= sqdt
        np.cumsum(wc, axis=1, out=wc)
        wc[:, :, 0] += 1.0
        np.sqrt(np.einsum("ijk,ijk->ij", wc, wc), out=s[:c, 1:])
        return s[:c]

    return fill


def _pooled_chunks(reduce, n_paths: int, n_steps: int, seed: int, workers: int):
    """Call reduce(start, s) on each chunk of PATH_CHUNK // workers paths in
    a pool of ``workers`` threads with one filler each.  The first error
    shuts the pool, so chunks not yet started never run, and is raised."""
    # imported here: it loads logging, which no other command needs
    from concurrent.futures import ThreadPoolExecutor

    rows = PATH_CHUNK // workers
    local = threading.local()

    def run(start):
        try:
            if not hasattr(local, "fill"):
                local.fill = _chunk_filler(n_steps, seed, rows)
            reduce(start, local.fill(start, min(rows, n_paths - start)))
        except BaseException:
            # from this thread, before it takes another chunk
            pool.shutdown(wait=False, cancel_futures=True)
            raise

    pool = ThreadPoolExecutor(workers)
    try:
        futures = []
        for start in range(0, n_paths, rows):
            try:
                futures.append(pool.submit(run, start))
            except RuntimeError:  # a chunk failed and shut the pool
                break
        # the failed chunk started before every cancelled one
        for future in futures:
            future.result()
    finally:  # joins the workers; an interrupt leaves no chunk to start
        pool.shutdown(cancel_futures=True)


def simulate_bes3(
    n_paths: int,
    n_steps: int,
    seed: int = 0,
    *,
    levels=(),
) -> McBatch:
    """Exact-in-law Bessel(3) batch on the uniform grid of [0, 1], reduced
    to the statistics of every estimator in this module.

    ``N_INTERVALS`` coarse intervals serve ``numeraire_probe``,
    ``N_CHECKPOINTS`` evenly spaced grid times (only the distinct ones
    above 0 when n_steps < N_CHECKPOINTS) serve ``reciprocal_checkpoints``
    and each stop level serves ``stopped_experiments``.
    """
    for name, value in (("n_paths", n_paths), ("n_steps", n_steps)):
        if not _is_count(value):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    levels = tuple(levels)
    if not all(map(_is_count, levels)):
        raise ValueError(f"levels must be integers >= 1, got {list(levels)}")
    levels = tuple(int(n) for n in levels)
    edges = _coarse(n_steps, N_INTERVALS)
    checkpoints = _coarse(n_steps, N_CHECKPOINTS)
    checkpoints = np.unique(checkpoints[checkpoints > 0])
    dt = 1.0 / n_steps

    terminal = np.empty(n_paths)
    integral = np.empty(n_paths)
    nodes = np.empty((N_INTERVALS + 1, n_paths))
    lows = np.empty((N_INTERVALS, n_paths))
    highs = np.empty((N_INTERVALS, n_paths))
    at_checkpoints = np.empty((checkpoints.size, n_paths))
    stop_values = np.empty((len(levels), n_paths))
    stopped = np.empty((len(levels), n_paths), dtype=bool)

    def reduce(start, s):
        c = s.shape[0]
        cols = slice(start, start + c)
        terminal[cols] = s[:, -1]
        f = s ** -2.0
        integral[cols] = dt * (f[:, 1:-1].sum(axis=1) + 0.5 * (f[:, 0] + f[:, -1]))
        nodes[:, cols] = s[:, edges].T
        at_checkpoints[:, cols] = s[:, checkpoints].T
        for i in range(N_INTERVALS):
            seg = s[:, edges[i] : edges[i + 1] + 1]
            seg.min(axis=1, out=lows[i, cols])
            seg.max(axis=1, out=highs[i, cols])
        rows = np.arange(c)
        for j, n in enumerate(levels):
            outside = (s <= 1.0 / n) | (s >= float(n))
            first = outside.argmax(axis=1)
            stop = np.where(outside[rows, first], first, n_steps)
            stop_values[j, cols] = s[rows, stop]
            stopped[j, cols] = stop < n_steps

    # each worker gets >= 1 row
    workers = min(-(-n_paths // PATH_CHUNK), _cores(), PATH_CHUNK)
    _pooled_chunks(reduce, n_paths, n_steps, seed, workers)
    if float(lows.min()) <= 0.0:
        raise ValueError("batch must hold strictly positive path values")
    return McBatch(
        n_paths=n_paths, n_steps=n_steps, seed=seed,
        grid=np.linspace(0.0, 1.0, n_steps + 1),
        terminal=terminal, integral=integral,
        edges=edges, nodes=nodes, lows=lows, highs=highs,
        checkpoints=checkpoints, at_checkpoints=at_checkpoints,
        levels=levels, stop_values=stop_values, stopped=stopped,
    )


def estimate_reciprocal_moment(b: McBatch) -> Estimate:
    """Mean and standard error of 1/S_1.

    The closed-form value is 2*Phi(1) - 1 = 0.6827; the shortfall
    1 - mean is the strict-local-martingale gap that excludes an
    equivalent martingale measure.
    """
    return Estimate.of(1.0 / b.terminal, "E[1/S_1]")


def reciprocal_checkpoints(b: McBatch) -> list[Estimate]:
    """E[1/S_t] at the batch's checkpoints; nonincreasing in t."""
    return [
        Estimate.of(1.0 / s, f"E[1/S_{b.grid[k]:g}]")
        for k, s in zip(b.checkpoints, b.at_checkpoints)
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
    log_s1 = np.log(b.terminal)
    e_log = Estimate.of(log_s1, "E[log S_1]")
    e_int = Estimate.of(b.integral, "E[int_0^1 S^-2 du]")
    paired = log_s1 - 0.5 * b.integral
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


def _probe_row(label: str, ratio: np.ndarray, n_rejected: int) -> dict:
    if ratio.size < 2:  # no standard error: no margin, nothing to fail
        return {"label": label, "mean": float(ratio[0]) if ratio.size else None,
                "std_error": None, "n_used": int(ratio.size),
                "n_rejected": n_rejected, "margin": None, "pass": True}
    est = Estimate.of(ratio, f"E[X_T/S_1] ({label})")
    return {
        "label": label,
        "mean": est.mean,
        "std_error": est.std_error,
        "n_used": est.n,
        "n_rejected": n_rejected,
        "margin": est.mean - 1.0,
        "pass": bool(est.mean <= 1.0 + 3.0 * est.std_error),
    }


def numeraire_probe(
    b: McBatch,
    n_strats: int = 200,
    seed: int = 0,
) -> dict:
    """Deflator test of the candidate numeraire S.

    Samples piecewise-constant holdings theta on the batch's coarse
    intervals, with |theta_k| <= ``PROBE_BOUND``, and forms the exact
    wealth of the corresponding simple strategy,
    X_T = 1 + sum theta_k (S_end - S_start).
    Paths where the wealth dips below 0 (checked against within-interval
    path extremes, since X is linear in S inside an interval) are not
    covered by the deflator inequality and are rejected and counted.  Each
    strategy must satisfy mean(X_T / S_1) <= 1 + 3 SE; one that leaves
    fewer than two paths has no standard error and nothing to test, so its
    row has None for standard error and margin (and for the mean when no
    path is left), and passes.

    Two reference rows are always included: theta = 0 (ratio 1/S_1) and
    the self-ratio of holding one share throughout, whose wealth is S
    itself, so the ratio is identically 1.
    """
    k = b.edges.size - 1
    ds = np.diff(b.nodes, axis=0)
    # S's excursion from each interval's start: a long holding's wealth
    # bottoms at S's low, a short one's at S's high
    down = b.lows - b.nodes[:-1]
    up = b.highs - b.nodes[:-1]
    s1 = b.terminal
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-PROBE_BOUND, PROBE_BOUND, size=(n_strats, k))
    x = np.empty_like(b.nodes)  # wealth at the coarse nodes
    x[0] = 1.0
    work = np.empty_like(ds)

    def sampled_row(label, theta):
        # row by row: an accumulate along axis 0 strides across all paths
        np.multiply(theta[:, None], ds, out=work)
        for i in range(1, k):
            np.add(work[i - 1], work[i], out=work[i])
        np.add(work, 1.0, out=x[1:])
        for i, th in enumerate(theta):
            np.multiply(th, down[i] if th >= 0.0 else up[i], out=work[i])
        np.add(work, x[:-1], out=work)  # worst wealth inside each interval
        ok = work.min(axis=0) >= 0.0
        return _probe_row(label, x[-1, ok] / s1[ok], int(np.sum(~ok)))

    rows = [sampled_row("zero", np.zeros(k))]
    # one share held throughout has wealth S by self-financing; its
    # deflated ratio is S_1/S_1 = 1 without accumulating rounding
    rows.append(_probe_row("one-share", s1 / s1, 0))
    rows += [sampled_row(f"sampled-{i}", theta) for i, theta in enumerate(thetas)]

    # the zero strategy never rejects a path, so two paths give a margin
    worst = max((r for r in rows if r["margin"] is not None), key=lambda r: r["margin"],
                default={"label": None, "margin": None})
    return {
        "rows": rows,
        "n_strategies": n_strats,
        "n_intervals": k,
        "bound": PROBE_BOUND,
        "worst_label": worst["label"],
        "worst_margin": worst["margin"],
        "all_pass": bool(all(r["pass"] for r in rows)),
        "total_rejected": int(sum(r["n_rejected"] for r in rows)),
    }


def stopped_experiments(b: McBatch) -> dict:
    """Localized log values at barrier exits, one row per stop level of
    the batch.

    For each level n, tau_n is the first grid time with S outside the
    open band (1/n, n), or T if the band is never left.  Reports
    E[log S_{tau_n}] with standard error and the fraction of stopped
    paths; the values increase with n toward the unstopped E[log S_1].
    Level 1 stops immediately (S_0 = 1 is outside the empty band), so
    its value is log 1 = 0.
    """
    if not b.levels:
        raise ValueError("need at least one level")
    unstopped = Estimate.of(np.log(b.terminal), "E[log S_1]")
    rows = []
    for n, values, stopped in zip(b.levels, b.stop_values, b.stopped):
        est = Estimate.of(np.log(values), f"E[log S_tau_{n}]")
        rows.append(
            {
                "level": n,
                "mean": est.mean,
                "std_error": est.std_error,
                "frac_stopped": float(np.mean(stopped)),
            }
        )
    return {
        "rows": rows,
        "unstopped_mean": unstopped.mean,
        "unstopped_std_error": unstopped.std_error,
    }
