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

Simulation is exact in law at the grid points.  Given S_k = r, the
next value |r e1 + sqrt(dt) W| of the 3-dimensional Brownian motion has
the law of hypot(r + sqrt(dt) G, sqrt(2 dt E)) with G ~ N(0, 1) and
E ~ Exp(1): the squared step is noncentral chi-square with three degrees
of freedom, the exact transition of the squared Bessel(3) process.  So
each step draws one normal and one exponential,

    S_{k+1}^2 = (S_k + sqrt(dt) G_k)^2 + 2 dt E_k,

which has no Euler bias and is positive by algebra.

The study streams.  ``simulate_bes3`` runs the recursion time-major over
chunks of ``WIDTH`` paths, chunk c drawing from one Philox stream keyed
by the 64-bit pair (seed, c).  Every chunk draws all ``WIDTH`` columns,
also the last one when it holds fewer paths, so path j depends only on
(seed, j) and n_steps, whatever n_paths is.  Each coarse interval is
streamed in blocks of at most ``BLOCK`` steps: a block draws its normals,
then its exponentials, steps its rows with four ufunc calls each, and is
reduced while it is in cache to the per-path statistics the estimators
read: the trapezoid integral of S^-2, the coarse-node values (the last
is the terminal value) with the lows and highs of each coarse interval,
and per stop level the first-exit value and a stopped flag.  The
integral is dt * (f_0 / 2 + f_1 + ... + f_{n-1} + f_n / 2) with
f_k = 1 / S_k^2 taken from the recursion's S_k^2, added left to right in
time.  A batch holds
these statistics, not paths, stored interval-major as (k, n_paths)
arrays, so memory is O(n_paths x statistics + workers x WIDTH x BLOCK)
for any n_steps.

The chunks run on one pool of worker threads, one per CPU and never more
than there are chunks, created and joined inside the call.  A chunk runs
in buffers of its own, and its worker copies the chunk's columns into the
batch.  numpy releases the interpreter lock in the draws, the per-step
ufuncs and the block reductions.  No statistic reads another path, so
the batch is bitwise the same for any worker count and schedule.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from numbers import Integral

import numpy as np

WIDTH = 1024  # paths per chunk, drawn in full even when fewer are asked for
BLOCK = 64  # steps per block: a worker's two draw buffers hold 2 x 64 x 1024 doubles, 1 MB
MIN_INTEGRAL_STEPS = 100
N_INTERVALS = 10  # coarse intervals: numeraire_probe's strategies, reciprocal_checkpoints' times
PROBE_BOUND = 1.0  # |theta_k| bound of numeraire_probe's holdings
RECIPROCAL_MOMENT_1 = math.erf(1.0 / math.sqrt(2.0))  # E[1/S_1] = 2*Phi(1) - 1
LOG_VALUE_BOUND = 2.0 * math.log(2.0)
Z_LEVEL = 3.0  # every standard-error verdict of the study: pass at |z| <= Z_LEVEL (one-sided z)


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
    coarse node, interval or stop level k across all paths."""

    n_paths: int
    n_steps: int
    seed: int
    grid: np.ndarray  # (n_steps + 1,) uniform times on [0, 1]
    terminal: np.ndarray  # (n_paths,) S_1, a view of nodes[-1]
    integral: np.ndarray  # (n_paths,) trapezoid int_0^1 S_u^-2 du
    edges: np.ndarray  # (N_INTERVALS + 1,) grid indices of the coarse nodes
    nodes: np.ndarray  # (N_INTERVALS + 1, n_paths) S at the coarse nodes
    lows: np.ndarray  # (N_INTERVALS, n_paths) min of S on [edge_k, edge_k+1]
    highs: np.ndarray  # (N_INTERVALS, n_paths) max of S on the same
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


def _blocks(edges: np.ndarray) -> list:
    """Per coarse interval, its blocks as (first grid index, steps): at
    most BLOCK steps each.  An empty interval (repeated edge) has no block."""
    return [[(a, min(BLOCK, hi - a)) for a in range(lo, hi, BLOCK)]
            for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist())]


class _Stats:
    """Per-path statistics of n paths in one (rows, n) ``table``, with a
    named view per field: row k of a 2-D field is coarse node, interval or
    stop level k.  Stopped flags are held as 0.0 / 1.0."""

    def __init__(self, n: int, n_levels: int):
        sizes = {"integral": 1, "nodes": N_INTERVALS + 1, "lows": N_INTERVALS,
                 "highs": N_INTERVALS, "stop_values": n_levels, "stopped": n_levels}
        self.table = np.empty((sum(sizes.values()), n))
        first = 0
        for name, size in sizes.items():
            setattr(self, name, self.table[first : first + size])
            first += size
        self.integral = self.integral[0]


def _simulate_chunk(chunk: int, seed: int, n_steps: int, plan: list, levels: tuple) -> _Stats:
    """The statistics of the WIDTH paths of ``chunk``."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, chunk], dtype=np.uint64)))
    h, var2 = math.sqrt(1.0 / n_steps), 2.0 / n_steps  # sqrt(dt), 2 dt
    out = _Stats(WIDTH, len(levels))
    g, y = np.empty((BLOCK, WIDTH)), np.empty((BLOCK, WIDTH))
    s, f = np.empty((BLOCK + 1, WIDTH)), np.empty((BLOCK + 1, WIDTH))
    low, high = np.empty(WIDTH), np.empty(WIDTH)
    bands = [(1.0 / n, float(n)) for n in levels]
    done = np.empty((len(levels), WIDTH), dtype=bool)
    for j, (lo, hi) in enumerate(bands):  # S_0 = 1 leaves only level 1's empty band
        done[j] = 1.0 <= lo or 1.0 >= hi
    out.stop_values[:] = 1.0
    out.stopped[:] = done
    s[0] = 1.0
    out.nodes[0] = 1.0
    out.integral[:] = 0.5  # f_0 / 2
    for i, blocks in enumerate(plan):
        out.lows[i] = s[0]
        out.highs[i] = s[0]
        for a, m in blocks:
            gen.standard_normal(out=g[:m])
            gen.standard_exponential(out=y[:m])
            g[:m] *= h
            y[:m] *= var2
            for k in range(m):
                # hypot by its definition: np.hypot's overflow guard costs
                # 2.5 times as much, and S stays far from overflow
                x = s[k + 1]
                np.add(s[k], g[k], out=x)
                np.multiply(x, x, out=x)
                np.add(x, y[k], out=f[k + 1])  # S_{k+1}^2
                np.sqrt(f[k + 1], out=x)
            rows = s[: m + 1]
            rows.min(axis=0, out=low)
            rows.max(axis=0, out=high)
            np.minimum(out.lows[i], low, out=out.lows[i])
            np.maximum(out.highs[i], high, out=out.highs[i])
            # the running integral heads the block's rows, so one sum over
            # time adds f left to right
            f[0] = out.integral
            np.divide(1.0, f[1 : m + 1], out=f[1 : m + 1])
            if a + m == n_steps:
                f[m] *= 0.5
            f[: m + 1].sum(axis=0, out=out.integral)
            for j, (lo, hi) in enumerate(bands):
                # only live paths whose block range leaves the band can stop
                cols = np.flatnonzero(~done[j] & ((low <= lo) | (high >= hi)))
                if cols.size:
                    seg = s[1 : m + 1, cols]
                    first = ((seg <= lo) | (seg >= hi)).argmax(axis=0)
                    out.stop_values[j, cols] = seg[first, np.arange(cols.size)]
                    out.stopped[j, cols] = a + 1 + first < n_steps
                    done[j, cols] = True
            s[0] = s[m]
        out.nodes[i + 1] = s[0]
    out.integral *= 1.0 / n_steps
    # a path that never left the band stops at T
    np.copyto(out.stop_values, s[0], where=~done)
    return out


def _pooled_chunks(run, n_chunks: int, workers: int):
    """Call run(chunk) for chunk 0 .. n_chunks - 1 in a pool of ``workers``
    threads.  The first error shuts the pool, so chunks not yet started
    never run, and is raised."""
    # imported here: it loads logging, which no other command needs
    from concurrent.futures import ThreadPoolExecutor

    def guarded(chunk):
        try:
            run(chunk)
        except BaseException:
            # from this thread, before it takes another chunk
            pool.shutdown(wait=False, cancel_futures=True)
            raise

    pool = ThreadPoolExecutor(workers)
    try:
        futures = []
        for chunk in range(n_chunks):
            try:
                futures.append(pool.submit(guarded, chunk))
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

    ``N_INTERVALS`` coarse intervals serve ``numeraire_probe``, their
    distinct nodes above t = 0 ``reciprocal_checkpoints``, and each stop
    level serves ``stopped_experiments``.
    """
    for name, value in (("n_paths", n_paths), ("n_steps", n_steps)):
        if not _is_count(value):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    levels = tuple(levels)
    if not all(map(_is_count, levels)):
        raise ValueError(f"levels must be integers >= 1, got {list(levels)}")
    levels = tuple(int(n) for n in levels)
    edges = _coarse(n_steps, N_INTERVALS)
    plan = _blocks(edges)
    batch = _Stats(n_paths, len(levels))

    def run(chunk):
        first = chunk * WIDTH
        c = min(WIDTH, n_paths - first)
        stats = _simulate_chunk(chunk, seed, n_steps, plan, levels)
        batch.table[:, first : first + c] = stats.table[:, :c]

    n_chunks = -(-n_paths // WIDTH)
    _pooled_chunks(run, n_chunks, min(n_chunks, _cores()))
    if float(batch.lows.min()) <= 0.0:
        raise ValueError("batch must hold strictly positive path values")
    return McBatch(
        n_paths=n_paths, n_steps=n_steps, seed=seed,
        grid=np.linspace(0.0, 1.0, n_steps + 1),
        terminal=batch.nodes[-1], integral=batch.integral,
        edges=edges, nodes=batch.nodes, lows=batch.lows, highs=batch.highs,
        levels=levels, stop_values=batch.stop_values, stopped=batch.stopped != 0.0,
    )


def estimate_reciprocal_moment(b: McBatch) -> Estimate:
    """Mean and standard error of 1/S_1.

    The closed-form value is 2*Phi(1) - 1 = 0.6827; the shortfall
    1 - mean is the strict-local-martingale gap that excludes an
    equivalent martingale measure.
    """
    return Estimate.of(1.0 / b.terminal, "E[1/S_1]")


def reciprocal_checkpoints(b: McBatch) -> list[Estimate]:
    """E[1/S_t] at the batch's distinct coarse nodes above t = 0;
    nonincreasing in t."""
    grid_k, rows = np.unique(b.edges, return_index=True)
    return [Estimate.of(1.0 / b.nodes[i], f"E[1/S_{b.grid[k]:g}]")
            for k, i in zip(grid_k, rows) if k > 0]


def estimate_log_value(b: McBatch) -> dict:
    """Log-utility value and the time integral that controls it.

    Returns E[log S_1], the trapezoidal E[int_0^1 S_u^-2 du] with its
    bound 2 log 2, and the pathwise-paired residual of the identity
    E[log S_1] = 0.5 E[int S^-2] (the stochastic-integral term has mean
    zero, so the paired mean must vanish within noise).  ``judge_study``
    gives the two verdicts.
    """
    if b.n_steps < MIN_INTEGRAL_STEPS:
        raise ValueError(
            f"time integral needs at least {MIN_INTEGRAL_STEPS} steps, "
            f"got {b.n_steps}"
        )
    log_s1 = np.log(b.terminal)
    e_log = Estimate.of(log_s1, "E[log S_1]")
    e_int = Estimate.of(b.integral, "E[int_0^1 S^-2 du]")
    return {
        "ElogS1": e_log,
        "EintSinv2": e_int,
        "bound_limit": LOG_VALUE_BOUND,
        "ito_residual": Estimate.of(log_s1 - 0.5 * b.integral, "Ito residual"),
    }


def _z(excess: float, std_error: float) -> float:
    if std_error > 0.0:
        return excess / std_error
    return math.copysign(math.inf, excess) if excess else 0.0


def _probe_row(label: str, ratio: np.ndarray, n_rejected: int) -> dict:
    if ratio.size < 2:  # no standard error: no margin, nothing to fail
        return {"label": label, "mean": float(ratio[0]) if ratio.size else None,
                "std_error": None, "n_used": int(ratio.size),
                "n_rejected": n_rejected, "margin": None, "pass": True}
    est = Estimate.of(ratio, f"E[X_T/S_1] ({label})")
    margin = est.mean - 1.0
    return {
        "label": label,
        "mean": est.mean,
        "std_error": est.std_error,
        "n_used": est.n,
        "n_rejected": n_rejected,
        "margin": margin,
        "pass": _z(margin, est.std_error) <= Z_LEVEL,
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
    strategy's margin mean(X_T / S_1) - 1 must be at most ``Z_LEVEL``
    standard errors; one that leaves fewer than two paths has no standard
    error and nothing to test, so its row has None for standard error and
    margin (and for the mean when no path is left), and passes.

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
    ratio = np.empty_like(s1)  # X_T / S_1 on every path

    def sampled_row(label, theta):
        # row by row: an accumulate along axis 0 strides across all paths
        for i, th in enumerate(theta):
            np.multiply(th, ds[i], out=work[i])
            if i:
                np.add(work[i - 1], work[i], out=work[i])
        np.add(work, 1.0, out=x[1:])
        for i, th in enumerate(theta):
            np.multiply(th, down[i] if th >= 0.0 else up[i], out=work[i])
        np.add(work, x[:-1], out=work)  # worst wealth inside each interval
        ok = work.min(axis=0) >= 0.0
        np.divide(x[-1], s1, out=ratio)
        return _probe_row(label, ratio[ok], ok.size - int(np.count_nonzero(ok)))

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


GAP_SIGMAS = 10.0  # the no-EMM gap 1 - E[1/S_1] must exceed this many standard errors
MONOTONE_SLACK = 1e-12  # how far a stopped mean may fall below the level before it


def judge_study(rec: Estimate, log_value: dict, probe: dict, stopped: dict) -> dict:
    """Every verdict of the study: ``checks``, with ``checks_z`` holding
    each standard-error check's statistic in standard errors and
    ``checks_p`` its normal p-value, two-sided erfc(|z| / sqrt 2) and for
    the log bound one-sided erfc(z / sqrt 2) / 2.  The two-sided checks
    pass at |z| <= Z_LEVEL, the log bound at z <= Z_LEVEL, and each probe
    row (``_probe_row``) at the same level; the p-values gate nothing."""
    gap = 1.0 - rec.mean
    gap_sigmas = _z(gap, rec.std_error)
    integral, ito, top = log_value["EintSinv2"], log_value["ito_residual"], stopped["rows"][-1]
    means = [r["mean"] for r in stopped["rows"]]
    checks_z = {
        "reciprocal_within_3se": _z(rec.mean - RECIPROCAL_MOMENT_1, rec.std_error),
        "log_bound": _z(integral.mean - LOG_VALUE_BOUND, integral.std_error),
        "ito_identity": _z(ito.mean, ito.std_error),
        "stopped_converged": _z(stopped["unstopped_mean"] - top["mean"],
                                math.hypot(top["std_error"], stopped["unstopped_std_error"])),
    }
    judged = {name: (z if name == "log_bound" else abs(z)) for name, z in checks_z.items()}
    checks = {name: z <= Z_LEVEL for name, z in judged.items()}
    checks_p = {name: math.erfc(z / math.sqrt(2.0)) / (2.0 if name == "log_bound" else 1.0)
                for name, z in judged.items()}
    checks.update(no_emm_gap_over_10se=gap_sigmas > GAP_SIGMAS, probe_all_pass=probe["all_pass"],
                  stopped_monotone=all(a <= b + MONOTONE_SLACK for a, b in zip(means, means[1:])))
    return {"no_emm_gap": gap, "no_emm_gap_sigmas": gap_sigmas, "checks_z": checks_z,
            "checks_p": checks_p, "checks": checks, "checks_passed": all(checks.values())}
