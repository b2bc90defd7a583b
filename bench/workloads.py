"""Inputs and ops of the four benchmark workloads.

An *op* is one call a user would make: one ``viatree.cli.main`` call in
``cli_mix`` and ``bessel_study``, one public API call in ``deep_tree`` and
``entropy_mid``.  Every workload is built from ``--seed`` alone, and its size
from ``--seconds``: a pass holds about ``seconds / passes`` of work on the
reference host (see ``speed.py``).  The same pass runs ``passes`` times, so
counts repeat exactly within a run, and each op's latency is its median over
the passes.  Workloads of millisecond ops take more, shorter passes: on a
shared machine a core's speed swings by a third from one second to the
next, and a median of six short runs spans more of those swings than a
median of three.

Why each workload exists:

* ``cli_mix`` -- what users run: the CLI on many small market files.  The
  only workload where ``market_io``, ``reporting`` and the per-call overhead
  of many tiny LPs matter, and the only one with arbitrage markets
  (infeasible LPs, the separating-vector LP, certificate replay).  A fixed
  share of the files is written in a large price unit (prices x 1e6),
  because real market files come in arbitrary units.
* ``deep_tree`` -- arbitrage-free depth-7 markets through the Python API.
  Per-node Python loops and strategy loops dominate.  Depth 8 (1,657
  nodes) made single calls of 3.5 s, within which the shared machine's
  speed changes; depth 7 with two markets per d gives twice the calls at
  under half the length, which the speed calibration follows better.
* ``entropy_mid`` -- arbitrage-free depth-6/7 markets through the Python API.
  The dense leaf-space solvers of the entropy module dominate.
* ``bessel_study`` -- ``viatree simulate`` studies.  Only ``bessel`` works
  here, and its materialised path matrix sets the peak RSS.

Functions of the program are looked up on their modules at call time
(``viatree.check_na``, ``viatree.cli.main``), so the traced run sees every
call through the wrappers it installs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import viatree
import viatree.cli
import viatree.generators

from checks import check_cli_report, emm_residual, require

PASSES = 3
CLI_PASSES = 6

# Cost of one unit of work on the reference host (seconds), used only to
# size a pass.
CLI_MARKET_COST = 0.115  # the seven CLI calls on one small market
DEEP_MARKET_COST = 4.0  # the seven API calls, one each, on three depth-7 markets
ENTROPY_MARKET_COST = 1.5  # the five API calls on one depth-6/7 market
STUDY_COST = 0.85  # one simulate study at STUDY_PATHS x STUDY_STEPS

LARGE_UNIT = 1e6
STUDY_PATHS = 4000
STUDY_STEPS = 1000
WARMUP_STUDY_PATHS = 400
DEEP_DEPTH = 7
DEEP_SHARE3 = 0.4  # share of 3-branch nodes per level: 690 nodes
# Which calls each deep_tree market gets, by its number of assets.  Each
# call runs once per pass; verify and deflator share the numeraire they test.
DEEP_CALLS = {
    1: ("check_na", "maximize_utility log"),
    2: ("numeraire_portfolio", "verify_numeraire", "deflator_probe"),
    3: ("maximize_utility crra2", "viability_under_measure"),
}
ENTROPY_SHAPES = ((6, 1, 0.6), (6, 2, 0.6), (7, 1, 0.4), (7, 2, 0.4))  # depth, d, share3

CLI_CALLS = (
    ("check", []),
    ("numeraire", []),
    ("optimize", ["--utility", "log"]),
    ("optimize", ["--utility", "crra:2"]),
    ("measure", ["--epsilon", "0.1"]),
    ("entropy", ["--min-entropy"]),
    ("entropy", ["--exp-utility"]),
)


@dataclass
class MarketInput:
    """One generated market, kept as plain arrays so each pass can hand the
    program fresh objects."""

    parent: np.ndarray
    branch_prob: np.ndarray
    prices: np.ndarray
    arbitrage_free: bool  # by construction; False means "unknown"
    unit: float = 1.0  # price unit the file is written in
    generator: str = ""
    path: str | None = None  # market file, for CLI workloads
    verdict: str | None = None  # what the program's ``check`` called it

    @property
    def n_nodes(self) -> int:
        return self.parent.size

    @property
    def n_leaves(self) -> int:
        return int(self.n_nodes - np.unique(self.parent[1:]).size)

    @property
    def d(self) -> int:
        return self.prices.shape[1]

    def model(self):
        parent = [None] + [int(p) for p in self.parent[1:]]
        tree = viatree.EventTree(parent, self.branch_prob)
        return viatree.MarketModel(tree=tree, prices=self.prices.copy())


@dataclass
class Op:
    """One timed call.  ``run(state, model)`` makes the call; ``check`` turns
    its result (or exception) into ``"ok"`` or a failure kind.  A passing
    result is kept in the market's state under ``store``; an op that
    ``needs`` a key missing there (its producer failed) is skipped."""

    label: str
    market: int | None
    run: Callable
    check: Callable
    work: int  # tree nodes, or path-steps for a study
    needs: str | None = None
    store: str | None = None


@dataclass
class Workload:
    name: str
    markets: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    work_unit: str = "nodes"
    passes: int = PASSES
    warmup: Callable | None = None

    def fresh_models(self):
        """New program objects for every market, so nothing carries over
        between passes by object identity."""
        return [m.model() if m.path is None else None for m in self.markets]


def _from_model(m, arbitrage_free, generator, unit=1.0) -> MarketInput:
    return MarketInput(
        parent=np.asarray(m.tree.parent, dtype=np.int64).copy(),
        branch_prob=np.asarray(m.tree.branch_prob, dtype=np.float64).copy(),
        prices=np.asarray(m.prices, dtype=np.float64) * unit,
        arbitrage_free=arbitrage_free,
        unit=unit,
        generator=generator,
    )


def balanced_tree(rng, depth: int, share3: float):
    """Parent and branch-probability arrays of a leveled tree whose level
    sizes are fixed: at every level ``round(n * share3)`` randomly chosen
    nodes get three children and the rest two.  The shape is random, the
    node count is not, so runs on different seeds do equal work."""
    parent = [-1]
    prob = [1.0]
    frontier = [0]
    for _ in range(depth):
        n = len(frontier)
        kids = np.full(n, 2)
        kids[rng.permutation(n)[: int(round(n * share3))]] = 3
        nxt = []
        for v, k in zip(frontier, kids):
            w = 0.8 * rng.dirichlet(np.ones(k)) + 0.2 / k
            for j in range(k):
                parent.append(v)
                prob.append(float(w[j]))
                nxt.append(len(parent) - 1)
        frontier = nxt
    return np.asarray(parent, dtype=np.int64), np.asarray(prob)


def na_prices(rng, parent: np.ndarray, d: int) -> np.ndarray:
    """Arbitrage-free by construction: uniform leaf prices, and every parent
    price a convex combination of its children's with interior weights."""
    n = parent.size
    children = [[] for _ in range(n)]
    for c in range(1, n):
        children[parent[c]].append(c)
    prices = np.empty((n, d))
    for v in range(n - 1, -1, -1):
        kids = children[v]
        if not kids:
            prices[v] = rng.uniform(0.1, 10.0, size=d)
        else:
            k = len(kids)
            w = 0.8 * rng.dirichlet(np.ones(k)) + 0.2 / k
            prices[v] = w @ prices[kids]
    return prices


def _count(budget: float, unit_cost: float, multiple: int = 1) -> int:
    return multiple * max(1, int(round(budget / (unit_cost * multiple))))


# ---------------------------------------------------------------- cli_mix


def build_cli_mix(seed: int, seconds: float, workdir: str) -> Workload:
    """Markets with d in 1..3, depth 2-4 and 2-3 branches.  Even-numbered
    markets come from ``random_market`` (almost all arbitrage), odd ones from
    ``random_na_market``.  One pair in four is written in price unit 1e6.
    d, depth and the branch count (2 or 3 at every node of a market) cycle in
    a fixed order, so every seed gets the same tree sizes; prices are random."""
    rng = np.random.default_rng([seed, 1])
    n = _count(seconds / CLI_PASSES, CLI_MARKET_COST, multiple=8)
    wl = Workload("cli_mix", passes=CLI_PASSES)
    os.makedirs(os.path.join(workdir, "markets"), exist_ok=True)
    os.makedirs(os.path.join(workdir, "reports"), exist_ok=True)
    for i in range(n):
        d = 1 + i % 3
        depth = 2 + (i // 3) % 3
        branches = 2 + (i // 9) % 2
        na = i % 2 == 1
        maker = viatree.generators.random_na_market if na else viatree.generators.random_market
        m = maker(rng, d=d, depth_range=(depth, depth), branch_range=(branches, branches),
                  label=f"cli-{i}")
        unit = LARGE_UNIT if (i // 2) % 4 == 3 else 1.0
        mi = _from_model(m, na, maker.__name__, unit)
        mi.path = os.path.join(workdir, "markets", f"m{i:04d}.json")
        scaled = viatree.MarketModel(tree=m.tree, prices=mi.prices, label=m.label)
        viatree.save_market(scaled, mi.path)
        wl.markets.append(mi)
        for j, (cmd, extra) in enumerate(CLI_CALLS):
            out = os.path.join(workdir, "reports", f"m{i:04d}-{j}.json")
            argv = [cmd, "--market", mi.path, "--out", out, *extra]
            label = " ".join([cmd, *extra]).replace("--", "")
            wl.ops.append(Op(label, i, _cli_run(argv), _cli_check(cmd, out, mi), mi.n_nodes))
    wl.warmup = _warmup_first(wl)
    return wl


def _cli_run(argv):
    def run(state, model):
        return viatree.cli.main(list(argv))

    return run


def _cli_check(cmd, out, market: MarketInput):
    def check(code, exc, state):
        if exc is not None:
            return "raised"
        report = _read_report(out)
        if cmd == "check" and report is not None:
            market.verdict = report.get("payload", {}).get("verdict")
        return check_cli_report(cmd, code, report, market.arbitrage_free, market.unit)

    return check


def _read_report(path):
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        os.unlink(path)  # a stale report must never pass for the next one
    except (OSError, json.JSONDecodeError):
        return None
    return report


# -------------------------------------------------------------- deep_tree


def build_deep_tree(seed: int, seconds: float, workdir: str) -> Workload:
    """Arbitrage-free depth-7 markets of 690 nodes, two per d in 1..3, with
    the seven API calls spread over them in a fixed way (DEEP_CALLS), so
    every seed gets the same mix of calls and dimensions."""
    rng = np.random.default_rng([seed, 2])
    wl = Workload("deep_tree")
    for _ in range(_count(seconds / PASSES, DEEP_MARKET_COST, multiple=2)):
        for d in (1, 2, 3):
            parent, prob = balanced_tree(rng, DEEP_DEPTH, DEEP_SHARE3)
            wl.markets.append(MarketInput(parent, prob, na_prices(rng, parent, d), True, generator="balanced-na"))
            i = len(wl.markets) - 1
            wl.ops += [op for op in _deep_ops(i, wl.markets[-1], op_seed=seed * 100 + i)
                       if op.label in DEEP_CALLS[d]]
    wl.warmup = _warmup_first(wl)
    return wl


def _deep_ops(i: int, mi: MarketInput, op_seed: int) -> list:
    n = mi.n_nodes

    def check_na_ok(cert, exc, state):
        if exc is not None:
            return "raised"
        require(cert.verdict == "NA", "wrong_verdict")
        z = np.asarray(cert.density.z)
        require(float(z.min()) > 0.0, "checks_failed")
        require(emm_residual(mi, z) <= 1e-9, "checks_failed")
        return "ok"

    def status_ok(res, exc, state):
        if exc is not None:
            return "raised"
        require(res.status == "ok", "wrong_verdict")
        return "ok"

    def passed_ok(res, exc, state):
        if exc is not None:
            return "raised"
        require(bool(res["passed"]), "checks_failed")
        return "ok"

    def viability_ok(res, exc, state):
        if exc is not None:
            return "raised"
        require(bool(res["viable"]), "wrong_verdict")
        require(bool(res["within_bound"]), "checks_failed")
        return "ok"

    return [
        Op("check_na", i, lambda s, m: viatree.check_na(m), check_na_ok, n),
        Op("numeraire_portfolio", i, lambda s, m: viatree.numeraire_portfolio(m), status_ok, n,
           store="numeraire"),
        Op("verify_numeraire", i,
           lambda s, m: viatree.verify_numeraire(m, s["numeraire"].wealth, n_strategies=100, seed=op_seed),
           passed_ok, n, needs="numeraire"),
        Op("deflator_probe", i,
           lambda s, m: viatree.deflator_probe(m, s["numeraire"].wealth, n=200, seed=op_seed),
           passed_ok, n, needs="numeraire"),
        Op("maximize_utility log", i, lambda s, m: viatree.maximize_utility(m, viatree.log_utility()),
           status_ok, n),
        Op("maximize_utility crra2", i, lambda s, m: viatree.maximize_utility(m, viatree.crra_utility(2.0)),
           status_ok, n),
        Op("viability_under_measure", i, lambda s, m: viatree.viability_under_measure(m), viability_ok, n),
    ]


# ------------------------------------------------------------ entropy_mid


def build_entropy_mid(seed: int, seconds: float, workdir: str) -> Workload:
    """Arbitrage-free markets at depth 6 (603 nodes, 372 leaves) and depth 7
    (690 nodes, 403 leaves) with d in {1, 2}; the shapes cycle in a fixed
    order so every seed gets the same mix."""
    rng = np.random.default_rng([seed, 3])
    wl = Workload("entropy_mid")
    n = _count(seconds / PASSES, ENTROPY_MARKET_COST, multiple=len(ENTROPY_SHAPES))
    for i in range(n):
        depth, d, share3 = ENTROPY_SHAPES[i % len(ENTROPY_SHAPES)]
        parent, prob = balanced_tree(rng, depth, share3)
        wl.markets.append(MarketInput(parent, prob, na_prices(rng, parent, d), True, generator="balanced-na"))
        wl.ops += _entropy_ops(i, wl.markets[-1])
    wl.warmup = _warmup_first(wl)
    return wl


def _entropy_ops(i: int, mi: MarketInput) -> list:
    n = mi.n_nodes

    def arbitrage_or_raised(exc):
        return "wrong_verdict" if isinstance(exc, viatree.ArbitrageError) else "raised"

    def min_entropy_ok(res, exc, state):
        if exc is not None:
            return arbitrage_or_raised(exc)
        z = np.asarray(res.density.z)
        require(res.kkt_residual < 1e-8, "checks_failed")
        require(float(z.min()) > 0.0 and emm_residual(mi, z) <= 1e-9, "checks_failed")
        return "ok"

    def delta(state, m):
        q = state["min_entropy"].density.z[m.tree.leaves]
        return viatree.delta_for_epsilon(m.tree, q, 0.1)

    def delta_ok(dm, exc, state):
        if exc is not None:
            return "raised"
        require(dm.l1_dist <= 0.1, "checks_failed")
        require(float(np.max(dm.z_leaf)) <= dm.bound + 1e-12, "checks_failed")
        return "ok"

    def value_bound_ok(res, exc, state):
        if exc is not None:
            return "raised"
        require(bool(res["passed"]), "checks_failed")
        return "ok"

    def hellinger_ok(rep, exc, state):
        if exc is not None:
            return "raised"
        gap = abs(rep.e_q_h_terminal - rep.relative_entropy)
        require(gap <= max(1e-9, 1e-10 * (1.0 + rep.relative_entropy)), "checks_failed")
        return "ok"

    def exp_utility_ok(res, exc, state):
        if exc is not None:
            return arbitrage_or_raised(exc)
        require(res.density_link_residual <= 1e-9, "checks_failed")
        require(res.entropy_density_gap <= 1e-6, "checks_failed")
        return "ok"

    return [
        Op("min_entropy_emm", i, lambda s, m: viatree.min_entropy_emm(m), min_entropy_ok, n, store="min_entropy"),
        Op("delta_for_epsilon", i, delta, delta_ok, n, needs="min_entropy", store="delta"),
        Op("verify_value_bound", i, lambda s, m: viatree.verify_value_bound(m, s["delta"]),
           value_bound_ok, n, needs="delta"),
        Op("entropy_hellinger", i, lambda s, m: viatree.entropy_hellinger(m.tree, s["min_entropy"].density),
           hellinger_ok, n, needs="min_entropy"),
        Op("exp_utility", i, lambda s, m: viatree.exp_utility(m), exp_utility_ok, n),
    ]


# ----------------------------------------------------------- bessel_study


def build_bessel_study(seed: int, seconds: float, workdir: str) -> Workload:
    """``viatree simulate`` studies of STUDY_PATHS paths x STUDY_STEPS steps,
    200 probe strategies and stop levels 1-64, each with its own seed."""
    wl = Workload("bessel_study", work_unit="path-steps")
    os.makedirs(workdir, exist_ok=True)
    for j in range(_count(seconds / PASSES, STUDY_COST)):
        out = os.path.join(workdir, f"study-{j}.json")
        argv = _study_argv(STUDY_PATHS, seed * 1000 + j, out)
        wl.ops.append(Op("simulate", None, _cli_run(argv), _study_check(out), STUDY_PATHS * STUDY_STEPS))
    warm_out = os.path.join(workdir, "warmup.json")
    warm_argv = _study_argv(WARMUP_STUDY_PATHS, seed * 1000 + 999, warm_out)
    wl.warmup = lambda: viatree.cli.main(list(warm_argv))
    return wl


def _study_argv(paths, seed, out):
    return ["simulate", "--paths", str(paths), "--steps", str(STUDY_STEPS),
            "--probe-strategies", "200", "--seed", str(seed), "--out", out]


def _study_check(out):
    def check(code, exc, state):
        if exc is not None:
            return "raised"
        return check_cli_report("simulate", code, _read_report(out), True, 1.0)

    return check


def _warmup_first(wl: Workload):
    op = wl.ops[0]

    def warmup():
        models = wl.fresh_models()
        op.run({}, models[op.market] if op.market is not None else None)

    return warmup


BUILDERS = {
    "cli_mix": build_cli_mix,
    "deep_tree": build_deep_tree,
    "entropy_mid": build_entropy_mid,
    "bessel_study": build_bessel_study,
}
