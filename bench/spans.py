"""Spans and counters recorded around the public functions of each
``viatree`` module, from the benchmark's own files.

``install`` wraps each function named in ``SPANS`` at every module attribute
that holds it (``viatree.arbitrage.solve_lp``, ``viatree.numeraire.check_na``,
``viatree.check_na``, ...), because callers resolve those names at call time.
A name that no longer exists is recorded as missing with the reason; its
metrics read 0 and print as missing, and the run goes on.

A span's busy time is inclusive; its self time is its duration minus the
durations of the spans it encloses.  Counts come from arguments and return
values (simplex pivots, Newton iterations, ...), so they repeat exactly on
the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

MODULES = (
    "cli", "market_io", "reporting", "trees", "markets", "simplex",
    "arbitrage", "numeraire", "utility", "measure_change", "entropy", "bessel",
)
CLI_COMMANDS = ("check", "numeraire", "optimize", "measure", "entropy", "simulate")


# ------------------------------------------------------------ count hooks
# Each hook reads one call's arguments and result into counters.  A hook
# that meets an argument or result it does not understand is reported as
# missing instead of stopping the run.


def _load_market(t, args, kwargs, result, exc, parent):
    t.counts["market_io.bytes_read"] += os.path.getsize(args[0])


def _atomic_write_text(t, args, kwargs, result, exc, parent):
    t.counts["market_io.bytes_written"] += len(args[1].encode("utf-8"))


def _solve_lp(t, args, kwargs, result, exc, parent):
    if parent == "arbitrage.node_na_lp":
        t.counts["arbitrage.node_na_lp.lps"] += 1
    if exc is not None:
        t.counts["simplex.errors"] += 1
        return
    if result.status in ("infeasible", "unbounded"):
        t.counts[f"simplex.status.{result.status}"] += 1
    t.counts["simplex.pivots"] += int(result.iterations)


def _check_na(t, args, kwargs, result, exc, parent):
    t.counts["arbitrage.check_na.nodes"] += int(args[0].tree.n_nodes)
    if exc is None and result.verdict == "ARBITRAGE":
        t.counts["arbitrage.verdict.arbitrage"] += 1


def _node_log_optimal(t, args, kwargs, result, exc, parent):
    if exc is None:
        t.counts["numeraire.node_log_optimal.iterations"] += int(result[2])


def _node_power_optimal(t, args, kwargs, result, exc, parent):
    if exc is None:
        t.counts["utility.node_power_optimal.iterations"] += int(result[3])


def _min_entropy_emm(t, args, kwargs, result, exc, parent):
    m = args[0]
    leaves = int(m.tree.leaves.size)
    rows = int(m.tree.internal.size) * m.d + 1
    # constraint matrix, its SVD factors and the null-space basis
    t.counts["entropy.dense_bytes"] += 8 * (rows * leaves + rows * rows + 2 * leaves * leaves)
    if exc is None:
        t.counts["entropy.min_entropy_emm.iterations"] += int(result.iterations)


def _exp_utility(t, args, kwargs, result, exc, parent):
    m = args[0]
    cols = int(m.tree.internal.size) * m.d
    # leaf-feature matrix, its weighted copy and the Hessian
    t.counts["entropy.dense_bytes"] += 8 * (2 * int(m.tree.leaves.size) * cols + cols * cols)
    if exc is not None:
        t.counts["entropy.exp_utility.errors"] += 1
        return
    t.counts["entropy.exp_utility.iterations"] += int(result.iterations)
    t.counts["entropy.exp_utility.cap_hits"] += int(bool(result.cap_hit))


def _simulate_bes3(t, args, kwargs, result, exc, parent):
    if exc is None:
        t.counts["bessel.batch_bytes"] += int(result.paths.nbytes)
        t.counts["bessel.path_steps"] += int(result.n_paths) * int(result.n_steps)


def _numeraire_probe(t, args, kwargs, result, exc, parent):
    if exc is None:
        t.counts["bessel.numeraire_probe.rejected"] += int(result["total_rejected"])


@dataclass(frozen=True)
class Span:
    key: str  # metric prefix, e.g. "trees.EventTree"
    module: str  # viatree submodule holding the name
    attr: str  # attribute path inside it, e.g. "EventTree.__init__"
    hook: object = None


SPANS = (
    Span("cli.main", "cli", "main"),
    Span("market_io.load_market", "market_io", "load_market", _load_market),
    Span("market_io.atomic_write_text", "market_io", "atomic_write_text", _atomic_write_text),
    Span("reporting.make_report", "reporting", "make_report"),
    Span("reporting.render", "reporting", "render"),
    Span("trees.EventTree", "trees", "EventTree.__init__"),
    Span("trees.unconditional_probs", "trees", "EventTree.unconditional_probs"),
    Span("trees.StoppingTime.of", "trees", "StoppingTime.of"),
    Span("markets.wealth_from_units", "markets", "wealth_from_units"),
    Span("markets.wealth_from_fractions", "markets", "wealth_from_fractions"),
    Span("markets.simple_returns", "markets", "MarketModel.simple_returns"),
    Span("markets.price_martingale_residual", "markets", "price_martingale_residual"),
    Span("simplex.solve_lp", "simplex", "solve_lp", _solve_lp),
    Span("arbitrage.check_na", "arbitrage", "check_na", _check_na),
    Span("arbitrage.node_na_lp", "arbitrage", "node_na_lp"),
    Span("numeraire.node_log_optimal", "numeraire", "node_log_optimal", _node_log_optimal),
    Span("numeraire.numeraire_portfolio", "numeraire", "numeraire_portfolio"),
    Span("numeraire.verify_numeraire", "numeraire", "verify_numeraire"),
    Span("numeraire.sample_feasible_fractions", "numeraire", "sample_feasible_fractions"),
    Span("numeraire.deflator_probe", "numeraire", "deflator_probe"),
    Span("utility.maximize_utility", "utility", "maximize_utility"),
    Span("utility.node_power_optimal", "utility", "node_power_optimal", _node_power_optimal),
    Span("utility.viability_under_measure", "utility", "viability_under_measure"),
    Span("measure_change.construct_q_delta", "measure_change", "construct_q_delta"),
    Span("measure_change.delta_for_epsilon", "measure_change", "delta_for_epsilon"),
    Span("measure_change.verify_value_bound", "measure_change", "verify_value_bound"),
    Span("entropy.min_entropy_emm", "entropy", "min_entropy_emm", _min_entropy_emm),
    Span("entropy.exp_utility", "entropy", "exp_utility", _exp_utility),
    Span("entropy.entropy_hellinger", "entropy", "entropy_hellinger"),
    Span("bessel.simulate_bes3", "bessel", "simulate_bes3", _simulate_bes3),
    Span("bessel.estimate_log_value", "bessel", "estimate_log_value"),
    Span("bessel.numeraire_probe", "bessel", "numeraire_probe", _numeraire_probe),
    Span("bessel.stopped_experiments", "bessel", "stopped_experiments"),
)


class Tracer:
    """In-memory span and counter recorder.  Wrappers call straight through
    while ``active`` is false."""

    def __init__(self):
        self.active = False
        self.missing: dict[str, str] = {}
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self._stack: list[list] = []  # [key, time in child spans]
        self._depth = Counter()

    def _key(self, span: Span, args, kwargs) -> str:
        if span.key == "cli.main":
            argv = args[0] if args else kwargs.get("argv")
            return f"cli.{argv[0]}" if argv else span.key
        if span.key == "utility.maximize_utility":
            utility = args[1] if len(args) > 1 else kwargs.get("utility")
            return f"{span.key}.{getattr(utility, 'kind', 'other')}"
        return span.key

    def wrap(self, span: Span, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            key = tracer._key(span, args, kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [key, 0.0]
            tracer._stack.append(frame)
            tracer._depth[key] += 1
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                tracer._leave(frame, perf_counter() - start)
                if span.hook is not None:
                    tracer._run_hook(span, args, kwargs, result, exc, parent)

        return wrapper

    def _leave(self, frame, duration):
        key, child = frame
        self._stack.pop()
        self._depth[key] -= 1
        self.calls[key] += 1
        self.self_time[key] += duration - child
        if self._depth[key] == 0:  # recursion counts once toward busy time
            self.busy[key] += duration
        if self._stack:
            self._stack[-1][1] += duration

    def _run_hook(self, span, args, kwargs, result, exc, parent):
        start = perf_counter()
        try:
            span.hook(self, args, kwargs, result, exc, parent)
        except (AttributeError, TypeError, KeyError, IndexError, ValueError, OSError) as e:
            self.missing.setdefault(f"{span.key} counters", f"{type(e).__name__}: {e}")
        if self._stack:  # hook time is tracing overhead, not the caller's work
            self._stack[-1][1] += perf_counter() - start

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
        }


def _viatree_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "viatree" or name.startswith("viatree."))]


def install(tracer: Tracer) -> None:
    """Wrap every function in SPANS wherever a viatree module holds it."""
    for span in SPANS:
        try:
            module = importlib.import_module(f"viatree.{span.module}")
        except ImportError as e:
            tracer.missing[span.key] = f"module viatree.{span.module} not importable ({e})"
            continue
        *owner_path, name = span.attr.split(".")
        owner = module
        for part in owner_path:
            owner = getattr(owner, part, None)
        raw = getattr(owner, "__dict__", {}).get(name) if owner is not None else None
        if raw is None or not callable(getattr(owner, name, None)):
            tracer.missing[span.key] = f"viatree.{span.module}.{span.attr} no longer exists"
            continue
        if owner_path:  # a method or classmethod on a class
            if isinstance(raw, classmethod):
                setattr(owner, name, classmethod(tracer.wrap(span, raw.__func__)))
            else:
                setattr(owner, name, tracer.wrap(span, raw))
            continue
        wrapped = tracer.wrap(span, raw)
        for mod in _viatree_modules():
            for attr, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, attr, wrapped)


# ------------------------------------------------------- per-layer metrics


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(snap: dict, op_time: float, ops: int) -> list:
    """Per-layer metrics of one traced pass as (name, value, unit, span key).

    Times are in seconds here; ``run.py`` reports them as percent of the
    pass's op time in its JSON line.  ``span key`` names the span that must
    be installed for the metric to be measured (None: always measured).
    """
    calls, busy, self_t, counts = snap["calls"], snap["busy"], snap["self"], snap["counts"]
    out = []

    def add(name, value, unit, key):
        out.append((name, value, unit, key))

    def span(key, *fields, owner=None):
        for f in fields:
            if f == "calls":
                add(f"{key}.calls", calls.get(key, 0), "count", owner or key)
            elif f == "busy_s":
                add(f"{key}.busy_s", busy.get(key, 0.0), "s", owner or key)
            elif f == "self_s":
                add(f"{key}.self_s", self_t.get(key, 0.0), "s", owner or key)

    def count(name, key, unit="count"):
        add(name, counts.get(name, 0), unit, key)

    add("cli.main.self_s", sum(v for k, v in self_t.items() if k.startswith("cli.")), "s", "cli.main")
    for cmd in CLI_COMMANDS:
        add(f"cli.{cmd}.busy_s", busy.get(f"cli.{cmd}", 0.0), "s", "cli.main")
    span("market_io.load_market", "calls", "busy_s")
    span("market_io.atomic_write_text", "calls", "busy_s")
    count("market_io.bytes_read", "market_io.load_market", "B")
    count("market_io.bytes_written", "market_io.atomic_write_text", "B")
    span("reporting.make_report", "busy_s")
    span("reporting.render", "busy_s")
    span("trees.EventTree", "calls", "busy_s")
    span("trees.unconditional_probs", "calls", "busy_s")
    span("trees.StoppingTime.of", "busy_s")
    span("markets.wealth_from_units", "calls", "busy_s")
    span("markets.wealth_from_fractions", "calls", "busy_s")
    span("markets.simple_returns", "calls")
    span("markets.price_martingale_residual", "busy_s")
    span("simplex.solve_lp", "calls", "busy_s")
    count("simplex.pivots", "simplex.solve_lp")
    count("simplex.status.infeasible", "simplex.solve_lp")
    count("simplex.status.unbounded", "simplex.solve_lp")
    count("simplex.errors", "simplex.solve_lp")
    span("arbitrage.check_na", "calls", "busy_s", "self_s")
    n_check = calls.get("arbitrage.check_na", 0)
    add("arbitrage.check_na.calls_per_op", _ratio(n_check, ops), "1", "arbitrage.check_na")
    add("arbitrage.check_na.nodes_per_s",
        _ratio(counts.get("arbitrage.check_na.nodes", 0), busy.get("arbitrage.check_na", 0.0)),
        "1/s", "arbitrage.check_na")
    span("arbitrage.node_na_lp", "calls", "busy_s")
    add("arbitrage.node_na_lp.lp_per_call",
        _ratio(counts.get("arbitrage.node_na_lp.lps", 0), calls.get("arbitrage.node_na_lp", 0)),
        "1", "arbitrage.node_na_lp")
    add("arbitrage.verdict.arbitrage_share",
        _ratio(counts.get("arbitrage.verdict.arbitrage", 0), n_check), "1", "arbitrage.check_na")
    span("numeraire.node_log_optimal", "calls", "busy_s")
    count("numeraire.node_log_optimal.iterations", "numeraire.node_log_optimal")
    span("numeraire.numeraire_portfolio", "self_s")
    span("numeraire.verify_numeraire", "busy_s", "self_s")
    span("numeraire.sample_feasible_fractions", "busy_s")
    span("numeraire.deflator_probe", "busy_s")
    for kind in ("log", "crra"):
        span(f"utility.maximize_utility.{kind}", "busy_s", "self_s", owner="utility.maximize_utility")
    span("utility.node_power_optimal", "calls")
    count("utility.node_power_optimal.iterations", "utility.node_power_optimal")
    span("utility.viability_under_measure", "busy_s")
    span("measure_change.construct_q_delta", "calls")
    span("measure_change.delta_for_epsilon", "busy_s")
    span("measure_change.verify_value_bound", "busy_s")
    span("entropy.min_entropy_emm", "calls", "busy_s", "self_s")
    count("entropy.min_entropy_emm.iterations", "entropy.min_entropy_emm")
    span("entropy.exp_utility", "calls", "busy_s", "self_s")
    count("entropy.exp_utility.iterations", "entropy.exp_utility")
    count("entropy.exp_utility.cap_hits", "entropy.exp_utility")
    count("entropy.exp_utility.errors", "entropy.exp_utility")
    span("entropy.entropy_hellinger", "busy_s")
    count("entropy.dense_bytes", "entropy.min_entropy_emm", "B")
    span("bessel.simulate_bes3", "busy_s")
    add("bessel.simulate_bes3.path_steps_per_s",
        _ratio(counts.get("bessel.path_steps", 0), busy.get("bessel.simulate_bes3", 0.0)),
        "1/s", "bessel.simulate_bes3")
    count("bessel.batch_bytes", "bessel.simulate_bes3", "B")
    span("bessel.estimate_log_value", "busy_s")
    span("bessel.numeraire_probe", "busy_s")
    count("bessel.numeraire_probe.rejected", "bessel.numeraire_probe")
    span("bessel.stopped_experiments", "busy_s")

    spanned = 0.0
    for module in MODULES:
        share = sum(v for k, v in self_t.items() if k.split(".")[0] == module)
        spanned += share
        if module != "cli":  # cli.main.self_s above is the whole cli layer
            add(f"{module}.self_s", share, "s", None)
    add("other.self_s", max(op_time - spanned, 0.0), "s", None)
    return out
