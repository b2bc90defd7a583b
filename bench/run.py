"""viatree benchmark.

    python3 bench/run.py --workload {cli_mix,deep_tree,entropy_mid,bessel_study}
                         --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; it imports the package from ``src/``.  One
run is one workload in one process: a closed loop with a single client and
a single thread.  BLAS is held to one thread: on a 2-core machine shared
with other processes, a threaded BLAS made one stalled ``exp_utility`` call
take 43 s instead of 7 s.  The seed makes the inputs, ``--seconds`` sizes
them (see ``workloads.py``).  The timed phase runs the same op list
several times (``passes``) on fresh program objects; each op's latency is
its median over the passes.  The drift of a shared machine's speed is taken
out by timing a fixed slice of reference work between ops (``speed.py``):
times are reported as seconds on the reference host, with the raw ones
printed.

Every op's output is checked (``checks.py``).  An op that fails the check is
counted in ``failed``; ``correct`` is false when the run cannot vouch for its
own figures: an op's outcome changes between passes over the same inputs,
the traced passes disagree with the untraced one, or a count read from
return values does not repeat.

``--trace 1`` runs one untraced pass, then installs the spans of
``spans.py`` and runs the remaining passes traced, and reports the
per-layer metrics.  ``--workload all`` runs every workload untraced and
traced, each in a fresh process, and checks that op outcomes repeat across
the two processes.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# before numpy is first imported, here or in a child interpreter
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_mix", "deep_tree", "entropy_mid", "bessel_study")
IMPORT_SAMPLES = 5
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 600
EXACT_UNITS = ("count", "B")  # per-layer units that must repeat exactly
# Reports carry a timing block, so the bytes written differ run to run.
NOT_EXACT = ("market_io.bytes_written",)


def parse_args(argv=None):
    def positive(text):
        n = int(text)
        if n < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
        return n

    p = argparse.ArgumentParser(description="viatree benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=positive, default=16)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds() -> float:
    """Median wall time for a fresh interpreter to import the package."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import viatree.cli"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                       stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


@contextlib.contextmanager
def quiet():
    """Swallow what the CLI prints, so the JSON line stays last."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


class PassResult:
    def __init__(self, n_ops):
        self.latency = [None] * n_ops  # seconds; None when skipped
        self.outcome = ["skipped"] * n_ops
        self.errors = {}  # op index -> exception text
        self.snapshot = None
        self.speed = None
        self.slice_at = [None] * n_ops  # slices taken before each op started

    def scaled(self, i) -> float:
        """Op ``i``'s latency in seconds on the reference host."""
        return self.latency[i] / self.speed.factor_around(self.slice_at[i])

    @property
    def op_time(self) -> float:
        return sum(x for x in self.latency if x is not None)


def run_pass(wl, tracer=None) -> PassResult:
    """One pass over the op list, with a slice of reference work after
    every ``EVERY_S`` of op time and ``WINDOW`` slices at the end."""
    from checks import CheckFailure
    from speed import EVERY_S, WINDOW, Speed

    models = wl.fresh_models()
    state = defaultdict(dict)
    res = PassResult(len(wl.ops))
    res.speed = speed = Speed()
    since_slice = EVERY_S
    if tracer is not None:
        tracer.reset()
    with quiet():
        for i, op in enumerate(wl.ops):
            st = state[op.market]
            if op.needs is not None and op.needs not in st:
                continue
            model = models[op.market] if op.market is not None else None
            while since_slice >= EVERY_S:
                speed.sample()
                since_slice -= EVERY_S
            res.slice_at[i] = len(speed.slices)
            result = exc = None
            if tracer is not None:
                tracer.active = True
            start = time.perf_counter()
            try:
                result = op.run(st, model)
            except SystemExit as e:  # argparse rejecting a command line
                result = e.code
            except Exception as e:  # an op that raises is a failed op, not a crash
                exc = e
            res.latency[i] = time.perf_counter() - start
            since_slice += res.latency[i]
            if tracer is not None:
                tracer.active = False
            try:
                kind = op.check(result, exc, st)
            except CheckFailure as failure:
                kind = failure.kind
            except (AttributeError, KeyError, TypeError, IndexError, ValueError):
                kind = "unchecked"
            res.outcome[i] = kind
            if exc is not None:
                res.errors[i] = f"{type(exc).__name__}: {exc}"[:160]
            if kind == "ok" and op.store is not None:
                st[op.store] = result
    for _ in range(WINDOW):
        speed.sample()
    if tracer is not None:
        res.snapshot = tracer.snapshot()
    return res


def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, or None below eleven samples."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return None
    return xs[n - 11], 100.0 * (n - 10) / n


def middle_mean(values) -> float:
    """Mean of the values left after dropping the lowest and the highest
    quarter (rounded down)."""
    xs = sorted(values)
    k = len(xs) // 4
    return statistics.fmean(xs[k:len(xs) - k])


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "viatree").glob("*.py")))


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def traffic_lines(wl) -> list:
    from workloads import STUDY_PATHS, STUDY_STEPS

    lines = []
    if wl.markets:
        nodes = [m.n_nodes for m in wl.markets]
        leaves = [m.n_leaves for m in wl.markets]
        ds = Counter(m.d for m in wl.markets)
        q = lambda xs: "/".join(str(int(v)) for v in _quartiles(xs))  # noqa: E731
        lines.append(
            f"inputs: {len(wl.markets)} markets; nodes min/q1/median/q3/max {q(nodes)}; "
            f"leaves {q(leaves)}; d " + ", ".join(f"{k}: {v}" for k, v in sorted(ds.items()))
        )
        gen = Counter(m.generator for m in wl.markets)
        lines.append("generators: " + ", ".join(
            f"{g} {100.0 * c / len(wl.markets):.0f}%" for g, c in sorted(gen.items())))
        rescaled = sum(m.unit != 1.0 for m in wl.markets)
        lines.append(f"rescaled markets (price unit 1e6): {rescaled}/{len(wl.markets)} "
                     f"= {100.0 * rescaled / len(wl.markets):.1f}%")
        verdicts = [m.verdict for m in wl.markets if m.verdict is not None]
        if verdicts:
            arb = sum(v == "ARBITRAGE" for v in verdicts)
            lines.append(f"markets `check` called ARBITRAGE: {arb}/{len(verdicts)} "
                         f"= {100.0 * arb / len(verdicts):.1f}%")
    else:
        lines.append(f"inputs: {len(wl.ops)} studies of {STUDY_PATHS} paths x {STUDY_STEPS} steps")
    per = Counter(op.label for op in wl.ops)
    lines.append("ops per pass: " + ", ".join(f"{k} {v}" for k, v in per.items()))
    return lines


def _quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return [xs[0]] * 5
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return [xs[0], q1, q2, q3, xs[-1]]


def failure_lines(wl, first: PassResult) -> list:
    from checks import KINDS

    kinds = Counter(k for k in first.outcome if k not in ("ok", "skipped"))
    lines = ["failures by kind (one pass): " + ", ".join(f"{k} {kinds.get(k, 0)}" for k in KINDS)]
    skipped = first.outcome.count("skipped")
    if skipped:
        lines.append(f"skipped (an op they need failed): {skipped}")
    shown = Counter()
    for i, kind in enumerate(first.outcome):
        if kind in ("ok", "skipped") or shown[kind] >= 3:
            continue
        shown[kind] += 1
        op = wl.ops[i]
        where = f"market {op.market}" if op.market is not None else f"op {i}"
        if op.market is not None and wl.markets[op.market].unit != 1.0:
            where += " (price unit 1e6)"
        lines.append(f"  {kind}: {op.label} on {where}" +
                     (f": {first.errors[i]}" if i in first.errors else ""))
    return lines


def end_to_end(wl, passes, setup_s) -> tuple:
    """Gated metrics and printed metrics from the untraced passes, in seconds
    on the reference host.  Each op's latency is its median over the passes.
    ``pass_s`` sums, over the kinds of op, the kind's count times the mean
    of the middle half of its latencies: an op that stalls for seconds on
    one market in four moves it no more than a slow one would.
    ``op_gmean_ms`` is the geometric mean of those per-kind means: every kind
    weighs the same, so halving a short op shows as clearly as halving a long
    one."""
    first = passes[0]
    attempted = [i for i, k in enumerate(first.outcome) if k != "skipped"]
    typical = {i: statistics.median(p.scaled(i) for p in passes) for i in attempted}
    good = [i for i in attempted if first.outcome[i] == "ok"]
    by_label = defaultdict(list)
    for i in attempted:
        by_label[wl.ops[i].label].append(typical[i])
    kind_mean = [middle_mean(v) for v in by_label.values()]
    lat = list(typical.values())
    wall = sum(lat)
    gated = {
        "setup_s": (setup_s, "s"),
        "pass_s": (sum(len(v) * m for v, m in zip(by_label.values(), kind_mean)), "s"),
        "op_gmean_ms": (1e3 * statistics.geometric_mean(kind_mean), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    shown = dict(gated)
    shown["wall_s"] = (wall, "s (one pass, each op at its median)")
    shown["raw_wall_s"] = (sum(statistics.median(p.latency[i] for p in passes) for i in attempted),
                           "s (wall_s before scaling to the reference host)")
    shown["speed_factor"] = (statistics.median(p.speed.factor for p in passes),
                             "1 (median over passes of slice time / reference slice time)")
    shown["op_p50_ms"] = (1e3 * statistics.median(lat), "ms (median over all ops)")
    shown["good_ops_per_s"] = (len(good) / wall, "1/s")
    shown["fail_ratio"] = ((len(attempted) - len(good)) / len(attempted),
                           f"1 ({len(attempted) - len(good)} of {len(attempted)} ops per pass)")
    t = tail(lat)
    if wl.name == "cli_mix" and t is not None:
        shown["op_tail_ms"] = (1e3 * t[0], f"ms (p{t[1]:.1f}, 10 of {len(lat)} samples beyond)")
    rate = sum(wl.ops[i].work for i in good) / wall
    shown["nodes_per_s" if wl.work_unit == "nodes" else "path_steps_per_s"] = (rate, "1/s")
    shown["timed_phase_wall_s"] = (sum(p.op_time for p in passes), f"s ({len(passes)} passes, raw)")
    shown["process.cpu_s"] = (cpu_seconds(), "s (not gated)")
    shown["src.lines"] = (src_lines(), "lines (not gated)")
    return gated, shown, len(attempted), len(attempted) - len(good)


def per_layer(traced, untraced_time, tracer) -> tuple:
    """Per-layer metrics averaged over the traced passes, as (json metrics,
    printable rows)."""
    from spans import layer_metrics

    n_ops = sum(k != "skipped" for k in traced[0].outcome)
    rows = [layer_metrics(p.snapshot, p.op_time, n_ops) for p in traced]
    op_time = statistics.fmean(p.op_time for p in traced)
    metrics, printed = {}, []
    for entries in zip(*rows):
        name, value, unit, key = entries[0]
        if unit not in EXACT_UNITS:
            value = statistics.fmean(e[1] for e in entries)
        reason = tracer.missing.get(key) if key else None
        if reason is None and key and unit != "s" and not name.endswith(".calls"):
            reason = tracer.missing.get(f"{key} counters")
        if unit == "s":
            json_name = name[:-2] + "_pct"
            metrics[json_name] = {"value": 100.0 * value / op_time if op_time else 0.0, "unit": "%"}
            shown = f"{value:.6f} s  ({100.0 * value / op_time:.2f}% of op time)"
        else:
            metrics[name] = {"value": value, "unit": unit}
            shown = f"{value:.6g} {unit}"
        printed.append(f"  {name:48s} " + (f"missing: {reason}" if reason else shown))
    metrics["process.cpu_s"] = {"value": cpu_seconds(), "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": op_time / untraced_time, "unit": "1"}
    metrics["src.lines"] = {"value": src_lines(), "unit": "count"}
    for name in ("process.cpu_s", "trace.overhead_ratio", "src.lines"):
        printed.append(f"  {name:48s} {metrics[name]['value']:.6g} {metrics[name]['unit']} (not gated)")
    return metrics, printed


def repeat_problems(passes) -> list:
    problems = []
    base = passes[0].outcome
    for k, p in enumerate(passes[1:], start=2):
        changed = [i for i, (a, b) in enumerate(zip(base, p.outcome)) if a != b]
        if changed:
            problems.append(f"pass {k} changed the outcome of {len(changed)} ops "
                            f"(first: op {changed[0]}, {base[changed[0]]} -> {p.outcome[changed[0]]})")
    return problems


def count_problems(traced) -> list:
    problems = []
    a, b = traced[0].snapshot, traced[1].snapshot
    for field in ("calls", "counts"):
        for key in sorted((set(a[field]) | set(b[field])) - set(NOT_EXACT)):
            if a[field].get(key, 0) != b[field].get(key, 0):
                problems.append(f"{field} {key} did not repeat: {a[field].get(key, 0)} vs {b[field].get(key, 0)}")
    return problems


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import viatree

    if not Path(viatree.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: imported viatree from {viatree.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from speed import SETUP_SLICES, Speed
    from workloads import BUILDERS

    setup_speed = Speed()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            wl = BUILDERS[args.workload](args.seed, args.seconds, str(workdir))
            setup_s = None
        else:
            imports = import_seconds()
            samples = []
            for _ in range(SETUP_SAMPLES):
                for _ in range(SETUP_SLICES):
                    setup_speed.sample()
                start = time.perf_counter()
                wl = BUILDERS[args.workload](args.seed, args.seconds, str(workdir))
                with quiet():
                    wl.warmup()
                samples.append(time.perf_counter() - start)
            # Only the in-process part is scaled: the fresh interpreters'
            # import time, mostly process start and loading files, did not
            # follow the speed slices on the reference host.
            setup_s = imports + statistics.median(samples) / setup_speed.factor
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
              f"passes {wl.passes}  trace {args.trace}  closed loop: 1 client, 1 process, 1 thread")
        if args.trace:
            from spans import Tracer, install

            untraced = run_pass(wl)
            tracer = Tracer()
            install(tracer)
            traced = [run_pass(wl, tracer) for _ in range(wl.passes - 1)]
            passes = [untraced] + traced
        else:
            passes = [run_pass(wl) for _ in range(wl.passes)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    problems = repeat_problems(passes)
    if setup_speed.other_threads_ran() or any(p.speed.other_threads_ran() for p in passes):
        problems.append("other threads of the process used CPU during the speed slices, "
                        "so the slices did not time the machine alone")
    for line in traffic_lines(wl) + failure_lines(wl, passes[0]):
        print(line)
    gated, shown, attempted, failed = end_to_end(wl, passes, setup_s or 0.0)
    if args.trace:
        problems += count_problems(traced)
        metrics, printed = per_layer(traced, untraced.op_time, tracer)
        print("per-layer metrics (mean of the traced passes; times inclusive unless self):")
        for line in printed:
            print(line)
        print("layer self-time shares of op time:")
        shares = {name.split(".")[0]: m["value"] for name, m in metrics.items()
                  if name == "cli.main.self_pct" or (name.count(".") == 1 and name.endswith(".self_pct"))}
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:16s} {share:6.2f}%")
    else:
        print(f"setup (raw): imports {imports:.4f} s (median of {IMPORT_SAMPLES} fresh interpreters), "
              f"inputs + warm-up op {statistics.median(samples):.4f} s (median of {SETUP_SAMPLES}, "
              f"speed factor {setup_speed.factor:.4f} over {len(setup_speed.slices)} slices)")
        print("end-to-end metrics (gated: " + ", ".join(gated) + "):")
        for name, (value, unit) in shown.items():
            print(f"  {name:20s} {value:16.6f} {unit}")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in gated.items()}
    for problem in problems:
        print(f"NOT REPEATABLE: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted * len(passes),
        "failed": failed * len(passes),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    results, status = {}, 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                print(f"bench: {workload} trace {trace} exited {proc.returncode}")
                status = 1
                continue
            results[(workload, trace)] = json.loads(lines[-1])
    repeat = {
        w: (results[(w, 0)]["attempted"], results[(w, 0)]["failed"])
        == (results[(w, 1)]["attempted"], results[(w, 1)]["failed"])
        for w in WORKLOADS if (w, 0) in results and (w, 1) in results
    }
    for w, same in repeat.items():
        print(f"{w}: attempted/failed {'repeat' if same else 'DO NOT repeat'} across the untraced and traced processes")
    print(json.dumps({
        "correct": status == 0 and all(repeat.values()) and all(r["correct"] for r in results.values()),
        "workloads": {f"{w}{'_traced' if t else ''}": r for (w, t), r in results.items()},
    }))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "viatree" / "__init__.py").is_file():
        print(f"bench: no package sources at {SRC / 'viatree'}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
