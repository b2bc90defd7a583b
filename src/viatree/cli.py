"""Command line interface.

Subcommands: check, numeraire, optimize, measure, entropy, simulate,
equivalence-suite.  Each takes --out, --format and only the flags it reads,
which its report's config block echoes; --seed goes on the two that draw
random numbers (simulate, equivalence-suite).  No flag moves a
pass/fail gate, and this module sets none: each tolerance is a library
constant, and every verdict of the simulate study comes from
bessel.judge_study at the one level bessel.Z_LEVEL.

Exit status contract:
  0  the command completed and every check it ran passed
  1  a mathematical assertion failed, including requests for an object
     that cannot exist (e.g. the numeraire portfolio of an arbitrage
     market); the certificate is included in the report
  2  usage or I/O error (bad flags, unreadable or malformed files)

Reports are rendered as json, csv, or text; with --out they are written
atomically, otherwise printed to stdout.  Reruns with the same config
produce byte-identical reports except for the timing field.

Density files (for --measure FILE and --hellinger FILE) are JSON objects
{"z": [per-node values]} with z[0] = 1 in breadth-first node order. A
--measure density must pass the martingale test that --hellinger reports.
Numeric flags must be finite; inf and nan are usage errors.

main() may be called repeatedly in one process, and each call starts from
the parser's defaults.  build_parser() returns one shared parser, built on
first use; callers must not mutate it.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

import numpy as np

from . import __version__
from .arbitrage import ArbitrageError, check_na, check_nupbr
from .bessel import (
    MIN_INTEGRAL_STEPS,
    estimate_log_value,
    estimate_reciprocal_moment,
    judge_study,
    numeraire_probe,
    reciprocal_checkpoints,
    simulate_bes3,
    stopped_experiments,
)
from .entropy import (HELLINGER_ABS_TOL, HELLINGER_REL_TOL, NODE_TOL, entropy_hellinger,
                      exp_utility, min_entropy_emm)
from .market_io import MarketFormatError, _floats, _number, _read_json, load_market
from .markets import DensityProcess, price_martingale_residual, price_residual_tol
from .measure_change import delta_for_epsilon, verify_value_bound
from .numeraire import deflator_probe, numeraire_portfolio, verify_numeraire
from .reporting import make_report, render, write_report
from .utility import (
    EquivalenceConfig,
    crra_utility,
    equivalence_suite,
    log_utility,
    maximize_utility,
)

STOPPED_LEVELS = [1, 2, 4, 8, 16, 32, 64]


def _positive(text: str) -> float:
    x = float(text)
    if not (math.isfinite(x) and x > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return x


def _seed(text: str) -> int:
    s = int(text)
    if not 0 <= s < 2**64:
        raise argparse.ArgumentTypeError("seed must be a 64-bit unsigned integer")
    return s


def _at_least(low: int):
    """The argparse type of integers >= ``low``."""
    def count(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return n
    return count


def _load_density(path: str, tree, martingale: bool = False) -> DensityProcess:
    obj = _read_json(path, "density file")
    if not isinstance(obj, dict) or "z" not in obj:
        raise MarketFormatError(f'{path}: expected a JSON object {{"z": [...]}}')
    bad = [x for x in obj["z"] if not _number(x)] if isinstance(obj["z"], list) else [obj["z"]]
    if bad:
        raise MarketFormatError(f"{path}: z must be a list of numbers; {bad[0]!r} is not one")
    z = _floats(obj["z"])
    if z.shape != (tree.n_nodes,):
        raise MarketFormatError(
            f"{path}: density has {z.size} values, the tree has {tree.n_nodes} nodes"
        )
    try:
        dp = DensityProcess(z)
        if martingale:
            dp.require_martingale(tree)
        return dp
    except ValueError as e:
        raise MarketFormatError(f"{path}: {e}") from e


def _cert_payload(cert) -> dict:
    out = {"verdict": cert.verdict}
    if cert.density is not None:
        out["density_leaf_min"] = float(cert.density.z.min())
        out["emm_residual"] = cert.emm_residual
    if cert.fail_node is not None:
        out["fail_node"] = cert.fail_node
        out["replay"] = cert.replay
    return out


def _cmd_check(m, args) -> tuple[int, dict]:
    nupbr = check_nupbr(m)
    cert = nupbr.certificate
    payload = {
        "market": m.label,
        "verdict": cert.verdict,
        "nupbr": nupbr.verdict,
        "node_eps_min": min(cert.node_eps.values()) if cert.node_eps else None,
        "certificate": _cert_payload(cert),
    }
    ok = True  # check_na raises on an arbitrage replay that misses criterion 2
    if cert.verdict == "NA":
        ok = cert.emm_residual <= price_residual_tol(m)
        payload["emm_price_residual"] = cert.emm_residual
    payload["checks_passed"] = bool(ok)
    return (0 if ok else 1), payload


def _cmd_numeraire(m, args) -> tuple[int, dict]:
    res = numeraire_portfolio(m, x0=args.x0)
    if res.status != "ok":
        return 1, {
            "market": m.label,
            "status": res.status,
            "certificate": _cert_payload(res.certificate),
        }
    verify, defl = verify_numeraire(m, res.wealth), deflator_probe(m, res.wealth)
    ok = verify["passed"] and defl["passed"]
    payload = {
        "market": m.label,
        "status": res.status,
        "log_growth": res.log_growth,
        "foc_sup": res.foc_sup,
        "fractions": res.fractions.fractions,
        "wealth": res.wealth.values,
        "verification": verify,
        "deflator": defl,
        "checks_passed": bool(ok),
    }
    return (0 if ok else 1), payload


def _parse_utility(text: str):
    if text == "log":
        return log_utility()
    if text.startswith("crra:"):
        try:
            gamma = float(text.split(":", 1)[1])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad CRRA parameter in {text!r}")
        try:
            return crra_utility(gamma)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    raise argparse.ArgumentTypeError(
        f"unknown utility {text!r}; use 'log' or 'crra:GAMMA'"
    )


def _cmd_optimize(m, args) -> tuple[int, dict]:
    utility = args.utility
    if args.measure == "emm":
        measure = check_na(m).density
    else:
        measure = None if args.measure == "physical" else _load_density(args.measure, m.tree, martingale=True)
    res = maximize_utility(m, utility, args.x0, measure)
    payload = {
        "market": m.label,
        "status": res.status,
        "utility": utility.name,
        "measure": args.measure,
        "route": res.route,
    }
    if res.status != "ok":
        payload["certificate"] = _cert_payload(res.certificate)
        return 1, payload
    payload.update(
        value=res.value,
        foc_residual=res.foc_residual,
        strategy=getattr(res.strategy, "fractions",
                         getattr(res.strategy, "holdings", None)),
        wealth=res.wealth.values,
        utility_certificate=res.utility_certificate,
    )
    return 0, payload


def _cmd_measure(m, args) -> tuple[int, dict]:
    q = min_entropy_emm(m).density.z[m.tree.leaves]
    dm = delta_for_epsilon(m.tree, q, args.epsilon)
    # delta_for_epsilon returns a delta within the l1 budget; _leaf_fields raises past the bound
    vb = verify_value_bound(m, dm, None, args.x0)
    payload = {
        "market": m.label,
        "epsilon": args.epsilon,
        "delta": dm.delta,
        "l1_distance": dm.l1_dist,
        "z_min": float(dm.z_leaf.min()),
        "z_max": float(dm.z_leaf.max()),
        "z_bound": dm.bound,
        "value_bound": vb,
        "checks_passed": vb["passed"],
    }
    return (0 if vb["passed"] else 1), payload


def _cmd_entropy(m, args) -> tuple[int, dict]:
    payload = {"market": m.label}
    if args.hellinger is not None:
        dp = _load_density(args.hellinger, m.tree)
        rep = entropy_hellinger(m.tree, dp)
        is_mart = dp.is_martingale(m.tree)
        payload.update(
            mode="hellinger",
            e_p_v_terminal=rep.e_p_v_terminal,
            e_q_h_terminal=rep.e_q_h_terminal,
            relative_entropy=rep.relative_entropy,
            density_is_martingale=bool(is_mart),
        )
        ok = True
        if is_mart:
            gap = abs(rep.e_q_h_terminal - rep.relative_entropy)
            payload["compensator_identity_gap"] = gap
            ok = gap <= max(HELLINGER_ABS_TOL, HELLINGER_REL_TOL * (1.0 + rep.relative_entropy))
        payload["checks_passed"] = bool(ok)
        return (0 if ok else 1), payload
    if args.exp_utility:
        res = exp_utility(m)  # raises on an entropy density gap above DUALITY_TOL
        ok = res.density_link_residual <= price_residual_tol(m)
        payload.update(
            mode="exp-utility",
            value=res.value,
            theta_sup=float(np.max(np.abs(res.theta_hat.holdings))),
            gradient_sup=res.gradient_sup,
            density_link_residual=res.density_link_residual,
            entropy_density_gap=res.entropy_density_gap,
            checks_passed=bool(ok),
        )
        return (0 if ok else 1), payload
    res = min_entropy_emm(m)
    resid = price_martingale_residual(m, res.density)
    ok = res.kkt_residual < NODE_TOL and resid <= price_residual_tol(m)
    payload.update(
        mode="min-entropy",
        entropy=res.entropy,
        kkt_residual=res.kkt_residual,
        price_residual=resid,
        leaf_density=res.density.z[m.tree.leaves],
        checks_passed=bool(ok),
    )
    return (0 if ok else 1), payload


def _cmd_simulate(args) -> tuple[int, dict]:
    b = simulate_bes3(args.paths, args.steps, seed=args.seed, levels=STOPPED_LEVELS)
    rec = estimate_reciprocal_moment(b)
    lv = estimate_log_value(b)
    probe = numeraire_probe(b, n_strats=args.probe_strategies, seed=args.seed + 1)
    stopped = stopped_experiments(b)
    rows = [{"kind": "stopped", **r} for r in stopped["rows"]]
    rows += [{"kind": "checkpoint", "label": e.label, "mean": e.mean, "std_error": e.std_error}
             for e in reciprocal_checkpoints(b)]
    payload = {
        "n_paths": b.n_paths,
        "n_steps": b.n_steps,
        "seed": b.seed,
        "reciprocal_moment": rec,
        "log_value": lv,
        "probe": {k: v for k, v in probe.items() if k != "rows"},
        "stopped": stopped,
        "rows": rows,
        **judge_study(rec, lv, probe, stopped),
    }
    return (0 if payload["checks_passed"] else 1), payload


def _cmd_suite(args) -> tuple[int, dict]:
    cfg = EquivalenceConfig(
        n_markets=args.markets,
        d_range=(1, args.d_max),
        depth_range=(1, args.depth_max),
        branch_range=(2, args.branch_max),
        seed=args.seed,
    )
    rep = equivalence_suite(cfg)
    payload = {
        "n_markets": rep.n_markets,
        "counts": rep.counts,
        "all_agree": rep.all_agree,
        "disagreements": rep.disagreements,
        "rows": rep.rows,
        "checks_passed": rep.all_agree,
    }
    return (0 if rep.all_agree else 1), payload


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the CLI, built on first use and shared by every
    later call in the process; callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="viatree",
        description="No-arbitrage, numeraire, and utility analysis of finite "
        "event-tree markets, plus a Bessel(3) Monte Carlo study.",
    )
    parser.add_argument("--version", action="version", version=f"viatree {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # parent parsers: every command reports; five read a market, two draw
    # random numbers
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="FILE", default=None,
                        help="write the report to FILE (atomic); default stdout")
    common.add_argument("--format", choices=["json", "csv", "text"], default="json",
                        help="report format (default json)")
    market = argparse.ArgumentParser(add_help=False)
    market.add_argument("--market", required=True, metavar="FILE")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_seed, default=0, metavar="N",
                        help="64-bit unsigned RNG seed (default 0)")

    p = sub.add_parser("check", parents=[common, market],
                       help="no-arbitrage / NUPBR verdict with certificate")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("numeraire", parents=[common, market],
                       help="numeraire portfolio and exact supermartingale verification")
    p.add_argument("--x0", type=_positive, default=1.0, metavar="R")
    p.set_defaults(func=_cmd_numeraire)

    p = sub.add_parser("optimize", parents=[common, market],
                       help="expected-utility maximization")
    p.add_argument("--utility", type=_parse_utility, default=log_utility(),
                   metavar="log|crra:GAMMA")
    p.add_argument("--x0", type=_positive, default=1.0, metavar="R")
    p.add_argument("--measure", default="physical",
                   metavar="physical|emm|FILE",
                   help="probability weighting: physical, the glued "
                   "martingale density (emm), or a density file")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("measure", parents=[common, market],
                       help="bounded measure change meeting an l1 budget")
    p.add_argument("--epsilon", type=_positive, required=True, metavar="R")
    p.add_argument("--x0", type=_positive, default=1.0, metavar="R")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("entropy", parents=[common, market],
                       help="entropy-Hellinger, minimal-entropy EMM, or "
                       "exponential utility")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--min-entropy", action="store_true",
                   help="minimal-entropy martingale density (default)")
    g.add_argument("--exp-utility", action="store_true",
                   help="exponential-utility optimization and duality link")
    g.add_argument("--hellinger", metavar="DENSITYFILE",
                   help="entropy-Hellinger report for a density file")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("simulate", parents=[common, seeded],
                       help="Bessel(3) Monte Carlo study")
    # a single path has no standard error
    p.add_argument("--paths", type=_at_least(2), default=100_000, metavar="N")
    # the log value's time integral needs a fine grid
    p.add_argument("--steps", type=_at_least(MIN_INTEGRAL_STEPS), default=1000, metavar="M")
    p.add_argument("--probe-strategies", type=_at_least(1), default=200, metavar="N")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("equivalence-suite", parents=[common, seeded],
                       help="four-way equivalence check on random markets")
    p.add_argument("--markets", type=_at_least(1), default=100, metavar="N")
    p.add_argument("--d-max", type=_at_least(1), default=3, metavar="N")
    p.add_argument("--depth-max", type=_at_least(1), default=3, metavar="N")
    p.add_argument("--branch-max", type=_at_least(2), default=4, metavar="N")
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    code = 0
    try:
        market = (load_market(args.market),) if "market" in args else ()
        code, payload = args.func(*market, args)
    except (MarketFormatError, OSError) as e:
        print(f"viatree: error: {e}", file=sys.stderr)
        return 2
    except ArbitrageError as e:
        code = 1
        payload = {"error": str(e), "certificate": _cert_payload(e.certificate)}
    except (AssertionError, RuntimeError, ValueError) as e:
        code = 1
        payload = {"error": f"{type(e).__name__}: {e}"}
    # the output location is delivery detail, not run configuration; leaving
    # it out keeps reports byte-identical wherever they are written
    config = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func", "out") and not callable(v)
    }
    if hasattr(args, "utility") and args.utility is not None:
        config["utility"] = getattr(args.utility, "name", str(args.utility))
    report = make_report(args.command, config, payload,
                         elapsed_s=time.perf_counter() - t0)
    if args.out:
        try:
            write_report(report, args.out, args.format)
        except OSError as e:
            print(f"viatree: error: cannot write report {args.out}: {e}", file=sys.stderr)
            return 2
        status = "pass" if code == 0 else "FAIL"
        print(f"viatree {args.command}: {status}; report written to {args.out}")
    else:
        print(render(report, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
