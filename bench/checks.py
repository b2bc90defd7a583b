"""Per-op output checks.

An op fails with one of these kinds:

* ``raised`` -- it raised (or the CLI reported an error) where no exception
  is expected;
* ``wrong_verdict`` -- it called a market that is arbitrage-free by
  construction an arbitrage market;
* ``unsound_certificate`` -- its arbitrage certificate, replayed from zero
  capital, misses criterion 2's bounds (min gain >= -1e-12, max gain > 1e-9,
  both times the market's price unit);
* ``checks_failed`` -- it reported ``checks_passed: false`` (or a residual
  above its tolerance) on a market it called arbitrage-free;
* ``unchecked`` -- its output lacks a field the check reads, so it cannot be
  verified.

An exit status 1 that carries a sound certificate on a market that is not
arbitrage-free by construction is a correct answer.
"""

from __future__ import annotations

import numpy as np

KINDS = ("raised", "wrong_verdict", "unsound_certificate", "checks_failed", "unchecked")
MIN_GAIN = -1e-12
MAX_GAIN = 1e-9


class CheckFailure(Exception):
    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


def require(condition, kind: str) -> None:
    if not condition:
        raise CheckFailure(kind)


def emm_residual(market, z) -> float:
    """sup over nodes and assets of |E_z[dS | node]|, computed from the
    benchmark's own copy of the market arrays."""
    parent = market.parent
    child = np.arange(1, parent.size)
    up = parent[1:]
    z = np.asarray(z, dtype=np.float64)
    w = market.branch_prob[child] * z[child] / z[up]
    acc = np.zeros_like(market.prices)
    np.add.at(acc, up, w[:, None] * (market.prices[child] - market.prices[up]))
    return float(np.max(np.abs(acc)))


def _claim(cmd: str, payload: dict) -> str:
    """The verdict a CLI report claims: "NA" or "ARBITRAGE"."""
    if "error" in payload:
        require("certificate" in payload, "raised")
        return "ARBITRAGE"
    if cmd == "check":
        return payload["verdict"]
    if cmd == "numeraire":
        return "ARBITRAGE" if payload["status"] == "arbitrage" else "NA"
    if cmd == "optimize":
        return "ARBITRAGE" if payload["status"] == "no-solution" else "NA"
    return "NA"


def check_cli_report(cmd: str, code: int, report, arbitrage_free: bool, unit: float) -> str:
    """Kind of failure of one CLI call, or "ok"."""
    if code == 2 or report is None:
        return "raised"
    try:
        payload = report["payload"]
        if cmd == "simulate":
            require("error" not in payload, "raised")
            require(payload["checks_passed"] is True and code == 0, "checks_failed")
            return "ok"
        if _claim(cmd, payload) == "ARBITRAGE":
            require(not arbitrage_free, "wrong_verdict")
            replay = payload["certificate"].get("replay") or {}
            require(
                replay.get("min_gain", -np.inf) >= MIN_GAIN * unit
                and replay.get("max_gain", 0.0) > MAX_GAIN * unit,
                "unsound_certificate",
            )
            return "ok"
        require(payload.get("checks_passed", True) is True and code == 0, "checks_failed")
        return "ok"
    except CheckFailure as failure:
        return failure.kind
    except (KeyError, TypeError, AttributeError):
        return "unchecked"
