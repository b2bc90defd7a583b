"""Test-only oracle: the exact no-arbitrage decision of a one-asset tree.

By Dalang, Morton and Willinger (1990) a finite tree is arbitrage-free
exactly when every internal node's one-period market is.  With one asset
that holds exactly when the node has an increment > 0 and one < 0, or all
its increments are 0.  Each increment is taken as
``Fraction(child) - Fraction(parent)``, the exact difference of the two
stored prices, so no tolerance enters.  The tree is read from its parent
array alone: nodes are numbered breadth-first, so the failing node with
the lowest index is the shallowest one.
"""

from fractions import Fraction

from viatree.markets import MarketModel


def sign_verdict(m: MarketModel) -> tuple[str, int | None]:
    """(verdict, fail node) of a one-asset market, decided in exact
    arithmetic: ("NA", None) or ("ARBITRAGE", the lowest failing node)."""
    assert m.d == 1
    prices = [Fraction(float(s)) for s in m.prices[:, 0]]
    signs = {}  # node -> the set of its increments' signs
    for c, v in enumerate(m.tree.parent.tolist()):
        if v >= 0:
            diff = prices[c] - prices[v]
            signs.setdefault(v, set()).add((diff > 0) - (diff < 0))
    for v in sorted(signs):
        if (1 in signs[v]) != (-1 in signs[v]):  # one-signed, not all 0
            return "ARBITRAGE", v
    return "NA", None
