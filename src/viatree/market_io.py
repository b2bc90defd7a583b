"""JSON market files.

Schema (one object per file):

    {
      "label":   str,
      "d":       int,              number of assets
      "horizon": int,              tree depth
      "nodes": [
        {"id": 0, "parent": null, "prob": 1.0, "prices": [..d floats..]},
        {"id": 1, "parent": 0,    "prob": 0.5, "prices": [...]},
        ...
      ]
    }

Node ids must be exactly 0..N-1 in breadth-first order (parents precede
children, levels contiguous).  ``prob`` is the conditional branch
probability in (0, 1]; the root's may be given as null or 1.  NaN and
infinities are rejected outright, as are unknown or missing fields.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from importlib import resources

import numpy as np

from .markets import MarketModel
from .trees import EventTree

NODE_FIELDS = {"id", "parent", "prob", "prices"}
TOP_FIELDS = {"label", "d", "horizon", "nodes"}


class MarketFormatError(ValueError):
    pass


def _number(x, kinds=(int, float)) -> bool:
    """A JSON number of one of ``kinds``; JSON booleans are not numbers."""
    return isinstance(x, kinds) and not isinstance(x, bool)


def _float(x) -> float:
    """float(x) of a JSON number; an integer beyond the float range is +-inf,
    which the model's own finiteness checks reject."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _floats(values) -> np.ndarray:
    """The float64 array of a list, or a list of equal-length lists, of JSON
    numbers, each converted as by ``_float``."""
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        return np.vectorize(_float, otypes=[np.float64])(np.array(values, dtype=object))


def _reject_constant(name: str):
    raise MarketFormatError(f"non-finite JSON literal {name!r} is not allowed")


def market_to_dict(m: MarketModel) -> dict:
    t = m.tree
    nodes = []
    for i in range(t.n_nodes):
        nodes.append(
            {
                "id": i,
                "parent": None if t.parent[i] < 0 else int(t.parent[i]),
                "prob": float(t.branch_prob[i]),
                "prices": [float(x) for x in m.prices[i]],
            }
        )
    return {
        "label": m.label,
        "d": int(m.d),
        "horizon": int(t.horizon),
        "nodes": nodes,
    }


def market_from_dict(obj) -> MarketModel:
    if not isinstance(obj, dict):
        raise MarketFormatError("market file must contain a JSON object")
    extra = set(obj) - TOP_FIELDS
    missing = TOP_FIELDS - set(obj)
    if extra:
        raise MarketFormatError(f"unknown top-level fields: {sorted(extra)}")
    if missing:
        raise MarketFormatError(f"missing top-level fields: {sorted(missing)}")
    label = obj["label"]
    if not isinstance(label, str):
        raise MarketFormatError("label must be a string")
    d = obj["d"]
    if not _number(d, int) or d < 1:
        raise MarketFormatError(f"d must be a positive integer, got {d!r}")
    if not _number(obj["horizon"], int) or obj["horizon"] < 0:
        raise MarketFormatError(f"horizon must be a nonnegative integer, got {obj['horizon']!r}")
    nodes = obj["nodes"]
    if not isinstance(nodes, list) or not nodes:
        raise MarketFormatError("nodes must be a non-empty list")
    n = len(nodes)
    parent = [None] * n
    prob = [0.0] * n
    prices = [None] * n  # converted once every row holds d numbers
    seen = set()
    for row in nodes:
        if not isinstance(row, dict):
            raise MarketFormatError("each node must be an object")
        extra = set(row) - NODE_FIELDS
        missing = NODE_FIELDS - set(row)
        if extra or missing:
            raise MarketFormatError(
                f"node fields mismatch: extra {sorted(extra)}, missing {sorted(missing)}"
            )
        i = row["id"]
        if not _number(i, int) or i < 0 or i >= n:
            raise MarketFormatError(f"node id {i!r} outside 0..{n - 1}")
        if i in seen:
            raise MarketFormatError(f"duplicate node id {i}")
        seen.add(i)
        par = row["parent"]
        if par is not None and (not _number(par, int) or par < 0 or par >= n):
            raise MarketFormatError(f"node {i}: bad parent {par!r}")
        parent[i] = par
        p = row["prob"]
        if p is None and par is None:
            p = 1.0
        if not _number(p):
            raise MarketFormatError(f"node {i}: prob must be a number")
        p = _float(p)
        if not math.isfinite(p) or p <= 0.0 or p > 1.0:
            raise MarketFormatError(
                f"node {i}: prob {p!r} outside the half-open interval (0, 1]"
            )
        prob[i] = p
        pr = row["prices"]
        if not isinstance(pr, list) or len(pr) != d:
            raise MarketFormatError(f"node {i}: expected {d} prices")
        for j, x in enumerate(pr):
            if not _number(x):
                raise MarketFormatError(f"node {i}: price {j} is not a number")
        prices[i] = pr
    try:
        tree = EventTree(parent, prob)
    except ValueError as e:
        raise MarketFormatError(f"invalid tree: {e}") from e
    if tree.horizon != obj["horizon"]:
        raise MarketFormatError(
            f"declared horizon {obj['horizon']!r} but tree depth is {tree.horizon}"
        )
    try:
        return MarketModel(tree=tree, prices=_floats(prices), label=label)
    except ValueError as e:
        raise MarketFormatError(str(e)) from e


def _read_json(path, kind: str):
    """The JSON value in the ``kind`` file at ``path``; a file that cannot be
    read, is not UTF-8 JSON or holds NaN or Infinity raises MarketFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f, parse_constant=_reject_constant)
    except OSError as e:
        raise MarketFormatError(f"cannot read {kind} {path}: {e}") from e
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise MarketFormatError(f"{kind} {path} is not valid JSON: {e}") from e


def load_market(path) -> MarketModel:
    return market_from_dict(_read_json(path, "market file"))


def save_market(m: MarketModel, path) -> None:
    text = json.dumps(market_to_dict(m), indent=2, allow_nan=False) + "\n"
    atomic_write_text(path, text)


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def fixture_names() -> list:
    """Names of the bundled example markets."""
    root = resources.files("viatree").joinpath("fixtures")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_fixture(name: str) -> MarketModel:
    """Load a bundled example market by name (see ``fixture_names``)."""
    path = resources.files("viatree").joinpath("fixtures", f"{name}.json")
    try:
        text = path.read_text(encoding="utf-8")
    except (FileNotFoundError, OSError):
        raise MarketFormatError(
            f"no bundled market named {name!r}; available: {fixture_names()}"
        ) from None
    return market_from_dict(json.loads(text, parse_constant=_reject_constant))
