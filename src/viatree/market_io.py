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
children, levels contiguous); the rows may be listed in any id order.
``prob`` is the conditional branch probability in (0, 1]; the root's may be
given as null or 1.  NaN and infinities are rejected outright, as are
unknown or missing fields.  An error names the first offending row in file
order.
"""

from __future__ import annotations

import json
import math
import os
from importlib import resources
from itertools import chain

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


def _non_numbers(values, kinds=(int, float)) -> list:
    """Per value, True where it is not a JSON number of one of ``kinds``;
    values of exactly those types pass without a per-value test."""
    if set(map(type, values)) <= set(kinds):
        return [False] * len(values)
    return [not _number(x, kinds) for x in values]


def _float(x) -> float:
    """float(x) of a JSON number; an integer beyond the float range is +-inf,
    which the model's own finiteness checks reject."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _floats(values) -> np.ndarray:
    """The float64 array of a list of JSON numbers, each converted as by
    ``_float``."""
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        return np.vectorize(_float, otypes=[np.float64])(np.array(values, dtype=object))


def _reject_constant(name: str):
    raise MarketFormatError(f"non-finite JSON literal {name!r} is not allowed")


def market_to_dict(m: MarketModel) -> dict:
    t = m.tree
    columns = zip(t.parent.tolist(), t.branch_prob.tolist(), m.prices.tolist())
    return {
        "label": m.label,
        "d": int(m.d),
        "horizon": int(t.horizon),
        "nodes": [
            {"id": i, "parent": None if par < 0 else par, "prob": p, "prices": pr}
            for i, (par, p, pr) in enumerate(columns)
        ],
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
    # each rule runs over the rows before the first offending row found so
    # far, in the order a row's rules are listed here: the error names the
    # first offending row in file order, and that row's first broken rule
    end, error = n, None

    def flag(bad, message):
        nonlocal end, error
        if True in bad:
            end = bad.index(True)
            error = message(end)

    flag([not isinstance(r, dict) for r in nodes], lambda k: "each node must be an object")
    flag([r.keys() != NODE_FIELDS for r in nodes[:end]], lambda k: (
        f"node fields mismatch: extra {sorted(set(nodes[k]) - NODE_FIELDS)}, "
        f"missing {sorted(NODE_FIELDS - set(nodes[k]))}"))
    ids = [r["id"] for r in nodes[:end]]
    flag([bad or i < 0 or i >= n for bad, i in zip(_non_numbers(ids, (int,)), ids)],
         lambda k: f"node id {ids[k]!r} outside 0..{n - 1}")
    first = {}  # a duplicate id is named at its second row
    flag([first.setdefault(i, k) != k for k, i in enumerate(ids[:end])],
         lambda k: f"duplicate node id {ids[k]}")
    pars = [r["parent"] for r in nodes[:end]]
    flag([p is not None and (bad or p < 0 or p >= n)
          for bad, p in zip(_non_numbers(pars, (int, type(None))), pars)],
         lambda k: f"node {ids[k]}: bad parent {pars[k]!r}")
    probs = [1.0 if r["prob"] is None and p is None else r["prob"]
             for r, p in zip(nodes[:end], pars)]
    flag(_non_numbers(probs), lambda k: f"node {ids[k]}: prob must be a number")
    flag([not 0.0 < q <= 1.0 for q in probs[:end]], lambda k: (
        f"node {ids[k]}: prob {_float(probs[k])!r} outside the half-open interval (0, 1]"))
    prices = [r["prices"] for r in nodes[:end]]
    flag([not isinstance(pr, list) or len(pr) != d for pr in prices],
         lambda k: f"node {ids[k]}: expected {d} prices")
    flat = list(chain.from_iterable(prices[:end]))  # rows of d prices each
    if True in (bad := _non_numbers(flat)):
        k, j = divmod(bad.index(True), d)
        error = f"node {ids[k]}: price {j} is not a number"
    if error:
        raise MarketFormatError(error)
    if ids != list(range(n)):  # rows listed out of id order
        order = sorted(range(n), key=ids.__getitem__)
        pars, probs = [pars[k] for k in order], [probs[k] for k in order]
        flat = [x for k in order for x in prices[k]]
    try:
        tree = EventTree(pars, probs)
    except ValueError as e:
        raise MarketFormatError(f"invalid tree: {e}") from e
    if tree.horizon != obj["horizon"]:
        raise MarketFormatError(
            f"declared horizon {obj['horizon']!r} but tree depth is {tree.horizon}"
        )
    try:
        return MarketModel(tree=tree, prices=_floats(flat).reshape(n, d), label=label)
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
    partial file.  The file gets mode 0o666 less the umask, as from
    ``open(path, "w")``."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(6).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            data = memoryview(text.encode("utf-8"))
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
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
