"""Report assembly and serialization for the command-line tools.

Reports are plain dicts with a fixed top-level shape: tool and version,
the echoed configuration (enough to replay the run), the payload, and a
timing block.  Serialization sorts keys, so two runs of the same
configuration produce byte-identical files apart from the timing block.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, is_dataclass

import numpy as np

from . import __version__
from .market_io import atomic_write_text


def sanitize(value):
    """Make a payload JSON-safe: numpy scalars/arrays to Python, dataclasses
    to dicts, non-finite floats to strings (the schema bans bare NaN/Inf).
    An array is one ``tolist``, walked only if it may hold other entries."""
    kind = type(value)
    if kind is float:
        return value if math.isfinite(value) else repr(value)
    if kind is int or kind is str or kind is bool or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        plain = value.dtype.kind in "biu" or value.dtype.kind == "f" and np.isfinite(value).all()
        return value.tolist() if plain else sanitize(value.tolist())
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return sanitize(float(value))
    if isinstance(value, np.bool_):
        return bool(value)
    if is_dataclass(value) and not isinstance(value, type):
        return sanitize(asdict(value))
    return value


def make_report(command: str, config: dict, payload: dict, elapsed_s: float) -> dict:
    return {
        "tool": "viatree",
        "version": __version__,
        "command": command,
        "config": sanitize(config),
        "payload": sanitize(payload),
        "timing": {
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "elapsed_s": round(elapsed_s, 6),
        },
    }


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _flatten(prefix: str, value, rows: list):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, value))


def to_csv(report: dict) -> str:
    """Tabular payloads (a list of flat dicts under ``rows``) become a real
    table; everything else flattens to key,value lines."""
    buf = io.StringIO()
    payload = report.get("payload", {})
    rows = payload.get("rows") if isinstance(payload, dict) else None
    if (
        isinstance(rows, list)
        and rows
        and all(isinstance(r, dict) for r in rows)
    ):
        fields = sorted({k for r in rows for k in r})
        w = csv.DictWriter(buf, fieldnames=fields)
        w.writeheader()
        for r in rows:
            w.writerow({k: r.get(k, "") for k in fields})
    else:
        w = csv.writer(buf)
        w.writerow(["key", "value"])
        flat: list = []
        _flatten("", report, flat)
        for k, v in flat:
            if not k.startswith("timing"):
                w.writerow([k, v])
    return buf.getvalue()


def to_text(report: dict) -> str:
    lines = [f"{report['tool']} {report['version']} - {report['command']}"]
    flat: list = []
    _flatten("", report.get("config", {}), flat)
    for k, v in flat:
        lines.append(f"  config {k} = {v}")
    flat = []
    _flatten("", report.get("payload", {}), flat)
    for k, v in flat:
        lines.append(f"  {k} = {v}")
    lines.append(f"  elapsed_s = {report['timing']['elapsed_s']}")
    return "\n".join(lines) + "\n"


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    if fmt == "text":
        return to_text(report)
    raise ValueError(f"unknown report format {fmt!r}")


def write_report(report: dict, out_path, fmt: str) -> str:
    text = render(report, fmt)
    if out_path:
        atomic_write_text(out_path, text)
    return text
