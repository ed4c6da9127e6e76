"""Deterministic report writers.

All numeric output is serialized with 17 significant digits so reruns of a
subcommand produce byte-identical files; JSON keys are emitted sorted.  A
NaN or an infinity is refused, in JSON and in CSV alike; a file's text is
rendered before the file is opened, so a refused write neither creates nor
truncates a file.
"""

from __future__ import annotations

import json
import math


def format_float(value: float) -> str:
    """17 significant digits; FloatingPointError for a NaN or an infinity,
    which JSON has no literal for."""
    value = float(value)
    if not math.isfinite(value):
        raise FloatingPointError(f"refusing to write the non-finite number {value}")
    return f"{value:.17g}"


def _encode(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(
            f"{json.dumps(str(k))}: {_encode(v)}" for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_encode(v) for v in obj) + "]"
    if hasattr(obj, "tolist"):  # numpy scalars and arrays
        return _encode(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text (sorted keys, 17-significant-digit floats)."""
    return _encode(obj) + "\n"


def write_json(path, obj):
    text = dumps(obj)
    with open(path, "w") as fh:
        fh.write(text)


def csv_rows(header, rows) -> str:
    """CSV text with 17-significant-digit float cells and str() of every
    other cell; each row maps the header's names to values."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(row[name]) if isinstance(row[name], float)
                              else str(row[name]) for name in header))
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows):
    text = csv_rows(header, rows)
    with open(path, "w") as fh:
        fh.write(text)
