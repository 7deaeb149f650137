"""Deterministic JSON-shaped report serialization.

The stock ``json`` module prints floats with shortest-round-trip repr; the
report contract here is 17 significant digits (which also round-trips
float64 exactly), so this module renders the document itself.  Output is
byte-stable given identical inputs: keys keep insertion order and no
timestamps or identities are ever embedded.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass

import numpy as np

from .simplex import Permutation, SimplexPoint


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return format(float(x), ".17g")


def to_jsonable(obj):
    """Reduce package objects to dict/list/str/int/float scaffolding."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag, "abs": abs(obj)}
    if isinstance(obj, SimplexPoint):
        return list(obj.coords)
    if isinstance(obj, Permutation):
        return obj.cycle_text()
    if is_dataclass(obj) and not isinstance(obj, type):
        # walk fields by hand: asdict() would deep-convert nested package
        # types before their dedicated branches above could run
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(v) for v in items]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(obj, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{pad_in}{json.dumps(str(k))}: {_emit(v, indent, level + 1)}"
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, list):
        if not obj:
            return "[]"
        rows = [f"{pad_in}{_emit(v, indent, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    raise TypeError(f"cannot emit {type(obj).__name__}")


def dumps(obj, indent: int = 2) -> str:
    """Serialize a report document with 17-significant-digit numbers."""
    return _emit(to_jsonable(obj), indent, 0) + "\n"


def report_document(operator: str, parameters: dict, seed, tolerances: dict,
                    results) -> dict:
    """The report envelope of every analysis subcommand, for :func:`dumps`."""
    return {
        "operator": operator,
        "parameters": parameters,
        "seed": seed,
        "tolerances": tolerances,
        "results": results,
    }
