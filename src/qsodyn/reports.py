"""Deterministic JSON-shaped report serialization.

The stock ``json`` module prints floats with shortest-round-trip repr; the
report contract here is 17 significant digits (which also round-trips
float64 exactly), so this module renders the document itself, in one walk
from what a report holds (None, bools, strs, ints, floats, complex numbers,
simplex points, dataclasses, dicts, lists and tuples) to the text.  Output
is byte-stable given identical inputs: keys keep insertion order, and no
timestamps or identities are ever embedded.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import fields, is_dataclass

import numpy as np

from .simplex import SimplexPoint

# each key's JSON text, cached by str(key): 1, 1.0 and True are one dict key
_key_text = functools.cache(json.dumps)
_fields = functools.cache(fields)  # by dataclass


def _text(obj, pad: str) -> str:
    """``obj`` as JSON text; the lines it spans are indented past ``pad``."""
    if type(obj) is float or isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"cannot serialize non-finite number {x!r}")
        return format(x, ".17g")
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    # the remaining package types are written as the dict or list they stand for
    if isinstance(obj, complex):
        obj = {"re": obj.real, "im": obj.imag, "abs": abs(obj)}
    elif isinstance(obj, SimplexPoint):
        obj = obj.coords
    elif is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in _fields(type(obj))}
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{inner}{_key_text(str(k))}: {_text(v, inner)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [inner + _text(v, inner) for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize a report document with 17-significant-digit numbers."""
    return _text(obj, "") + "\n"
