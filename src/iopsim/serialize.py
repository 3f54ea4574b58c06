"""JSON encoding of matrices and library objects.

Wire format for a matrix: {"dim": n, "entries": [[re, im], ...]} with
entries row-major.  Rectangular matrices additionally carry "dim_cols".
All emitted JSON is deterministic: keys sorted, no timestamps.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ParseError


def matrix_to_json(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    out = {
        "dim": int(a.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in a.ravel()],
    }
    if a.shape[1] != a.shape[0]:
        out["dim_cols"] = int(a.shape[1])
    return out


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows = int(obj["dim"])
        cols = int(obj.get("dim_cols", rows))
        if rows < 1 or cols < 1:
            raise ParseError(f"matrix dimensions must be positive, got {rows}x{cols}")
        entries = obj["entries"]
        if len(entries) != rows * cols:
            raise ParseError(f"expected {rows * cols} entries, got {len(entries)}")
        flat = np.array([complex(float(re), float(im)) for re, im in entries],
                        dtype=complex)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # a missing key or a wrong-typed field
        raise ParseError(f"malformed matrix object: {exc}") from exc
    return flat.reshape(rows, cols)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer literal past Python's digit limit,
        # or nesting deeper than the decoder's recursion limit
        raise ParseError(str(exc)) from exc
