"""JSON encoding of matrices and library objects.

Wire format for a matrix: {"dim": n, "entries": [[re, im], ...]} with
entries row-major.  Rectangular matrices additionally carry "dim_cols".
All emitted JSON is deterministic: keys sorted, no timestamps.  Text is
decoded by orjson, and by the standard library where orjson refuses it.
"""

from __future__ import annotations

import json
import reprlib
from itertools import chain

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
        rows, cols = obj["dim"], obj.get("dim_cols", obj["dim"])
        if {type(rows), type(cols)} != {int} or rows < 1 or cols < 1:  # bool is no int
            # reprlib: a field nested past the recursion limit has no full repr
            raise ParseError(f"matrix dimensions must be positive integers, "
                             f"got {reprlib.repr(rows)}x{reprlib.repr(cols)}")
        entries = obj["entries"]
        if len(entries) != rows * cols:
            raise ParseError(f"expected {rows * cols} entries, got {len(entries)}")
        if not {int, float}.issuperset(map(type, chain.from_iterable(entries))):
            raise ParseError("matrix entries must be [re, im] pairs of numbers")
        flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # a missing key or a wrong-typed field
        raise ParseError(f"malformed matrix object: {exc}") from exc
    return flat.reshape(rows, cols)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def loads(text: str):
    import orjson  # here, so that importing the library does not load it
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError:  # NaN, Infinity, lone surrogates, huge numbers
        try:  # the standard library's value or error is the answer
            return json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad text, long int, deep nesting
            raise ParseError(str(exc)) from exc
