"""Operator JSON files and analysis report serialization.

Operator file format: {"dim": n, "label": str, "entries": [[[re, im], ...]
...]} with entries row-major.  Floats are written with Python's shortest
round-trip repr, so save -> load is bit-exact and repeated runs are
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Optional

import numpy as np

from .operators import Operator, make_operator

FORMAT_ERROR = "malformed operator document"


def operator_to_dict(op: Operator) -> dict:
    a = op.entries
    entries = np.stack([a.real, a.imag], axis=-1).tolist()
    return {"dim": op.dim, "label": op.label, "entries": entries}


def operator_from_dict(doc: dict) -> Operator:
    if not isinstance(doc, dict) or "dim" not in doc or "entries" not in doc:
        raise ValueError(FORMAT_ERROR)
    dim = doc["dim"]
    rows = doc["entries"]
    if not isinstance(dim, int) or dim < 1:
        raise ValueError(f"{FORMAT_ERROR}: bad dim {dim!r}")
    if not isinstance(rows, list) or len(rows) != dim:
        raise ValueError(f"{FORMAT_ERROR}: entries are not {dim} rows")
    entries = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"{FORMAT_ERROR}: row {i} is not length {dim}")
        for j, cell in enumerate(row):
            if (not isinstance(cell, list) or len(cell) != 2
                    or not all(isinstance(v, (int, float))
                               and not isinstance(v, bool) for v in cell)):
                raise ValueError(f"{FORMAT_ERROR}: entry [{i}][{j}] is not [re, im]")
            re, im = float(cell[0]), float(cell[1])
            if not (math.isfinite(re) and math.isfinite(im)):
                raise ValueError(f"{FORMAT_ERROR}: non-finite entry [{i}][{j}]")
            entries[i, j] = complex(re, im)
    return make_operator(dim, entries, str(doc.get("label", "")))


def save_operator(op: Operator, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(operator_to_dict(op), fh, indent=1)
        fh.write("\n")


def load_operator(path) -> Operator:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{FORMAT_ERROR}: {exc}") from exc
    return operator_from_dict(doc)


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def complex_pair(value: complex):
    value = complex(value)
    return [value.real, value.imag]


def dump_json(doc: dict, path: Optional[str] = None) -> str:
    text = json.dumps(doc, indent=1)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    return text
