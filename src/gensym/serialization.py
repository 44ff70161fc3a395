"""Operator JSON files and analysis report serialization.

Operator file format: {"dim": n, "label": str, "entries": [[[re, im], ...]
...]} with entries row-major.  Floats are written with Python's shortest
round-trip repr, so save -> load is bit-exact and repeated runs are
byte-identical.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from typing import Optional

import numpy as np

from .operators import Operator, make_operator

FORMAT_ERROR = "malformed operator document"


def operator_to_dict(op: Operator) -> dict:
    a = op.entries
    entries = np.stack([a.real, a.imag], axis=-1).tolist()
    return {"dim": op.dim, "label": op.label, "entries": entries}


def operator_from_dict(doc: dict) -> Operator:
    """Validate an operator document and build its Operator.

    Rows, cells and number types are checked in bulk and the numbers are
    converted in one numpy call; only when a check fails does a scan find
    the first offending row or cell for the message.
    """
    if not isinstance(doc, dict) or "dim" not in doc or "entries" not in doc:
        raise ValueError(FORMAT_ERROR)
    dim = doc["dim"]
    rows = doc["entries"]
    if not isinstance(dim, int) or dim < 1:
        raise ValueError(f"{FORMAT_ERROR}: bad dim {dim!r}")
    if not isinstance(rows, list) or len(rows) != dim:
        raise ValueError(f"{FORMAT_ERROR}: entries are not {dim} rows")
    if not _all_lists_of_length(rows, dim):
        i = next(i for i, row in enumerate(rows)
                 if not (isinstance(row, list) and len(row) == dim))
        raise ValueError(f"{FORMAT_ERROR}: row {i} is not length {dim}")
    cells = list(itertools.chain.from_iterable(rows))
    values = _flat_numbers(cells)
    if values is None:
        k = next(k for k, cell in enumerate(cells) if not _is_number_pair(cell))
        raise ValueError(
            f"{FORMAT_ERROR}: entry [{k // dim}][{k % dim}] is not [re, im]")
    try:
        parts = np.array(values, dtype=float)
    except OverflowError as exc:  # an int beyond the float range
        raise ValueError(f"{FORMAT_ERROR}: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(parts))
    if bad.size:
        k = bad[0] // 2
        raise ValueError(
            f"{FORMAT_ERROR}: non-finite entry [{k // dim}][{k % dim}]")
    entries = parts.view(complex).reshape(dim, dim)
    return make_operator(dim, entries, str(doc.get("label", "")))


def _all_lists_of_length(items: list, n: int) -> bool:
    return (all(issubclass(t, list) for t in set(map(type, items)))
            and set(map(len, items)) <= {n})


def _is_number_type(t: type) -> bool:
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _is_number_pair(cell) -> bool:
    return (isinstance(cell, list) and len(cell) == 2
            and all(_is_number_type(type(v)) for v in cell))


def _flat_numbers(cells: list) -> Optional[list]:
    """[re, im, re, im, ...] when every cell is a pair of numbers, else None."""
    if not _all_lists_of_length(cells, 2):
        return None
    values = list(itertools.chain.from_iterable(cells))
    return values if all(map(_is_number_type, set(map(type, values)))) else None


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
