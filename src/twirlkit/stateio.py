"""Reading and writing density matrices as JSON state files.

Grammar: a UTF-8 JSON object with two keys.
``dims`` is a non-empty array of integer local dimensions (each >= 2).
``matrix`` is the row-major density matrix: D rows of D ``[re, im]`` pairs,
with D the product of ``dims``.  Each number is a JSON integer or float (not
a boolean) that fits in a float.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .states import DensityMatrix, DimsProfile, StateError, make_state


class StateFileError(StateError):
    """The file is unreadable or does not follow the state-file grammar."""


def _parse_payload(payload) -> DensityMatrix:
    if not isinstance(payload, dict):
        raise StateFileError("top-level value must be a JSON object")
    missing = {"dims", "matrix"} - payload.keys()
    if missing:
        raise StateFileError(f"missing required keys: {sorted(missing)}")
    dims_raw = payload["dims"]
    # a JSON boolean parses to bool, a subclass of int
    if not isinstance(dims_raw, list) or not dims_raw or not all(type(d) is int for d in dims_raw):
        raise StateFileError("dims must be an array of integers, one per party, at least one")
    dims = DimsProfile(dims_raw)
    n = dims.total
    # one walk by exact type, so a JSON boolean is no number: a row or pair
    # of the wrong type or length is skipped and leaves fewer than 2 n^2 values
    rows = payload["matrix"]
    values = [
        v
        for row in (rows if type(rows) is list and len(rows) == n else [])
        if type(row) is list and len(row) == n
        for pair in row if type(pair) is list and len(pair) == 2
        for v in pair
    ]
    if len(values) != 2 * n * n:
        raise StateFileError(f"matrix must be {n} rows of {n} [re, im] pairs")
    if not set(map(type, values)) <= {int, float}:
        raise StateFileError("matrix entries must be numbers")
    try:
        flat = np.array(values, dtype=float)
    except OverflowError as exc:  # an integer beyond the float range
        raise StateFileError("matrix entries must be numbers") from exc
    return make_state(flat.view(complex).reshape(n, n), dims)


def load_state(path: str | Path) -> DensityMatrix:
    """Load and validate a density matrix from a JSON state file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise StateFileError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise StateFileError(f"{path} is not UTF-8 text: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise StateFileError(f"{path} nests its arrays too deeply to parse") from exc
    return _parse_payload(payload)


def save_state(rho: DensityMatrix, path: str | Path) -> None:
    """Write a state file that :func:`load_state` round-trips exactly."""
    matrix = np.stack([rho.entries.real, rho.entries.imag], -1).tolist()
    Path(path).write_text(
        json.dumps({"dims": list(rho.dims.dims), "matrix": matrix})
    )
