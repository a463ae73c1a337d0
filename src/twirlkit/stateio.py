"""Reading and writing density matrices as JSON state files.

Grammar: a UTF-8 JSON object with two keys.
``dims`` is an array of integer local dimensions (each >= 2).
``matrix`` is the row-major density matrix, one ``[re, im]`` pair per entry,
so its shape is D x D x 2 with D the product of ``dims``.
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
    if not isinstance(dims_raw, list) or not all(isinstance(d, int) for d in dims_raw):
        raise StateFileError("dims must be an array of integers")
    dims = DimsProfile(dims_raw)
    arr = np.asarray(payload["matrix"], dtype=float)
    if arr.ndim != 3 or arr.shape != (dims.total, dims.total, 2):
        raise StateFileError(
            f"matrix must have shape ({dims.total}, {dims.total}, 2) of [re, im]"
            f" pairs, got {arr.shape}"
        )
    return make_state(arr[..., 0] + 1j * arr[..., 1], dims)


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
    return _parse_payload(payload)


def save_state(rho: DensityMatrix, path: str | Path) -> None:
    """Write a state file that :func:`load_state` round-trips exactly."""
    m = rho.entries
    matrix = [
        [[float(m[i, j].real), float(m[i, j].imag)] for j in range(m.shape[1])]
        for i in range(m.shape[0])
    ]
    Path(path).write_text(
        json.dumps({"dims": list(rho.dims.dims), "matrix": matrix})
    )
