import json

import numpy as np
import pytest

from twirlkit.stateio import StateFileError, load_state, save_state
from twirlkit.states import PositivityError, random_density


def test_round_trip(tmp_path):
    rho = random_density((2, 3), rank=4, seed=0)
    path = tmp_path / "state.json"
    save_state(rho, path)
    loaded = load_state(path)
    assert loaded.dims.dims == (2, 3)
    assert np.array_equal(loaded.entries, rho.entries)


def test_missing_file():
    with pytest.raises(StateFileError):
        load_state("/does/not/exist.json")


def test_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(StateFileError):
        load_state(path)


def test_missing_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": [2]}))
    with pytest.raises(StateFileError):
        load_state(path)


def test_non_integer_dims(tmp_path):
    path = tmp_path / "bad.json"
    # JSON booleans parse to int subclasses; a state names at least one party
    for dims in [[2.0], [True, 2], [2, False], []]:
        path.write_text(json.dumps({"dims": dims, "matrix": []}))
        with pytest.raises(StateFileError, match="dims must be an array of integers"):
            load_state(path)


def test_shape_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    for matrix in [
        [[[1.0, 0.0]]],
        [[[1, 0], [0, 0]], [[0, 0]]],  # ragged rows
        [[[1, 0], [0, 0]], [[0, 0], [0]]],  # an entry that is not a pair
        [[[1, 0], [0, 0]], [[0, 0], 1]],  # a number where a pair belongs
        [[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0]]],  # triples
        [[["x", 0], [0, 0]], [[0, 0], [0, 0]]],  # not a number
        [[[None, 0], [0, 0]], [[0, 0], [1, 0]]],
        [[[True, 0], [0, 0]], [[0, 0], [0, 0]]],  # a boolean that numpy reads as 1
        [[[0, False], [0, 0]], [[0, 0], [1.0, 0]]],
    ]:
        path.write_text(json.dumps({"dims": [2], "matrix": matrix}))
        with pytest.raises(StateFileError):
            load_state(path)


def test_state_invariants_still_enforced(tmp_path):
    # a well-formed file holding a non-PSD matrix is rejected downstream
    path = tmp_path / "npsd.json"
    payload = {
        "dims": [2],
        "matrix": [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(PositivityError):
        load_state(path)
