import itertools
import json

import numpy as np
import pytest

from oracles import matrix_from_pairs
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


SHAPE = "matrix must be 2 rows of 2 \\[re, im\\] pairs"
NUMBERS = "matrix entries must be numbers"


def test_shape_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    for matrix, message in [
        ([[[1.0, 0.0]]], SHAPE),
        ([[[1, 0], [0, 0]], [[0, 0]]], SHAPE),  # ragged rows
        ([[[1, 0], [0, 0]], [[0, 0], [0]]], SHAPE),  # an entry that is not a pair
        ([[[1, 0], [0, 0]], [[0, 0], 1]], SHAPE),  # a number where a pair belongs
        ([[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0]]], SHAPE),  # triples
        ({"0": [[1, 0], [0, 0]], "1": [[0, 0], [0, 0]]}, SHAPE),  # an object, not an array
        (1.0, SHAPE),  # a scalar
        ([[[[1, 0]], [[0, 0]]], [[[0, 0]], [[0, 0]]]], SHAPE),  # each pair nested in a list
        ([[["x", 0], [0, 0]], [[0, 0], [0, 0]]], NUMBERS),  # not a number
        ([[[None, 0], [0, 0]], [[0, 0], [1, 0]]], NUMBERS),
        ([[[True, 0], [0, 0]], [[0, 0], [0, 0]]], NUMBERS),  # a boolean among numbers
        ([[[0, False], [0, 0]], [[0, 0], [1.0, 0]]], NUMBERS),
        ([[[10**400, 0], [0, 0]], [[0, 0], [0, 0]]], NUMBERS),  # an integer beyond any float
        ([[[[1, 0], [0, 0]], [0, 0]], [[0, 0], [0, 0]]], NUMBERS),  # pairs one level deeper
    ]:
        path.write_text(json.dumps({"dims": [2], "matrix": matrix}))
        with pytest.raises(StateFileError, match=f"^{message}$"):
            load_state(path)


def test_entries_load_as_numpy_reads_the_pairs(tmp_path):
    # the one walk reads every number as numpy's nesting inference does,
    # integers as their float value, bit for bit
    path = tmp_path / "state.json"
    matrices = [
        [[[1, 0], [0, 0], [0, 0]]] + [[[0, 0]] * 3] * 2,  # |0><0|, integers
        [[[1, 0], [0, 0]], [[0, 0], [0.0, 0]]],  # integers and floats
    ]
    for dims, seed in itertools.product([(2,), (2, 2), (3, 4), (2, 2, 3), (2,) * 5], range(4)):
        rho = random_density(dims, rank=1 + seed % 2, seed=seed)
        matrices.append(np.stack([rho.entries.real, rho.entries.imag], -1).tolist())
    for matrix in matrices:
        path.write_text(json.dumps({"dims": [len(matrix)], "matrix": matrix}))
        assert load_state(path).entries.tobytes() == matrix_from_pairs(matrix).tobytes()


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
