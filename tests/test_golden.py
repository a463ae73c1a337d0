"""Seeded `estimate` and `invariants` outputs pinned to values recorded
before a refactor.

Each CSV under ``tests/golden`` is the output of the command or library call
beside it; the CLI prints order 3 for two parties only, so the three-party
order-3 estimate is pinned as ``estimate_y``'s values and standard errors.  A
change that keeps the seeded unitary stream must reproduce every number to
1e-12 relative.  Standard errors below 1e-9 belong to invariants that are
constant on every unitary (such as x0 = 1); they are rounding noise, so they
are held to 1e-10 absolute instead, as is every oracle residual.
"""

import csv
import io
import os

import numpy as np
import pytest

from twirlkit.cli import main
from twirlkit.states import random_density
from twirlkit.twirl import EstimatorConfig, estimate_y

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CASES = {
    "o3_werner_d3_exact": ["--builtin", "werner", "--params", "d=3,p=0.9", "--order", "3",
                           "--unitaries", "1000", "--seed", "11"],
    "o3_werner_d5_shots100": ["--builtin", "werner", "--params", "d=5,p=0.15", "--order", "3",
                              "--unitaries", "2048", "--shots", "100", "--seed", "12"],
    "o2_qubits6_rank2_exact": ["--builtin", "random", "--dims", "2,2,2,2,2,2",
                               "--params", "rank=2,seed=13", "--order", "2",
                               "--unitaries", "1024", "--seed", "14"],
    "o2_dims223_shots10": ["--builtin", "random", "--dims", "2,2,3", "--params", "rank=3,seed=15",
                           "--order", "2", "--unitaries", "600", "--shots", "10", "--seed", "16"],
}

INVARIANT_CASES = {
    "invariants_o3_random34": ["--builtin", "random", "--dims", "3,4",
                               "--params", "rank=4,seed=17", "--order", "3"],
    "invariants_o2_random223": ["--builtin", "random", "--dims", "2,2,3",
                                "--params", "rank=3,seed=18", "--order", "2"],
}

LIBRARY_CASES = {
    "o3_random333_rank2_shots20": lambda: estimate_y(
        random_density((3, 3, 3), rank=2, seed=21),
        EstimatorConfig(n_unitaries=1024, order=3, shots=20, master_seed=23),
    ),
}


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


@pytest.mark.parametrize("name", list(CASES))
def test_seeded_estimate_matches_its_golden_values(name, capsys):
    assert main(["estimate", *CASES[name]]) == 0
    got = _rows(capsys.readouterr().out)
    with open(os.path.join(GOLDEN, f"{name}.csv")) as fh:
        want = _rows(fh.read())
    assert got[0] == want[0] and len(got) == len(want)
    for g, w in zip(got[1:], want[1:]):
        assert g[:2] == w[:2] and g[7] == w[7]  # row type, name, detected
        for col in range(2, 7):
            if w[col] == "":
                assert g[col] == ""
                continue
            atol = 1e-10 if col == 3 and float(w[col]) < 1e-9 else 0.0
            rtol = 0.0 if atol else 1e-12
            np.testing.assert_allclose(float(g[col]), float(w[col]), rtol=rtol, atol=atol,
                                       err_msg=f"{w[1]} column {w[0]}:{col}")


@pytest.mark.parametrize("name", list(INVARIANT_CASES))
def test_exact_invariants_match_their_golden_values(name, capsys):
    assert main(["invariants", *INVARIANT_CASES[name]]) == 0
    got = _rows(capsys.readouterr().out)
    with open(os.path.join(GOLDEN, f"{name}.csv")) as fh:
        want = _rows(fh.read())
    assert got[0] == want[0] == ["name", "exact", "oracle", "residual"]
    assert [g[0] for g in got] == [w[0] for w in want]
    for g, w in zip(got[1:], want[1:]):
        np.testing.assert_allclose([float(v) for v in g[1:3]], [float(v) for v in w[1:3]],
                                   rtol=1e-12, atol=0.0, err_msg=w[0])
        np.testing.assert_allclose(float(g[3]), float(w[3]), rtol=0.0, atol=1e-10,
                                   err_msg=w[0])


@pytest.mark.parametrize("name", list(LIBRARY_CASES))
def test_seeded_library_estimate_matches_its_golden_values(name):
    est = LIBRARY_CASES[name]()
    with open(os.path.join(GOLDEN, f"{name}.csv")) as fh:
        want = _rows(fh.read())
    assert want[0] == ["name", "value", "std_error"]
    assert [w[0] for w in want[1:]] == ["x%d" % k for k in range(len(est.values))]
    for k, (_, value, std_error) in enumerate(want[1:]):
        np.testing.assert_allclose(est.values[k], float(value), rtol=1e-12, atol=0.0,
                                   err_msg=f"x{k} value")
        atol = 1e-10 if float(std_error) < 1e-9 else 0.0
        np.testing.assert_allclose(est.std_error[k], float(std_error), rtol=0.0 if atol else 1e-12,
                                   atol=atol, err_msg=f"x{k} std_error")
