"""Seeded `estimate` outputs pinned to values recorded before a refactor.

Each CSV under ``tests/golden`` is the output of the command beside it.  A
change that keeps the seeded unitary stream must reproduce every number to
1e-12 relative.  Standard errors below 1e-9 belong to invariants that are
constant on every unitary (such as x0 = 1); they are rounding noise, so they
are held to 1e-10 absolute instead.
"""

import csv
import io
import os

import numpy as np
import pytest

from twirlkit.cli import main

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
