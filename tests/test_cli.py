import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from oracles import per_unitary_samples
import twirlkit
from twirlkit.cli import main
from twirlkit.reconstruct import forward_matrix, invert
from twirlkit.stateio import save_state
from twirlkit.states import random_density, werner_state
from twirlkit.twirl import EstimatorConfig


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


WERNER3 = ["estimate", "--builtin", "werner", "--params", "d=3,p=0.5"]


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants"],
        WERNER3 + ["--unitaries", "0"],
        WERNER3 + ["--workers", "0"],
        WERNER3 + ["--shots", "-1"],
        ["invariants", "--builtin", "werner", "--params", "d=2.5,p=0.5"],
        WERNER3 + ["--order", "3", "--shots", "2"],
        ["invariants", "--builtin", "random", "--dims", "2,2", "--params", "rnak=1,seed=4"],
        ["invariants", "--builtin", "werner", "--params", "d=3,p=0.5,q=1"],
        ["invariants", "--builtin", "bell-diagonal", "--params", "l1=1,l2=0,l3=0,l4=0,l5=0"],
        ["invariants", "--builtin", "maximally-mixed", "--dims", "2,2", "--params", "p=1"],
        ["invariants", "--builtin", "werner", "--dims", "3,4", "--params", "p=0.5"],
        ["invariants", "--builtin", "werner", "--dims", "3,3", "--params", "d=4,p=0.5"],
        ["invariants", "--builtin", "bell-diagonal", "--dims", "3,3",
         "--params", "l1=1,l2=0,l3=0,l4=0"],
    ],
    ids=[
        "no-state", "unitaries-0", "workers-0", "shots-negative", "werner-d-not-integer",
        "order3-shots-2", "random-unknown-key", "werner-unknown-key",
        "bell-diagonal-unknown-key", "maximally-mixed-unknown-key", "werner-unequal-dims",
        "werner-d-disagrees-with-dims", "bell-diagonal-not-two-qubits",
    ],
)
def test_usage_error_exit_code(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 1
    assert "usage error" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        WERNER3 + ["--order", "3", "--unitaries", "10", "--seed", "-1"],
        ["invariants", "--builtin", "random", "--dims", "2,2", "--params", "rank=2,seed=-3",
         "--order", "2"],
    ],
    ids=["estimate-seed", "random-builtin-seed"],
)
def test_negative_seed_is_a_one_line_usage_error(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 1
    assert err.startswith("usage error") and "seed" in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--state", "/no/such.json"],
        ["invariants", "--builtin", "werner", "--params", "d=3,p=1.5"],
        ["invariants", "--builtin", "bell-diagonal", "--params", "l1=0.5,l2=0.2,l3=0.2,l4=0.2"],
        ["invariants", "--builtin", "random", "--dims", "2,2", "--params", "rank=9"],
        ["invariants", "--state", "NOT_UTF8"],
    ],
    ids=["missing-file", "werner-p-out-of-range", "bell-weights-not-normalised", "rank-too-large",
         "not-utf8"],
)
def test_bad_state_file_exit_code(argv, tmp_path, capsys):
    # NOT_UTF8 stands for a file that starts with a UTF-16 byte-order mark
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe")
    argv = [str(path) if a == "NOT_UTF8" else a for a in argv]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "invalid state" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv", [["invariants"], ["estimate", "--unitaries", "10"]], ids=["invariants", "estimate"]
)
def test_order3_on_non_bipartite_state_exit_code(argv, capsys):
    code, _, err = run(argv + ["--builtin", "random", "--dims", "3,3,3", "--order", "3"], capsys)
    assert code == 2
    assert "invalid state input" in err
    assert len(err.strip().splitlines()) == 1


def test_werner_with_matching_dims_is_accepted(capsys):
    argv = ["invariants", "--builtin", "werner", "--params", "p=0.5"]
    _, by_param, _ = run(argv[:-1] + ["d=3,p=0.5"], capsys)
    code, by_dims, _ = run(argv + ["--dims", "3,3"], capsys)
    assert code == 0
    assert by_dims == by_param


def test_order3_with_qubits_exit_code(capsys):
    code, _, err = run(
        ["estimate", "--builtin", "werner", "--params", "d=2,p=0.5", "--order", "3"],
        capsys,
    )
    assert code == 3
    assert err.startswith("numerical failure:")
    assert len(err.strip().splitlines()) == 1


def test_invariants_builtin_werner_order2(capsys):
    code, out, _ = run(
        ["invariants", "--builtin", "werner", "--params", "d=2,p=0"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,exact,oracle,residual"
    values = [float(l.split(",")[1]) for l in lines[1:]]
    assert values == pytest.approx([1.0, 0.5, 0.5, 0.25], abs=1e-12)


def test_invariants_from_state_file(tmp_path, capsys):
    path = tmp_path / "w.json"
    save_state(werner_state(2, 0.8), path)
    code, out, _ = run(["invariants", "--state", str(path)], capsys)
    assert code == 0
    x3 = float(out.strip().splitlines()[-1].split(",")[1])
    assert x3 == pytest.approx(0.73, abs=1e-12)  # (1 + 3 * 0.64)/4


def test_estimate_csv_is_byte_identical_for_same_seed(tmp_path, capsys):
    argv = [
        "estimate", "--builtin", "maximally-mixed", "--dims", "2,2",
        "--unitaries", "300", "--seed", "7",
    ]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2
    _, out3, _ = run(argv + ["--workers", "3"], capsys)
    assert out1 == out3


@pytest.mark.parametrize(
    "dims,order", [((6, 6), 3), ((2,) * 7, 2)], ids=["order3-6x6", "order2-7-qubits"]
)
def test_invariants_runs_beyond_the_loop_oracle_sizes(dims, order, capsys):
    # above the 10^6 explicit-loop terms the oracle once refused to run
    code, out, err = run(
        ["invariants", "--builtin", "maximally-mixed", "--dims", ",".join(map(str, dims)),
         "--order", str(order)],
        capsys,
    )
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == (11 if order == 3 else 2 ** len(dims))
    assert all(float(r[3]) <= 1e-8 for r in rows)


def _std_errors(out: str, fmt: str) -> list[float]:
    if fmt == "csv":
        return [float(l.split(",")[3]) for l in out.splitlines() if l.startswith("x,")]
    return [float(l.split("+/-")[1].split()[0]) for l in out.splitlines() if "+/-" in l]


@pytest.mark.parametrize("fmt", ["csv", "report"])
@pytest.mark.parametrize("unitaries", [512, 1000])
def test_estimate_std_errors_are_finite(unitaries, fmt, capsys):
    # 512 unitaries are one chunk, 1000 are two
    code, out, _ = run(
        WERNER3 + ["--order", "3", "--unitaries", str(unitaries), "--format", fmt], capsys
    )
    assert code == 0
    se = _std_errors(out, fmt)
    assert len(se) == 11
    assert all(math.isfinite(v) and v >= 0.0 for v in se)


@pytest.mark.parametrize("fmt", ["csv", "report"])
def test_one_unitary_estimate_prints_nan_std_errors(fmt, capsys):
    # one unitary has no spread: every error bar is nan, on purpose
    code, out, err = run(
        WERNER3 + ["--order", "3", "--unitaries", "1", "--format", fmt], capsys
    )
    assert code == 0
    assert err == ""
    se = _std_errors(out, fmt)
    assert len(se) == 11
    assert all(math.isnan(v) for v in se)


def test_order2_estimate_on_eight_qubits(capsys):
    code, out, _ = run(
        ["estimate", "--builtin", "random", "--dims", ",".join(["2"] * 8),
         "--params", "rank=2,seed=3", "--order", "2", "--unitaries", "512"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert sum(l.startswith("x,") for l in lines) == 256
    assert lines[-1].startswith("criterion,purity,") and lines[-1].endswith(",true")


@pytest.mark.parametrize(
    "dims,order", [((3, 3), 3), ((3, 4), 3), ((2, 2, 3), 2)],
    ids=["order3-3x3", "order3-3x4", "order2-2x2x3"],
)
def test_propagated_x_errors_match_inverted_samples(dims, order, capsys):
    argv = [
        "estimate", "--builtin", "random", "--dims", ",".join(map(str, dims)),
        "--params", "rank=2,seed=4", "--order", str(order), "--unitaries", "600",
        "--seed", "11",
    ]
    code, out, _ = run(argv, capsys)
    assert code == 0
    se = np.array(_std_errors(out, "csv"))
    cfg = EstimatorConfig(n_unitaries=600, master_seed=11)
    x = invert(order, dims, per_unitary_samples(random_density(dims, 2, 4), cfg, order))
    ref = np.std(x, axis=0, ddof=1) / np.sqrt(cfg.n_unitaries)
    # x0 = 1 on every unitary, so its error bar is rounding noise
    assert se[0] < 1e-10
    np.testing.assert_allclose(se[1:], ref[1:], rtol=1e-10)


def test_estimate_report_contains_criterion(capsys):
    code, out, _ = run(
        [
            "estimate", "--builtin", "werner", "--params", "d=2,p=1",
            "--unitaries", "400", "--format", "report",
        ],
        capsys,
    )
    assert code == 0
    assert "criterion purity" in out
    assert "DETECTED" in out


def test_werner_sweep_summary_row(capsys):
    code, out, _ = run(["werner-sweep", "--d", "3", "--steps", "5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,poly2,poly3,detected2,detected3"
    summary = lines[-1].split(",")
    assert summary[0] == "summary"
    assert float(summary[1].split("=")[1]) == pytest.approx(0.5)
    assert float(summary[2].split("=")[1]) == pytest.approx(10 ** (-1 / 3), abs=1e-9)
    assert float(summary[3].split("=")[1]) == pytest.approx(0.25)


def test_werner_sweep_d2_has_no_order3_columns(capsys):
    code, out, _ = run(["werner-sweep", "--d", "2", "--steps", "3"], capsys)
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines()[1:-1]]
    assert all(r[2] == "" and r[4] == "" for r in rows)
    summary = out.strip().splitlines()[-1].split(",")
    assert float(summary[1].split("=")[1]) == pytest.approx(1 / 3**0.5, abs=1e-9)


def test_werner_sweep_invalid_grid(capsys):
    code, _, err = run(["werner-sweep", "--d", "3", "--p-min", "0.9", "--p-max", "0.1"], capsys)
    assert code == 1


def test_selftest_passes_and_perturbation_fails(capsys):
    code, out, _ = run(["selftest"], capsys)
    assert code == 0
    assert "all checks passed" in out
    assert "x9 = Tr rho^3" in out  # identification is reported

    code, out, _ = run(["selftest", "--debug-perturb-w", "1e-3"], capsys)
    assert code != 0
    assert "FAIL" in out


@pytest.mark.parametrize("perturb_first", [True, False])
def test_selftest_perturbation_leaves_the_cached_tables_alone(perturb_first, capsys):
    before = forward_matrix(3, (3, 3)).copy()
    runs = [["selftest", "--debug-perturb-w", "1e-3"], ["selftest"]]
    codes = [run(argv, capsys)[0] for argv in (runs if perturb_first else runs[::-1])]
    assert codes == ([3, 0] if perturb_first else [0, 3])
    assert np.array_equal(forward_matrix(3, (3, 3)), before)


def test_reused_parser_matches_fresh_processes(capsys):
    calls = [
        ["invariants", "--order", "4"],
        ["invariants", "--builtin", "werner", "--params", "d=3,p=0.5", "--order", "3"],
    ]
    src = os.path.dirname(os.path.dirname(twirlkit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "twirlkit.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert run(argv, capsys) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert fresh.returncode == 0


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, out, _ = run(
        ["werner-sweep", "--d", "3", "--steps", "3", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("p,poly2,poly3")


@pytest.mark.parametrize("where", ["missing-directory", "existing-directory"])
@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--builtin", "werner", "--params", "d=3,p=0.5"],
        WERNER3 + ["--unitaries", "8"],
        ["werner-sweep", "--d", "3", "--steps", "3"],
        ["selftest"],
    ],
    ids=["invariants", "estimate", "werner-sweep", "selftest"],
)
def test_unwritable_out_is_a_one_line_usage_error(argv, where, tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "out.csv" if where == "missing-directory" else tmp_path
    code, out, err = run(argv + ["--out", str(target)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"usage error: cannot write --out {target}: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_builtin_bell_diagonal(capsys):
    code, out, _ = run(
        [
            "invariants", "--builtin", "bell-diagonal",
            "--params", "l1=1,l2=0,l3=0,l4=0",
        ],
        capsys,
    )
    assert code == 0
    purity_row = out.strip().splitlines()[-1]
    assert float(purity_row.split(",")[1]) == pytest.approx(1.0, abs=1e-12)


def test_builtin_random_is_seeded(capsys):
    argv = [
        "invariants", "--builtin", "random", "--dims", "3,3",
        "--params", "rank=2,seed=4",
    ]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2
