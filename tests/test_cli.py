import concurrent.futures
import errno
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from oracles import per_unitary_samples
import twirlkit
from twirlkit import criteria, twirl, weingarten
from twirlkit.cli import main
from twirlkit.reconstruct import forward_matrix, invert
from twirlkit.stateio import save_state
from twirlkit.states import DensityMatrix, DimsProfile, random_density, werner_state
from twirlkit.twirl import MAX_WORKERS, EstimatorConfig


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
        WERNER3 + ["--shots", "10000000000000000000"],
        WERNER3 + ["--shots", "5", "--plug-in"],
        ["invariants", "--builtin", "random", "--dims", "2,2", "--params", "rnak=1,seed=4"],
        ["invariants", "--builtin", "werner", "--params", "d=3,p=0.5,q=1"],
        ["invariants", "--builtin", "bell-diagonal", "--params", "l1=1,l2=0,l3=0,l4=0,l5=0"],
        ["invariants", "--builtin", "maximally-mixed", "--dims", "2,2", "--params", "p=1"],
        ["invariants", "--builtin", "werner", "--dims", "3,4", "--params", "p=0.5"],
        ["invariants", "--builtin", "werner", "--dims", "3,3", "--params", "d=4,p=0.5"],
        ["invariants", "--builtin", "bell-diagonal", "--dims", "3,3",
         "--params", "l1=1,l2=0,l3=0,l4=0"],
        ["werner-sweep", "--d", "3", "--steps", "10000000000000"],
        ["werner-sweep", "--d", "3", "--steps", "1000001"],
        ["invariants", "--builtin", "werner", "--params", "d=x,p=0.5"],
        ["invariants", "--builtin", "werner", "--params", "d3"],
        ["invariants", "--builtin", "random", "--dims", "2,x"],
        ["invariants", "--builtin", "nope"],
        ["invariants", "--builtin", "werner", "--params", "p=0.5"],
        ["invariants", "--builtin", "werner", "--params", "d=3"],
        ["invariants", "--builtin", "bell-diagonal", "--params", "l1=0.5,l2=0.25,l3=0.25"],
        ["invariants", "--builtin", "random"],
        ["invariants", "--builtin", "maximally-mixed"],
        ["werner-sweep", "--d", "1"],
        ["invariants", "--builtin", "werner", "--params", "d=1,p=0.5"],
        ["invariants", "--builtin", "werner", "--params", "d=-3,p=0.5"],
    ],
    ids=[
        "no-state", "unitaries-0", "workers-0", "shots-negative", "werner-d-not-integer",
        "order3-shots-2", "shots-above-int64", "plug-in-removed", "random-unknown-key",
        "werner-unknown-key", "bell-diagonal-unknown-key", "maximally-mixed-unknown-key",
        "werner-unequal-dims", "werner-d-disagrees-with-dims", "bell-diagonal-not-two-qubits",
        "sweep-steps-huge", "sweep-steps-above-bound", "param-not-a-number",
        "param-malformed-item", "dims-not-a-number", "unknown-builtin", "werner-without-d",
        "werner-without-p", "bell-diagonal-without-l4", "random-without-dims",
        "maximally-mixed-without-dims", "sweep-d-below-2", "werner-d-1", "werner-d-negative",
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


def _unvalidated_identity(dims, entries) -> DensityMatrix:
    """I/D with some entries replaced, never passed through make_state."""
    total = math.prod(dims)
    m = np.eye(total, dtype=complex) / total
    for (i, j), v in entries.items():
        m[i, j] = v
    return DensityMatrix(DimsProfile(dims), m)


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--state", "/no/such.json"],
        ["invariants", "--builtin", "werner", "--params", "d=3,p=1.5"],
        ["invariants", "--builtin", "bell-diagonal", "--params", "l1=0.5,l2=0.2,l3=0.2,l4=0.2"],
        ["invariants", "--builtin", "random", "--dims", "2,2", "--params", "rank=9"],
        ["invariants", "--state", "NOT_UTF8"],
        ["estimate", "--builtin", "random", "--dims", "3", "--order", "2", "--unitaries", "50"],
        ["invariants", "--state", "NAN_DIAGONAL", "--order", "2"],
        ["invariants", "--state", "NAN_OFF_DIAGONAL"],
        ["invariants", "--state", "INF_OFF_DIAGONAL"],
        ["invariants", "--builtin", "bell-diagonal", "--params", "l1=nan,l2=0.5,l3=0.25,l4=0.25"],
        ["invariants", "--state", "NO_PARTIES"],
        ["invariants", "--state", "TOP_ARRAY"],
        ["invariants", "--state", "TOP_NUMBER"],
        ["invariants", "--state", "TOP_STRING"],
        ["invariants", "--state", "TOP_NULL"],
    ],
    ids=["missing-file", "werner-p-out-of-range", "bell-weights-not-normalised", "rank-too-large",
         "not-utf8", "estimate-one-party", "nan-diagonal", "nan-off-diagonal",
         "infinity-off-diagonal", "bell-diagonal-nan-weight", "no-parties", "top-level-array",
         "top-level-number", "top-level-string", "top-level-null"],
)
def test_bad_state_file_exit_code(argv, tmp_path, capsys):
    # NOT_UTF8 stands for a file that starts with a UTF-16 byte-order mark,
    # the TOP_ names for files whose JSON is no object, NO_PARTIES for a 1 x 1
    # state with empty dims, and the other names for state files whose JSON
    # holds NaN or Infinity
    (tmp_path / "NOT_UTF8").write_bytes(b"\xff\xfe")
    texts = {"TOP_ARRAY": "[]", "TOP_NUMBER": "3", "TOP_STRING": '"x"', "TOP_NULL": "null"}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    nan, inf = float("nan"), float("inf")
    states = {
        "NAN_DIAGONAL": _unvalidated_identity([2], {(0, 0): nan}),
        "NAN_OFF_DIAGONAL": _unvalidated_identity([2, 2], {(0, 1): nan, (1, 0): nan}),
        "INF_OFF_DIAGONAL": _unvalidated_identity([2, 2], {(0, 1): inf, (1, 0): inf}),
        "NO_PARTIES": _unvalidated_identity([], {}),
    }
    for name, rho in states.items():
        save_state(rho, tmp_path / name)
    files = {"NOT_UTF8", *states, *texts}
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "invalid state" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("key", ["matrix", "dims"])
def test_deeply_nested_state_file_is_a_one_line_state_error_in_a_fresh_process(key, tmp_path):
    # arrays nested 100,000 deep exhaust the JSON parser's recursion limit
    fields = {"dims": "[2]", "matrix": "[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]"}
    fields[key] = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "nested.json"
    path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
    src = os.path.dirname(os.path.dirname(twirlkit.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "twirlkit.cli", "invariants", "--state", str(path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 2
    assert done.stderr.startswith("invalid state input: ")
    assert len(done.stderr.strip().splitlines()) == 1
    assert "Traceback" not in done.stderr


def test_workers_above_the_cap_are_a_usage_error_before_any_thread(monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was built")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    assert EstimatorConfig(n_unitaries=1, order=2, workers=MAX_WORKERS).workers == MAX_WORKERS
    with pytest.raises(ValueError, match=f"between 1 and {MAX_WORKERS}"):
        EstimatorConfig(n_unitaries=1, order=2, workers=MAX_WORKERS + 1)
    code, out, err = run(WERNER3 + ["--unitaries", "2048", "--workers", str(MAX_WORKERS + 1)],
                         capsys)
    assert code == 1 and out == ""
    assert err.startswith("usage error") and "workers" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv", [["invariants"], ["estimate", "--unitaries", "10"]], ids=["invariants", "estimate"]
)
def test_order3_on_non_bipartite_state_exit_code(argv, capsys):
    code, _, err = run(argv + ["--builtin", "random", "--dims", "3,3,3", "--order", "3"], capsys)
    assert code == 2
    assert "invalid state input" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [["--order", "3", "--dims", "3,3,3"], ["--dims", "3"]],
                         ids=["order3-three-parties", "order2-one-party"])
def test_estimate_refuses_an_order_and_party_count_before_any_draw(argv, monkeypatch, capsys):
    def no_draw(*args, **kwargs):
        raise AssertionError("a unitary was drawn")

    monkeypatch.setattr(twirl, "sample_haar_batch", no_draw)
    code, out, err = run(["estimate", "--builtin", "random", "--unitaries", "10"] + argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("invalid state input: ")
    assert len(err.strip().splitlines()) == 1
    # the patch sits where draws happen: a pair with a criterion reaches it
    with pytest.raises(AssertionError, match="a unitary was drawn"):
        main(["estimate", "--builtin", "random", "--dims", "3,3", "--unitaries", "10"])


def test_invariants_on_one_party(capsys):
    # a one-party state has no cut to estimate a criterion on, but its
    # purities are still defined
    code, out, err = run(["invariants", "--builtin", "random", "--dims", "3"], capsys)
    assert code == 0 and err == ""
    assert [line.split(",")[0] for line in out.splitlines()] == ["name", "x0", "x1"]


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


@pytest.mark.parametrize("order,n_invariants", [(2, 4), (3, 11)])
def test_invariants_report(order, n_invariants, capsys):
    code, out, err = run(
        ["invariants", "--builtin", "werner", "--params", "d=3,p=0.5", "--order", str(order),
         "--format", "report"],
        capsys,
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == f"exact order-{order} invariants, dims=[3, 3]"
    assert [line.split("=")[0].strip() for line in lines[1:]] == [
        f"x{k}" for k in range(n_invariants)
    ]
    assert all("(oracle " in line and ", residual " in line for line in lines[1:])


def test_invariants_builtin_werner_order2(capsys):
    code, out, _ = run(
        ["invariants", "--builtin", "werner", "--params", "d=2,p=0"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,exact,oracle,residual"
    values = [float(l.split(",")[1]) for l in lines[1:]]
    assert values == pytest.approx([1.0, 0.5, 0.5, 0.25], abs=1e-12)


@pytest.mark.parametrize("flag", [["--dims", "2,2"], ["--params", "p=0.3"]], ids=["dims", "params"])
def test_a_builtin_flag_next_to_a_state_file_is_a_usage_error(flag, tmp_path, capsys):
    # the file gives the whole state, so a flag that shapes a builtin is not
    # silently ignored
    path = tmp_path / "r.json"
    save_state(random_density((4, 4), rank=3, seed=1), path)
    code, out, err = run(["invariants", "--state", str(path), "--order", "3", *flag], capsys)
    assert code == 1 and out == ""
    assert err.startswith("usage error") and flag[0] in err
    assert len(err.strip().splitlines()) == 1


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
    # 512 unitaries are one draw block, 1000 are two
    code, out, _ = run(
        WERNER3 + ["--order", "3", "--unitaries", str(unitaries), "--format", fmt], capsys
    )
    assert code == 0
    se = _std_errors(out, fmt)
    assert len(se) == 11
    assert all(math.isfinite(v) and v >= 0.0 for v in se)


@pytest.mark.parametrize("order", [2, 3])
def test_csv_estimate_computes_no_exact_invariants(order, monkeypatch, capsys):
    # only the report prints the exact column
    def refuse(rho):
        raise AssertionError("exact invariants computed for CSV output")

    monkeypatch.setattr("twirlkit.reconstruct.exact_x2", refuse)
    monkeypatch.setattr("twirlkit.reconstruct.exact_x3", refuse)
    code, out, err = run(WERNER3 + ["--order", str(order), "--unitaries", "20"], capsys)
    assert code == 0 and err == ""
    assert out.splitlines()[-1].startswith("criterion,")


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
    cfg = EstimatorConfig(n_unitaries=600, order=order, master_seed=11)
    x = invert(order, dims, per_unitary_samples(random_density(dims, 2, 4), cfg))
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


def _perturb_w(monkeypatch):
    """Offset one Weingarten-matrix entry in the tables the selftest reads;
    ``reconstruct`` holds its own reference to ``w_matrix``, so the forward
    matrices keep the true tables."""
    w_matrix = weingarten.w_matrix

    def perturbed(n, d):
        w = w_matrix(n, d).copy()
        w[0, 0] += 1e-3
        return w

    monkeypatch.setattr(weingarten, "w_matrix", perturbed)


def test_selftest_passes_and_perturbation_fails(monkeypatch, capsys):
    code, out, _ = run(["selftest"], capsys)
    assert code == 0
    assert "all checks passed" in out
    assert "x9 = Tr rho^3" in out  # identification is reported

    _perturb_w(monkeypatch)
    code, out, _ = run(["selftest"], capsys)
    assert code != 0
    assert "FAIL" in out


@pytest.mark.parametrize("perturb_first", [True, False])
def test_selftest_perturbation_leaves_the_cached_tables_alone(perturb_first, monkeypatch, capsys):
    before = forward_matrix(3, (3, 3)).copy()
    codes = []
    for perturbed in ([True, False] if perturb_first else [False, True]):
        with monkeypatch.context() as m:
            if perturbed:
                _perturb_w(m)
            codes.append(run(["selftest"], capsys)[0])
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


def test_werner_sweep_writes_lines_as_they_are_made(tmp_path, capsys):
    # 2e4 rows are about 1.4 MB of CSV, so holding them, or one string of
    # them, breaks the bound; written as they are made only the grid is held
    target = tmp_path / "sweep.csv"
    argv = ["werner-sweep", "--d", "3", "--steps", "20000", "--out", str(target)]
    run(argv[:4] + ["3"], capsys)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 2**20
    lines = target.read_text().splitlines()
    assert len(lines) == 20002
    assert lines[0] == "p,poly2,poly3,detected2,detected3"
    assert lines[-1].startswith("summary,p_star_2=")


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


def _fresh_env() -> dict[str, str]:
    # one BLAS thread, so numpy's import fits under an address-space limit
    src = os.path.dirname(os.path.dirname(twirlkit.__file__))
    return {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1"}


def _limit_address_space():
    # runs in the child only, between fork and exec.  At 1 GiB the 14-qubit
    # state's first large allocation (2 GiB) fails before it is touched;
    # with no limit an overcommitting OS may kill that process instead
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--builtin", "maximally-mixed", "--dims", "1000,1000"],
        ["estimate", "--builtin", "werner", "--params", "d=100000,p=0.5"],
        ["estimate", "--builtin", "random", "--dims", ",".join(["2"] * 14)],
    ],
    ids=["invariants", "estimate", "estimate-14-qubits"],
)
def test_out_of_memory_is_a_one_line_usage_error_in_a_fresh_process(argv):
    done = subprocess.run([sys.executable, "-m", "twirlkit.cli", *argv],
                          capture_output=True, text=True, env=_fresh_env(),
                          preexec_fn=_limit_address_space)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr.startswith("usage error: input too large for memory: ")
    assert len(done.stderr.strip().splitlines()) == 1
    assert "Traceback" not in done.stderr


# one per command and builtin, each with the D it names
IMPOSSIBLE_SIZES = [
    (["estimate", "--builtin", "werner", "--params", "d=1e30,p=0.5"], int(1e30) ** 2),
    (["invariants", "--builtin", "maximally-mixed", "--dims", "99999999999,2"], 199999999998),
    (["estimate", "--builtin", "random", "--dims", "99999999999,2"], 199999999998),
]


@pytest.mark.parametrize("argv,total", IMPOSSIBLE_SIZES,
                         ids=["werner", "maximally-mixed", "random"])
def test_a_size_past_numpys_index_range_is_out_of_memory(argv, total, capsys):
    # numpy would raise a ValueError for it, not a MemoryError
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"usage error: input too large for memory: D = {total}: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv", [["werner-sweep", "--d", "3"], ["selftest"], WERNER3 + ["--unitaries", "8"]],
    ids=["werner-sweep", "selftest", "estimate"],
)
def test_a_failed_stdout_write_is_a_one_line_usage_error(argv, monkeypatch, capsys):
    class FullDisk(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sys, "stdout", FullDisk())
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


STATE_ERROR = "invalid state input: "


@pytest.mark.parametrize(
    "case,code,prefix",
    [
        ({"matrix": [[[1, 0], [0, 0]], [[0, 0]]]}, 2, STATE_ERROR),
        ({"matrix": [[[True, 0], [0, 0]], [[0, 0], [0, 0]]]}, 2, STATE_ERROR),
        ({"matrix": [[[10**400, 0], [0, 0]], [[0, 0], [0, 0]]]}, 2, STATE_ERROR),
        ({"matrix": {"0": [[1, 0], [0, 0]], "1": [[0, 0], [0, 0]]}}, 2, STATE_ERROR),
        ({"matrix": 1.0}, 2, STATE_ERROR),
        ({"matrix": [[[[1, 0], [0, 0]], [0, 0]], [[0, 0], [0, 0]]]}, 2, STATE_ERROR),
        ({"argv": IMPOSSIBLE_SIZES[0][0]}, 1, "usage error: input too large for memory: "),
        ({"argv": ["werner-sweep", "--d", "3"], "stdout": "/dev/full"}, 1,
         "usage error: cannot write stdout: "),
        ({"argv": ["selftest"], "stdout": "/dev/full"}, 1, "usage error: cannot write stdout: "),
    ],
    ids=["ragged", "boolean", "integer-beyond-float", "object", "scalar", "pairs-too-deep",
         "impossible-size", "werner-sweep-to-full-disk", "selftest-to-full-disk"],
)
def test_a_failure_is_one_stderr_line_in_a_fresh_process(case, code, prefix, tmp_path):
    where = case.get("stdout", os.devnull)
    if not os.path.exists(where):
        pytest.skip(f"no {where} here")
    argv = case.get("argv")
    if argv is None:
        # a malformed matrix in a state file
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps({"dims": [2], "matrix": case["matrix"]}))
        argv = ["invariants", "--state", str(path)]
    with open(where, "w") as stdout:
        done = subprocess.run([sys.executable, "-m", "twirlkit.cli", *argv], stdout=stdout,
                              stderr=subprocess.PIPE, text=True, env=_fresh_env())
    assert done.returncode == code
    assert done.stderr.startswith(prefix)
    assert len(done.stderr.strip().splitlines()) == 1
    assert "Traceback" not in done.stderr


def test_closed_stdout_ends_quietly_in_a_fresh_process():
    # far more than a pipe buffer holds, so the write fails inside main
    proc = subprocess.Popen(
        [sys.executable, "-m", "twirlkit.cli", "werner-sweep", "--d", "3",
         "--steps", "1000000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_fresh_env(),
    )
    try:
        assert proc.stdout.readline() == "p,poly2,poly3,detected2,detected3\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 141
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == ""


def test_closed_replaced_stdout_leaves_the_descriptors_alone(monkeypatch, capsys):
    class ClosedPipe:
        def writelines(self, lines):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    before = os.fstat(1)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["werner-sweep", "--d", "3", "--steps", "3"]) == 141
    after = os.fstat(1)
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("order", [2, 3])
def test_the_shot_rule_names_only_the_order(order, capsys):
    # finite shots always mean the U-statistics, with no estimator to switch to
    argv = WERNER3 + ["--order", str(order), "--shots", str(order - 1)]
    line = f"usage error: unbiased order-{order} estimation needs shots >= {order}\n"
    assert run(argv, capsys) == (1, "", line)


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


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--builtin", "werner", "--params", "d=3,d=4,p=0.5"],
         "--params d given more than once"),
        (["--builtin", "random", "--dims", "2,2", "--params", "rnak=x"],
         "random does not take --params rnak"),
    ],
    ids=["repeated-key", "unknown-key-before-its-value"],
)
def test_params_keys_are_checked_before_any_value(argv, message, capsys):
    code, out, err = run(["invariants"] + argv, capsys)
    assert code == 1 and out == ""
    assert err == f"usage error: {message}\n"


def test_builtin_random_reads_integer_params_exactly(tmp_path, capsys):
    # 2**53 + 1 is the first integer a float cannot hold
    outs = []
    for seed in (2**53, 2**53 + 1):
        argv = ["invariants", "--builtin", "random", "--dims", "3,3",
                "--params", f"rank=2,seed={seed}"]
        _, out, _ = run(argv, capsys)
        save_state(random_density((3, 3), 2, seed), tmp_path / "state.json")
        assert out == run(["invariants", "--state", str(tmp_path / "state.json")], capsys)[1]
        outs.append(out)
    assert outs[0] != outs[1]
    argv = ["invariants", "--builtin", "random", "--dims", "3,3", "--params", "rank=2,seed=1e3"]
    assert run(argv, capsys)[1] == run(argv[:-1] + ["rank=2,seed=1000"], capsys)[1]
    code, _, err = run(["invariants", "--builtin", "werner", "--params", "d=3.5,p=0.5"], capsys)
    assert code == 1 and "--params d=3.5 is not an integer" in err


def test_werner_names_a_given_d_below_two(capsys):
    for params, message in [
        ("d=1,p=0.5", "werner needs d >= 2, got d=1"),
        ("d=-3,p=0.5", "werner needs d >= 2, got d=-3"),
        ("p=0.5", "werner needs d (via --params d=... or --dims)"),
    ]:
        code, _, err = run(["invariants", "--builtin", "werner", "--params", params], capsys)
        assert code == 1 and err == f"usage error: {message}\n"


def test_importing_the_cli_loads_no_thread_pool():
    # a one-worker run never builds a pool, so it pays no import for one
    code = "import sys, twirlkit.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_fresh_env())
    assert done.returncode == 0 and done.stdout == "False\n"


def test_reading_a_state_file_loads_no_sampling_module(tmp_path):
    # invariants of a state file draw nothing, so a cold start pays for no
    # random generator and no thread pool
    save_state(random_density((2, 3), 2, seed=0), tmp_path / "state.json")
    code = (
        "import sys; from twirlkit.cli import main; "
        "code = main(['invariants', '--state', sys.argv[1], '--order', '2']); "
        "print([m for m in ('numpy.random', 'concurrent.futures') if m in sys.modules], code,"
        " file=sys.stderr)"
    )
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "state.json")],
                          capture_output=True, text=True, env=_fresh_env())
    assert done.stdout and done.stderr == "[] 0\n"


def test_werner_sweep_at_the_largest_d_prints_finite_cells(capsys):
    d = criteria.MAX_WERNER_D
    code, out, _ = run(["werner-sweep", "--d", str(d), "--steps", "11"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    cells = [c for l in lines[1:-1] for c in l.split(",")[:3]]
    cells += [c.split("=")[1] for c in lines[-1].split(",")[1:4]]
    assert len(cells) == 36 and all(math.isfinite(float(c)) for c in cells)
    p_star_3 = float(lines[-1].split(",")[2].split("=")[1])
    assert abs(criteria.werner_poly_3(d, p_star_3)) < 1e-9


def test_werner_sweep_refuses_d_above_the_bound_before_any_line(capsys):
    code, out, err = run(["werner-sweep", "--d", str(criteria.MAX_WERNER_D + 1)], capsys)
    assert code == 1 and out == ""
    assert err.strip().splitlines() == [
        f"usage error: --d must be between 2 and {criteria.MAX_WERNER_D}"
    ]
