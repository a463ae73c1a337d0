"""The benchmark's workloads: seeded CLI inputs for each op and output checks.

A workload turns (workload seed, op index) into the commands of one op.  The
program sees only the generated arguments and state files.  Every command
comes with a check; an op fails when any of its commands exits non-zero,
raises, or prints output that fails its check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np


class CheckError(Exception):
    """An op's output is wrong."""


@dataclass(frozen=True)
class Command:
    argv: list[str]
    check: Callable[[str], None]  # raises CheckError on wrong stdout


def check_op(commands: list[Command], results: list[tuple[int | None, str, str]]) -> str | None:
    """None if every command of the op succeeded, else the first failure."""
    for cmd, (rc, out, err) in zip(commands, results):
        where = " ".join(cmd.argv[:1] + cmd.argv[-2:])
        if rc != 0:
            tail = err.strip().splitlines()[-1:] or [""]
            return f"{where}: exit {rc}: {tail[0]}"
        if "Traceback (most recent call last)" in err:
            return f"{where}: traceback on stderr"
        try:
            cmd.check(out)
        except CheckError as exc:
            return f"{where}: {exc}"
    return None


def op_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _finite(label: str, values) -> None:
    if not all(math.isfinite(v) for v in values):
        raise CheckError(f"non-finite {label}: {list(values)}")


# ---------------------------------------------------------------------------
# estimate output parsing (both --format csv and --format report)
# ---------------------------------------------------------------------------

_CSV_HEADER = "row_type,name,value,std_error,lhs,rhs,margin,detected"
_REPORT_X = re.compile(r"^\s+(x\d+) = (\S+) \+/- (\S+)  \(exact (\S+)\)$")
_REPORT_CRIT = re.compile(
    r"^\s+criterion (\S+): lhs=(\S+) rhs=(\S+) margin=(\S+) -> (DETECTED|not detected)$"
)


@dataclass
class Estimate:
    names: list[str]
    values: list[float]
    std_errors: list[float]
    exact: list[float] | None  # only the report format prints exact values
    criterion: tuple[float, float, float, bool]  # lhs, rhs, margin, detected


def parse_estimate(text: str) -> Estimate:
    try:
        if text.startswith(_CSV_HEADER + "\n"):
            return _parse_estimate_csv(text)
        if text.startswith("estimated invariants,"):
            return _parse_estimate_report(text)
    except (ValueError, IndexError) as exc:
        raise CheckError(f"unparseable estimate output: {exc}") from exc
    raise CheckError(f"unrecognised estimate output: {text[:60]!r}")


def _parse_estimate_csv(text: str) -> Estimate:
    rows = list(csv.reader(io.StringIO(text)))[1:]
    xs = [r for r in rows if r[0] == "x"]
    crits = [r for r in rows if r[0] == "criterion"]
    if len(xs) + len(crits) != len(rows) or len(crits) != 1:
        raise CheckError("estimate CSV must hold x rows and one criterion row")
    c = crits[0]
    if c[7] not in ("true", "false"):
        raise CheckError(f"bad detected cell {c[7]!r}")
    return Estimate(
        names=[r[1] for r in xs],
        values=[float(r[2]) for r in xs],
        std_errors=[float(r[3]) for r in xs],
        exact=None,
        criterion=(float(c[4]), float(c[5]), float(c[6]), c[7] == "true"),
    )


def _parse_estimate_report(text: str) -> Estimate:
    lines = text.splitlines()[1:]
    xs = [_REPORT_X.match(line) for line in lines[:-1]]
    crit = _REPORT_CRIT.match(lines[-1])
    if not all(xs) or crit is None:
        raise CheckError("estimate report lines do not follow the report layout")
    return Estimate(
        names=[m[1] for m in xs],
        values=[float(m[2]) for m in xs],
        std_errors=[float(m[3]) for m in xs],
        exact=[float(m[4]) for m in xs],
        criterion=(float(crit[2]), float(crit[3]), float(crit[4]), crit[5] == "DETECTED"),
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class EstimateWorkload:
    """``twirlkit estimate`` on one state; each op draws a fresh ``--seed``.

    ``tol`` is the largest allowed |estimate - exact| of any invariant.  It is
    eight times the largest per-invariant standard deviation of the estimate
    over op seeds (30 seeds at order 3, 15 states x seeds at order 2, measured
    when the workload was defined), so a correct op fails with negligible
    probability while a wrong reconstruction or a dropped chunk does not pass.
    """

    def __init__(self, state, order, unitaries, tol, detected, shots=0, workers=1):
        self._state = state
        self.order = order
        self.unitaries = unitaries
        self.tol = tol
        self.detected = detected
        self.shots = shots
        self.workers = workers

    def bind(self, seed: int, workdir: str) -> None:
        """Fix the inputs from the workload seed and compute exact references."""
        import twirlkit

        self.seed = seed
        self.state_argv, rho = self._state(seed)
        if self.order == 3:
            x = twirlkit.exact_x3(rho).values
            # reconstruction returns the measurable x_S in the x9 and x10 slots
            x_s = 0.5 * (x[9] + x[10])
            self.reference = np.array(list(x[:9]) + [x_s, x_s])
        else:
            self.reference = np.asarray(twirlkit.exact_x2(rho).purities)

    def commands(self, index: int) -> list[Command]:
        fmt = "csv" if index % 2 == 0 else "report"
        argv = ["estimate", *self.state_argv, "--order", str(self.order),
                "--unitaries", str(self.unitaries), "--shots", str(self.shots),
                "--workers", str(self.workers), "--seed", str(op_seed(self.seed, index)),
                "--format", fmt]
        return [Command(argv, self.check)]

    def check(self, out: str) -> None:
        est = parse_estimate(out)
        ref = self.reference
        if est.names != ["x%d" % k for k in range(len(ref))]:
            raise CheckError(f"unexpected invariant names {est.names}")
        _finite("value", est.values)
        _finite("std_error", est.std_errors)
        _finite("criterion", est.criterion[:3])
        if est.exact is not None:
            _finite("exact", est.exact)
            dev = float(np.max(np.abs(np.array(est.exact) - ref)))
            if dev > 1e-10:
                raise CheckError(f"exact values differ from exact_x{self.order} by {dev:.3e}")
        err = float(np.max(np.abs(np.array(est.values) - ref)))
        if err > self.tol:
            raise CheckError(f"estimate off exact by {err:.3e} > tolerance {self.tol}")
        if est.criterion[3] != self.detected:
            raise CheckError(f"criterion verdict {est.criterion[3]}, expected {self.detected}")


def _werner(d: int, p: float):
    def state(seed):
        from twirlkit import werner_state

        return ["--builtin", "werner", "--params", f"d={d},p={p}"], werner_state(d, p)

    return state


def _random_qubits(n: int, rank: int):
    def state(seed):
        from twirlkit import random_density

        argv = ["--builtin", "random", "--dims", ",".join(["2"] * n),
                "--params", f"rank={rank},seed={seed}"]
        return argv, random_density((2,) * n, rank, seed)

    return state


def random_state_matrix(rng: np.random.Generator, total: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(total, rank)) + 1j * rng.normal(size=(total, rank))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / m.trace().real


def write_state_file(path: str, dims: tuple[int, ...], m: np.ndarray) -> None:
    """A state file in twirlkit's JSON grammar, written without twirlkit."""
    with open(path, "w") as fh:
        json.dump({"dims": list(dims), "matrix": np.stack([m.real, m.imag], -1).tolist()}, fh)


def _check_invariants(n_rows: int):
    def check(out: str) -> None:
        lines = out.splitlines()
        if not lines or lines[0] != "name,exact,oracle,residual" or len(lines) != n_rows + 1:
            raise CheckError(f"invariants CSV is not a header plus {n_rows} rows")
        try:
            cells = [float(v) for line in lines[1:] for v in line.split(",")[1:]]
        except ValueError as exc:
            raise CheckError(f"unparseable invariants CSV: {exc}") from exc
        _finite("invariant cell", cells)

    return check


def _check_selftest(out: str) -> None:
    if not out.endswith("selftest: all checks passed\n"):
        raise CheckError("selftest did not print 'all checks passed'")


class InvariantsWorkload:
    """Per op: ``invariants`` at orders 3 and 2 on fresh state files, then ``selftest``.

    The CLI's own oracle-residual gate (exit 3 above 1e-8) checks the
    invariants; the benchmark checks the CSV shape and finiteness.
    """

    workers = 1
    unitaries = 0
    # (file stem, dims, rank, order)
    STATES = (("bipartite", (4, 4), 3, 3), ("qubits", (2,) * 5, 4, 2))

    def bind(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def commands(self, index: int) -> list[Command]:
        rng = np.random.default_rng([self.seed, index])
        cmds = []
        for stem, dims, rank, order in self.STATES:
            path = os.path.join(self.workdir, f"{stem}.json")
            write_state_file(path, dims, random_state_matrix(rng, math.prod(dims), rank))
            n_rows = 11 if order == 3 else 2 ** len(dims)
            cmds.append(Command(["invariants", "--state", path, "--order", str(order)],
                                _check_invariants(n_rows)))
        cmds.append(Command(["selftest"], _check_selftest))
        return cmds


WORKLOADS = {
    "o3-exact-d3": lambda: EstimateWorkload(
        _werner(3, 0.9), order=3, unitaries=20000, tol=0.025, detected=True),
    "o3-shots-d5": lambda: EstimateWorkload(
        _werner(5, 0.15), order=3, unitaries=2048, tol=0.015, detected=False,
        shots=100),
    "o2-qubits6": lambda: EstimateWorkload(
        _random_qubits(6, 2), order=2, unitaries=1024, tol=0.03, detected=True),
    "exact-invariants": InvariantsWorkload,
}
