"""twirlkit benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1

One client in one process calls ``twirlkit.cli.main`` in-process, one op
after another.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separately traced run.  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the full
report (environment, per-op times, failures, spans) goes to
``perfbench/out/``.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

BLAS_THREADS = 1
SETUP_PROBES = 5
MIN_TIMED_OPS = 11  # the tail percentile needs ten samples beyond it
MIN_TRACE_OPS = 2
PROBE_TIMEOUT_S = 120
WORKLOAD_TIMEOUT_S = 175

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_tail": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    **{f"{layer}.{m}": u
       for layer in ("cli", "states", "haar", "twirl", "reconstruct", "weingarten", "criteria")
       for m, u in (("self_s", "s"), ("calls", "count"))},
    "haar.unitaries": "count",
    "twirl.chunks": "count",
    "twirl.chunk_bytes_computed": "B",
    "twirl.peak_alloc_mb": "MiB",
    "twirl.cpu_per_wall": "ratio",
    "stateio.load_s": "s",
    "stateio.bytes_read": "B",
    "trace.ops_per_s_ratio": "ratio",
}


def pin_blas_threads() -> None:
    """Fix the BLAS pool size; must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _blas_threads_in_use() -> int | None:
    """Ask the loaded OpenBLAS for its thread count (None if not OpenBLAS)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads_in_use(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, index: int, failure: str | None) -> None:
        self.attempted += 1
        if failure:
            self.failures.append(f"op {index}: {failure}")


def setup_probe(wl, index: int, tally: Tally) -> float:
    """Seconds for ``import twirlkit`` plus one cold op, in a fresh process."""
    from workloads import check_op

    cmds = wl.commands(index)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "cliop.py"), SRC, json.dumps([c.argv for c in cmds])],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.splitlines()[-1])
    tally.record(index, check_op(cmds, [tuple(r) for r in probe["results"]]))
    return probe["setup_s"]


def timed_phase(wl, cli, index: int, seconds: float, min_ops: int, tally: Tally, tracer=None):
    """Run ops back to back until ``seconds`` have passed and ``min_ops`` are done."""
    from cliop import run_command
    from workloads import check_op

    records = []
    t_end = time.perf_counter() + seconds
    while len(records) < min_ops or time.perf_counter() < t_end:
        cmds = wl.commands(index)  # input files are written outside the timed region
        span = tracer.op(index) if tracer else nullcontext()
        c0, w0 = time.process_time(), time.perf_counter()
        with span:
            results = [run_command(cli.main, c.argv) for c in cmds]
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        tally.record(index, check_op(cmds, results))
        records.append({"index": index, "wall_s": wall, "cpu_s": cpu})
        index += 1
    return records, index


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    s = sorted(walls)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0  # too few ops for a tail; report the maximum
    rank = n - 10
    return s[rank - 1], 100.0 * rank / n


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_probes: int = SETUP_PROBES, min_ops: int = MIN_TIMED_OPS) -> dict:
    """Measure one workload in this process and return its full report."""
    import workloads
    from cliop import import_cli

    cli = import_cli(SRC)
    wl = workloads.WORKLOADS[name]()
    wl.bind(seed, os.path.join(OUT, f"states-{name}"))
    tally = Tally()
    index = 0
    report = {"workload": name, "trace": int(trace), "env": environment(seed),
              "workers": wl.workers, "unitaries_per_op": wl.unitaries}

    setups = []
    if not trace:
        for _ in range(setup_probes):
            setups.append(setup_probe(wl, index, tally))
            index += 1

    _, index = timed_phase(wl, cli, index, 0.0, 1, tally)  # warm-up op, not timed

    if not trace:
        records, index = timed_phase(wl, cli, index, seconds, min_ops, tally)
        walls = [r["wall_s"] for r in records]
        tail_s, tail_pct = tail(walls)
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(walls) / math.fsum(walls),
            "op_s_tail": tail_s,
            "cpu_s_per_op": math.fsum(r["cpu_s"] for r in records) / len(records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        # printed, but not a BENCHMARK.json metric: see "Run-to-run spread" in README.md
        report.update(setup_samples=setups, ops=records, tail_percentile=tail_pct,
                      op_s_p50=statistics.median(walls))
    else:
        from spans import Tracer, layer_metrics

        untraced, index = timed_phase(wl, cli, index, seconds / 2, MIN_TRACE_OPS, tally)
        from twirlkit import criteria, haar, reconstruct, stateio, states, twirl, weingarten

        tracer = Tracer([cli, states, stateio, haar, twirl, reconstruct, weingarten, criteria])
        tracer.install()
        try:
            traced, index = timed_phase(wl, cli, index, seconds / 2, MIN_TRACE_OPS, tally, tracer)
        finally:
            tracer.uninstall()
        rate = {k: len(r) / math.fsum(x["wall_s"] for x in r)
                for k, r in (("untraced", untraced), ("traced", traced))}
        metrics = layer_metrics(tracer.spans, len(traced))
        metrics["trace.ops_per_s_ratio"] = rate["traced"] / rate["untraced"]
        report.update(ops_per_s=rate, ops=untraced + traced, spans=tracer.spans)

    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    report.update(
        attempted=tally.attempted,
        failures=tally.failures,
        metrics={k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    )
    return report


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def summary_lines(report: dict) -> list[str]:
    env = report["env"]
    lines = [
        f"workload {report['workload']}  seed {env['seed']}  trace {report['trace']}",
        "env: nproc={nproc} python={python} numpy={numpy} blas={blas} {blas_version}"
        " blas_threads={blas_threads} (env {blas_threads_env}) commit={git_commit}".format(**env),
        f"workers={report['workers']} x blas_threads={env['blas_threads']}"
        f" on nproc={env['nproc']}",
    ]
    m = report["metrics"]
    n_ops = len(report["ops"])
    for k, v in m.items():
        note = ""
        if k == "setup_s":
            note = f"median of {len(report['setup_samples'])} fresh processes"
        elif k == "ops_per_s":
            note = f"{n_ops} timed ops"
            if report["unitaries_per_op"]:
                note += f"; {v['value'] * report['unitaries_per_op']:.6g} unitaries/s"
        elif k == "op_s_tail":
            note = f"p{report['tail_percentile']:.1f} of {n_ops} ops"
        elif k == "trace.ops_per_s_ratio":
            r = report["ops_per_s"]
            note = f"traced {r['traced']:.6g} / untraced {r['untraced']:.6g} ops/s"
        lines.append(f"{k:28s} {v['value']:<14.6g} {v['unit']:6s} {note}".rstrip())
    if "op_s_p50" in report:
        lines.append(f"{'op_s_p50':28s} {report['op_s_p50']:<14.6g} {'s':6s} median of {n_ops} ops")
    failed = len(report["failures"])
    lines.append(f"{'failed_ops':28s} {failed}/{report['attempted']}"
                 f" = {failed / report['attempted']:.6g}")
    lines.extend("FAILED " + f for f in report["failures"][:10])
    return lines


def result_line(report: dict) -> str:
    failed = len(report["failures"])
    return json.dumps({"correct": failed == 0, "attempted": report["attempted"],
                       "failed": failed, "metrics": report["metrics"]})


def write_report(report: dict, seed: int) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{report['workload']}-seed{seed}-trace{report['trace']}.json")
    with open(path, "w") as fh:
        json.dump(report, fh)
    return path


def run_all(args) -> int:
    """Each workload in its own fresh process, then one combined result line."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
        print()
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "twirlkit", "cli.py")):
        print(f"error: no twirlkit sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; one of: all, {', '.join(workloads.WORKLOADS)}")
    compileall.compile_dir(SRC, quiet=1)
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in summary_lines(report):
        print(line)
    print(f"report: {os.path.relpath(write_report(report, args.seed), ROOT)}")
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
