"""The names the benchmark harness in ``perfbench/`` reads from the package.

The harness is loaded read-only from its own files.  Every workload must bind
against the package, and the span tracer must still recognise the order-3
estimate call, so a rename in ``src/`` that breaks the benchmark fails here.
"""

import importlib.util
import json
import os
import sys

import pytest

from twirlkit import cli, twirl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def _load(name: str, monkeypatch):
    path = os.path.join(BENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec.loader.exec_module(module)
    return module


def test_every_workload_binds(tmp_path, monkeypatch):
    workloads = _load("workloads", monkeypatch)
    for name, make in workloads.WORKLOADS.items():
        make().bind(3, str(tmp_path / name))


def _benchmarked_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


@pytest.mark.parametrize("name", _benchmarked_workloads())
def test_the_first_ops_of_each_benchmarked_workload_pass_its_checks(name, tmp_path, monkeypatch):
    # ops 0 and 1 are the CSV and report formats of an estimate workload;
    # check_op holds them to the workload's tolerance, verdict and layout
    workloads = _load("workloads", monkeypatch)
    cliop = _load("cliop", monkeypatch)
    wl = workloads.WORKLOADS[name]()
    wl.bind(1, str(tmp_path / name))
    for index in (0, 1):
        cmds = wl.commands(index)
        results = [cliop.run_command(cli.main, c.argv) for c in cmds]
        assert workloads.check_op(cmds, results) is None


def test_the_tracer_sees_the_chunks_of_an_order3_estimate(monkeypatch, capsys):
    spans = _load("spans", monkeypatch)
    tracer = spans.Tracer([twirl])
    tracer.install()
    try:
        with tracer.op(0):
            code = cli.main(["estimate", "--builtin", "werner", "--params", "d=3,p=0.5",
                             "--order", "3", "--unitaries", "600", "--seed", "1"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert [s["chunks"] for s in tracer.spans if "chunks" in s] == [2]


def test_the_config_still_reads_the_block_size_the_tracer_reads():
    # spans._run_estimate counts chunks from cfg.batch_size; it is the fixed
    # draw block, no longer a constructor argument
    assert twirl.EstimatorConfig(10, order=2).batch_size == 512 == twirl.DRAW_BLOCK
    with pytest.raises(TypeError):
        twirl.EstimatorConfig(10, order=2, batch_size=256)
