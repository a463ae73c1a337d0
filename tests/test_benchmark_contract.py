"""The names the benchmark harness in ``perfbench/`` reads from the package.

The harness is loaded read-only from its own files.  Every workload must bind
against the package, and the span tracer must still recognise the order-3
estimate call, so a rename in ``src/`` that breaks the benchmark fails here.
"""

import importlib.util
import os
import sys

from twirlkit import cli, twirl

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


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
