"""The library example in README.md runs as printed, README.md documents
exactly the command-line options the parser has, and every twirlkit name it
cites exists."""

import argparse
import functools
import importlib
import os
import pkgutil
import re

import twirlkit
from twirlkit.cli import build_parser

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
# README flags that are not twirlkit options: the install command's
NOT_OURS = {"--no-build-isolation"}


def _readme() -> str:
    with open(README) as fh:
        return fh.read()


def _options() -> dict[str, set[str]]:
    """Each subcommand's option strings, argparse's help aside."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", _readme(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    detected, margin = capsys.readouterr().out.split()
    assert detected == "True" and float(margin) < 0


def test_readme_names_every_option_of_every_subcommand():
    text = _readme()
    missing = sorted(
        f"{name} {o}" for name, opts in _options().items() for o in opts
        if not re.search(rf"(?<![\w-]){re.escape(o)}(?![\w-])", text)
    )
    assert missing == []


def test_every_flag_the_readme_names_is_an_option():
    known = set().union(*_options().values())
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", _readme())) - NOT_OURS
    assert sorted(named - known) == []


def _module_references() -> set[str]:
    """Backticked spans that open with ``module.name`` (optionally
    ``twirlkit.module.name``) for a twirlkit module, read up to any call."""
    modules = "|".join(m.name for m in pkgutil.iter_modules(twirlkit.__path__))
    return set(re.findall(rf"`((?:twirlkit\.)?(?:{modules})\.[\w.]+)", _readme()))


def test_every_module_reference_in_the_readme_resolves():
    refs = _module_references()
    assert "reconstruct.measurable_x" in refs and "twirlkit.checks.run_selftest" in refs
    unresolved = []
    for ref in sorted(refs):
        module, *names = ref.removeprefix("twirlkit.").split(".")
        try:
            functools.reduce(getattr, names, importlib.import_module(f"twirlkit.{module}"))
        except AttributeError:
            unresolved.append(ref)
    assert unresolved == []
