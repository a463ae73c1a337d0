"""The library example in README.md runs as printed, and README.md documents
exactly the command-line options the parser has."""

import argparse
import os
import re

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
