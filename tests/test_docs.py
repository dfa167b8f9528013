"""README stays in step with the CLI and the public API."""

import re
import shlex
from pathlib import Path

import pytest

import tableguess
from tableguess.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


COMMANDS = [
    line
    for block in _blocks("sh")
    for line in block.splitlines()
    if line.startswith("tableguess ")
]


def test_readme_shows_every_subcommand():
    shown = {shlex.split(line)[1] for line in COMMANDS}
    assert shown == {"mae", "stats", "verify", "r2", "predict", "evaluate"}


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_parses(line):
    argv = shlex.split(line, comments=True)[1:]
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README command does not parse: {line}")


def test_library_names_are_exported():
    (library,) = [block for block in _blocks("python") if "import tableguess as tg" in block]
    names = set(re.findall(r"\btg\.(\w+)", library))
    assert names
    assert names <= set(tableguess.__all__)
