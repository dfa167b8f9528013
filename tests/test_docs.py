"""README stays in step with the CLI and the public API."""

import re
import shlex
from pathlib import Path

import pytest

import tableguess
from tableguess.cli import build_parser
from tableguess.league import ROUND_LIMIT
from tableguess.permstats import ORACLE_MAX_N, STATS_MAX_N

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


@pytest.mark.parametrize(
    "stated",
    [f"2..{STATS_MAX_N}", f"2..{ORACLE_MAX_N}", f"1..{ROUND_LIMIT}"],
    ids=["stats-n", "exact", "rounds"],
)
def test_readme_states_each_range_with_its_constant(stated):
    assert re.search(rf"(?<![\w.]){re.escape(stated)}(?![\w.])", README)
