"""Write the committed transcripts of CLI commands under tests/transcripts/,
or check them.

  python3 tools/transcripts.py            # write every transcript
  python3 tools/transcripts.py --check    # compare, write nothing

Each command in ``COMMANDS`` runs through ``tableguess.cli.main`` in
process, in a scratch directory that holds ``inputs/`` (a copy of
tests/transcripts/inputs/) and ``data/`` (the bundled fixtures). Its
transcript, ``tests/transcripts/<name>.json``, holds the argv, the exit
code, stdout, stderr and each file the command wrote, every text as a
list of lines. All paths are relative to the scratch directory, so a
transcript names no path of the machine that wrote it.

tests/test_transcripts.py runs each transcript's argv again and compares
the result byte for byte. A change that alters output on purpose runs
this script again and names each transcript that changed, and why.

``--check`` runs every command and compares its result with the committed
transcript without writing any. It exits 1 naming each transcript that
differs, is missing or has no command. It needs only the standard library
and ``src/``: under a Python without numpy, the commands that import it
(``verify`` with work to do) are reported as skipped, not as differing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPTS = ROOT / "tests" / "transcripts"
INPUTS = TRANSCRIPTS / "inputs"
STAGED = ("inputs", "data")

SEASON = "data/synthetic_14team.csv"
PRED, ACTUAL = "data/merson_2016_17_prediction.csv", "data/pl_2016_17_final.csv"
MC = ("--mc", "--n", "20", "--samples", "50000", "--seed", "42")

# (transcript name, argv); every subcommand in each format, then each refusal
COMMANDS = [
    ("stats-csv", ["stats", "--n", "20"]),
    ("stats-json", ["stats", "--n", "20", "--format", "json"]),
    ("stats-odd-json", ["stats", "--n", "7", "--format", "json"]),
    ("stats-output", ["stats", "--n", "4", "--output", "stats.csv"]),
    ("verify-exact", ["verify", "--exact", "2..9"]),
    ("verify-mc", ["verify", *MC]),
    ("verify-exact-and-mc", ["verify", "--exact", "2..3", *MC]),
    ("mae-csv", ["mae", "--pred", PRED, "--actual", ACTUAL]),
    ("mae-json", ["mae", "--pred", PRED, "--actual", ACTUAL, "--format", "json"]),
    ("mae-json-tables", ["mae", "--pred", "inputs/bac.json", "--actual", "inputs/abc.csv"]),
    ("mae-output", ["mae", "--pred", PRED, "--actual", ACTUAL, "--output", "mae.csv"]),
    # U+2028 is a Unicode line break, but not a CSV one
    (
        "mae-line-separator",
        ["mae", "--pred", "inputs/line_separator.csv", "--actual", "inputs/line_separator.json"],
    ),
    ("r2-csv", ["r2", SEASON]),
    ("r2-json", ["r2", SEASON, "--format", "json"]),
    ("r2-threshold-csv", ["r2", SEASON, "--threshold", "0.8"]),
    ("r2-threshold-json", ["r2", SEASON, "--threshold", "0.8", "--format", "json"]),
    ("r2-undefined-rounds", ["r2", "inputs/drawish.csv", "--threshold", "1"]),
    ("predict-csv", ["predict", SEASON]),
    ("predict-json", ["predict", SEASON, "--format", "json"]),
    ("predict-gd-round-3", ["predict", SEASON, "--round", "3", "--strategy", "gd"]),
    ("predict-output", ["predict", "inputs/flat.csv", "--round", "1", "--output", "pred.csv"]),
    ("evaluate-csv", ["evaluate", SEASON]),
    ("evaluate-json", ["evaluate", SEASON, "--format", "json"]),
    ("evaluate-fraction", ["evaluate", SEASON, "--baseline-fraction", "0.8", "--format", "json"]),
    ("evaluate-summary", ["evaluate", "inputs/flat.csv", "--summary", "summary.json"]),
    # rounds 3..8 have no matches, so they share round 2's table
    ("evaluate-sparse-rounds", ["evaluate", "inputs/sparse_rounds.csv"]),
    ("r2-sparse-rounds", ["r2", "inputs/sparse_rounds.csv", "--threshold", "0.5"]),
    # flag limits
    ("refuse-stats-n-1", ["stats", "--n", "1"]),
    ("refuse-stats-n-1001", ["stats", "--n", "1001"]),
    ("refuse-verify-no-mode", ["verify"]),
    ("refuse-verify-exact-syntax", ["verify", "--exact", "2-8"]),
    ("refuse-verify-exact-empty", ["verify", "--exact", "5..3"]),
    ("refuse-verify-exact-low", ["verify", "--exact", "1..4"]),
    ("refuse-verify-exact-high", ["verify", "--exact", "2..11"]),
    ("refuse-verify-mc-incomplete", ["verify", "--mc", "--n", "20"]),
    ("refuse-verify-samples-no-seed", ["verify", "--mc", "--n", "20", "--samples", "10"]),
    ("refuse-verify-n-1", ["verify", "--mc", "--n", "1", "--samples", "10", "--seed", "1"]),
    ("refuse-verify-n-1001", ["verify", "--mc", "--n", "1001", "--samples", "10", "--seed", "1"]),
    ("refuse-verify-samples-0", ["verify", "--mc", "--n", "20", "--samples", "0", "--seed", "1"]),
    (
        "refuse-verify-work",
        ["verify", "--mc", "--n", "20", "--samples", "100000001", "--seed", "1"],
    ),
    (
        "refuse-verify-seed-negative",
        ["verify", "--mc", "--n", "20", "--samples", "10", "--seed", "-1"],
    ),
    (
        "refuse-verify-seed-2-64",
        ["verify", "--mc", "--n", "20", "--samples", "10", "--seed", str(1 << 64)],
    ),
    (
        "refuse-verify-mc-flags-without-mc",
        ["verify", "--exact", "2", "--n", "5", "--samples", "3", "--seed", "1"],
    ),
    ("refuse-predict-round-0", ["predict", SEASON, "--round", "0"]),
    ("refuse-predict-round-27", ["predict", SEASON, "--round", "27"]),
    ("refuse-evaluate-fraction-0", ["evaluate", SEASON, "--baseline-fraction", "0"]),
    ("refuse-evaluate-fraction-inf", ["evaluate", SEASON, "--baseline-fraction", "inf"]),
    # refused before the file is read, so no missing-file error
    (
        "refuse-evaluate-fraction-nan",
        ["evaluate", "inputs/missing.csv", "--baseline-fraction", "nan"],
    ),
    ("refuse-r2-threshold", ["r2", SEASON, "--threshold", "2"]),
    # match files
    ("refuse-matches-missing", ["r2", "inputs/missing.csv"]),
    ("refuse-matches-empty", ["r2", "inputs/empty.csv"]),
    ("refuse-matches-no-rows", ["predict", "inputs/no_matches.csv"]),
    ("refuse-matches-header", ["evaluate", "inputs/bad_header.csv"]),
    ("refuse-matches-goals", ["r2", "inputs/bad_goals.csv"]),
    ("refuse-matches-twice-in-a-round", ["predict", "inputs/twice_in_a_round.csv"]),
    ("refuse-matches-mixed-seasons", ["evaluate", "inputs/mixed_seasons.csv"]),
    ("refuse-matches-not-utf8", ["r2", "inputs/not_utf8_matches.csv"]),
    ("refuse-matches-round-limit", ["evaluate", "inputs/round_past_limit.csv"]),
    ("refuse-r2-two-teams", ["r2", "inputs/two_teams.csv"]),
    # table files
    ("refuse-table-missing", ["mae", "--pred", "inputs/missing.csv", "--actual", ACTUAL]),
    ("refuse-table-csv-position", ["mae", "--pred", "inputs/bad_position.csv", "--actual", ACTUAL]),
    ("refuse-table-csv-gap", ["mae", "--pred", "inputs/gap_positions.csv", "--actual", ACTUAL]),
    ("refuse-table-csv-header", ["mae", "--pred", PRED, "--actual", "inputs/bad_table_header.csv"]),
    ("refuse-table-csv-empty", ["mae", "--pred", "inputs/empty.csv", "--actual", ACTUAL]),
    ("refuse-table-csv-blank-team", ["mae", "--pred", "inputs/blank_team.csv", "--actual", "inputs/ab.csv"]),
    ("refuse-table-json-truncated", ["mae", "--pred", "inputs/truncated.json", "--actual", ACTUAL]),
    ("refuse-table-json-object", ["mae", "--pred", "inputs/not_an_array.json", "--actual", ACTUAL]),
    ("refuse-table-json-numbers", ["mae", "--pred", "inputs/numbers.json", "--actual", ACTUAL]),
    ("refuse-table-json-duplicate", ["mae", "--pred", "inputs/duplicate.json", "--actual", ACTUAL]),
    ("refuse-table-json-blank-team", ["mae", "--pred", "inputs/ab.csv", "--actual", "inputs/blank_team.json"]),
    ("refuse-table-json-one-team", ["mae", "--pred", "inputs/one_team.json", "--actual", ACTUAL]),
    ("refuse-table-not-utf8", ["mae", "--pred", "inputs/not_utf8_table.csv", "--actual", ACTUAL]),
    ("refuse-tables-lengths", ["mae", "--pred", "inputs/ab.csv", "--actual", ACTUAL]),
    ("refuse-tables-labels", ["mae", "--pred", "inputs/ab.csv", "--actual", "inputs/ac.json"]),
]


def stage(directory: Path) -> None:
    """Fill ``directory`` with the inputs the commands read."""
    from tableguess.bundled import MERSON_PREDICTION, PL_FINAL, SYNTHETIC_SEASON, bundled_path

    shutil.copytree(INPUTS, directory / "inputs")
    (directory / "data").mkdir()
    for name in (MERSON_PREDICTION, PL_FINAL, SYNTHETIC_SEASON):
        shutil.copyfile(bundled_path(name), directory / "data" / name)


def _lines(text: str) -> list[str]:
    return text.splitlines(keepends=True)


def transcript(argv: list[str], directory: Path) -> str:
    """Run ``argv`` in a staged ``directory`` and return its transcript; the
    files the command wrote are read into it and removed."""
    from tableguess import cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    files = {}
    for path in sorted(directory.iterdir()):
        if path.name not in STAGED:
            files[path.name] = _lines(path.read_text(encoding="utf-8"))
            path.unlink()
    record = {
        "argv": list(argv),
        "exit": code,
        "stdout": _lines(out.getvalue()),
        "stderr": _lines(err.getvalue()),
        "files": files,
    }
    return json.dumps(record, indent=1, ensure_ascii=False) + "\n"


def write_transcripts(commands: list[tuple[str, list[str]]], target: Path) -> None:
    """Run every command, then write its transcript to ``target`` and remove
    the transcripts there that no command names. A command that raises
    leaves ``target`` as it was."""
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        stage(directory)
        texts = {f"{name}.json": transcript(argv, directory) for name, argv in commands}
    for old in target.glob("*.json"):
        if old.name not in texts:
            old.unlink()
    for name, text in texts.items():
        (target / name).write_text(text, encoding="utf-8", newline="")


def check_transcripts(commands: list[tuple[str, list[str]]], target: Path) -> int:
    """Run every command and compare its transcript with the one in
    ``target``, writing nothing there. Print each that differs, each file
    no command names and each command skipped for want of numpy; return 1
    if any differs or has no command, else 0."""
    differ, skipped = [], []
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        stage(directory)
        for name, argv in commands:
            try:
                text = transcript(argv, directory)
            except ModuleNotFoundError as exc:
                if exc.name != "numpy":
                    raise
                skipped.append(name)
                continue
            path = target / f"{name}.json"
            if not path.is_file() or path.read_bytes() != text.encode():
                differ.append(name)
    names = {name for name, _ in commands}
    stale = sorted(path.stem for path in target.glob("*.json") if path.stem not in names)
    for name in skipped:
        print(f"skipped {name}: needs numpy")
    for name in differ:
        print(f"differs {name}")
    for name in stale:
        print(f"no command {name}")
    matched = len(commands) - len(differ) - len(skipped)
    print(f"{matched} of {len(commands)} transcripts match, {len(skipped)} skipped")
    return 1 if differ or stale else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write or check the CLI transcripts.")
    parser.add_argument(
        "--check", action="store_true", help="compare with the committed transcripts; write nothing"
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.check:
        return check_transcripts(COMMANDS, TRANSCRIPTS)
    write_transcripts(COMMANDS, TRANSCRIPTS)
    print(f"wrote {len(COMMANDS)} transcripts to {TRANSCRIPTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
