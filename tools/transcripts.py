"""Write the committed transcripts of CLI commands under tests/transcripts/,
or check them.

  python3 tools/transcripts.py            # run every transcript's command, rewrite the file
  python3 tools/transcripts.py --check    # compare, write nothing

Each ``tests/transcripts/<name>.json`` is the one record of its command: it
holds the argv, an optional ``why`` (a sentence on what the transcript
shows, carried over unchanged), the exit code, stdout, stderr and each file
the command wrote, every text as a list of lines. The tool runs each argv
through ``tableguess.cli.main`` in process, in a scratch directory that
holds ``inputs/`` (a copy of tests/transcripts/inputs/) and ``data/`` (the
bundled fixtures). All paths are relative to that directory, so a
transcript names no path of the machine that wrote it.

To add a transcript, write a file that holds only ``{"argv": [...]}`` (and
a ``why`` if the reason is not plain) and run the tool: it fills the file
in. To remove one, delete its file. tests/test_transcripts.py runs each
transcript's argv again and compares the result byte for byte; a change
that alters output on purpose runs the tool again and names each
transcript that changed, and why.

``--check`` compares each command's result with its file without writing
any, and exits 1 naming each transcript that differs. It needs only the
standard library and ``src/``: under a Python without numpy, the commands
that import it (``verify`` with work to do) are reported as skipped, not as
differing.
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


def stage(directory: Path) -> None:
    """Fill ``directory`` with the inputs the commands read."""
    from tableguess.bundled import MERSON_PREDICTION, PL_FINAL, SYNTHETIC_SEASON, bundled_path

    shutil.copytree(INPUTS, directory / "inputs")
    (directory / "data").mkdir()
    for name in (MERSON_PREDICTION, PL_FINAL, SYNTHETIC_SEASON):
        shutil.copyfile(bundled_path(name), directory / "data" / name)


def _lines(text: str) -> list[str]:
    return text.splitlines(keepends=True)


def transcript(record: dict, directory: Path) -> str:
    """Run the ``argv`` of ``record`` in a staged ``directory`` and return
    its transcript, with the record's ``why`` if it has one; the files the
    command wrote are read into it and removed."""
    from tableguess import cli

    argv = list(record["argv"])
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    files = {}
    for path in sorted(directory.iterdir()):
        if path.name not in STAGED:
            files[path.name] = _lines(path.read_text(encoding="utf-8"))
            path.unlink()
    why = {"why": record["why"]} if "why" in record else {}
    result = {
        "argv": argv,
        **why,
        "exit": code,
        "stdout": _lines(out.getvalue()),
        "stderr": _lines(err.getvalue()),
        "files": files,
    }
    return json.dumps(result, indent=1, ensure_ascii=False) + "\n"


def _records(target: Path) -> dict[Path, dict]:
    """Each transcript file in ``target`` and its record; a file that is not
    a JSON object holding an ``argv`` list is refused, naming it."""
    records = {}
    for path in sorted(target.glob("*.json")):
        try:
            record = json.loads(path.read_bytes())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if not isinstance(record, dict) or not isinstance(record.get("argv"), list):
            raise ValueError(f'{path}: a transcript must be a JSON object with an "argv" list')
        records[path] = record
    return records


def write_transcripts(target: Path) -> int:
    """Run the command of every transcript in ``target``, then rewrite each
    file; return how many. A command that raises leaves every file as it
    was."""
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        stage(directory)
        texts = {path: transcript(record, directory) for path, record in _records(target).items()}
    for path, text in texts.items():
        path.write_text(text, encoding="utf-8", newline="")
    return len(texts)


def check_transcripts(target: Path) -> int:
    """Run the command of every transcript in ``target`` and compare the
    result with the file, writing nothing. Print each that differs and each
    skipped for want of numpy; return 1 if any differs, else 0."""
    records = _records(target)
    differ, skipped = [], []
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        stage(directory)
        for path, record in records.items():
            try:
                text = transcript(record, directory)
            except ModuleNotFoundError as exc:
                if exc.name != "numpy":
                    raise
                skipped.append(path.stem)
                continue
            if path.read_bytes() != text.encode():
                differ.append(path.stem)
    for name in skipped:
        print(f"skipped {name}: needs numpy")
    for name in differ:
        print(f"differs {name}")
    matched = len(records) - len(differ) - len(skipped)
    print(f"{matched} of {len(records)} transcripts match, {len(skipped)} skipped")
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Write or check the CLI transcripts.")
    parser.add_argument(
        "--check", action="store_true", help="compare with the committed transcripts; write nothing"
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.check:
        return check_transcripts(TRANSCRIPTS)
    count = write_transcripts(TRANSCRIPTS)
    print(f"wrote {count} transcripts to {TRANSCRIPTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
