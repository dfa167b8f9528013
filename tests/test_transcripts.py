"""Every committed CLI transcript under tests/transcripts/ still reads the
same, byte for byte. tools/transcripts.py writes them, each from the argv
its own file holds; a change that alters output on purpose writes them
again."""

import json
import re
from pathlib import Path

import pytest

from conftest import transcripts

PATHS = sorted(transcripts.TRANSCRIPTS.glob("*.json"))


@pytest.mark.parametrize("path", PATHS, ids=lambda path: path.stem)
def test_transcript_is_unchanged(staged, path):
    record = json.loads(path.read_bytes())
    assert transcripts.transcript(record, staged).encode() == path.read_bytes()


def stubs(target: Path, **argvs: list[str]) -> None:
    """Write a file that holds only ``{"argv": ...}`` for each name."""
    for name, argv in argvs.items():
        (target / f"{name}.json").write_text(json.dumps({"argv": argv}), encoding="utf-8")


def test_a_stub_is_filled_in_and_then_matches(tmp_path, capsys):
    stubs(tmp_path, stats=["stats", "--n", "4"])
    why = {"argv": ["stats", "--n", "1"], "why": "the smallest league is 2 teams"}
    (tmp_path / "refuse.json").write_text(json.dumps(why), encoding="utf-8")
    assert transcripts.write_transcripts(tmp_path) == 2
    assert sorted(path.name for path in tmp_path.iterdir()) == ["refuse.json", "stats.json"]
    stats = json.loads((tmp_path / "stats.json").read_bytes())
    assert list(stats) == ["argv", "exit", "stdout", "stderr", "files"]
    assert (stats["argv"], stats["exit"], stats["stdout"][1]) == (
        ["stats", "--n", "4"], 0, "n,4,4\n"
    )
    refuse = json.loads((tmp_path / "refuse.json").read_bytes())
    assert list(refuse) == ["argv", "why", "exit", "stdout", "stderr", "files"]
    assert (refuse["why"], refuse["exit"]) == (why["why"], 2)
    assert transcripts.check_transcripts(tmp_path) == 0
    assert capsys.readouterr().out == "2 of 2 transcripts match, 0 skipped\n"


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"argv": ["stats"],}', "Expecting property name"),
        (b'{"exit": 0}', 'an "argv" list'),
        (b'["stats"]', 'an "argv" list'),
    ],
    ids=["not-json", "no-argv", "not-an-object"],
)
def test_a_file_that_is_not_a_transcript_is_refused_naming_it(tmp_path, content, message):
    stubs(tmp_path, stats=["stats", "--n", "4"])
    (tmp_path / "typo.json").write_bytes(content)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    named = f"^{re.escape(str(tmp_path / 'typo.json'))}: .*{message}"
    for run in (transcripts.write_transcripts, transcripts.check_transcripts):
        with pytest.raises(ValueError, match=named):
            run(tmp_path)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_a_command_that_raises_leaves_the_transcripts_as_they_were(tmp_path, monkeypatch):
    # files run in name order, so "unknown" raises after "stats" has run
    stubs(tmp_path, stats=["stats", "--n", "4"], unknown=["boom"])
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    run = transcripts.transcript

    def transcript(record, directory):
        if record["argv"] == ["boom"]:
            raise RuntimeError("boom")
        return run(record, directory)

    monkeypatch.setattr(transcripts, "transcript", transcript)
    with pytest.raises(RuntimeError, match="boom"):
        transcripts.write_transcripts(tmp_path)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    (tmp_path / "unknown.json").unlink()
    transcripts.write_transcripts(tmp_path)
    assert [path.name for path in tmp_path.iterdir()] == ["stats.json"]
    assert json.loads((tmp_path / "stats.json").read_bytes())["argv"] == ["stats", "--n", "4"]


def test_check_names_a_tampered_transcript_and_writes_nothing(tmp_path, capsys):
    stubs(tmp_path, stats=["stats", "--n", "4"], refuse=["stats", "--n", "1"])
    transcripts.write_transcripts(tmp_path)
    assert transcripts.check_transcripts(tmp_path) == 0
    assert capsys.readouterr().out == "2 of 2 transcripts match, 0 skipped\n"

    tampered = tmp_path / "stats.json"
    tampered.write_bytes(tampered.read_bytes().replace(b'"exit": 0', b'"exit": 1'))
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert transcripts.check_transcripts(tmp_path) == 1
    assert capsys.readouterr().out == "differs stats\n1 of 2 transcripts match, 0 skipped\n"
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_check_skips_a_command_that_needs_numpy(tmp_path, capsys, monkeypatch):
    stubs(tmp_path, stats=["stats", "--n", "4"], verify=["verify", "--exact", "2"])
    transcripts.write_transcripts(tmp_path)
    run = transcripts.transcript

    def transcript(record, directory):
        if record["argv"][0] == "verify":
            raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
        return run(record, directory)

    monkeypatch.setattr(transcripts, "transcript", transcript)
    assert transcripts.check_transcripts(tmp_path) == 0
    assert capsys.readouterr().out == (
        "skipped verify: needs numpy\n1 of 2 transcripts match, 1 skipped\n"
    )
