"""Every committed CLI transcript under tests/transcripts/ still reads the
same, byte for byte. tools/transcripts.py writes them; a change that
alters output on purpose writes them again."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "transcripts.py"
spec = importlib.util.spec_from_file_location("transcripts", TOOL)
transcripts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(transcripts)

PATHS = sorted(transcripts.TRANSCRIPTS.glob("*.json"))


@pytest.fixture(scope="module")
def staged(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("transcripts")
    transcripts.stage(directory)
    return directory


def test_each_command_has_one_transcript():
    names = [name for name, _ in transcripts.COMMANDS]
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(path.stem for path in PATHS)


@pytest.mark.parametrize("path", PATHS, ids=lambda path: path.stem)
def test_transcript_is_unchanged(staged, path):
    argv = json.loads(path.read_text(encoding="utf-8"))["argv"]
    assert transcripts.transcript(argv, staged).encode() == path.read_bytes()


def test_a_command_that_raises_leaves_the_transcripts_as_they_were(tmp_path, monkeypatch):
    kept, stale = tmp_path / "stats.json", tmp_path / "stale.json"
    kept.write_text("old\n", encoding="utf-8")
    stale.write_text("stale\n", encoding="utf-8")
    run = transcripts.transcript

    def transcript(argv, directory):
        if argv == ["boom"]:
            raise RuntimeError("boom")
        return run(argv, directory)

    monkeypatch.setattr(transcripts, "transcript", transcript)
    stats = ("stats", ["stats", "--n", "4"])
    with pytest.raises(RuntimeError, match="boom"):
        transcripts.write_transcripts([stats, ("broken", ["boom"])], tmp_path)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["stale.json", "stats.json"]
    assert kept.read_text(encoding="utf-8") == "old\n"

    transcripts.write_transcripts([stats], tmp_path)
    assert [path.name for path in tmp_path.iterdir()] == ["stats.json"]
    assert json.loads(kept.read_text(encoding="utf-8"))["argv"] == ["stats", "--n", "4"]


def test_check_names_a_tampered_transcript_and_writes_nothing(tmp_path, capsys):
    commands = [("stats", ["stats", "--n", "4"]), ("refuse", ["stats", "--n", "1"])]
    transcripts.write_transcripts(commands, tmp_path)
    assert transcripts.check_transcripts(commands, tmp_path) == 0
    assert capsys.readouterr().out == "2 of 2 transcripts match, 0 skipped\n"

    tampered = tmp_path / "stats.json"
    tampered.write_bytes(tampered.read_bytes().replace(b'"exit": 0', b'"exit": 1'))
    (tmp_path / "stale.json").write_text("stale\n", encoding="utf-8")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert transcripts.check_transcripts(commands, tmp_path) == 1
    assert capsys.readouterr().out == (
        "differs stats\nno command stale\n1 of 2 transcripts match, 0 skipped\n"
    )
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_check_skips_a_command_that_needs_numpy(tmp_path, capsys, monkeypatch):
    commands = [("stats", ["stats", "--n", "4"]), ("verify", ["verify", "--exact", "2"])]
    transcripts.write_transcripts(commands, tmp_path)
    run = transcripts.transcript

    def transcript(argv, directory):
        if argv[0] == "verify":
            raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
        return run(argv, directory)

    monkeypatch.setattr(transcripts, "transcript", transcript)
    assert transcripts.check_transcripts(commands, tmp_path) == 0
    assert capsys.readouterr().out == (
        "skipped verify: needs numpy\n1 of 2 transcripts match, 1 skipped\n"
    )
