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
