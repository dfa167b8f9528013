"""Arbitrary input to the two file readers: a result or a ValueError, never
another exception (the CLI maps ValueError to exit 2). Valid match files
parse into the dataset that the same records built in code give, and any
match text reads the same from a path as from a stream."""

import csv
import io
import json
import re
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tableguess.cli import TABLE_FIELDS, read_table_file
from tableguess.league import (
    MATCH_FIELDS,
    ROUND_LIMIT,
    MatchFileError,
    MatchRecord,
    SeasonDataset,
    parse_matches,
)

MATCH_HEADER = ",".join(MATCH_FIELDS) + "\n"
PREFIXES = (
    "",
    MATCH_HEADER,
    MATCH_HEADER + "S,1,A,B,",
    "position,team\n",
    "position,team\n1,",
    "[",
    '["A", ',
    '["A", "B"]',
    "[[[",
    '"',
)
CELLS = st.text(st.characters(blacklist_categories=("Cs",)))
TEXTS = st.builds(lambda prefix, rest: prefix + rest, st.sampled_from(PREFIXES), CELLS)


@settings(max_examples=300, deadline=None)
@given(TEXTS)
def test_parse_matches_accepts_or_raises_value_error(text):
    try:
        dataset = parse_matches(io.StringIO(text))
    except ValueError:
        return
    assert isinstance(dataset, SeasonDataset)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.one_of(TEXTS.map(str.encode), st.binary()))
def test_read_table_file_accepts_or_raises_value_error(tmp_path, content):
    path = tmp_path / "table"
    path.write_bytes(content)
    try:
        teams = read_table_file(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    assert len(set(teams)) == len(teams) >= 2
    assert all(isinstance(team, str) for team in teams)


NAMES = st.text("ABCxyz 9.'", min_size=1, max_size=6).map(str.strip).filter(bool)
PADDING = st.text(" ", max_size=2)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.lists(st.tuples(PADDING, NAMES, PADDING), min_size=2, max_size=8, unique_by=lambda t: t[1]))
def test_a_table_reads_the_same_as_csv_or_json(tmp_path, padded):
    """Padded names, written as a position,team CSV or as a JSON array,
    read back to the same stripped names."""
    names = [left + name + right for left, name, right in padded]
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([TABLE_FIELDS, *enumerate(names, start=1)])
    (tmp_path / "t.csv").write_text(buffer.getvalue(), encoding="utf-8")
    (tmp_path / "t.json").write_text(json.dumps(names), encoding="utf-8")
    want = [name for _, name, _ in padded]
    assert read_table_file(tmp_path / "t.csv") == read_table_file(tmp_path / "t.json") == want


GOALS = st.one_of(st.integers(0, 9), st.integers(0, 2**31 - 1))


@st.composite
def match_files(draw) -> tuple[str, list[tuple]]:
    """A valid match file with padded fields, its columns in any order and
    some rounds out of order or only partly played, and its rows in order."""
    season = draw(NAMES)
    teams = draw(st.lists(NAMES, min_size=2, max_size=8, unique=True))
    numbers = draw(st.lists(st.integers(1, ROUND_LIMIT), min_size=1, max_size=6, unique=True))
    rows = []
    for rnd in numbers:
        playing = draw(st.permutations(teams))
        for i in range(draw(st.integers(1, len(teams) // 2))):
            home, away = playing[2 * i], playing[2 * i + 1]
            rows.append((season, rnd, home, away, draw(GOALS), draw(GOALS)))
    rows = draw(st.permutations(rows))
    columns = draw(st.permutations(range(len(MATCH_FIELDS))))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow([MATCH_FIELDS[c] for c in columns])
    for row in rows:
        writer.writerow([draw(PADDING) + str(row[c]) + draw(PADDING) for c in columns])
    return buffer.getvalue(), rows


@settings(max_examples=200, deadline=None)
@given(match_files())
def test_parsed_file_equals_records_built_in_code(case):
    text, rows = case
    parsed = parse_matches(io.StringIO(text, newline=""))
    built = SeasonDataset(MatchRecord(*row) for row in rows)
    assert parsed == built
    assert vars(parsed._frame) == vars(built._frame)
    for got, want in zip(parsed.matches, built.matches, strict=True):
        assert got == want
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)
        with pytest.raises(FrozenInstanceError):
            got.round = want.round


@st.composite
def line_ended_texts(draw) -> str:
    """A valid match file or an arbitrary text, each of its line ends made
    one of \\n, \\r\\n or \\r, with or without a leading byte order mark."""
    text = draw(st.one_of(match_files().map(lambda case: case[0]), TEXTS))
    text = re.sub(r"\r\n|\r|\n", draw(st.sampled_from(["\n", "\r\n", "\r"])), text)
    return draw(st.sampled_from(["", "\ufeff"])) + text


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(line_ended_texts())
def test_a_match_file_reads_the_same_from_a_path_or_a_stream(tmp_path, text):
    path = tmp_path / "matches.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        from_path = parse_matches(path)
    except MatchFileError as exc:
        with pytest.raises(MatchFileError) as refused:
            parse_matches(io.StringIO(text))
        assert str(exc) == f"{path}: {refused.value}"
        return
    from_stream = parse_matches(io.StringIO(text))
    assert from_stream == from_path
    assert vars(from_stream._frame) == vars(from_path._frame)
