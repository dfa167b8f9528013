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


ROUND_RULE = f"round must be in 1..{ROUND_LIMIT}"
GOALS_RULE = f"goals must be in 0..{2**31 - 1}"
LONG = "9" * 5000  # more digits than int() reads

# Ways to break one row of a valid file: new texts for a field's cell, or
# None for a change made below. "second-season" gives the row another
# season id, and "no-season" gives every row a blank one. "self-play"
# gives the row its home team as the away team, and "twice" another row's
# round and one of that row's teams, so that team plays twice in a round.
# "short" and "long" drop or add a cell, and "blank" puts a blank line,
# which is no row, before the row.
BREAKS = {
    "round": ["0", str(ROUND_LIMIT + 1), "-1", "x", "1.5", LONG, "-" + LONG],
    "home_goals": ["-1", str(2**31), "two", LONG],
    "away_goals": ["-3", str(2**31 + 5), " ", " " + LONG + " "],
    "season": ["", "  "],
    "home_team": ["", "  "],
    "away_team": ["", "  "],
    "second-season": ["other season"],
    **dict.fromkeys(["no-season", "self-play", "twice", "short", "long", "blank"], [None]),
}


@st.composite
def broken_match_files(draw) -> tuple[str, list[list[str]], list[int]]:
    """A valid match file with 0-3 of its rows broken: its text, its lines
    after the header as lists of cells in the file's column order (a blank
    line as []), and where each field is in a row."""
    season = draw(NAMES)
    teams = draw(st.lists(NAMES, min_size=2, max_size=6, unique=True))
    rows = []
    for rnd in draw(st.lists(st.integers(1, ROUND_LIMIT), min_size=1, max_size=4, unique=True)):
        playing = draw(st.permutations(teams))
        for i in range(draw(st.integers(1, len(teams) // 2))):
            values = (season, rnd, playing[2 * i], playing[2 * i + 1], draw(GOALS), draw(GOALS))
            rows.append(dict(zip(MATCH_FIELDS, map(str, values))))
    marks: list[set[str]] = [set() for _ in rows]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        field = draw(st.sampled_from(list(BREAKS)))
        text = draw(st.sampled_from(BREAKS[field]))
        if field == "second-season":
            rows[i]["season"] = text
        elif field == "no-season":
            for row in rows:
                row["season"] = " "
        elif field == "self-play":
            rows[i]["away_team"] = rows[i]["home_team"]
        elif field == "twice" and len(rows) > 1:
            j = draw(st.integers(0, len(rows) - 2))
            other = rows[j + (j >= i)]
            team = draw(st.sampled_from([other["home_team"], other["away_team"]]))
            rows[i]["round"] = other["round"]
            rows[i]["home_team" if team != rows[i]["away_team"] else "away_team"] = team
        elif field in ("short", "long", "blank"):
            marks[i].add(field)
        else:
            rows[i][field] = text
    columns = draw(st.permutations(MATCH_FIELDS))
    lines: list[list[str]] = []
    for row, marked in zip(rows, marks):
        cells = [draw(PADDING) + row[field] + draw(PADDING) for field in columns]
        if "blank" in marked:
            lines.append([])
        if "short" in marked:
            cells.pop()
        if "long" in marked:
            cells.append("0")
        lines.append(cells)
    text = "".join(",".join(cells) + "\n" for cells in [list(columns), *lines])
    return text, lines, [columns.index(field) for field in MATCH_FIELDS]


def first_fault(lines: list[list[str]], at: list[int]) -> str | list[tuple]:
    """The message of a file's first fault, walking its rows one by one by
    the match-file rules; or, for a file that keeps them, its matches.

    A row is checked for its width, then its integers (round, home goals,
    away goals), then its values, each rule in its order; only when every
    row keeps them is the season checked, match by match."""
    matches: list[tuple] = []
    for number, cells in enumerate(lines, start=2):
        if not cells:
            continue
        if len(cells) != len(MATCH_FIELDS):
            return f"line {number}: expected {len(MATCH_FIELDS)} fields, got {len(cells)}"
        season, rnd, home, away, home_goals, away_goals = (cells[k] for k in at)
        integers = []
        for name, text, rule in (
            ("round", rnd, ROUND_RULE),
            ("home_goals", home_goals, GOALS_RULE),
            ("away_goals", away_goals, GOALS_RULE),
        ):
            try:
                integers.append(int(text))
            except ValueError:
                digits = text.strip().lstrip("+-")
                if digits.isdigit():
                    return f"line {number}: {rule}, got {len(digits)} digits"
                return f"line {number}: {name} must be an integer, got {text!r}"
        rnd, home_goals, away_goals = integers
        season, home, away = season.strip(), home.strip(), away.strip()
        for broken, message in (
            (not 1 <= rnd <= ROUND_LIMIT, f"{ROUND_RULE}, got {rnd}"),
            (not 0 <= home_goals < 2**31, f"{GOALS_RULE}, got {home_goals}"),
            (not 0 <= away_goals < 2**31, f"{GOALS_RULE}, got {away_goals}"),
            (not season, "season must not be blank"),
            (not home, "home_team must not be blank"),
            (not away, "away_team must not be blank"),
            (home == away, f"{home!r} cannot play itself"),
        ):
            if broken:
                return f"line {number}: {message}"
        matches.append((number, (season, rnd, home, away, home_goals, away_goals)))
    first_season = matches[0][1][0]
    seen: set[tuple[int, str]] = set()
    for number, (season, rnd, home, away, _, _) in matches:
        if season != first_season:
            return f"line {number}: mixed season ids {first_season!r} and {season!r}"
        for team in (home, away):
            if (rnd, team) in seen:
                return f"line {number}: team {team!r} appears twice in round {rnd}"
        seen.update(((rnd, home), (rnd, away)))
    return [values for _, values in matches]


@settings(max_examples=300, deadline=None)
@given(broken_match_files())
def test_a_broken_file_is_refused_by_its_first_fault_in_file_order(case):
    text, lines, at = case
    want = first_fault(lines, at)
    if isinstance(want, str):
        with pytest.raises(MatchFileError) as refused:
            parse_matches(io.StringIO(text))
        assert str(refused.value) == want
        return
    parsed = parse_matches(io.StringIO(text))
    assert parsed == SeasonDataset(MatchRecord(*values) for values in want)
