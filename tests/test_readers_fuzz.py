"""Arbitrary input to the two file readers: a result or a ValueError, never
another exception (the CLI maps ValueError to exit 2)."""

import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tableguess.cli import read_table_file
from tableguess.league import MATCH_FIELDS, SeasonDataset, parse_matches

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
