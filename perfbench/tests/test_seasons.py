"""The input generator gives the same inputs for the same seed, and valid seasons."""

from collections import Counter

import seasons


def test_same_seed_same_inputs():
    assert seasons.make_pool(5, 3) == seasons.make_pool(5, 3)
    assert seasons.make_season(5, 2).csv_text() == seasons.make_season(5, 2).csv_text()
    assert seasons.derived_seed(5, "mc", 1) == seasons.derived_seed(5, "mc", 1)


def test_different_seeds_or_slots_differ():
    assert seasons.make_season(5, 0).matches != seasons.make_season(6, 0).matches
    assert seasons.make_season(5, 0).matches != seasons.make_season(5, 1).matches
    assert seasons.derived_seed(5, "mc", 0) != seasons.derived_seed(5, "mc", 1)


def test_a_season_is_a_double_round_robin():
    season = seasons.make_season(9, 0)
    assert len(season.teams) == seasons.TEAMS
    assert len(season.matches) == seasons.TEAMS * (seasons.TEAMS - 1)
    pairs = Counter((m.home, m.away) for m in season.matches)
    assert set(pairs.values()) == {1}
    for rnd in range(1, seasons.ROUNDS + 1):
        playing = [t for m in season.matches if m.round == rnd for t in (m.home, m.away)]
        assert sorted(playing) == sorted(season.teams)


def test_csv_text_has_the_match_header_and_one_row_per_match():
    lines = seasons.make_season(9, 1).csv_text().splitlines()
    assert lines[0] == seasons.MATCH_HEADER
    assert len(lines) == 1 + seasons.TEAMS * (seasons.TEAMS - 1)
