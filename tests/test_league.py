import io
import pickle
from math import comb

import pytest

from tableguess import league
from tableguess.league import (
    MatchFileError,
    MatchRecord,
    SeasonDataset,
    final_standings,
    parse_matches,
    standings_at_round,
    standings_series,
    synthetic_season,
)
from tableguess.permstats import DimensionMismatchError, identity, ranking_from_orders
from tableguess.predictor import predicted_order_by_gd, predicted_order_by_rank
from conftest import matches_csv


def parse_text(text: str) -> league.SeasonDataset:
    return parse_matches(io.StringIO(text))


HEADER = "season,round,home_team,away_team,home_goals,away_goals\n"


class TestParsing:
    def test_single_match(self):
        dataset = parse_text(HEADER + "S,1,A,B,2,0\n")
        assert dataset.teams == ("A", "B")
        assert dataset.rounds == 1
        assert dataset.matches[0] == MatchRecord("S", 1, "A", "B", 2, 0)

    def test_synthetic_fixture_shape(self, synthetic_dataset):
        # double round robin: every pair meets twice
        assert len(synthetic_dataset.matches) == 2 * comb(14, 2) == 182
        assert synthetic_dataset.rounds == 26
        assert len(synthetic_dataset.teams) == 14

    def test_team_playing_itself(self):
        with pytest.raises(MatchFileError, match="line 2"):
            parse_text(HEADER + "S,1,A,A,2,0\n")

    def test_duplicate_participation_in_round(self):
        text = HEADER + "S,1,A,B,2,0\nS,1,A,C,1,1\n"
        with pytest.raises(MatchFileError, match="line 3"):
            parse_text(text)

    def test_unknown_header(self):
        with pytest.raises(MatchFileError, match="line 1"):
            parse_text("season,round,home,away,hg,ag\nS,1,A,B,2,0\n")

    def test_non_integer_goals(self):
        with pytest.raises(MatchFileError, match="line 2"):
            parse_text(HEADER + "S,1,A,B,two,0\n")

    def test_negative_goals(self):
        with pytest.raises(MatchFileError, match="line 2"):
            parse_text(HEADER + "S,1,A,B,-1,0\n")

    def test_values_beyond_the_field_limit(self):
        with pytest.raises(MatchFileError, match="line 2"):
            parse_text(HEADER + "S,1,A,B,2147483648,0\n")
        with pytest.raises(MatchFileError, match="line 2"):
            parse_text(HEADER + "S,2147483648,A,B,0,0\n")

    def test_wrong_arity(self):
        with pytest.raises(MatchFileError, match="line 2"):
            parse_text(HEADER + "S,1,A,B,2\n")

    def test_bad_round(self):
        with pytest.raises(MatchFileError, match="line 2"):
            parse_text(HEADER + "S,0,A,B,2,0\n")

    def test_empty_file(self):
        with pytest.raises(MatchFileError, match="empty"):
            parse_text("")

    def test_header_only(self):
        with pytest.raises(MatchFileError, match="empty"):
            parse_text(HEADER)

    def test_mixed_seasons(self):
        text = HEADER + "S1,1,A,B,2,0\nS2,2,A,B,0,0\n"
        with pytest.raises(MatchFileError, match="mixed season"):
            parse_text(text)

    def test_errors_from_a_path_name_the_file(self, tmp_path):
        path = tmp_path / "matches.csv"
        path.write_text(HEADER + "S,1,A,B,2,0\nS,1,A,C,1,1\n", encoding="utf-8")
        with pytest.raises(MatchFileError) as info:
            parse_matches(path)
        assert str(info.value) == f"{path}: line 3: team 'A' appears twice in round 1"
        path.write_bytes(HEADER.encode() + b"S,1,\xff,B,2,0\n")
        with pytest.raises(MatchFileError, match=f"^{path}: .*utf-8"):
            parse_matches(str(path))

    def test_bytes_that_are_not_utf8_name_the_line(self, tmp_path):
        path = tmp_path / "matches.csv"
        path.write_bytes(HEADER.encode() + b"S,1,\xff,B,2,0\nS,2,A,B,0,0\n")
        with pytest.raises(MatchFileError) as info:
            parse_matches(path)
        assert str(info.value) == f"{path}: line 2: not valid utf-8: invalid start byte"

    @pytest.mark.parametrize("end", [b"\r", b"\r\n"], ids=["cr", "crlf"])
    def test_a_line_end_of_cr_or_crlf_counts_once(self, tmp_path, end):
        path = tmp_path / "matches.csv"
        path.write_bytes(end.join([HEADER.strip().encode(), b"S,1,A,B,2,0", b"S,2,\xff,B,0,0", b""]))
        with pytest.raises(MatchFileError) as info:
            parse_matches(path)
        assert str(info.value) == f"{path}: line 3: not valid utf-8: invalid start byte"

    def test_column_order_is_flexible(self):
        text = "round,season,away_team,home_team,away_goals,home_goals\n1,S,B,A,0,2\n"
        dataset = parse_text(text)
        assert dataset.matches[0] == MatchRecord("S", 1, "A", "B", 2, 0)


LIMIT = "2147483647"
ROUNDS = "1..2000"

# (rows after the header, the full message); every row-level error is found
# before any season or duplicate error, whatever the order of the lines
REJECTIONS = [
    ("S,x,A,B,1,0\n", "line 2: round must be an integer, got 'x'"),
    ("S,1,A,B,2.0,0\n", "line 2: home_goals must be an integer, got '2.0'"),
    ("S,1,A,B,0,\n", "line 2: away_goals must be an integer, got ''"),
    ("S,1,A,B,x,y\n", "line 2: home_goals must be an integer, got 'x'"),
    ("S,r,A,B,x,y\n", "line 2: round must be an integer, got 'r'"),
    ("S,1,A,B,0,y\nS,r,C,D,0,0\n", "line 2: away_goals must be an integer, got 'y'"),
    ("S,0,A,B,2,0\n", f"line 2: round must be in {ROUNDS}, got 0"),
    ("S,2147483648,A,B,2,0\n", f"line 2: round must be in {ROUNDS}, got 2147483648"),
    ("S,1,A,B,-1,0\n", f"line 2: goals must be in 0..{LIMIT}, got -1"),
    ("S,1,A,B,0,-3\n", f"line 2: goals must be in 0..{LIMIT}, got -3"),
    ("S,-1,A,B,-1,0\n", f"line 2: round must be in {ROUNDS}, got -1"),
    ("S,1,A,A,2,0\n", "line 2: 'A' cannot play itself"),
    ("S,1,A,B,2\n", "line 2: expected 6 fields, got 5"),
    ("S,1,A,B,2,0,0\n", "line 2: expected 6 fields, got 7"),
    ("S,1,A,B,2,0\nS,1,A,C,1,1\n", "line 3: team 'A' appears twice in round 1"),
    ("S,1,A,B,2,0\nS,1,C,B,1,1\n", "line 3: team 'B' appears twice in round 1"),
    ("S,1,A,B,2,0\nS,1,B,A,1,1\n", "line 3: team 'B' appears twice in round 1"),
    ("S,1,A,B,2,0\n\nS,2,C,D,0,0\nS,2,D,E,1,1\n", "line 5: team 'D' appears twice in round 2"),
    ("S1,1,A,B,2,0\nS2,2,A,B,0,0\n", "line 3: mixed season ids 'S1' and 'S2'"),
    ("S1,1,A,B,2,0\nS1,1,A,C,0,0\nS2,2,A,B,0,0\n", "line 3: team 'A' appears twice in round 1"),
    ("S1,1,A,B,2,0\nS2,2,A,B,0,0\nS1,1,A,C,0,0\n", "line 3: mixed season ids 'S1' and 'S2'"),
    ("S,1,A,B,2,0\nS,1,A,C,1,1\nS,2,A,B,x,0\n", "line 4: home_goals must be an integer, got 'x'"),
    ("S1,1,A,B,2,0\nS2,2,A,B,0,0\nS1,3,A,A,0,0\n", "line 4: 'A' cannot play itself"),
]


# Records that break several rules at once, and the message of the rule
# checked first: round, home goals, away goals, blank season, blank home
# team, blank away team, then self-play.
MULTI_FAULT = [
    (("S", 0, "A", "A", 2**31, 0), f"round must be in {ROUNDS}, got 0"),
    (("S", 1, "", "B", -1, 0), "goals must be in 0..2147483647, got -1"),
    (("S", 1, "A", " ", 2**31, -1), "goals must be in 0..2147483647, got 2147483648"),
    (("S", 1, "A", "B", 0, -1), "goals must be in 0..2147483647, got -1"),
    (("", 1, "A", "A", 0, 0), "season must not be blank"),
    ((" ", 1, "A", "", 0, 0), "season must not be blank"),
    (("S", 1, " ", " ", 0, 0), "home_team must not be blank"),
]


# The season faults, as (match values, message, line in a file). A file
# with a header and no rows is refused as an empty input before the check.
SEASON_FAULTS = [
    ((), "no matches given", None),
    ([("S1", 1, "A", "B", 2, 0), ("S2", 2, "A", "B", 0, 0)], "mixed season ids 'S1' and 'S2'", 3),
    ([("S", 1, "A", "B", 2, 0), ("S", 1, "C", "A", 1, 1)], "team 'A' appears twice in round 1", 3),
]


class TestRejections:
    @pytest.mark.parametrize(
        ("values", "message", "line"),
        SEASON_FAULTS,
        ids=["no-matches", "mixed-seasons", "twice-in-a-round"],
    )
    def test_every_route_to_a_dataset_runs_the_season_check(self, values, message, line):
        records = [MatchRecord(*v) for v in values]
        # a dataset pickled without its check is checked when loaded
        forged = object.__new__(SeasonDataset)
        vars(forged)["matches"] = tuple(records)
        routes = (
            SeasonDataset,
            lambda m: SeasonDataset(matches=m),
            lambda m: pickle.loads(pickle.dumps(forged)),
        )
        for route in routes:
            with pytest.raises(MatchFileError) as info:
                route(iter(records))
            assert str(info.value) == message
        with pytest.raises(MatchFileError) as parsed:
            parse_text(HEADER + "".join(",".join(map(str, v)) + "\n" for v in values))
        want = "empty input: no match rows" if line is None else f"line {line}: {message}"
        assert str(parsed.value) == want

    @pytest.mark.parametrize(("rows", "message"), REJECTIONS)
    def test_full_message(self, rows, message):
        with pytest.raises(MatchFileError) as info:
            parse_text(HEADER + rows)
        assert str(info.value) == message

    def test_first_bad_field_wins_whatever_the_column_order(self):
        text = "away_goals,home_goals,round,season,home_team,away_team\ny,x,r,S,A,B\n"
        with pytest.raises(MatchFileError) as info:
            parse_text(text)
        assert str(info.value) == "line 2: round must be an integer, got 'r'"
        with pytest.raises(MatchFileError) as info:
            parse_text(text.replace(",r,", ",1,"))
        assert str(info.value) == "line 2: home_goals must be an integer, got 'x'"

    @pytest.mark.parametrize(
        ("row", "message"),
        [
            (f"S,{'9' * 5040},A,B,1,0", f"round must be in {ROUNDS}, got 5040 digits"),
            (f"S,1,A,B,{'9' * 5000},0", f"goals must be in 0..{LIMIT}, got 5000 digits"),
            (f"S,1,A,B,0, -{'9' * 5000}", f"goals must be in 0..{LIMIT}, got 5000 digits"),
            (f"S,1,A,B,0,1_{'0' * 5000}", f"goals must be in 0..{LIMIT}, got 5001 digits"),
            (f"S,1,A,B,0,x{'0' * 5000}", f"away_goals must be an integer, got 'x{'0' * 5000}'"),
        ],
        ids=["round", "home-goals", "away-goals-negative", "underscores", "not-an-integer"],
    )
    def test_an_integer_longer_than_int_reads_breaks_its_range(self, row, message):
        with pytest.raises(MatchFileError) as info:
            parse_text(HEADER + "S,1,C,D,0,0\n" + row + "\n")
        assert str(info.value) == f"line 3: {message}"

    @pytest.mark.parametrize(
        ("row", "field"),
        [(" ,1,A,B,1,0", "season"), ("S,1,,B,1,0", "home_team"), ("S,1,A,  ,1,0", "away_team")],
    )
    def test_blank_names_are_refused(self, row, field):
        with pytest.raises(MatchFileError) as info:
            parse_text(HEADER + "S,1,C,D,0,0\n" + row + "\n")
        assert str(info.value) == f"line 3: {field} must not be blank"

    @pytest.mark.parametrize(
        "values",
        [
            ("S", 0, "A", "B", 0, 0),
            ("S", 2**31, "A", "B", 0, 0),
            ("S", 1, "A", "B", -1, 0),
            ("S", 1, "A", "B", 0, 2**31),
            ("S", 1, "A", "A", 0, 0),
            ("", 1, "A", "B", 0, 0),
            ("S", 1, " ", "B", 0, 0),
            ("S", 1, "A", "", 0, 0),
            *(values for values, _ in MULTI_FAULT),
        ],
    )
    def test_records_in_code_get_the_parser_message(self, values):
        with pytest.raises(ValueError) as in_code:
            MatchRecord(*values)
        with pytest.raises(MatchFileError) as parsed:
            parse_text(HEADER + ",".join(map(str, values)) + "\n")
        assert str(parsed.value) == f"line 2: {in_code.value}"

    @pytest.mark.parametrize(("values", "message"), MULTI_FAULT)
    def test_first_broken_rule_names_the_fault(self, values, message):
        with pytest.raises(ValueError) as info:
            MatchRecord(*values)
        assert str(info.value) == message

    def test_rounds_up_to_the_limit_are_accepted(self):
        assert league.ROUND_LIMIT == 2000
        dataset = parse_text(HEADER + "S,1,A,B,1,0\nS,2000,B,A,0,0\n")
        assert dataset.rounds == 2000
        assert dataset.matches[1] == MatchRecord("S", 2000, "B", "A", 0, 0)
        assert len(standings_series(dataset)) == 2000

    def test_a_round_past_the_limit_is_refused_in_a_file_and_in_code(self):
        message = f"round must be in {ROUNDS}, got 2001"
        with pytest.raises(MatchFileError) as parsed:
            parse_text(HEADER + "S,1,A,B,1,0\nS,2001,B,A,0,0\n")
        assert str(parsed.value) == f"line 3: {message}"
        with pytest.raises(ValueError) as in_code:
            MatchRecord("S", 2001, "B", "A", 0, 0)
        assert str(in_code.value) == message

    def test_leading_bom_is_dropped(self, tmp_path):
        path = tmp_path / "matches.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (HEADER + "S,1,A,B,2,0\n").encode())
        assert parse_matches(path) == parse_text(HEADER + "S,1,A,B,2,0\n")

    def test_leading_bom_is_dropped_from_a_text_stream(self):
        text = HEADER + "S,1,A,B,2,0\n"
        assert parse_matches(io.StringIO("\ufeff" + text)) == parse_text(text)

    def test_a_second_bom_is_refused_from_a_path_and_from_a_stream(self, tmp_path):
        text = "\ufeff\ufeff" + HEADER + "S,1,A,B,2,0\n"
        path = tmp_path / "matches.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MatchFileError) as from_stream:
            parse_matches(io.StringIO(text))
        with pytest.raises(MatchFileError) as from_path:
            parse_matches(path)
        assert str(from_stream.value).startswith("line 1: expected header ")
        assert str(from_path.value) == f"{path}: {from_stream.value}"

    def test_bom_keeps_the_line_of_a_later_decode_error(self, tmp_path):
        path = tmp_path / "matches.csv"
        path.write_bytes(b"\xef\xbb\xbf" + HEADER.encode() + b"S,1,A,B,2,0\nS,2,\xff,B,0,0\n")
        with pytest.raises(MatchFileError) as info:
            parse_matches(path)
        assert str(info.value) == f"{path}: line 3: not valid utf-8: invalid start byte"


class TestStandings:
    def test_single_decisive_match(self):
        dataset = parse_text(HEADER + "S,1,A,B,2,0\n")
        table = standings_at_round(dataset, 1)
        first, second = table.rows
        assert (first.team, first.points, first.goal_difference, first.rank) == ("A", 3, 2, 1)
        assert (second.team, second.points, second.rank) == ("B", 0, 2)

    def test_goals_for_breaks_ties(self):
        # winners A and B share points and gd; A scored more; same among losers
        text = HEADER + "S,1,A,C,3,1\nS,1,B,D,2,0\n"
        table = standings_at_round(parse_text(text), 1)
        assert [row.team for row in table.rows] == ["A", "B", "C", "D"]

    def test_all_draws_fall_back_to_names(self):
        text = HEADER + "S,1,B,A,0,0\nS,1,D,C,1,1\n"
        table = final_standings(parse_text(text))
        assert [row.team for row in table.rows] == ["C", "D", "A", "B"]
        assert [row.rank for row in table.rows] == [1, 2, 3, 4]

    def test_final_equals_last_round(self, synthetic_dataset):
        assert final_standings(synthetic_dataset) == standings_at_round(
            synthetic_dataset, synthetic_dataset.rounds
        )

    def test_series_matches_per_round_computation(self, synthetic_dataset):
        series = standings_series(synthetic_dataset)
        for r in (1, 7, 13, 26):
            assert series[r - 1] == standings_at_round(synthetic_dataset, r)

    def test_round_out_of_range(self, synthetic_dataset):
        with pytest.raises(ValueError):
            standings_at_round(synthetic_dataset, 0)
        with pytest.raises(ValueError):
            standings_at_round(synthetic_dataset, 27)

    def test_bundled_round_one_hand_checked(self, synthetic_dataset):
        # the seven round-1 results imply this exact table (computed by hand)
        table = standings_at_round(synthetic_dataset, 1)
        expected = [
            ("Team05", 3, 4), ("Team12", 3, 4), ("Team09", 3, 3), ("Team13", 3, 3),
            ("Team04", 3, 2), ("Team01", 3, 1), ("Team07", 1, 0), ("Team08", 1, 0),
            ("Team14", 0, -1), ("Team11", 0, -2), ("Team06", 0, -3), ("Team02", 0, -3),
            ("Team03", 0, -4), ("Team10", 0, -4),
        ]
        assert [(r.team, r.points, r.goal_difference) for r in table.rows] == expected


class TestVectors:
    def test_final_order_gives_identity(self, synthetic_dataset):
        final = final_standings(synthetic_dataset)
        order = [row.team for row in final.rows]
        assert ranking_from_orders(order, predicted_order_by_rank(final)) == identity(14)

    def test_gd_sums_to_zero(self, synthetic_dataset):
        for table in standings_series(synthetic_dataset):
            gd = {row.team: row.goal_difference for row in table.rows}
            ordered = [gd[team] for team in predicted_order_by_gd(table)]
            assert sum(ordered) == 0
            assert ordered == sorted(ordered, reverse=True)

    def test_rank_vectors_are_valid_permutations(self, synthetic_dataset):
        for table in standings_series(synthetic_dataset):
            for predict in (predicted_order_by_rank, predicted_order_by_gd):
                ranking = ranking_from_orders(synthetic_dataset.teams, predict(table))
                assert sorted(ranking.places) == list(range(1, 15))

    def test_round_one_rank_vector_hand_checked(self, synthetic_dataset):
        table = standings_at_round(synthetic_dataset, 1)
        # against alphabetical roster order, from the hand-checked table above
        expected = (6, 12, 13, 5, 1, 11, 7, 8, 3, 14, 10, 2, 4, 9)
        ranking = ranking_from_orders(synthetic_dataset.teams, predicted_order_by_rank(table))
        assert ranking.places == expected

    def test_missing_team_errors(self, synthetic_dataset):
        table = final_standings(synthetic_dataset)
        with pytest.raises(ValueError):
            ranking_from_orders(
                ["Nowhere"] + list(synthetic_dataset.teams[1:]), predicted_order_by_rank(table)
            )
        with pytest.raises(DimensionMismatchError):
            ranking_from_orders(list(synthetic_dataset.teams[:2]), predicted_order_by_gd(table))
        with pytest.raises(ValueError):
            ranking_from_orders([synthetic_dataset.teams[0]] * 14, predicted_order_by_rank(table))


class TestInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_conservation_every_round(self, seed):
        dataset = synthetic_season(14, seed=seed)
        for table in standings_series(dataset):
            assert sum(row.goal_difference for row in table.rows) == 0
            assert sum(row.goals_for for row in table.rows) == sum(
                row.goals_against for row in table.rows
            )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_points_accounting_every_round(self, seed):
        dataset = synthetic_season(14, seed=seed)
        for table in standings_series(dataset):
            wins = sum(
                1
                for m in dataset.matches
                if m.round <= table.round and m.home_goals != m.away_goals
            )
            draws = sum(
                1
                for m in dataset.matches
                if m.round <= table.round and m.home_goals == m.away_goals
            )
            assert sum(row.points for row in table.rows) == 3 * wins + 2 * draws
            assert all(row.played == row.won + row.drawn + row.lost for row in table.rows)

    def test_played_and_points_monotone(self):
        dataset = synthetic_season(10, seed=5)
        previous: dict[str, tuple[int, int]] = {}
        for table in standings_series(dataset):
            for row in table.rows:
                played, points = previous.get(row.team, (0, 0))
                assert row.played >= played
                assert row.points >= points
                previous[row.team] = (row.played, row.points)

    def test_partial_round_allows_unequal_played_counts(self):
        # round 2 has a single match: two teams are a game ahead
        text = HEADER + "S,1,A,B,1,0\nS,1,C,D,2,2\nS,2,A,C,0,0\n"
        table = final_standings(parse_text(text))
        played = {row.team: row.played for row in table.rows}
        assert played == {"A": 2, "C": 2, "B": 1, "D": 1}


class TestDeterminismAndRoundTrips:
    def test_reparsing_yields_identical_dataset(self, synthetic_path):
        assert parse_matches(synthetic_path) == parse_matches(synthetic_path)

    def test_bundled_fixture_matches_generator(self, synthetic_dataset):
        assert synthetic_dataset == synthetic_season(14, seed=7, season="synthetic-2016")

    def test_matches_round_trip(self, synthetic_dataset):
        assert parse_text(matches_csv(synthetic_dataset)) == synthetic_dataset


class TestSyntheticSeason:
    def test_every_pair_meets_twice_with_swapped_venue(self):
        dataset = synthetic_season(6, seed=3)
        meetings: dict[frozenset, list[tuple[str, str]]] = {}
        for m in dataset.matches:
            meetings.setdefault(frozenset((m.home_team, m.away_team)), []).append(
                (m.home_team, m.away_team)
            )
        assert all(len(v) == 2 for v in meetings.values())
        assert all(v[0] != v[1] for v in meetings.values())
        assert len(meetings) == comb(6, 2)

    def test_odd_team_count_gets_byes(self):
        dataset = synthetic_season(5, seed=1)
        assert dataset.rounds == 10
        assert len(dataset.matches) == 2 * comb(5, 2)

    def test_seed_controls_content(self):
        assert synthetic_season(8, seed=1) != synthetic_season(8, seed=2)
        assert synthetic_season(8, seed=1) == synthetic_season(8, seed=1)

    def test_rejects_tiny_leagues(self):
        with pytest.raises(ValueError):
            synthetic_season(1)
