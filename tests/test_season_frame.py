"""The season frame against a plain dict tally, and one tally per dataset."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tableguess import league, permstats, predictor, regression
from tableguess.league import MatchRecord, StandingsRow, StandingsTable
from conftest import exact_r2


@st.composite
def seasons(draw) -> list[MatchRecord]:
    """Random pairings per round, with postponed matches, empty rounds and
    all-draw rounds; names mix cases so that the name tie-break matters."""
    teams = draw(
        st.lists(st.text("abAB", min_size=1, max_size=3), min_size=2, max_size=24, unique=True)
    )
    matches = []
    for rnd in range(1, draw(st.integers(1, 10)) + 1):
        kind = draw(st.sampled_from(("empty", "draws", "mixed", "mixed")))
        if kind == "empty":
            continue
        lineup = draw(st.permutations(teams))
        for home, away in zip(lineup[::2], lineup[1::2]):
            if draw(st.integers(0, 3)) == 0:  # postponed
                continue
            home_goals = draw(st.integers(0, 4))
            away_goals = home_goals if kind == "draws" else draw(st.integers(0, 4))
            matches.append(MatchRecord("S", rnd, home, away, home_goals, away_goals))
    if not matches:
        matches.append(MatchRecord("S", 1, teams[0], teams[1], 1, 1))
    return matches


def naive_table(matches: list[MatchRecord], upto: int) -> StandingsTable:
    counts: dict[str, dict[str, int]] = {}
    for m in matches:
        for team in (m.home_team, m.away_team):
            counts.setdefault(team, dict.fromkeys(("p", "w", "d", "l", "gf", "ga"), 0))
    for m in matches:
        if m.round > upto:
            continue
        for team, scored, conceded in (
            (m.home_team, m.home_goals, m.away_goals),
            (m.away_team, m.away_goals, m.home_goals),
        ):
            c = counts[team]
            c["p"] += 1
            c["gf"] += scored
            c["ga"] += conceded
            c["w" if scored > conceded else "d" if scored == conceded else "l"] += 1

    def key(team: str):
        c = counts[team]
        return (-(3 * c["w"] + c["d"]), -(c["gf"] - c["ga"]), -c["gf"], team)

    rows = []
    for rank, team in enumerate(sorted(counts, key=key), start=1):
        c = counts[team]
        rows.append(
            StandingsRow(
                team, c["p"], c["w"], c["d"], c["l"], c["gf"], c["ga"],
                c["gf"] - c["ga"], 3 * c["w"] + c["d"], rank,
            )
        )
    return StandingsTable(season="S", round=upto, rows=tuple(rows))


@settings(deadline=None)
@given(seasons())
def test_standings_equal_a_naive_tally(matches):
    dataset = league.SeasonDataset(matches)
    expected = [naive_table(matches, r) for r in range(1, dataset.rounds + 1)]
    series = league.standings_series(dataset)
    assert series == expected
    for r, table in enumerate(expected, start=1):
        assert league.standings_at_round(dataset, r) == table
    assert league.final_standings(dataset) == expected[-1]
    for row in series[-1].rows:
        assert all(type(value) is int for value in vars(row).values() if value != row.team)


def gd_key(row: StandingsRow):
    """The gd order's key, independent of the library's stable sort."""
    return (-row.goal_difference, -row.points, -row.goals_for, row.team)


@settings(deadline=None)
@given(seasons())
def test_evaluate_and_curves_equal_per_table_scoring(matches):
    dataset = league.SeasonDataset(matches)
    tables = [naive_table(matches, r) for r in range(1, dataset.rounds + 1)]
    final_order = [row.team for row in tables[-1].rows]
    n = len(final_order)
    report = predictor.evaluate_season(dataset)
    expected = []
    for table in tables:
        gd_order = tuple(row.team for row in sorted(table.rows, key=gd_key))
        built = league.standings_at_round(dataset, table.round)
        assert predictor.predicted_order_by_gd(built) == gd_order
        for strategy, order in (
            (predictor.STRATEGY_RANK, predictor.predicted_order_by_rank(table)),
            (predictor.STRATEGY_GD, gd_order),
        ):
            ranking = permstats.ranking_from_orders(final_order, order)
            expected.append(
                (table.round, strategy, permstats.mae(ranking), permstats.mse(ranking))
            )
    got = [(r.round, r.strategy, r.mae, r.mse) for r in report.records]
    assert got == expected
    assert report.baseline_expected_mae == Fraction(n * n - 1, 3 * n)
    if n < 3:
        return
    y = list(range(1, n + 1))
    for kind, x_of in (
        (regression.KIND_TABLE_RANK, lambda row: row.rank),
        (regression.KIND_GOAL_DIFFERENCE, lambda row: row.goal_difference),
    ):
        want = []
        for table in tables:
            by_team = {row.team: x_of(row) for row in table.rows}
            x = [by_team[team] for team in final_order]
            # y = 1..n is never constant, so None marks exactly a constant x
            r_squared = exact_r2(x, y)
            assert (r_squared is None) == (len(set(x)) == 1)
            want.append((table.round, r_squared))
        assert regression.r2_curve(dataset, kind).points == tuple(want)


def test_one_tally_serves_evaluate_and_both_curves(monkeypatch, synthetic_path):
    frames = []
    series_calls = []
    frame_class = league.SeasonFrame
    series = league.standings_series

    def counting_frame(*args):
        frames.append(args)
        return frame_class(*args)

    def counting_series(dataset):
        series_calls.append(dataset)
        return series(dataset)

    monkeypatch.setattr(league, "SeasonFrame", counting_frame)
    monkeypatch.setattr(league, "standings_series", counting_series)
    dataset = league.parse_matches(synthetic_path)
    predictor.evaluate_season(dataset)
    for kind in regression.CURVE_KINDS:
        regression.r2_curve(dataset, kind)
    assert len(frames) == 1
    assert series_calls == []


def test_a_round_without_matches_shares_the_row_before_it():
    frame = league.SeasonDataset(
        [MatchRecord("S", 1, "A", "B", 1, 0), MatchRecord("S", 3, "B", "A", 2, 2)]
    )._frame
    lists = (
        frame.played, frame.won, frame.drawn, frame.points, frame.gd, frame.gf,
        frame.order, frame.places, frame.gd_places,
    )
    for rows in lists:
        assert len(rows) == 4
        assert rows[2] is rows[1]
        assert rows[3] is not rows[2]
    assert frame.points[1:] == [[3, 0], [3, 0], [4, 1]]
    assert frame.order[2] == [0, 1]
