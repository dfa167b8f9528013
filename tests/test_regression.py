import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableguess import league
from tableguess.regression import (
    KIND_GOAL_DIFFERENCE,
    KIND_TABLE_RANK,
    R2Curve,
    r2_curve,
    threshold_round,
)
from conftest import exact_r2

IDENTITY_TOL = 1e-12
PREDICTORS = {
    KIND_TABLE_RANK: lambda row: row.rank,
    KIND_GOAL_DIFFERENCE: lambda row: row.goal_difference,
}


def pearson_r2(x, y) -> float:
    return float(np.corrcoef(x, y)[0, 1]) ** 2


class TestExactOracle:
    """``exact_r2`` itself, against hand values and numpy's float correlation."""

    def test_hand_computed_quarter(self):
        # means 2,2; slope 1/2; residuals (-1/2, 1, -1/2); R^2 = 1 - 1.5/2
        assert exact_r2([1, 2, 3], [1, 3, 2]) == 0.25
        assert pearson_r2([1, 2, 3], [1, 3, 2]) == pytest.approx(0.25, abs=IDENTITY_TOL)

    def test_a_line_either_way_is_exactly_one(self):
        y = list(range(1, 11))
        assert exact_r2(y, y) == 1.0
        assert exact_r2(y[::-1], y) == 1.0

    def test_a_constant_side_is_undefined(self):
        assert exact_r2([5, 5, 5], [1, 2, 3]) is None
        assert exact_r2([1, 2, 3], [4, 4, 4]) is None

    def test_matches_squared_pearson_on_random_data(self):
        rng = np.random.default_rng(2718)
        for _ in range(200):
            size = int(rng.integers(10, 31))
            x = rng.normal(size=size)
            y = rng.normal(size=size) + 0.3 * x
            assert abs(exact_r2(x, y) - pearson_r2(x, y)) <= IDENTITY_TOL


@st.composite
def scored_seasons(draw) -> league.SeasonDataset:
    """A synthetic season's fixtures with drawn scorelines, small ones (so
    that ties and all-draw rounds occur) or up to the match-file limit (so
    that the curve's integer sums pass 2**53)."""
    fixtures = league.synthetic_season(draw(st.integers(3, 9)), seed=draw(st.integers(0, 99)))
    goals = st.integers(0, 2) | st.integers(0, 2**31 - 1)
    return league.SeasonDataset(
        [
            league.MatchRecord(
                m.season, m.round, m.home_team, m.away_team, draw(goals), draw(goals)
            )
            for m in fixtures.matches
        ]
    )


class TestCurveAgainstOracles:
    @settings(deadline=None, max_examples=60)
    @given(scored_seasons())
    def test_every_point_is_the_exact_r2_rounded_once(self, dataset):
        tables = league.standings_series(dataset)
        final = {row.team: row.rank for row in tables[-1].rows}
        y = [final[team] for team in dataset.teams]
        for kind, x_of in PREDICTORS.items():
            want = []
            for table in tables:
                by_team = {row.team: x_of(row) for row in table.rows}
                want.append((table.round, exact_r2([by_team[t] for t in dataset.teams], y)))
            assert r2_curve(dataset, kind).points == tuple(want)


class TestR2Curve:
    def test_final_round_rank_curve_is_exactly_one(self, synthetic_dataset):
        curve = r2_curve(synthetic_dataset, KIND_TABLE_RANK)
        assert curve.points[-1] == (26, 1.0)

    def test_flat_fixture_is_one_everywhere(self, flat_dataset):
        curve = r2_curve(flat_dataset, KIND_TABLE_RANK)
        assert [value for _, value in curve.points] == [1.0, 1.0, 1.0]

    def test_all_draw_round_is_undefined_for_gd(self, drawish_dataset):
        curve = r2_curve(drawish_dataset, KIND_GOAL_DIFFERENCE)
        assert curve.points[0] == (1, None)
        assert curve.points[1][1] is not None

    def test_rank_curve_defined_even_in_draw_rounds(self, drawish_dataset):
        curve = r2_curve(drawish_dataset, KIND_TABLE_RANK)
        assert all(value is not None for _, value in curve.points)

    def test_values_stay_in_unit_interval(self, synthetic_dataset):
        for kind in (KIND_TABLE_RANK, KIND_GOAL_DIFFERENCE):
            curve = r2_curve(synthetic_dataset, kind)
            assert curve.season == synthetic_dataset.season
            rounds = [rnd for rnd, _ in curve.points]
            assert rounds == sorted(rounds) == list(range(1, 27))
            for _, value in curve.points:
                if value is not None:
                    assert 0.0 <= value <= 1.0

    def test_unknown_kind(self, synthetic_dataset):
        with pytest.raises(ValueError):
            r2_curve(synthetic_dataset, "points")

    def test_needs_three_teams(self):
        from tableguess.league import parse_matches

        tiny = parse_matches(
            io.StringIO("season,round,home_team,away_team,home_goals,away_goals\nS,1,A,B,1,0\n")
        )
        with pytest.raises(ValueError):
            r2_curve(tiny, KIND_TABLE_RANK)


class TestThresholdRound:
    def test_flat_curve_crosses_immediately(self, flat_dataset):
        curve = r2_curve(flat_dataset, KIND_TABLE_RANK)
        assert threshold_round(curve, 0.8) == 1

    def test_never_crossing_curve(self):
        curve = R2Curve(season="s", kind=KIND_TABLE_RANK, points=((1, 0.1), (2, 0.4)))
        assert threshold_round(curve, 0.8) is None

    def test_undefined_points_are_skipped(self):
        curve = R2Curve(season="s", kind=KIND_GOAL_DIFFERENCE, points=((1, None), (2, 0.9)))
        assert threshold_round(curve, 0.8) == 2

    def test_threshold_validation(self):
        curve = R2Curve(season="s", kind=KIND_TABLE_RANK, points=((1, 1.0),))
        with pytest.raises(ValueError):
            threshold_round(curve, 0.0)
        with pytest.raises(ValueError):
            threshold_round(curve, 1.5)

