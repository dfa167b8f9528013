import io
import math
from fractions import Fraction

import pytest

from tableguess import league, permstats, predictor
from tableguess.league import StandingsRow, StandingsTable, final_standings, standings_series
from tableguess.predictor import (
    STRATEGY_GD,
    STRATEGY_RANK,
    evaluate_season,
    predicted_order_by_gd,
    predicted_order_by_rank,
)
from tableguess.cli import report_summary


def make_table(rows: list[tuple[str, int, int, int]]) -> StandingsTable:
    """Rows as (team, points, goal_difference, goals_for), already ordered."""
    built = []
    for rank, (team, points, gd, gf) in enumerate(rows, start=1):
        won, drawn = divmod(points, 3)
        built.append(
            StandingsRow(
                team=team,
                played=won + drawn,
                won=won,
                drawn=drawn,
                lost=0,
                goals_for=gf,
                goals_against=gf - gd,
                goal_difference=gd,
                points=points,
                rank=rank,
            )
        )
    return StandingsTable(season="manual", round=1, rows=tuple(built))


class TestRankStrategy:
    def test_prediction_is_the_current_order(self, synthetic_dataset):
        table = league.standings_at_round(synthetic_dataset, 5)
        assert predicted_order_by_rank(table) == tuple(row.team for row in table.rows)

    def test_final_table_predicts_itself(self, synthetic_dataset):
        final = final_standings(synthetic_dataset)
        order = [row.team for row in final.rows]
        ranking = permstats.ranking_from_orders(order, predicted_order_by_rank(final))
        assert ranking == permstats.identity(14)
        assert permstats.mae(ranking) == 0

    def test_round_one_prediction_hand_checked(self, synthetic_dataset):
        # round-1 leaders Team05/Team12 predicted 1st/2nd (hand-checked table)
        table = league.standings_at_round(synthetic_dataset, 1)
        order = predicted_order_by_rank(table)
        assert order[:4] == ("Team05", "Team12", "Team09", "Team13")

    def test_all_draws_predict_alphabetically(self):
        text = (
            "season,round,home_team,away_team,home_goals,away_goals\n"
            "S,1,B,A,0,0\nS,1,D,C,0,0\n"
        )
        table = final_standings(league.parse_matches(io.StringIO(text)))
        assert predicted_order_by_rank(table) == ("A", "B", "C", "D")


class TestGdStrategy:
    def test_agrees_with_rank_when_gd_is_aligned(self, flat_dataset):
        table = final_standings(flat_dataset)
        assert predicted_order_by_gd(table) == predicted_order_by_rank(table)

    def test_gd_outranks_points(self):
        table = make_table([("B", 9, 2, 5), ("A", 4, 5, 8), ("C", 1, -7, 1)])
        assert predicted_order_by_gd(table) == ("A", "B", "C")

    def test_matches_independent_sort(self, synthetic_dataset):
        table = league.standings_at_round(synthetic_dataset, 3)
        rows = sorted(
            table.rows,
            key=lambda r: (-r.goal_difference, -r.points, -r.goals_for, r.team),
        )
        assert predicted_order_by_gd(table) == tuple(r.team for r in rows)

    def test_rankings_are_bijections(self, synthetic_dataset):
        final_order = [row.team for row in final_standings(synthetic_dataset).rows]
        for table in standings_series(synthetic_dataset):
            for predict in (predicted_order_by_rank, predicted_order_by_gd):
                ranking = permstats.ranking_from_orders(final_order, predict(table))
                assert sorted(ranking.places) == list(range(1, 15))


class TestEvaluateSeason:
    def test_odd_league_enumerates_nothing(self, enumerated_sizes):
        report = evaluate_season(league.synthetic_season(9))
        assert report.n == 9
        assert enumerated_sizes == []

    def test_final_round_rank_mae_is_zero(self, synthetic_dataset):
        report = evaluate_season(synthetic_dataset)
        last_rank = [
            rec
            for rec in report.records
            if rec.round == synthetic_dataset.rounds and rec.strategy == STRATEGY_RANK
        ]
        assert len(last_rank) == 1
        assert last_rank[0].mae == 0

    def test_mae_respects_the_worst_case_bound(self, synthetic_dataset):
        report = evaluate_season(synthetic_dataset)
        bound = permstats.score_stats(14).max_mae
        assert all(0 <= rec.mae <= bound for rec in report.records)

    def test_scaled_mae_is_an_even_integer(self, synthetic_dataset):
        report = evaluate_season(synthetic_dataset)
        for rec in report.records:
            scaled = rec.mae * report.n
            assert scaled.denominator == 1
            assert scaled.numerator % 2 == 0

    def test_baseline_matches_closed_form(self, synthetic_dataset):
        report = evaluate_season(synthetic_dataset)
        assert report.baseline_expected_mae == Fraction(65, 14)

    def test_every_round_scores_both_strategies(self, synthetic_dataset):
        report = evaluate_season(synthetic_dataset)
        assert len(report.records) == 2 * synthetic_dataset.rounds
        seen = {(rec.round, rec.strategy) for rec in report.records}
        assert len(seen) == len(report.records)

    def test_gd_better_rounds_are_consistent(self, synthetic_dataset):
        report = evaluate_season(synthetic_dataset)
        by_key = {(rec.round, rec.strategy): rec.mae for rec in report.records}
        for rnd in range(1, synthetic_dataset.rounds + 1):
            gd_wins = by_key[(rnd, STRATEGY_GD)] < by_key[(rnd, STRATEGY_RANK)]
            assert (rnd in report.gd_better_rounds) == gd_wins

    def test_threshold_round_definition(self, synthetic_dataset):
        report = evaluate_season(synthetic_dataset, baseline_fraction=Fraction(1, 2))
        cutoff = report.baseline_expected_mae / 2
        by_key = {(rec.round, rec.strategy): rec.mae for rec in report.records}
        for strategy, crossing in report.threshold_rounds.items():
            if crossing is None:
                assert all(
                    by_key[(rnd, strategy)] >= cutoff
                    for rnd in range(1, synthetic_dataset.rounds + 1)
                )
            else:
                assert by_key[(crossing, strategy)] < cutoff
                assert all(by_key[(rnd, strategy)] >= cutoff for rnd in range(1, crossing))

    @pytest.mark.parametrize(
        "fraction, rounds",
        [
            # round 1's MAE of 26/7 equals 0.8 x 65/14
            (0.8, {"rank": 6, "gd": 5}),
            # gd's MAE at rounds 19 and 20 is 13/7, equal to 0.4 x 65/14
            (0.4, {"rank": 20, "gd": 21}),
        ],
    )
    def test_a_float_fraction_is_read_as_its_decimal(
        self, synthetic_dataset, fraction, rounds
    ):
        report = evaluate_season(synthetic_dataset, baseline_fraction=fraction)
        assert report.threshold_rounds == rounds
        assert report.baseline_fraction == fraction

    def test_deterministic(self, synthetic_dataset):
        assert evaluate_season(synthetic_dataset) == evaluate_season(synthetic_dataset)

    def test_bad_fraction(self, synthetic_dataset):
        with pytest.raises(ValueError):
            evaluate_season(synthetic_dataset, baseline_fraction=0.0)
        with pytest.raises(ValueError, match="must be finite, got inf"):
            evaluate_season(synthetic_dataset, baseline_fraction=math.inf)

    @pytest.mark.parametrize(
        "fraction", [10**400, Fraction(10**400, 3)], ids=["int", "fraction"]
    )
    def test_a_fraction_too_large_for_a_float_is_refused(self, synthetic_dataset, fraction):
        with pytest.raises(ValueError, match=f"too large for a float, got {fraction}"):
            evaluate_season(synthetic_dataset, baseline_fraction=fraction)

    def test_random_guess_control_matches_expectation(self):
        # a strategy that guesses uniformly at random should average E[MAE]
        stats = permstats.score_stats(14)
        summary = permstats.monte_carlo_mae(14, samples=1000, seed=2024)
        tolerance = 3 * math.sqrt(float(stats.variance_mae) / 1000)
        assert abs(float(summary.mean) - float(stats.expected_mae)) <= tolerance


class TestReportSerialisation:
    def test_summary_shape(self, synthetic_dataset):
        summary = report_summary(evaluate_season(synthetic_dataset))
        assert summary["n"] == 14
        assert summary["baseline_expected_mae"]["exact"] == "65/14"
        assert set(summary["threshold_rounds"]) == {STRATEGY_RANK, STRATEGY_GD}
        assert isinstance(summary["gd_better_rounds"], list)
