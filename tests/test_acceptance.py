"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
criterion. Criteria marked with runtime budgets measure wall time inside
the test.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from tableguess import league, permstats, predictor, regression
from tableguess._kernels import mc_score_moments
from tableguess.bundled import MERSON_PREDICTION, PL_FINAL, bundled_path
from tableguess.cli import read_table_file
from tableguess.league import synthetic_season
from tableguess.permstats import (
    brute_force_distribution,
    distribution_moments,
    footrule_score,
    mae,
    monte_carlo_mae,
    ranking_from_orders,
    score_stats,
)
from conftest import matches_csv


def test_c1_merson_golden_fixture():
    """Bundled prediction fixture scores footrule 56 and MAE exactly 2.8."""
    actual = read_table_file(bundled_path(PL_FINAL))
    predicted = read_table_file(bundled_path(MERSON_PREDICTION))
    ranking = ranking_from_orders(actual, predicted)

    assert footrule_score(ranking) == 56
    assert mae(ranking) == Fraction(14, 5) == Fraction("2.8")

    best = min(
        _timed(lambda: (footrule_score(ranking), mae(ranking))) for _ in range(200)
    )
    assert best < 1e-3, f"scoring took {best * 1e3:.3f} ms, budget is 1 ms"


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_c2_closed_forms_equal_enumeration():
    """For n=2..8 the enumerated mean/variance/max/max-count match the
    closed forms exactly, in under 30 seconds."""
    start = time.perf_counter()
    for n in range(2, 9):
        mean, variance, top, top_count = distribution_moments(
            brute_force_distribution(n)
        )
        assert mean == Fraction(n * n - 1, 3)
        assert variance == Fraction((n + 1) * (2 * n * n + 7), 45)
        assert top == n * n // 2
        if n % 2 == 0:
            assert top_count == math.factorial(n // 2) ** 2
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"enumeration took {elapsed:.1f} s, budget is 30 s"


def test_c3_constants_for_twenty_team_league():
    """The n=20 statistics equal their published exact values."""
    stats = score_stats(20)
    assert stats.expected_mae == Fraction(133, 20)
    assert float(stats.expected_mae) == 6.65
    assert stats.max_mae == 10
    assert stats.worst_probability == Fraction(1, 184756)
    assert stats.correct_probability == Fraction(1, 2432902008176640000)


def test_c4_monte_carlo_consistency():
    """1e6 samples at n=20: mean within 3 sigma of 6.65, bit-identical
    across runs, under 10 seconds per run."""
    n, samples, seed = 20, 1_000_000, 42
    variance_mae = Fraction(21 * 807, 45 * 400)
    assert score_stats(n).variance_mae == variance_mae
    tolerance = 3.0 * math.sqrt(float(variance_mae) / samples)

    start = time.perf_counter()
    first = monte_carlo_mae(n, samples, seed)
    elapsed = time.perf_counter() - start
    second = monte_carlo_mae(n, samples, seed)

    assert abs(float(first.mean) - 6.65) <= tolerance
    assert first == second, "same seed must reproduce bit-identical summaries"
    assert mc_score_moments(n, samples, seed) == (132992568, 18063448160, 42, 200)
    assert elapsed < 10.0, f"sampling took {elapsed:.1f} s, budget is 10 s"


def test_c5_regression_identities():
    """On 20 random seasons every defined point of both R^2 curves equals the
    squared Pearson correlation of that round's predictor with the final
    places, multiplying every goal by k leaves both curves exactly as they
    are, and the final-round rank curve hits exactly 1."""
    predictors = {
        regression.KIND_TABLE_RANK: lambda row: row.rank,
        regression.KIND_GOAL_DIFFERENCE: lambda row: row.goal_difference,
    }
    for seed in range(20):
        dataset = synthetic_season(14, seed=seed)
        tables = league.standings_series(dataset)
        final = {row.team: row.rank for row in tables[-1].rows}
        y = [final[team] for team in dataset.teams]
        curves = {kind: regression.r2_curve(dataset, kind) for kind in predictors}
        for kind, x_of in predictors.items():
            for table, (rnd, value) in zip(tables, curves[kind].points, strict=True):
                assert rnd == table.round
                by_team = {row.team: x_of(row) for row in table.rows}
                x = [by_team[team] for team in dataset.teams]
                if len(set(x)) == 1:
                    assert value is None
                    continue
                pearson = float(np.corrcoef(x, y)[0, 1])
                assert abs(value - pearson * pearson) <= 1e-12
        assert curves[regression.KIND_TABLE_RANK].points[-1][1] == 1.0

        for k in (2, 3, 7):
            scaled = league.SeasonDataset(
                [
                    league.MatchRecord(
                        m.season, m.round, m.home_team, m.away_team,
                        k * m.home_goals, k * m.away_goals,
                    )
                    for m in dataset.matches
                ]
            )
            for kind, curve in curves.items():
                assert regression.r2_curve(scaled, kind).points == curve.points


def test_c6_standings_invariants_on_random_seasons():
    """100 random double round-robin seasons: conservation, points
    accounting, valid permutations, replay determinism."""
    import io

    for seed in range(100):
        dataset = synthetic_season(14, seed=seed)
        decisive = 0
        drawn = 0
        by_round: dict[int, list] = {}
        for m in dataset.matches:
            by_round.setdefault(m.round, []).append(m)
        for table in league.standings_series(dataset):
            for m in by_round.get(table.round, ()):
                if m.home_goals == m.away_goals:
                    drawn += 1
                else:
                    decisive += 1
            assert sum(row.goal_difference for row in table.rows) == 0
            assert sum(row.points for row in table.rows) == 3 * decisive + 2 * drawn
            ranking = permstats.ranking_from_orders(
                dataset.teams, predictor.predicted_order_by_rank(table)
            )
            assert sorted(ranking.places) == list(range(1, 15))

        text = matches_csv(dataset)
        replays = [
            league.final_standings(league.parse_matches(io.StringIO(text)))
            for _ in range(2)
        ]
        assert replays[0] == replays[1] == league.final_standings(dataset)


def test_c7_predictor_contract():
    """Rank strategy is exact on final tables, n*MAE is always even, and a
    uniform random strategy averages E[MAE] = 65/14 within 3 sigma."""
    for seed in range(5):
        dataset = synthetic_season(14, seed=seed)
        report = predictor.evaluate_season(dataset)
        final_rank = [
            rec
            for rec in report.records
            if rec.round == dataset.rounds and rec.strategy == predictor.STRATEGY_RANK
        ]
        assert final_rank[0].mae == 0
        for rec in report.records:
            scaled = rec.mae * report.n
            assert scaled.denominator == 1 and scaled.numerator % 2 == 0

    stats = score_stats(14)
    assert stats.expected_mae == Fraction(65, 14)
    control = monte_carlo_mae(14, samples=1000, seed=2024)
    tolerance = 3.0 * math.sqrt(float(stats.variance_mae) / 1000)
    assert abs(float(control.mean) - float(stats.expected_mae)) <= tolerance


def test_c8_real_data_smoke():
    """Headline claims about real seasons need real archive data, which is
    not bundled. Point TABLEGUESS_MATCHES at a match CSV (schema in the
    README) to run the full pipeline against it."""
    path = os.environ.get("TABLEGUESS_MATCHES")
    if not path:
        pytest.skip(
            "set TABLEGUESS_MATCHES=/path/to/matches.csv to smoke-test real data"
        )
    dataset = league.parse_matches(path)
    curves = {
        kind: regression.r2_curve(dataset, kind) for kind in regression.CURVE_KINDS
    }
    for curve in curves.values():
        for _, value in curve.points:
            if value is not None:
                assert 0.0 <= value <= 1.0
    assert curves[regression.KIND_TABLE_RANK].points[-1][1] == 1.0
    report = predictor.evaluate_season(dataset)
    assert all(rec.mae <= score_stats(report.n).max_mae for rec in report.records)
    for kind, curve in curves.items():
        crossing = regression.threshold_round(curve, 0.8)
        if crossing is None:
            print(f"{kind}: never reaches 0.8")
        else:
            print(f"{kind}: reaches 0.8 at round {crossing}")


def test_c9_sparse_season_scores_each_table_once():
    """1000 teams, a full round 1 and one match in round 2000: rounds 2..1999
    share round 1's table, so evaluate_season takes under 0.1 s and each
    r2_curve under 0.02 s, best of 3."""
    teams = [f"T{i:04d}" for i in range(1000)]
    matches = [
        league.MatchRecord("sparse", 1, teams[i], teams[i + 1], i % 3, i % 2)
        for i in range(0, 1000, 2)
    ]
    matches.append(league.MatchRecord("sparse", 2000, teams[0], teams[3], 2, 0))
    dataset = league.SeasonDataset(matches)
    assert dataset.rounds == 2000

    best = min(_timed(lambda: predictor.evaluate_season(dataset)) for _ in range(3))
    assert best < 0.1, f"evaluate_season took {best * 1e3:.1f} ms, budget is 100 ms"
    for kind in regression.CURVE_KINDS:
        best = min(_timed(lambda: regression.r2_curve(dataset, kind)) for _ in range(3))
        assert best < 0.02, f"r2_curve({kind!r}) took {best * 1e3:.1f} ms, budget is 20 ms"
