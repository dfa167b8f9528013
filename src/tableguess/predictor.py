"""Parsimonious table forecasts and their evaluation against the final table.

Two strategies, both model-free: predict the final table to be the current
table ("rank"), or the teams sorted by current goal difference ("gd"). The
season report scores both at every round against the random-guess baseline
so the early-season gd advantage, when present, is visible rather than
baked in.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter, mul, sub

from . import STRATEGIES, STRATEGY_GD, STRATEGY_RANK, permstats
from ._record import Record
from .league import SeasonDataset, StandingsTable, per_round


def predicted_order_by_rank(table: StandingsTable) -> tuple[str, ...]:
    """Predicted final order = the current table order."""
    return tuple(row.team for row in table.rows)


def predicted_order_by_gd(table: StandingsTable) -> tuple[str, ...]:
    """Predicted final order = teams sorted by goal difference.

    ``table.rows`` are in table order (points, goal difference, goals for,
    then name), as in every table the library builds, so one stable sort by
    goal difference, the frame's rule, breaks its ties in that order.
    """
    rows = sorted(table.rows, key=attrgetter("goal_difference"), reverse=True)
    return tuple(row.team for row in rows)


class RoundForecast(Record):
    round: int
    strategy: str
    mae: Fraction
    mse: Fraction


class ForecastReport(Record):
    """Per-round forecast quality for both strategies over one season.

    ``threshold_rounds`` holds, per strategy, the earliest round whose MAE
    is below ``baseline_fraction`` times the random-guess expectation, exactly.
    ``gd_better_rounds`` lists rounds where gd strictly beats rank.
    """

    season: str
    n: int
    baseline_expected_mae: Fraction
    baseline_fraction: float
    records: tuple[RoundForecast, ...]
    threshold_rounds: dict[str, int | None]
    gd_better_rounds: tuple[int, ...]


def check_baseline_fraction(fraction: float | Fraction, name: str = "baseline fraction") -> float:
    """Refuse a fraction unless it is finite, positive and within a float's
    range, in that order, calling it ``name``; return it as a float."""
    if isinstance(fraction, float) and not math.isfinite(fraction):
        raise ValueError(f"{name} must be finite, got {fraction}")
    if not fraction > 0:
        raise ValueError(f"{name} must be positive, got {fraction}")
    try:
        return float(fraction)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float, got {fraction}") from None


def evaluate_season(
    dataset: SeasonDataset, *, baseline_fraction: float | Fraction = 0.5
) -> ForecastReport:
    """Score both strategies at every round against the final table. The
    threshold compares exact values: a float ``baseline_fraction`` is read
    as its shortest decimal, so 0.8 is 4/5."""
    as_float = check_baseline_fraction(baseline_fraction)
    frame = dataset._frame
    n = len(dataset.teams)
    baseline = permstats.score_stats(n).expected_mae
    exact = str(baseline_fraction) if isinstance(baseline_fraction, float) else baseline_fraction
    cutoff = Fraction(exact) * baseline
    # a round's MAE, abs_sum / n, is below the cutoff exactly when
    # abs_sum * denominator < numerator * n: integers, no Fraction per round
    denominator, scaled_numerator = cutoff.denominator, cutoff.numerator * n
    final = frame.places[-1]
    squares = sum(map(mul, final, final))

    # Per strategy and round, the sums over teams of |place error| and its
    # square: places are permutations of 1..n, so the sum of (p - f)^2 is
    # 2 * (sum of f^2 - sum of p * f). The gd rows order as predicted_order_by_gd.
    def error_sums(row: list[int]) -> tuple[int, int]:
        return sum(map(abs, map(sub, row, final))), 2 * (squares - sum(map(mul, row, final)))

    rows = {STRATEGY_RANK: frame.places, STRATEGY_GD: frame.gd_places}
    sums = {strategy: per_round(rows[strategy], error_sums) for strategy in STRATEGIES}
    records: list[RoundForecast] = []
    threshold_rounds: dict[str, int | None] = {s: None for s in STRATEGIES}
    gd_better: list[int] = []
    for rnd in range(1, dataset.rounds + 1):
        for strategy in STRATEGIES:
            abs_sum, sq_sum = sums[strategy][rnd - 1]
            value = Fraction(abs_sum, n)
            records.append(
                RoundForecast(
                    round=rnd, strategy=strategy, mae=value, mse=Fraction(sq_sum, n)
                )
            )
            if threshold_rounds[strategy] is None and abs_sum * denominator < scaled_numerator:
                threshold_rounds[strategy] = rnd
        if sums[STRATEGY_GD][rnd - 1][0] < sums[STRATEGY_RANK][rnd - 1][0]:
            gd_better.append(rnd)
    return ForecastReport(
        season=dataset.season,
        n=n,
        baseline_expected_mae=baseline,
        baseline_fraction=as_float,
        records=tuple(records),
        threshold_rounds=threshold_rounds,
        gd_better_rounds=tuple(gd_better),
    )

