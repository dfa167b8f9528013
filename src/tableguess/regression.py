"""The per-round explanatory-power curves.

For each round r the final table position is regressed on a round-r
predictor (current table rank or goal difference), and the R-squared
values, each exact until its one rounding, form a curve over rounds. Rounds
with a constant predictor (for instance goal difference when every match so
far was drawn) carry None instead of a number.
"""

from __future__ import annotations

from operator import mul

from ._record import Record
from .league import SeasonDataset, per_round

KIND_TABLE_RANK = "table_rank"
KIND_GOAL_DIFFERENCE = "goal_difference"
CURVE_KINDS = (KIND_TABLE_RANK, KIND_GOAL_DIFFERENCE)


class R2Curve(Record):
    season: str
    kind: str
    points: tuple[tuple[int, float | None], ...]


def r2_curve(dataset: SeasonDataset, kind: str) -> R2Curve:
    """R-squared of the round-r predictor against the final table, per round."""
    if kind not in CURVE_KINDS:
        raise ValueError(f"kind must be one of {CURVE_KINDS}, got {kind!r}")
    n = len(dataset.teams)
    if n < 3:
        raise ValueError("need at least 3 teams to fit per-round regressions")
    frame = dataset._frame
    # x and y hold one entry per team in the frame's column order; the sums
    # do not depend on that order
    y = frame.places[-1]
    sy = sum(y)
    cyy = n * sum(map(mul, y, y)) - sy * sy

    def r_squared(x: list[int]) -> float | None:
        # cxy^2 / (cxx * cyy) of the centred sums c_uv = n * sum(u * v) - sum(u) * sum(v)
        # lies in [0, 1]; y is 1..n, so cyy > 0 and only a constant x leaves it undefined
        sx = sum(x)
        cxx = n * sum(map(mul, x, x)) - sx * sx
        cxy = n * sum(map(mul, x, y)) - sx * sy
        return cxy * cxy / (cxx * cyy) if cxx else None

    values = per_round(frame.places if kind == KIND_TABLE_RANK else frame.gd, r_squared)
    return R2Curve(season=dataset.season, kind=kind, points=tuple(enumerate(values, start=1)))


def check_threshold(threshold: float, name: str = "threshold") -> None:
    """Refuse a threshold outside (0, 1], or nan, calling it ``name``."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"{name} must be within (0, 1], got {threshold}")


def threshold_round(curve: R2Curve, threshold: float) -> int | None:
    """First round whose defined R-squared reaches the threshold, if any."""
    check_threshold(threshold)
    for rnd, value in curve.points:
        if value is not None and value >= threshold:
            return rnd
    return None

