"""Simple OLS and the per-round explanatory-power curves.

For each round r the final table position is regressed on a round-r
predictor (current table rank or goal difference) and the R-squared values
form a curve over rounds. Rounds with a constant predictor (for instance
goal difference when every match so far was drawn) carry None instead of a
number.
"""

from __future__ import annotations

from operator import index, mul
from typing import Iterable

from ._record import Record
from .league import SeasonDataset, per_round

KIND_TABLE_RANK = "table_rank"
KIND_GOAL_DIFFERENCE = "goal_difference"
CURVE_KINDS = (KIND_TABLE_RANK, KIND_GOAL_DIFFERENCE)


class DegeneratePredictorError(ValueError):
    """The predictor has zero variance, so no slope can be fitted."""


class OlsFit(Record):
    beta0: float
    beta1: float
    r_squared: float | None
    n_points: int


class R2Curve(Record):
    season: str
    kind: str
    points: tuple[tuple[int, float | None], ...]


def _r_squared(cxy: int, cxx: int, cyy: int) -> float | None:
    """R-squared cxy^2 / (cxx * cyy) from the centred integer sums
    c_uv = n * sum(u * v) - sum(u) * sum(v), rounded once.

    It is exact before that rounding, so it always lies in [0, 1]. It is
    None when x or y is constant (cxx or cyy = 0).
    """
    return cxy * cxy / (cxx * cyy) if cxx and cyy else None


def _scaled(values: Iterable, name: str) -> tuple[list[int], int]:
    """``values`` as integers over one common denominator, and that denominator.

    Integers stay as they are. Anything else is read as a float, whose
    integer ratio has a power-of-two denominator, so the largest one is
    common to all.
    """
    ratios = []
    try:
        for value in values:
            try:
                ratios.append((index(value), 1))
            except TypeError:
                ratios.append(float(value).as_integer_ratio())
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a 1-d sequence of finite numbers") from None
    scale = max((q for _, q in ratios), default=1)
    return [p * (scale // q) for p, q in ratios], scale


def simple_ols(x: Iterable[float], y: Iterable[float]) -> OlsFit:
    """Least-squares line y = beta0 + beta1 * x with R-squared.

    The fit is computed exactly from the inputs' integer ratios and each
    of beta0, beta1 and R-squared is rounded once. R-squared is None when
    y is constant.
    """
    xs, x_scale = _scaled(x, "x")
    ys, y_scale = _scaled(y, "y")
    n = len(xs)
    if n != len(ys):
        raise ValueError("x and y must be equal-length 1-d sequences")
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    sx, sy = sum(xs), sum(ys)
    cxx = n * sum(map(mul, xs, xs)) - sx * sx
    if cxx == 0:
        raise DegeneratePredictorError("predictor has zero variance")
    cxy = n * sum(map(mul, xs, ys)) - sx * sy
    cyy = n * sum(map(mul, ys, ys)) - sy * sy
    return OlsFit(
        beta0=(sy * cxx - cxy * sx) / (n * cxx * y_scale),
        beta1=cxy * x_scale / (cxx * y_scale),
        r_squared=_r_squared(cxy, cxx, cyy),
        n_points=n,
    )


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
        sx = sum(x)
        cxx = n * sum(map(mul, x, x)) - sx * sx
        return _r_squared(n * sum(map(mul, x, y)) - sx * sy, cxx, cyy)

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

