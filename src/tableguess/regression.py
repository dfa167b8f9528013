"""Simple OLS and the per-round explanatory-power curves.

For each round r the final table position is regressed on a round-r
predictor (current table rank or goal difference) and the R-squared values
form a curve over rounds. Rounds with a constant predictor (for instance
goal difference when every match so far was drawn) carry None instead of a
number.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .league import SeasonDataset

KIND_TABLE_RANK = "table_rank"
KIND_GOAL_DIFFERENCE = "goal_difference"
CURVE_KINDS = (KIND_TABLE_RANK, KIND_GOAL_DIFFERENCE)
CURVE_FIELDS = ("season", "kind", "round", "r_squared")

# overshoot beyond this is a genuine numerical bug, not rounding
_CLAMP_EPS = 1e-12


class DegeneratePredictorError(ValueError):
    """The predictor has zero variance, so no slope can be fitted."""


@dataclass(frozen=True)
class OlsFit:
    beta0: float
    beta1: float
    r_squared: float | None
    n_points: int


@dataclass(frozen=True)
class R2Curve:
    season: str
    kind: str
    points: tuple[tuple[int, float | None], ...]


def simple_ols(x: Sequence[float], y: Sequence[float]) -> OlsFit:
    """Least-squares line y = beta0 + beta1 * x with R-squared.

    R-squared is 1 - SSres/SStot from the actual residuals (not the
    correlation shortcut), and is None when y is constant (SStot = 0).
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1 or xa.size != ya.size:
        raise ValueError("x and y must be equal-length 1-d sequences")
    if xa.size < 3:
        raise ValueError(f"need at least 3 points, got {xa.size}")
    xm = xa.mean()
    ym = ya.mean()
    dx = xa - xm
    dy = ya - ym
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise DegeneratePredictorError("predictor has zero variance")
    beta1 = float(dx @ dy) / sxx
    beta0 = float(ym - beta1 * xm)
    ss_tot = float(dy @ dy)
    if ss_tot == 0.0:
        return OlsFit(beta0=beta0, beta1=beta1, r_squared=None, n_points=xa.size)
    residuals = ya - (beta0 + beta1 * xa)
    r_squared = 1.0 - float(residuals @ residuals) / ss_tot
    if not 0.0 <= r_squared <= 1.0:
        if -_CLAMP_EPS <= r_squared < 0.0:
            r_squared = 0.0
        elif 1.0 < r_squared <= 1.0 + _CLAMP_EPS:
            r_squared = 1.0
        else:
            raise ValueError(f"R-squared {r_squared!r} is outside [0,1]")
    return OlsFit(beta0=beta0, beta1=beta1, r_squared=r_squared, n_points=xa.size)


def r2_curve(dataset: SeasonDataset, kind: str) -> R2Curve:
    """R-squared of the round-r predictor against the final table, per round."""
    if kind not in CURVE_KINDS:
        raise ValueError(f"kind must be one of {CURVE_KINDS}, got {kind!r}")
    if len(dataset.teams) < 3:
        raise ValueError("need at least 3 teams to fit per-round regressions")
    frame = dataset._frame
    values = frame.places if kind == KIND_TABLE_RANK else frame.gd
    xs = frame.by_final_place(values).astype(np.float64)
    y = [float(i) for i in range(1, len(dataset.teams) + 1)]
    points: list[tuple[int, float | None]] = []
    for rnd, x in enumerate(xs, start=1):
        try:
            fit = simple_ols(x, y)
        except DegeneratePredictorError:
            points.append((rnd, None))
        else:
            points.append((rnd, fit.r_squared))
    return R2Curve(season=dataset.season, kind=kind, points=tuple(points))


def threshold_round(curve: R2Curve, threshold: float) -> int | None:
    """First round whose defined R-squared reaches the threshold, if any."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    for rnd, value in curve.points:
        if value is not None and value >= threshold:
            return rnd
    return None


def curve_records(curves: Iterable[R2Curve]) -> list[dict]:
    return [
        {"season": c.season, "kind": c.kind, "round": rnd, "r_squared": value}
        for c in curves
        for rnd, value in c.points
    ]


def curves_to_csv(curves: Iterable[R2Curve], fh: IO[str]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CURVE_FIELDS)
    for rec in curve_records(curves):
        value = rec["r_squared"]
        writer.writerow(
            [rec["season"], rec["kind"], rec["round"], "" if value is None else repr(value)]
        )
