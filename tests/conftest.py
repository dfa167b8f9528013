import csv
import importlib.util
import io
from fractions import Fraction
from pathlib import Path

import pytest

from tableguess import _kernels, league
from tableguess.bundled import (
    MERSON_PREDICTION,
    PL_FINAL,
    SYNTHETIC_SEASON,
    bundled_path,
)
from tableguess.cli import read_table_file
from tableguess.permstats import Ranking, ranking_from_orders

# tools/transcripts.py: it stages the transcripts' inputs and runs a CLI command among them
_TOOL = Path(__file__).resolve().parents[1] / "tools" / "transcripts.py"
_spec = importlib.util.spec_from_file_location("transcripts", _TOOL)
transcripts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(transcripts)

# Deviations column of the 2016/17 PL prediction fixture: predicted place of
# the team that finished i-th.
MERSON_PLACES = (1, 6, 2, 5, 4, 3, 8, 9, 18, 17, 7, 11, 10, 12, 15, 20, 16, 19, 13, 14)

# round-robin fixture where the table after every round equals the final table
FLAT_SEASON_CSV = """\
season,round,home_team,away_team,home_goals,away_goals
flat,1,A,D,3,0
flat,1,B,C,1,0
flat,2,A,C,2,0
flat,2,B,D,1,0
flat,3,A,B,1,0
flat,3,C,D,1,0
"""

# opening round is all draws, so goal difference is degenerate at round 1
DRAWISH_SEASON_CSV = """\
season,round,home_team,away_team,home_goals,away_goals
drawish,1,A,B,0,0
drawish,1,C,D,0,0
drawish,2,A,C,1,0
drawish,2,B,D,2,0
"""


def matches_csv(dataset: league.SeasonDataset) -> str:
    """A match file holding the dataset's matches."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(league.MATCH_FIELDS)
    for m in dataset.matches:
        writer.writerow(
            [m.season, m.round, m.home_team, m.away_team, m.home_goals, m.away_goals]
        )
    return buffer.getvalue()


def exact_r2(x, y) -> float | None:
    """The squared Pearson correlation of x and y, from Fraction sums of
    deviations from the means, rounded once; None when x or y is constant.

    The oracle for ``regression.r2_curve``: it imports nothing from that
    module, and it sums deviations where the module sums raw products.
    """
    xs, ys = [Fraction(v) for v in x], [Fraction(v) for v in y]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    dx = [v - mean_x for v in xs]
    dy = [v - mean_y for v in ys]
    sxx, syy = sum(d * d for d in dx), sum(d * d for d in dy)
    if not sxx or not syy:
        return None
    sxy = sum(a * b for a, b in zip(dx, dy))
    return float(sxy * sxy / (sxx * syy))


def read_records(text: str, fields: tuple[str, ...], **convert) -> list[dict]:
    """The rows of CSV output with header ``fields``, the named columns converted."""
    reader = csv.DictReader(io.StringIO(text))
    assert tuple(reader.fieldnames) == fields
    return [{k: convert.get(k, str)(v) for k, v in rec.items()} for rec in reader]


def report_rows(text: str) -> list[dict]:
    """``evaluate`` CSV output as the dicts of ``cli.report_records``."""
    return read_records(
        text, ("season", "round", "strategy", "mae", "mse"), round=int, mae=float, mse=float
    )


def curve_rows(text: str) -> list[dict]:
    """``r2`` CSV output as the dicts of ``cli.curve_records``."""
    return read_records(
        text,
        ("season", "kind", "round", "r_squared"),
        round=int,
        r_squared=lambda v: float(v) if v else None,
    )


@pytest.fixture(scope="session")
def staged(tmp_path_factory) -> Path:
    """A directory staged as the transcripts' commands see it; each command
    run through ``transcripts.transcript`` leaves it as it was."""
    directory = tmp_path_factory.mktemp("transcripts")
    transcripts.stage(directory)
    return directory


@pytest.fixture
def merson_ranking() -> Ranking:
    return Ranking(MERSON_PLACES)


@pytest.fixture
def merson_files() -> tuple[str, str]:
    return str(bundled_path(MERSON_PREDICTION)), str(bundled_path(PL_FINAL))


@pytest.fixture
def merson_from_files(merson_files) -> Ranking:
    pred_path, actual_path = merson_files
    return ranking_from_orders(read_table_file(actual_path), read_table_file(pred_path))


@pytest.fixture
def synthetic_path() -> str:
    return str(bundled_path(SYNTHETIC_SEASON))


@pytest.fixture
def synthetic_dataset(synthetic_path) -> league.SeasonDataset:
    return league.parse_matches(synthetic_path)


@pytest.fixture
def flat_dataset() -> league.SeasonDataset:
    return league.parse_matches(io.StringIO(FLAT_SEASON_CSV))


@pytest.fixture
def drawish_dataset() -> league.SeasonDataset:
    return league.parse_matches(io.StringIO(DRAWISH_SEASON_CSV))


@pytest.fixture
def enumerated_sizes(monkeypatch) -> list[int]:
    """League sizes passed to the enumeration kernel while the test runs."""
    sizes: list[int] = []
    counts = _kernels.score_distribution_counts

    def spy(n: int):
        sizes.append(n)
        return counts(n)

    monkeypatch.setattr(_kernels, "score_distribution_counts", spy)
    return sizes
