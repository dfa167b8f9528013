"""Every record type is a frozen value: compared, hashed, printed and
pickled by its fields, and built only from exactly those fields."""

import io
import pickle
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from tableguess.league import (
    MatchRecord,
    SeasonDataset,
    StandingsRow,
    StandingsTable,
    final_standings,
    parse_matches,
    synthetic_season,
)
from tableguess.permstats import (
    MonteCarloSummary,
    Ranking,
    ScoreDistribution,
    ScoreStats,
    score_stats,
)
from tableguess.predictor import ForecastReport, RoundForecast
from tableguess.regression import R2Curve

MATCH_FIELDS = dict(season="s", round=1, home_team="A", away_team="B", home_goals=2, away_goals=0)
MATCH = MatchRecord(**MATCH_FIELDS)
ROW = StandingsRow(
    team="A",
    played=1,
    won=1,
    drawn=0,
    lost=0,
    goals_for=2,
    goals_against=0,
    goal_difference=2,
    points=3,
    rank=1,
)
FORECAST = RoundForecast(round=1, strategy="gd", mae=Fraction(1, 2), mse=Fraction(1))

# each record class with the keyword arguments of one valid instance
SAMPLES = {
    MatchRecord: MATCH_FIELDS,
    SeasonDataset: dict(matches=(MATCH,)),
    StandingsRow: dict(vars(ROW)),
    StandingsTable: dict(season="s", round=1, rows=(ROW,)),
    Ranking: dict(places=(2, 1, 3)),
    ScoreStats: dict(vars(score_stats(3))),
    ScoreDistribution: dict(n=2, counts={0: 1, 2: 1}),
    MonteCarloSummary: dict(
        n=2,
        samples=2,
        seed=1,
        mean=Fraction(1, 2),
        variance=Fraction(1, 4),
        minimum=Fraction(0),
        maximum=Fraction(1),
    ),
    RoundForecast: dict(vars(FORECAST)),
    ForecastReport: dict(
        season="s",
        n=2,
        baseline_expected_mae=Fraction(1, 2),
        baseline_fraction=0.5,
        records=(FORECAST,),
        threshold_rounds={"rank": 1, "gd": None},
        gd_better_rounds=(),
    ),
    R2Curve: dict(season="s", kind="table_rank", points=((1, 0.25), (2, None))),
}

REPRS = {
    MatchRecord: (
        "MatchRecord(season='s', round=1, home_team='A', away_team='B', "
        "home_goals=2, away_goals=0)"
    ),
    R2Curve: "R2Curve(season='s', kind='table_rank', points=((1, 0.25), (2, None)))",
    SeasonDataset: (
        "SeasonDataset(matches=(MatchRecord(season='s', round=1, home_team='A', "
        "away_team='B', home_goals=2, away_goals=0),))"
    ),
}


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_record_is_a_frozen_value_of_its_fields(cls):
    fields = SAMPLES[cls]
    record, twin = cls(**fields), cls(*fields.values())
    assert record == twin
    values = tuple(getattr(record, name) for name in fields)
    assert values == tuple(fields.values())
    try:
        want = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == want

    # no other class is equal, even with the same fields and values
    other = type(f"Other{cls.__name__}", (cls,), {})
    assert record != other(**fields)
    assert record != values

    if cls in REPRS:
        assert repr(record) == REPRS[cls]
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()
    ) + ")"

    first = next(iter(fields))
    with pytest.raises(FrozenInstanceError):
        setattr(record, first, fields[first])
    with pytest.raises(FrozenInstanceError):
        delattr(record, first)

    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls
    assert copy == record

    with pytest.raises(TypeError):
        cls(**{name: value for name, value in fields.items() if name != first})
    with pytest.raises(TypeError):
        cls(**fields, unknown=None)


def test_a_pickled_dataset_keeps_its_tally():
    dataset = SeasonDataset(**SAMPLES[SeasonDataset])
    assert final_standings(pickle.loads(pickle.dumps(dataset))) == final_standings(dataset)


@pytest.mark.parametrize(
    "dataset",
    [
        SeasonDataset(**SAMPLES[SeasonDataset]),
        synthetic_season(5, seed=1),
        # round 2 has no match, and the file lists round 3 first
        parse_matches(
            io.StringIO(
                "season,round,home_team,away_team,home_goals,away_goals\n"
                "p,3,C,A,0,0\np,1,A,B,1,0\np,1,C,D,0,2\n"
            )
        ),
    ],
    ids=["sample", "synthetic", "sparse-rounds"],
)
def test_season_teams_and_rounds_are_read_from_the_matches(dataset):
    matches = dataset.matches
    teams = {m.home_team for m in matches} | {m.away_team for m in matches}
    for copy in (dataset, pickle.loads(pickle.dumps(dataset))):
        assert copy == dataset
        assert {m.season for m in matches} == {copy.season}
        assert copy.teams == tuple(sorted(teams))
        assert copy.rounds == max(m.round for m in matches)
        assert final_standings(copy).round == copy.rounds


def test_a_dataset_takes_only_its_matches():
    assert SeasonDataset._fields == ("matches",)
    with pytest.raises(TypeError):
        SeasonDataset(season="s", teams=("A", "B"), matches=(MATCH,), rounds=1)
    with pytest.raises(TypeError):
        SeasonDataset((MATCH,), rounds=3)
