"""Match ingestion and round-by-round league standings.

Match files are plain CSV with header
``season,round,home_team,away_team,home_goals,away_goals``, one row per
match. Standings use 3/1/0 points and a fully deterministic ordering:
points desc, goal difference desc, goals for desc, team name asc. The name
fallback makes every table a total order, which downstream code relies on
to build valid permutations.

A dataset is tallied once, when it is built: it carries a ``SeasonFrame``
of cumulative per-team counts and table orders after each round, which
the standings functions, ``predictor.evaluate_season`` and
``regression.r2_curve`` read.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

MATCH_FIELDS = ("season", "round", "home_team", "away_team", "home_goals", "away_goals")
# Rounds and goals stay below this so that they and every cumulative sum
# over a season fit the frame's int64 arrays.
_FIELD_LIMIT = 2**31


class MatchFileError(ValueError):
    """A match file failed validation; the message names the offending line."""


@dataclass(frozen=True)
class MatchRecord:
    season: str
    round: int
    home_team: str
    away_team: str
    home_goals: int
    away_goals: int

    def __post_init__(self) -> None:
        if not 1 <= self.round < _FIELD_LIMIT:
            raise ValueError(f"round must be in 1..{_FIELD_LIMIT - 1}, got {self.round}")
        for goals in (self.home_goals, self.away_goals):
            if not 0 <= goals < _FIELD_LIMIT:
                raise ValueError(f"goals must be in 0..{_FIELD_LIMIT - 1}, got {goals}")
        if self.home_team == self.away_team:
            raise ValueError(f"{self.home_team!r} cannot play itself")


class SeasonFrame:
    """Cumulative per-team tallies of one season, one row per played round.

    Every array has one column per team, in ``SeasonDataset.teams`` order,
    which is name order. Row 0 is the table before any match and row k the
    table after the k-th distinct round number that has a match, so rounds
    without matches share a row and sparse round numbers cost no memory.
    ``order[k]`` lists team columns in table order and ``places[k]`` gives
    each team's place in it (1-based).
    """

    def __init__(self, teams: Sequence[str], matches: Sequence[MatchRecord]) -> None:
        column = {team: i for i, team in enumerate(teams)}
        size = len(matches)

        def ints(values: Iterable[int]) -> np.ndarray:
            return np.fromiter(values, np.int64, size)

        rounds = ints(m.round for m in matches)
        self.played_rounds, round_row = np.unique(rounds, return_inverse=True)
        home = ints(column[m.home_team] for m in matches)
        away = ints(column[m.away_team] for m in matches)
        home_goals = ints(m.home_goals for m in matches)
        away_goals = ints(m.away_goals for m in matches)
        shape = (len(self.played_rounds) + 1, len(teams))
        cells = (np.concatenate([round_row, round_row]) + 1) * shape[1]
        cells += np.concatenate([home, away])
        scored = np.concatenate([home_goals, away_goals])
        conceded = np.concatenate([away_goals, home_goals])

        def cumulative(weights: np.ndarray | None = None) -> np.ndarray:
            per_round = np.bincount(cells, weights, minlength=shape[0] * shape[1])
            return per_round.astype(np.int64).reshape(shape).cumsum(axis=0)

        self.played = cumulative()
        self.won = cumulative(scored > conceded)
        self.drawn = cumulative(scored == conceded)
        self.lost = cumulative(scored < conceded)
        self.gf = cumulative(scored)
        self.ga = cumulative(conceded)
        self.gd = self.gf - self.ga
        self.points = 3 * self.won + self.drawn
        # lexsort is stable and columns are in name order, so equal teams
        # stay in name order
        self.order = np.lexsort((-self.gf, -self.gd, -self.points), axis=-1)
        self.places = np.argsort(self.order, axis=-1) + 1

    def row(self, rounds: Sequence[int] | np.ndarray) -> np.ndarray:
        """The frame rows holding the tables after each of ``rounds``."""
        return np.searchsorted(self.played_rounds, rounds, side="right")

    def by_final_place(self, values: np.ndarray) -> np.ndarray:
        """A frame-shaped array's rows for rounds 1..R, columns in final-table order."""
        rows = self.row(np.arange(1, self.played_rounds[-1] + 1))
        return values[rows][:, self.order[-1]]


@dataclass(frozen=True)
class SeasonDataset:
    season: str
    teams: tuple[str, ...]
    matches: tuple[MatchRecord, ...]
    rounds: int
    _frame: SeasonFrame = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_frame", SeasonFrame(self.teams, self.matches))


@dataclass(frozen=True)
class StandingsRow:
    team: str
    played: int
    won: int
    drawn: int
    lost: int
    goals_for: int
    goals_against: int
    goal_difference: int
    points: int
    rank: int


@dataclass(frozen=True)
class StandingsTable:
    season: str
    round: int
    rows: tuple[StandingsRow, ...]


def build_dataset(matches: Iterable[MatchRecord]) -> SeasonDataset:
    """Assemble and validate a dataset from already-parsed match records."""
    return _assemble(tuple(matches), None)


def _assemble(
    records: tuple[MatchRecord, ...], lines: Sequence[int] | None
) -> SeasonDataset:
    """Check for one season id and one match per team and round; an error
    about ``records[i]`` names ``lines[i]`` when lines are given."""
    if not records:
        raise MatchFileError("no matches given")
    season = records[0].season
    seen: set[tuple[int, str]] = set()
    for i, m in enumerate(records):
        home, away = (m.round, m.home_team), (m.round, m.away_team)
        if m.season != season:
            problem = f"mixed season ids {season!r} and {m.season!r}"
        elif home in seen or away in seen:
            team = m.home_team if home in seen else m.away_team
            problem = f"team {team!r} appears twice in round {m.round}"
        else:
            seen.add(home)
            seen.add(away)
            continue
        raise MatchFileError(problem if lines is None else f"line {lines[i]}: {problem}")
    return SeasonDataset(
        season=season,
        teams=tuple(sorted({team for _, team in seen})),
        matches=records,
        rounds=max(m.round for m in records),
    )


def _parse_int(value: str, name: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _rows(source: IO[str]) -> Iterator[tuple[int, list[str]]]:
    """Each CSV row with its line number; the csv module's errors become
    ``MatchFileError`` naming the line."""
    reader = csv.reader(source)
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise MatchFileError(f"line {reader.line_num}: {exc}") from None


def parse_matches(source: str | Path | IO[str]) -> SeasonDataset:
    """Read and validate a match CSV into a single-season dataset.

    Errors name the line, and the file when ``source`` is a path.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as fh:
            try:
                return parse_matches(fh)
            except ValueError as exc:
                raise MatchFileError(f"{source}: {exc}") from None
    rows = _rows(source)
    try:
        _, header = next(rows)
    except StopIteration:
        raise MatchFileError("empty input: no header row") from None
    header = [h.strip() for h in header]
    if set(header) != set(MATCH_FIELDS) or len(header) != len(MATCH_FIELDS):
        raise MatchFileError(
            f"line 1: expected header {','.join(MATCH_FIELDS)}, got {','.join(header)}"
        )
    col = {name: header.index(name) for name in MATCH_FIELDS}
    matches: list[MatchRecord] = []
    lines: list[int] = []
    for line, row in rows:
        if not row:
            continue
        if len(row) != len(MATCH_FIELDS):
            raise MatchFileError(
                f"line {line}: expected {len(MATCH_FIELDS)} fields, got {len(row)}"
            )
        try:
            record = MatchRecord(
                season=row[col["season"]].strip(),
                round=_parse_int(row[col["round"]], "round"),
                home_team=row[col["home_team"]].strip(),
                away_team=row[col["away_team"]].strip(),
                home_goals=_parse_int(row[col["home_goals"]], "home_goals"),
                away_goals=_parse_int(row[col["away_goals"]], "away_goals"),
            )
        except ValueError as exc:
            raise MatchFileError(f"line {line}: {exc}") from None
        matches.append(record)
        lines.append(line)
    if not matches:
        raise MatchFileError("empty input: no match rows")
    return _assemble(tuple(matches), lines)


def _tables(dataset: SeasonDataset, rounds: Sequence[int]) -> list[StandingsTable]:
    frame = dataset._frame
    rows = frame.row(rounds)
    order = frame.order[rows]
    columns = [order] + [
        np.take_along_axis(c[rows], order, axis=-1)
        for c in (
            frame.played, frame.won, frame.drawn, frame.lost,
            frame.gf, frame.ga, frame.gd, frame.points,
        )
    ]
    return [
        StandingsTable(
            season=dataset.season,
            round=rnd,
            rows=tuple(
                StandingsRow(dataset.teams[team], *counts, rank=rank)
                for rank, (team, *counts) in enumerate(table, start=1)
            ),
        )
        for rnd, table in zip(rounds, np.stack(columns, axis=-1).tolist())
    ]


def standings_series(dataset: SeasonDataset) -> list[StandingsTable]:
    """Standings after each round 1..R."""
    return _tables(dataset, range(1, dataset.rounds + 1))


def standings_at_round(dataset: SeasonDataset, r: int) -> StandingsTable:
    """Table after all matches with round <= r.

    Postponed matches are fine: teams may show unequal played counts.
    """
    if not 1 <= r <= dataset.rounds:
        raise ValueError(f"round must be in 1..{dataset.rounds}, got {r}")
    return _tables(dataset, [r])[0]


def final_standings(dataset: SeasonDataset) -> StandingsTable:
    return standings_at_round(dataset, dataset.rounds)


def synthetic_season(
    n_teams: int = 14, *, seed: int = 0, season: str | None = None
) -> SeasonDataset:
    """A double round-robin season with seeded random scorelines.

    Uses the circle method, so n teams give 2(n-1) rounds and each pair
    meets twice with home advantage swapped. Odd team counts get a bye per
    round. Goal counts are drawn uniformly from 0..4.
    """
    if n_teams < 2:
        raise ValueError(f"need at least 2 teams, got {n_teams}")
    if season is None:
        season = f"synthetic-{n_teams}t-s{seed}"
    teams: list[str | None] = [f"Team{i:02d}" for i in range(1, n_teams + 1)]
    if n_teams % 2:
        teams.append(None)
    half = len(teams) // 2
    rng = random.Random(seed)
    rotation = teams[1:]
    matches: list[MatchRecord] = []
    single_rounds = len(teams) - 1
    for cycle in range(2):
        for k in range(single_rounds):
            rnd = cycle * single_rounds + k + 1
            lineup = [teams[0]] + rotation[k:] + rotation[:k]
            for i in range(half):
                a, b = lineup[i], lineup[-1 - i]
                if a is None or b is None:
                    continue
                home, away = (a, b) if (i + k + cycle) % 2 == 0 else (b, a)
                matches.append(
                    MatchRecord(
                        season=season,
                        round=rnd,
                        home_team=home,
                        away_team=away,
                        home_goals=rng.randint(0, 4),
                        away_goals=rng.randint(0, 4),
                    )
                )
    return build_dataset(matches)
