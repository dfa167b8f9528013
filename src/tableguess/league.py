"""Match ingestion and round-by-round league standings.

Match files are plain CSV with header
``season,round,home_team,away_team,home_goals,away_goals``, one row per
match. Standings use 3/1/0 points and a fully deterministic ordering:
points desc, goal difference desc, goals for desc, team name asc. The name
fallback makes every table a total order, which downstream code relies on
to build valid permutations.

A match file is parsed in one pass, and a path and a stream take one
route: the whole text is read, one leading UTF-8 byte order mark is
dropped, and one ``csv.reader`` reads it, so a line ends only at ``\n``,
``\r\n`` or ``\r``. Each CSV row is read once: its three integers are
converted in one step, its record is filled in place of being built by
``__init__``, and the one check that ``MatchRecord`` also runs is applied
to it once. Blank team names and season ids are refused.

A dataset's one field is its matches. Every dataset, built or parsed,
passes one season check: at least one match, one season id, and no team
twice in a round. It compares set sizes; only matches that fail it are
scanned one by one to name the first bad one, by its line in a file. The
season id, the teams and the last round are read from the matches. The
dataset is tallied once, when it is built: it carries a ``SeasonFrame``
of cumulative per-team counts and table orders after each round, which
the standings functions read and ``predictor.evaluate_season`` and
``regression.r2_curve`` score through ``per_round``, the one walk over its
rows. It is plain Python lists of ints, so no reader of it needs numpy.

Round numbers are at most ``ROUND_LIMIT``. Every per-round output, and
the frame, has one entry per round up to the last, so this bounds their
size whatever the match file holds.
"""

from __future__ import annotations

import csv
import io
from itertools import groupby
from operator import attrgetter, sub
from pathlib import Path
from typing import IO, Callable, Iterable, Sequence

from ._record import Record
from .textfile import overlong_integer_digits, read_text

MATCH_FIELDS = ("season", "round", "home_team", "away_team", "home_goals", "away_goals")
# The largest round number. A double round robin of the largest league
# that predictor.evaluate_season scores (permstats.STATS_MAX_N = 1000
# teams) has 1998 rounds, and no real league season has 50.
ROUND_LIMIT = 2000
# Goals must stay below this. The frame's Python ints cannot overflow;
# the limit is part of the match-file contract, which refuses values no
# real season has.
_FIELD_LIMIT = 2**31
_ROUND_RULE = f"round must be in 1..{ROUND_LIMIT}"
_GOALS_RULE = f"goals must be in 0..{_FIELD_LIMIT - 1}"


class MatchFileError(ValueError):
    """A match file failed validation; the message names the offending line."""


def _check_match(m: MatchRecord) -> None:
    """Refuse a match no season holds. ``MatchRecord`` and ``parse_matches``
    both call this, so both refuse the same values with the same message.
    The first rule broken, in this order, names the fault."""
    if not 1 <= m.round <= ROUND_LIMIT:
        raise ValueError(f"{_ROUND_RULE}, got {m.round}")
    if not 0 <= m.home_goals < _FIELD_LIMIT:
        raise ValueError(f"{_GOALS_RULE}, got {m.home_goals}")
    if not 0 <= m.away_goals < _FIELD_LIMIT:
        raise ValueError(f"{_GOALS_RULE}, got {m.away_goals}")
    if not m.season.strip():
        raise ValueError("season must not be blank")
    if not m.home_team.strip():
        raise ValueError("home_team must not be blank")
    if not m.away_team.strip():
        raise ValueError("away_team must not be blank")
    if m.home_team == m.away_team:
        raise ValueError(f"{m.home_team!r} cannot play itself")


class MatchRecord(Record):
    # the slots hold the fields, in file-header order
    __slots__ = MATCH_FIELDS
    season: str
    round: int
    home_team: str
    away_team: str
    home_goals: int
    away_goals: int

    def __init__(
        self,
        season: str,
        round: int,
        home_team: str,
        away_team: str,
        home_goals: int,
        away_goals: int,
    ) -> None:
        values = (season, round, home_team, away_team, home_goals, away_goals)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        _check_match(self)


class SeasonFrame:
    """Cumulative per-team tallies of one season, one row per round.

    Each tally is a list of rows, and each row a list of Python ints with
    one entry per team in ``SeasonDataset.teams`` order, which is name
    order. Row 0 is the table before any match and row r the table after
    round r, up to the last round. A round without matches shares the
    row before it: its entry in every list is the same list object, not
    a copy, so it costs one reference per list. ``order[r]`` lists team
    columns in table order, ``places[r]`` gives each team's place in it
    (1-based), and ``gd_places[r]`` each team's place in the order of
    goal difference, points, goals for, then name.
    """

    def __init__(self, teams: Sequence[str], matches: Sequence[MatchRecord]) -> None:
        column = {team: i for i, team in enumerate(teams)}
        size = len(teams)
        tally = tuple([0] * size for _ in range(6))
        played, won, drawn, points, gd, gf = tally
        rows = tuple([row[:]] for row in tally)
        self.played, self.won, self.drawn, self.points, self.gd, self.gf = rows
        # before any match every order is the name order of the columns
        self.order = [list(range(size))]
        self.places = [_places(self.order[0])]
        self.gd_places = [self.places[0]]
        frame_rows = (*rows, self.order, self.places, self.gd_places)
        round_of = attrgetter("round")
        for rnd, round_matches in groupby(sorted(matches, key=round_of), round_of):
            # the rounds since the last played one share its row
            for frame_row in frame_rows:
                frame_row.extend([frame_row[-1]] * (rnd - len(frame_row)))
            for m in round_matches:
                home, away = column[m.home_team], column[m.away_team]
                home_goals, away_goals = m.home_goals, m.away_goals
                played[home] += 1
                played[away] += 1
                gf[home] += home_goals
                gf[away] += away_goals
                gd[home] += home_goals - away_goals
                gd[away] += away_goals - home_goals
                if home_goals > away_goals:
                    points[home] += 3
                    won[home] += 1
                elif home_goals < away_goals:
                    points[away] += 3
                    won[away] += 1
                else:
                    points[home] += 1
                    points[away] += 1
                    drawn[home] += 1
                    drawn[away] += 1
            for tally_rows, row in zip(rows, tally):
                tally_rows.append(row[:])
            # sorting by the least significant key first, each sort stable,
            # leaves the name order of the columns as the last tie-break
            order = sorted(range(size), key=gf.__getitem__, reverse=True)
            order.sort(key=gd.__getitem__, reverse=True)
            order.sort(key=points.__getitem__, reverse=True)
            self.order.append(order)
            self.places.append(_places(order))
            # the table order breaks goal-difference ties by points, goals
            # for, then name, so one stable sort of it gives the gd order
            self.gd_places.append(_places(sorted(order, key=gd.__getitem__, reverse=True)))

    def counts(self, r: int) -> list[tuple[int, ...]]:
        """Each team's played, won, drawn, lost, goals for and against, goal
        difference and points after round ``r``, in column order."""
        played, won, drawn = self.played[r], self.won[r], self.drawn[r]
        gf, gd = self.gf[r], self.gd[r]
        lost = map(sub, map(sub, played, won), drawn)
        return list(zip(played, won, drawn, lost, gf, map(sub, gf, gd), gd, self.points[r]))


def per_round(rows: list[list[int]], score: Callable[[list[int]], object]) -> list:
    """``score(row)`` for rounds 1..R of a ``SeasonFrame`` row list, run once
    per distinct row object: a round sharing the row before it repeats its value."""
    values = []
    last = value = None
    for row in rows[1:]:
        if row is not last:
            last, value = row, score(row)
        values.append(value)
    return values


def _places(order: list[int]) -> list[int]:
    """The 1-based place of each column in ``order``."""
    places = [0] * len(order)
    for place, column in enumerate(order, start=1):
        places[column] = place
    return places


class SeasonDataset(Record):
    """One season's matches, its one field. Building it checks them as one
    season: at least one match, one season id, and no team twice in a
    round. ``season`` (that id), ``teams`` (the names, sorted) and
    ``rounds`` (the largest round number) are read from the matches, and
    ``_frame`` is the ``SeasonFrame`` tallied from them; none is a field."""

    matches: tuple[MatchRecord, ...]

    def __init__(self, matches: Iterable[MatchRecord]) -> None:
        _fill(self, tuple(matches), None)


class StandingsRow(Record):
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


class StandingsTable(Record):
    season: str
    round: int
    rows: tuple[StandingsRow, ...]


def _fill(dataset: SeasonDataset, records: tuple, lines: Sequence[int] | None) -> SeasonDataset:
    """Check ``records``, a tuple of matches, as one season, store them in
    ``dataset`` with the values read from them, and return it. An error
    about ``records[i]`` names ``lines[i]`` when lines are given."""
    if not records:
        raise MatchFileError("no matches given")
    season = records[0].season
    rounds = [m.round for m in records]
    homes = [m.home_team for m in records]
    aways = [m.away_team for m in records]
    slots = set(zip(rounds, homes))
    slots.update(zip(rounds, aways))
    # a team twice in a round leaves fewer (round, team) pairs than team
    # appearances; only then, or with a second season id, does the scan
    # below run, to name the first clashing record
    if len(slots) != 2 * len(records) or len({m.season for m in records}) != 1:
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
    teams = tuple(sorted({*homes, *aways}))
    frame = SeasonFrame(teams, records)
    vars(dataset).update(
        matches=records, season=season, teams=teams, rounds=max(rounds), _frame=frame
    )
    return dataset


def parse_matches(source: str | Path | IO[str]) -> SeasonDataset:
    """Read and validate a match CSV into a single-season dataset.

    A stream is read whole, and then it and a path take one route: one
    leading byte order mark is dropped, and a line ends only at ``\n``,
    ``\r\n`` or ``\r``. Errors name the line, and the file when
    ``source`` is a path.
    """
    if not isinstance(source, (str, Path)):
        return _parse_text(source.read().removeprefix("\ufeff"))
    try:
        # read_text has dropped the one leading byte order mark
        return _parse_text(read_text(source))
    except ValueError as exc:
        raise MatchFileError(f"{source}: {exc}") from None


def _parse_text(text: str) -> SeasonDataset:
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        return _read_matches(reader)
    except csv.Error as exc:
        raise MatchFileError(f"line {reader.line_num}: {exc}") from None


def _read_matches(reader) -> SeasonDataset:
    """The dataset of a ``csv.reader``'s rows. Each row is read once and each
    check runs once: a record is filled through its slots, not built by
    ``__init__``, and checked, and so is the dataset, by ``_fill``."""
    header = next(reader, None)
    if header is None:
        raise MatchFileError("empty input: no header row")
    header = [h.strip() for h in header]
    if set(header) != set(MATCH_FIELDS) or len(header) != len(MATCH_FIELDS):
        raise MatchFileError(
            f"line 1: expected header {','.join(MATCH_FIELDS)}, got {','.join(header)}"
        )
    season_at, round_at, home_at, away_at, home_goals_at, away_goals_at = map(
        header.index, MATCH_FIELDS
    )
    width = len(MATCH_FIELDS)
    new = object.__new__
    put_season, put_round, put_home, put_away, put_home_goals, put_away_goals = (
        getattr(MatchRecord, name).__set__ for name in MatchRecord.__slots__
    )
    records: list[MatchRecord] = []
    lines: list[int] = []
    for row in reader:
        if len(row) != width:
            if not row:
                continue
            raise MatchFileError(f"line {reader.line_num}: expected {width} fields, got {len(row)}")
        record = new(MatchRecord)
        try:
            put_round(record, int(row[round_at]))
            put_home_goals(record, int(row[home_goals_at]))
            put_away_goals(record, int(row[away_goals_at]))
        except ValueError:
            # name the first integer field, in record order, that int() refuses;
            # one of more digits than int() reads breaks the field's range
            for name, at, rule in (
                ("round", round_at, _ROUND_RULE),
                ("home_goals", home_goals_at, _GOALS_RULE),
                ("away_goals", away_goals_at, _GOALS_RULE),
            ):
                try:
                    int(row[at])
                except ValueError:
                    if digits := overlong_integer_digits(row[at]):
                        fault = f"{rule}, got {digits} digits"
                    else:
                        fault = f"{name} must be an integer, got {row[at]!r}"
                    raise MatchFileError(f"line {reader.line_num}: {fault}") from None
        put_season(record, row[season_at].strip())
        put_home(record, row[home_at].strip())
        put_away(record, row[away_at].strip())
        try:
            _check_match(record)
        except ValueError as exc:
            raise MatchFileError(f"line {reader.line_num}: {exc}") from None
        records.append(record)
        lines.append(reader.line_num)
    if not records:
        raise MatchFileError("empty input: no match rows")
    return _fill(new(SeasonDataset), tuple(records), lines)


def _tables(dataset: SeasonDataset, rounds: Sequence[int]) -> list[StandingsTable]:
    frame = dataset._frame
    new, fields = object.__new__, StandingsRow._fields
    tables = []
    for rnd in rounds:
        counts = frame.counts(rnd)
        rows = []
        for rank, team in enumerate(frame.order[rnd], start=1):
            # the tally's counts need no checks, so skip __init__
            row = new(StandingsRow)
            row.__dict__.update(zip(fields, (dataset.teams[team], *counts[team], rank)))
            rows.append(row)
        tables.append(StandingsTable(season=dataset.season, round=rnd, rows=tuple(rows)))
    return tables


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
    round, so n teams give 2n rounds. Goal counts are drawn uniformly
    from 0..4. Under ``ROUND_LIMIT`` this works up to n = 1000 (1998
    rounds); n = 1001 needs 2002 rounds and is refused.
    """
    import random  # only this library helper draws, so no command loads it

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
    return SeasonDataset(matches)
