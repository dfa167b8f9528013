"""Match ingestion and round-by-round league standings.

Match files are plain CSV with header
``season,round,home_team,away_team,home_goals,away_goals``, one row per
match. Standings use 3/1/0 points and a fully deterministic ordering:
points desc, goal difference desc, goals for desc, team name asc. The name
fallback makes every table a total order, which downstream code relies on
to build valid permutations.

A match file is read as columns, and a path and a stream take one
route: the whole text is read, one leading UTF-8 byte order mark is
dropped, and one ``csv.reader`` reads it, so a line ends only at ``\n``,
``\r\n`` or ``\r``. The rows go into column lists (rounds, home and away
teams, both goal counts, and a set of the season ids), and the columns are
checked in bulk by the rules ``MatchRecord`` applies to one match. Only a
file that breaks a rule, or that the csv reader refuses, is read again
row by row, to name its first fault in file order. Blank team names and
season ids are refused.

A dataset's one field is its matches. Every dataset, built or parsed,
passes one season check: at least one match, one season id, and no team
twice in a round. It compares set sizes; only matches that fail it are
scanned one by one to name the first bad one, by its line in a file. The
season id, the teams and the last round are read from the matches. The
dataset is tallied once, when it is built: it carries a ``SeasonFrame``
of cumulative per-team counts and table orders after each round, which
the standings functions read and ``predictor.evaluate_season`` and
``regression.r2_curve`` score through ``per_round``, the one walk over its
rows. It is plain Python lists of ints, so no reader of it needs numpy. A
parsed dataset keeps its columns in place of records: it builds its
``matches`` the first time they are read, filled through their slots with
no second check, and keeps them.

Round numbers are at most ``ROUND_LIMIT``. Every per-round output, and
the frame, has one entry per round up to the last, so this bounds their
size whatever the match file holds.
"""

from __future__ import annotations

import csv
import io
from itertools import groupby, islice, repeat
from operator import attrgetter, itemgetter, sub
from pathlib import Path
from typing import IO, Callable, Iterable, Sequence

from ._record import Record
from .textfile import overlong_integer_digits, read_text, shown

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
# The column reader takes this many rows from the csv reader at a time,
# so the rows it holds at once stay few whatever the file's length.
_CHUNK_ROWS = 1024


class MatchFileError(ValueError):
    """A match file failed validation; the message names the offending line."""


def _check_match(
    season: str, rnd: int, home_team: str, away_team: str, home_goals: int, away_goals: int
) -> None:
    """Refuse a match no season holds. ``MatchRecord`` and a match file's
    row reader both call this, so both refuse the same values with the same
    message, and the column reader checks a file's columns by the same
    rules. The first rule broken, in this order, names the fault."""
    if not 1 <= rnd <= ROUND_LIMIT:
        raise ValueError(f"{_ROUND_RULE}, got {shown(rnd)}")
    if not 0 <= home_goals < _FIELD_LIMIT:
        raise ValueError(f"{_GOALS_RULE}, got {shown(home_goals)}")
    if not 0 <= away_goals < _FIELD_LIMIT:
        raise ValueError(f"{_GOALS_RULE}, got {shown(away_goals)}")
    if not season.strip():
        raise ValueError("season must not be blank")
    if not home_team.strip():
        raise ValueError("home_team must not be blank")
    if not away_team.strip():
        raise ValueError("away_team must not be blank")
    if home_team == away_team:
        raise ValueError(f"{home_team!r} cannot play itself")


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
        _check_match(*values)


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

    def __init__(
        self,
        teams: Sequence[str],
        rounds: Sequence[int],
        homes: Sequence[str],
        aways: Sequence[str],
        home_goals: Sequence[int],
        away_goals: Sequence[int],
    ) -> None:
        """Tally the matches given as columns, one entry per match in each."""
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
        home_columns, away_columns = map(column.__getitem__, homes), map(column.__getitem__, aways)
        matches = zip(rounds, home_columns, away_columns, home_goals, away_goals)
        for rnd, round_matches in groupby(sorted(matches, key=itemgetter(0)), itemgetter(0)):
            if rnd > len(self.order):
                # the rounds since the last played one share its row
                for frame_row in frame_rows:
                    frame_row.extend([frame_row[-1]] * (rnd - len(frame_row)))
            for _, home, away, home_score, away_score in round_matches:
                played[home] += 1
                played[away] += 1
                gf[home] += home_score
                gf[away] += away_score
                gd[home] += home_score - away_score
                gd[away] += away_score - home_score
                if home_score > away_score:
                    points[home] += 3
                    won[home] += 1
                elif home_score < away_score:
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
    ``_frame`` is the ``SeasonFrame`` tallied from them; none is a field.
    A parsed dataset holds its matches as checked columns until
    ``matches`` is first read."""

    matches: tuple[MatchRecord, ...]

    def __init__(self, matches: Iterable[MatchRecord]) -> None:
        records = tuple(matches)
        if not records:
            raise MatchFileError("no matches given")
        seasons, *columns = (list(map(attrgetter(name), records)) for name in MATCH_FIELDS)
        _fill(self, set(seasons), columns, lambda: _raise_season_fault(seasons, *columns[:3], None))
        vars(self)["matches"] = records

    def __getattr__(self, name: str):
        # only a parsed dataset's matches are missing, until first read
        fields = vars(self)
        columns = fields.get("_columns") if name == "matches" else None
        if columns is None:
            # the matches are stored before the columns are dropped, so
            # a thread that finds no columns finds the matches
            if name == "matches" and "matches" in fields:
                return fields["matches"]
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        # the parse has checked the columns, so each record is filled
        # through its slots in place of being built by __init__
        fill = [getattr(MatchRecord, field).__set__ for field in MATCH_FIELDS]
        records = []
        for values in zip(repeat(self.season), *columns):
            record = object.__new__(MatchRecord)
            for put, value in zip(fill, values):
                put(record, value)
            records.append(record)
        # the first tuple stored is the one every reader gets
        records = fields.setdefault("matches", tuple(records))
        fields.pop("_columns", None)
        return records


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


def _fill(
    dataset: SeasonDataset,
    season_ids: set[str],
    columns: list[list],
    first_fault: Callable[[], object],
) -> None:
    """Check matches, given as their season ids and the columns rounds,
    home and away teams and home and away goals, as one season, and store
    in ``dataset`` the values read from them and their frame. When the
    check fails, ``first_fault()`` raises the fault of the first match
    that breaks it."""
    rounds, homes, aways = columns[:3]
    slots = set(zip(rounds, homes))
    slots.update(zip(rounds, aways))
    # a team twice in a round, or playing itself, leaves fewer (round,
    # team) pairs than team appearances
    if len(slots) != 2 * len(rounds) or len(season_ids) != 1:
        first_fault()
    (season,) = season_ids
    teams = tuple(sorted({*homes, *aways}))
    frame = SeasonFrame(teams, *columns)
    vars(dataset).update(season=season, teams=teams, rounds=max(rounds), _frame=frame)


def _raise_season_fault(
    seasons: list[str],
    rounds: list[int],
    homes: list[str],
    aways: list[str],
    lines: list[int] | None,
) -> None:
    """Raise the fault of the first match, in order, whose season id is not
    the first match's or whose round already holds one of its teams. An
    error about match i names ``lines[i]`` when lines are given."""
    seen: set[tuple[int, str]] = set()
    for i, (season, rnd, home, away) in enumerate(zip(seasons, rounds, homes, aways)):
        if season != seasons[0]:
            problem = f"mixed season ids {seasons[0]!r} and {season!r}"
        elif (rnd, home) in seen or (rnd, away) in seen:
            team = home if (rnd, home) in seen else away
            problem = f"team {team!r} appears twice in round {rnd}"
        else:
            seen.update(((rnd, home), (rnd, away)))
            continue
        raise MatchFileError(problem if lines is None else f"line {lines[i]}: {problem}")


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
    """The dataset of a match file's text. A file that keeps every rule is
    read and checked as columns; only one that breaks a rule is read again
    row by row, to name its first fault."""
    read = _read_columns(text)
    if read is None:
        read = _read_rows(text)
    season_ids, *columns = read
    dataset = object.__new__(SeasonDataset)
    _fill(dataset, season_ids, columns, lambda: _read_rows(text))
    vars(dataset)["_columns"] = columns
    return dataset


def _columns_at(reader) -> list[int]:
    """Where each of ``MATCH_FIELDS`` is in a row, read from the header."""
    header = next(reader, None)
    if header is None:
        raise MatchFileError("empty input: no header row")
    header = [h.strip() for h in header]
    if set(header) != set(MATCH_FIELDS) or len(header) != len(MATCH_FIELDS):
        raise MatchFileError(
            f"line 1: expected header {','.join(MATCH_FIELDS)}, got {','.join(header)}"
        )
    return list(map(header.index, MATCH_FIELDS))


def _read_columns(text: str) -> tuple | None:
    """A match file's set of season ids and its columns rounds, home and
    away teams and home and away goals, each checked as a whole by the
    rules of ``_check_match``; None, and no error, when the csv reader
    refuses the text or any row breaks a rule. A team that plays itself
    is left to the season check: it takes its round's place twice. The
    rows are read a chunk at a time and each chunk's fields a column at a
    time."""
    reader = csv.reader(io.StringIO(text, newline=""))
    season_ids: set[str] = set()
    columns = rounds, homes, aways, home_goals, away_goals = [], [], [], [], []
    try:
        season_at, *columns_at = _columns_at(reader)
        rows = filter(None, reader)  # a blank line is no row
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            # strict: every row has as many fields as the first
            fields = list(zip(*chunk, strict=True))
            if len(fields) != len(MATCH_FIELDS):
                return None
            season_ids.update(map(str.strip, fields[season_at]))
            for column, at, read in zip(columns, columns_at, (int, str.strip, str.strip, int, int)):
                column.extend(map(read, fields[at]))
    except (csv.Error, ValueError):
        return None
    if (
        not rounds
        or min(rounds) < 1
        or max(rounds) > ROUND_LIMIT
        or min(min(home_goals), min(away_goals)) < 0
        or max(max(home_goals), max(away_goals)) >= _FIELD_LIMIT
        or "" in season_ids
        or "" in homes
        or "" in aways
    ):
        return None
    return season_ids, *columns


def _read_rows(text: str) -> tuple:
    """A match file's columns as ``_read_columns`` gives them, read and
    checked row by row, or the file's first fault in file order: the
    first row that the csv reader refuses or that breaks a rule, and
    then the first match that breaks the season check."""
    reader = csv.reader(io.StringIO(text, newline=""))
    columns = seasons, rounds, homes, aways, home_goals, away_goals = [], [], [], [], [], []
    lines: list[int] = []
    width = len(MATCH_FIELDS)
    try:
        season_at, round_at, home_at, away_at, home_goals_at, away_goals_at = _columns_at(reader)
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise MatchFileError(
                    f"line {reader.line_num}: expected {width} fields, got {len(row)}"
                )
            try:
                rnd, home_score, away_score = (
                    int(row[round_at]), int(row[home_goals_at]), int(row[away_goals_at])
                )
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
            season, home, away = row[season_at].strip(), row[home_at].strip(), row[away_at].strip()
            values = (season, rnd, home, away, home_score, away_score)
            try:
                _check_match(*values)
            except ValueError as exc:
                raise MatchFileError(f"line {reader.line_num}: {exc}") from None
            for column, value in zip(columns, values):
                column.append(value)
            lines.append(reader.line_num)
    except csv.Error as exc:
        raise MatchFileError(f"line {reader.line_num}: {exc}") from None
    if not lines:
        raise MatchFileError("empty input: no match rows")
    _raise_season_fault(seasons, rounds, homes, aways, lines)
    return set(seasons), rounds, homes, aways, home_goals, away_goals


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
