"""Seeded match data for the benchmark, generated without tableguess.

Every season is a 20-team double round robin (38 rounds, 380 matches), the
Premier League setting of the paper. Goals are Poisson draws whose rates
depend on per-team attack and defence strengths and a home advantage, so
the tables spread the way real ones do: a few runaway teams, a crowded
middle, some drawn rounds. Only math, random and typing are imported,
which Python usually loads at start-up anyway, so generating inputs in the
set-up probe loads nothing that the timed import of tableguess would.
"""

import math
import random
from typing import NamedTuple

TEAMS = 20
ROUNDS = 2 * (TEAMS - 1)
MID_ROUND = ROUNDS // 2
MATCH_HEADER = "season,round,home_team,away_team,home_goals,away_goals"

_BASE_RATE = 0.1
_HOME_ADVANTAGE = 0.2
_STRENGTH_SD = 0.3


class Match(NamedTuple):
    round: int
    home: str
    away: str
    home_goals: int
    away_goals: int


class Season(NamedTuple):
    season_id: str
    teams: tuple[str, ...]
    matches: tuple[Match, ...]

    def csv_text(self) -> str:
        lines = [MATCH_HEADER]
        lines.extend(
            f"{self.season_id},{m.round},{m.home},{m.away},{m.home_goals},{m.away_goals}"
            for m in self.matches
        )
        return "\n".join(lines) + "\n"


def _poisson(rng: random.Random, rate: float) -> int:
    # Knuth's multiplication method; rates here stay below ~4
    limit = math.exp(-rate)
    k = 0
    p = rng.random()
    while p > limit:
        k += 1
        p *= rng.random()
    return k


def _fixtures(teams: list[str]) -> list[tuple[int, str, str]]:
    """Circle-method double round robin: (round, home, away)."""
    n = len(teams)
    rotation = teams[1:]
    fixtures = []
    for leg in range(2):
        for k in range(n - 1):
            lineup = [teams[0]] + rotation[k:] + rotation[:k]
            for i in range(n // 2):
                a, b = lineup[i], lineup[-1 - i]
                home, away = (a, b) if (i + k + leg) % 2 == 0 else (b, a)
                fixtures.append((leg * (n - 1) + k + 1, home, away))
    return fixtures


def make_season(seed: int, index: int) -> Season:
    """Season ``index`` of the pool drawn from ``seed``; same arguments, same season."""
    rng = random.Random(f"tableguess-bench:{seed}:{index}")
    teams = [f"Team{k:02d}" for k in range(1, TEAMS + 1)]
    attack = {t: rng.gauss(0.0, _STRENGTH_SD) for t in teams}
    defence = {t: rng.gauss(0.0, _STRENGTH_SD) for t in teams}
    order = teams[:]
    rng.shuffle(order)
    matches = []
    for rnd, home, away in _fixtures(order):
        home_rate = math.exp(_BASE_RATE + _HOME_ADVANTAGE + attack[home] - defence[away])
        away_rate = math.exp(_BASE_RATE + attack[away] - defence[home])
        matches.append(
            Match(rnd, home, away, _poisson(rng, home_rate), _poisson(rng, away_rate))
        )
    return Season(f"bench-{seed}-{index}", tuple(teams), tuple(matches))


def make_pool(seed: int, size: int) -> list[Season]:
    return [make_season(seed, index) for index in range(size)]


def derived_seed(seed: int, label: str, index: int) -> int:
    """A 62-bit seed for one slot of one input stream, fixed by ``seed``."""
    return random.Random(f"tableguess-bench:{label}:{seed}:{index}").getrandbits(62)
