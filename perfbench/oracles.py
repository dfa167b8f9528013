"""Independent expectations for every benchmark op, and the checks that use them.

Nothing here imports tableguess. The season expectations come from the
benchmark's own tally of its generated matches; the permutation statistics
come from the Diaconis & Graham (JRSS B, 1977) closed forms and from a
transfer-matrix count of the footrule distribution; the Monte Carlo
expectation comes from a re-implementation of the counter-based sampler
that tableguess documents. A check raises ``Mismatch`` naming the first
difference it finds.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from seasons import MID_ROUND, ROUNDS, Season

R2_TOLERANCE = 1e-9
# A correct sampler misses a 3-sigma band on 0.27% of seeds, which over a
# run of 100+ ops would make the failure count depend on the seed. The
# exact comparison with the reference sampler catches any deviation of
# the program; the sigma band only guards the reference's own uniformity,
# and at 5 sigma a correct sampler misses it about once in 1.7 million.
MC_SIGMAS = 5


class Mismatch(Exception):
    """An op's output differs from the independent expectation."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


# --- seasons -----------------------------------------------------------------


@dataclass(frozen=True)
class SeasonExpectation:
    final_rows: tuple[tuple[str, int, int, int], ...]  # (team, points, gd, gf) in table order
    mid_rows: tuple[tuple[str, int, int, int], ...]
    errors: dict[tuple[int, str], tuple[Fraction, Fraction]]  # (round, strategy) -> (mae, mse)
    r2: dict[tuple[str, int], float | None]  # (kind, round) -> R^2
    mid_orders: dict[str, tuple[str, ...]]
    mid_mae: dict[str, Fraction]


def tally(season: Season, upto: int) -> dict[str, tuple[int, int, int]]:
    """(points, goal difference, goals for) of every team after round ``upto``."""
    points = dict.fromkeys(season.teams, 0)
    gf = dict.fromkeys(season.teams, 0)
    ga = dict.fromkeys(season.teams, 0)
    for m in season.matches:
        if m.round > upto:
            continue
        gf[m.home] += m.home_goals
        ga[m.home] += m.away_goals
        gf[m.away] += m.away_goals
        ga[m.away] += m.home_goals
        if m.home_goals > m.away_goals:
            points[m.home] += 3
        elif m.home_goals < m.away_goals:
            points[m.away] += 3
        else:
            points[m.home] += 1
            points[m.away] += 1
    return {t: (points[t], gf[t] - ga[t], gf[t]) for t in season.teams}


def table_order(table: dict[str, tuple[int, int, int]]) -> tuple[str, ...]:
    return tuple(sorted(table, key=lambda t: (-table[t][0], -table[t][1], -table[t][2], t)))


def gd_order(table: dict[str, tuple[int, int, int]]) -> tuple[str, ...]:
    return tuple(sorted(table, key=lambda t: (-table[t][1], -table[t][0], -table[t][2], t)))


def place_errors(actual: tuple[str, ...], predicted: tuple[str, ...]) -> tuple[Fraction, Fraction]:
    """(MAE, MSE) of ``predicted`` against ``actual``: sum |d| / n and sum d^2 / n."""
    place = {team: k for k, team in enumerate(predicted, start=1)}
    d = [place[team] - k for k, team in enumerate(actual, start=1)]
    n = len(actual)
    return Fraction(sum(abs(x) for x in d), n), Fraction(sum(x * x for x in d), n)


def pearson_r2(x: list[int], y: list[int]) -> float | None:
    """Squared Pearson correlation, exact over the integers; None if x is constant."""
    n = len(x)
    sx, sy = sum(x), sum(y)
    sxy = n * sum(a * b for a, b in zip(x, y)) - sx * sy
    sxx = n * sum(a * a for a in x) - sx * sx
    syy = n * sum(b * b for b in y) - sy * sy
    if sxx == 0:
        return None
    return float(Fraction(sxy * sxy, sxx * syy))


def expect_season(season: Season) -> SeasonExpectation:
    tables = {r: tally(season, r) for r in range(1, ROUNDS + 1)}
    final = tables[ROUNDS]
    final_order = table_order(final)
    positions = list(range(1, len(final_order) + 1))
    errors = {}
    r2 = {}
    for r, table in tables.items():
        by_rank = table_order(table)
        errors[(r, "rank")] = place_errors(final_order, by_rank)
        errors[(r, "gd")] = place_errors(final_order, gd_order(table))
        rank_of = {team: k for k, team in enumerate(by_rank, start=1)}
        r2[("table_rank", r)] = pearson_r2([rank_of[t] for t in final_order], positions)
        r2[("goal_difference", r)] = pearson_r2([table[t][1] for t in final_order], positions)
    mid = tables[MID_ROUND]
    mid_orders = {"rank": table_order(mid), "gd": gd_order(mid)}
    return SeasonExpectation(
        final_rows=tuple((t, *final[t]) for t in final_order),
        mid_rows=tuple((t, *mid[t]) for t in mid_orders["rank"]),
        errors=errors,
        r2=r2,
        mid_orders=mid_orders,
        mid_mae={s: place_errors(final_order, o)[0] for s, o in mid_orders.items()},
    )


def check_table(rows, want: tuple[tuple[str, int, int, int], ...], label: str) -> None:
    got = tuple((r.team, r.points, r.goal_difference, r.goals_for) for r in rows)
    _expect(got == want, f"{label} table differs from the tally: {got} != {want}")


def check_report(report, want: SeasonExpectation) -> None:
    n = len(want.final_rows)
    _expect(
        report.baseline_expected_mae == Fraction(n * n - 1, 3 * n),
        f"baseline {report.baseline_expected_mae} != (n^2-1)/(3n)",
    )
    seen = set()
    for rec in report.records:
        key = (rec.round, rec.strategy)
        _expect(key in want.errors and key not in seen, f"unexpected record {key}")
        seen.add(key)
        _expect(
            (rec.mae, rec.mse) == want.errors[key],
            f"{key}: (mae, mse) {(rec.mae, rec.mse)} != {want.errors[key]}",
        )
    _expect(len(seen) == len(want.errors), f"{len(seen)} records, want {len(want.errors)}")


def check_r2(points, kind: str, want: SeasonExpectation) -> None:
    _expect(len(points) == ROUNDS, f"{kind}: {len(points)} rounds, want {ROUNDS}")
    for r, value in points:
        expected = want.r2[(kind, r)]
        if expected is None:
            _expect(value is None, f"{kind} round {r}: R^2 {value}, want undefined")
        else:
            _expect(
                value is not None and abs(value - expected) <= R2_TOLERANCE,
                f"{kind} round {r}: R^2 {value} != squared Pearson {expected}",
            )
    if kind == "table_rank":
        final = dict(points)[ROUNDS]
        _expect(final == 1.0, f"final-round table_rank R^2 is {final!r}, not exactly 1")


def check_season_op(out, want: SeasonExpectation) -> None:
    final, mid_table, report, curves, mid = out
    check_table(final.rows, want.final_rows, "final")
    check_table(mid_table.rows, want.mid_rows, f"round-{MID_ROUND}")
    check_report(report, want)
    _expect(len(curves) == 2, f"{len(curves)} R^2 curves, want 2")
    for curve in curves:
        check_r2(curve.points, curve.kind, want)
    for strategy, (order, mae) in mid.items():
        _expect(tuple(order) == want.mid_orders[strategy], f"{strategy} order differs at mid-season")
        _expect(mae == want.mid_mae[strategy], f"{strategy} mid-season MAE {mae} != {want.mid_mae[strategy]}")


# --- permutation statistics --------------------------------------------------


def footrule_counts(n: int) -> dict[int, int]:
    """Number of permutations of 1..n with each footrule score, by transfer matrix.

    Step t adds position t and value t. The state k counts positions <= t
    mapped above t (equally, values <= t taken from above t); the score is
    2 * sum of k over the steps. k stays in 2k+1 ways, drops in k^2 ways
    and rises in 1 way.
    """
    ways: dict[tuple[int, int], int] = {(0, 0): 1}
    for _ in range(n):
        nxt: dict[tuple[int, int], int] = defaultdict(int)
        for (k, half), w in ways.items():
            for k2, mult in ((k, 2 * k + 1), (k - 1, k * k), (k + 1, 1)):
                if k2 >= 0 and mult:
                    nxt[(k2, half + k2)] += w * mult
        ways = nxt
    return {2 * half: w for (k, half), w in sorted(ways.items()) if k == 0}


def closed_forms(n: int) -> tuple[Fraction, Fraction, int]:
    """Diaconis & Graham: mean (n^2-1)/3, variance (n+1)(2n^2+7)/45, max floor(n^2/2)."""
    return Fraction(n * n - 1, 3), Fraction((n + 1) * (2 * n * n + 7), 45), n * n // 2


@dataclass(frozen=True)
class OracleExpectation:
    stats_n: int
    stats_worst_count: int
    dist_n: int
    dist_counts: dict[int, int]
    mc_n: int
    mc_samples: int
    mc_moments: dict[int, tuple[int, int, int, int]]  # seed -> (sum, sum of squares, min, max)


def check_score_stats(stats, want: OracleExpectation) -> None:
    n = want.stats_n
    mean, var, top = closed_forms(n)
    _expect(stats.n == n, f"score_stats n {stats.n} != {n}")
    _expect(stats.expected_score == mean, f"n={n} mean {stats.expected_score} != {mean}")
    _expect(stats.variance_score == var, f"n={n} variance {stats.variance_score} != {var}")
    _expect(stats.expected_mae == mean / n, f"n={n} expected MAE {stats.expected_mae} != {mean / n}")
    _expect(stats.max_score == top, f"n={n} max {stats.max_score} != {top}")
    _expect(
        stats.worst_count == want.stats_worst_count,
        f"n={n} worst count {stats.worst_count} != {want.stats_worst_count}",
    )
    _expect(
        stats.worst_probability == Fraction(want.stats_worst_count, math.factorial(n)),
        f"n={n} worst probability {stats.worst_probability}",
    )


def check_distribution(dist, moments, want: OracleExpectation) -> None:
    n = want.dist_n
    _expect(sum(dist.counts.values()) == math.factorial(n), f"n={n} counts do not sum to {n}!")
    _expect(dist.counts == want.dist_counts, f"n={n} distribution differs from the transfer-matrix count")
    mean, var, top = closed_forms(n)
    want_moments = (mean, var, top, want.dist_counts[top])
    _expect(tuple(moments) == want_moments, f"n={n} moments {tuple(moments)} != {want_moments}")


def check_mc(summary, seed: int, want: OracleExpectation) -> None:
    n, samples = want.mc_n, want.mc_samples
    total, total_sq, lo, hi = want.mc_moments[seed]
    _expect((summary.n, summary.samples, summary.seed) == (n, samples, seed), "MC parameters differ")
    _expect(summary.mean == Fraction(total, samples * n), f"MC mean {summary.mean} != reference")
    _expect(
        summary.variance == Fraction(samples * total_sq - total * total, (samples * n) ** 2),
        "MC variance differs from the reference sampler",
    )
    _expect((summary.minimum, summary.maximum) == (Fraction(lo, n), Fraction(hi, n)), "MC range differs")
    mean, var, _ = closed_forms(n)
    sigma = math.sqrt(float(var) / samples) / n
    _expect(
        abs(float(summary.mean) - float(mean / n)) <= MC_SIGMAS * sigma,
        f"MC mean {float(summary.mean)} is more than {MC_SIGMAS} sigma from {mean / n}",
    )


def check_oracle_op(out, mc_seed: int, want: OracleExpectation) -> None:
    stats, dist, moments, summary = out
    check_score_stats(stats, want)
    check_distribution(dist, moments, want)
    check_mc(summary, mc_seed, want)


_MASK = (1 << 64) - 1
_SEED_SALT = 0x8AD64C65E2D4B97F
_SAMPLE_STRIDE = 0x9E3779B97F4A7C15
_STEP_STRIDE = 0xC2B2AE3D27D4EB4F


def _mix(z, mask=None):
    """SplitMix64 finaliser; on Python ints pass ``mask`` to wrap at 64 bits."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = z if mask is None else z & mask
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z = z if mask is None else z & mask
    return z ^ (z >> 31)


def reference_mc_moments(n: int, samples: int, seed: int, block: int = 4096) -> tuple[int, int, int, int]:
    """(sum, sum of squares, min, max) of the footrule score of the sampler's permutations.

    The sampler tableguess documents: sample s, step i draws a SplitMix64
    hash of (seed, s, i, retry) and Fisher-Yates swaps position i with
    hash mod (i+1), rejecting hashes that would bias the modulo. Blocks
    are small so that this reference, not the program, stays the smaller
    user of memory.
    """
    import numpy as np

    h = np.uint64(_mix((seed & _MASK) ^ _SEED_SALT, _MASK))
    total = total_sq = 0
    lo, hi = None, None
    for start in range(0, samples, block):
        ids = np.arange(start, min(samples, start + block), dtype=np.uint64)
        base = _mix(h ^ (ids * np.uint64(_SAMPLE_STRIDE)))
        perm = np.tile(np.arange(n, dtype=np.int64), (ids.size, 1))
        rows = np.arange(ids.size)
        for i in range(n - 1, 0, -1):
            step = np.uint64((i * _STEP_STRIDE) & _MASK)
            u = _mix(base ^ step)
            rem = (1 << 64) % (i + 1)
            retry = 0
            while rem and (bad := u >= np.uint64((1 << 64) - rem)).any():
                retry += 1
                u[bad] = _mix(base[bad] ^ step ^ np.uint64(retry))
            j = (u % np.uint64(i + 1)).astype(np.int64)
            perm[rows, i], perm[rows, j] = perm[rows, j], perm[rows, i].copy()
        scores = [int(s) for s in np.abs(perm - np.arange(n)).sum(axis=1)]
        total += sum(scores)
        total_sq += sum(s * s for s in scores)
        lo = min(scores) if lo is None else min(lo, *scores)
        hi = max(scores) if hi is None else max(hi, *scores)
    return total, total_sq, lo, hi


def expect_oracle(stats_n: int, dist_n: int, mc_n: int, mc_samples: int, mc_seeds) -> OracleExpectation:
    top = stats_n * stats_n // 2
    return OracleExpectation(
        stats_n=stats_n,
        stats_worst_count=footrule_counts(stats_n)[top],
        dist_n=dist_n,
        dist_counts=footrule_counts(dist_n),
        mc_n=mc_n,
        mc_samples=mc_samples,
        mc_moments={s: reference_mc_moments(mc_n, mc_samples, s) for s in mc_seeds},
    )


# --- CLI outputs -------------------------------------------------------------


def read_table(path: Path) -> tuple[str, ...]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return tuple(team.strip() for _, team in sorted((int(p), t) for p, t in rows if p))


def table_footrule(actual_path: Path, predicted_path: Path) -> int:
    actual = read_table(actual_path)
    mae, _ = place_errors(actual, read_table(predicted_path))
    return int(mae * len(actual))


def check_cli_mae(payload: dict, footrule: int, n: int) -> None:
    _expect(payload["footrule"] == footrule, f"footrule {payload['footrule']} != {footrule}")
    _expect(payload["mae"] == footrule / n, f"MAE {payload['mae']} != {footrule}/{n}")


def check_cli_stats(payload: dict, n: int) -> None:
    mean, var, top = closed_forms(n)
    worst = Fraction(math.factorial(n // 2) ** 2, math.factorial(n))
    _expect(payload["expected_mae"]["exact"] == str(mean / n), f"expected_mae {payload['expected_mae']}")
    _expect(payload["variance_score"]["exact"] == str(var), f"variance_score {payload['variance_score']}")
    _expect(payload["max_score"] == top, f"max_score {payload['max_score']}")
    _expect(payload["worst_probability"]["exact"] == str(worst), f"worst_probability {payload['worst_probability']}")


def check_cli_predict(order: list, want: SeasonExpectation, strategy: str) -> None:
    _expect(tuple(order) == want.mid_orders[strategy], f"predicted {strategy} order differs")


def check_cli_evaluate(payload: dict, want: SeasonExpectation) -> None:
    records = payload["records"]
    _expect(len(records) == len(want.errors), f"{len(records)} evaluate records, want {len(want.errors)}")
    for rec in records:
        mae, mse = want.errors[(rec["round"], rec["strategy"])]
        _expect(
            (rec["mae"], rec["mse"]) == (float(mae), float(mse)),
            f"round {rec['round']} {rec['strategy']}: {rec['mae']}, {rec['mse']} != {mae}, {mse}",
        )


def check_cli_r2(payload: dict, want: SeasonExpectation) -> None:
    by_kind: dict[str, list] = defaultdict(list)
    for rec in payload["records"]:
        by_kind[rec["kind"]].append((rec["round"], rec["r_squared"]))
    _expect(sorted(by_kind) == ["goal_difference", "table_rank"], f"curve kinds {sorted(by_kind)}")
    for kind, points in by_kind.items():
        check_r2(points, kind, want)
