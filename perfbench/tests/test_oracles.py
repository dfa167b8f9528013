"""Self-tests of the benchmark: each checker rejects a corrupted output.

Run with ``python3 -m pytest perfbench/tests``. The program outputs are
built here from the oracles' own values, so the tests need no tableguess.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

import oracles
import seasons
from oracles import Mismatch
from workloads import MERSON, PL_FINAL


@pytest.fixture(scope="module")
def season():
    return seasons.make_season(7, 0)


@pytest.fixture(scope="module")
def want(season):
    return oracles.expect_season(season)


def rows_of(table_rows):
    return [
        SimpleNamespace(team=t, points=p, goal_difference=gd, goals_for=gf)
        for t, p, gd, gf in table_rows
    ]


def test_table_check_rejects_two_swapped_teams(want):
    rows = rows_of(want.final_rows)
    oracles.check_table(rows, want.final_rows, "final")
    rows[3], rows[4] = rows[4], rows[3]
    with pytest.raises(Mismatch):
        oracles.check_table(rows, want.final_rows, "final")


def test_table_check_rejects_a_wrong_goal_difference(want):
    rows = rows_of(want.final_rows)
    rows[0].goal_difference += 1
    with pytest.raises(Mismatch):
        oracles.check_table(rows, want.final_rows, "final")


def curve_points(want, kind):
    return [(r, want.r2[(kind, r)]) for r in range(1, seasons.ROUNDS + 1)]


def test_r2_check_rejects_an_r2_off_by_1e_6(want):
    for kind in ("table_rank", "goal_difference"):
        points = curve_points(want, kind)
        oracles.check_r2(points, kind, want)
        r, value = points[10]
        points[10] = (r, value + 1e-6)
        with pytest.raises(Mismatch):
            oracles.check_r2(points, kind, want)


def test_r2_check_requires_an_exact_final_table_rank_r2(want):
    points = curve_points(want, "table_rank")
    points[-1] = (seasons.ROUNDS, 1.0 - 1e-12)
    with pytest.raises(Mismatch):
        oracles.check_r2(points, "table_rank", want)


def test_pearson_r2_matches_a_float_computation():
    x, y = [3, 1, 4, 1, 5, 9, 2, 6], list(range(1, 9))
    mx, my = sum(x) / len(x), sum(y) / len(y)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    assert oracles.pearson_r2(x, y) == pytest.approx(sxy * sxy / (sxx * syy), rel=1e-12)
    assert oracles.pearson_r2([2] * 8, y) is None


def test_report_check_rejects_a_wrong_mae(want):
    records = [
        SimpleNamespace(round=r, strategy=s, mae=mae, mse=mse)
        for (r, s), (mae, mse) in want.errors.items()
    ]
    report = SimpleNamespace(baseline_expected_mae=Fraction(133, 20), records=records)
    oracles.check_report(report, want)
    records[5].mae += Fraction(1, 20)
    with pytest.raises(Mismatch):
        oracles.check_report(report, want)


def test_place_errors_are_sum_of_abs_and_squared_displacements():
    actual = ("A", "B", "C", "D")
    assert oracles.place_errors(actual, ("B", "A", "C", "D")) == (Fraction(2, 4), Fraction(2, 4))
    assert oracles.place_errors(actual, ("D", "C", "B", "A")) == (Fraction(8, 4), Fraction(20, 4))


def test_footrule_counts_match_brute_force_enumeration():
    from itertools import permutations

    for n in range(1, 8):
        counts: dict[int, int] = {}
        for p in permutations(range(n)):
            s = sum(abs(v - i) for i, v in enumerate(p))
            counts[s] = counts.get(s, 0) + 1
        assert oracles.footrule_counts(n) == dict(sorted(counts.items()))


def test_footrule_counts_agree_with_the_closed_forms():
    for n in range(2, 21):
        counts = oracles.footrule_counts(n)
        total = math.factorial(n)
        mean, var, top = oracles.closed_forms(n)
        assert sum(counts.values()) == total
        assert Fraction(sum(s * c for s, c in counts.items()), total) == mean
        second = Fraction(sum(s * s * c for s, c in counts.items()), total)
        assert second - mean**2 == var
        assert max(counts) == top
    assert oracles.footrule_counts(9)[40] == 5184
    assert oracles.footrule_counts(20)[200] == math.factorial(10) ** 2


@pytest.fixture(scope="module")
def oracle_want():
    return oracles.expect_oracle(9, 8, 20, 2000, [3, 4])


def stats_of(n, worst):
    mean, var, top = oracles.closed_forms(n)
    return SimpleNamespace(
        n=n, expected_score=mean, variance_score=var, expected_mae=mean / n,
        max_score=top, worst_count=worst, worst_probability=Fraction(worst, math.factorial(n)),
    )


def test_score_stats_check_rejects_a_wrong_worst_count(oracle_want):
    oracles.check_score_stats(stats_of(9, 5184), oracle_want)
    with pytest.raises(Mismatch):
        oracles.check_score_stats(stats_of(9, 5185), oracle_want)


def test_distribution_check_rejects_a_wrong_footrule(oracle_want):
    counts = dict(oracle_want.dist_counts)
    mean, var, top = oracles.closed_forms(8)
    moments = (mean, var, top, counts[top])
    oracles.check_distribution(SimpleNamespace(counts=counts), moments, oracle_want)
    moved = dict(counts)
    moved[10] -= 1
    moved[12] += 1  # one permutation's footrule misreported, the total still 8!
    with pytest.raises(Mismatch):
        oracles.check_distribution(SimpleNamespace(counts=moved), moments, oracle_want)


def mc_summary(want, seed, mean_shift=Fraction(0)):
    total, total_sq, lo, hi = want.mc_moments[seed]
    n, samples = want.mc_n, want.mc_samples
    return SimpleNamespace(
        n=n, samples=samples, seed=seed,
        mean=Fraction(total, samples * n) + mean_shift,
        variance=Fraction(samples * total_sq - total * total, (samples * n) ** 2),
        minimum=Fraction(lo, n), maximum=Fraction(hi, n),
    )


def test_mc_check_rejects_a_mean_that_differs_from_the_reference_sampler(oracle_want):
    oracles.check_mc(mc_summary(oracle_want, 3), 3, oracle_want)
    mean, var, _ = oracles.closed_forms(20)
    sigma = math.sqrt(float(var) / oracle_want.mc_samples) / 20
    shifted = mc_summary(oracle_want, 3, Fraction(3.5 * sigma))
    with pytest.raises(Mismatch, match="!= reference"):
        oracles.check_mc(shifted, 3, oracle_want)


def want_with_mc_mean_at(want, seed, sigmas):
    """``want`` whose reference mean for ``seed`` is ``sigmas`` standard errors above 133/20."""
    n, samples = want.mc_n, want.mc_samples
    mean, var, _ = oracles.closed_forms(n)
    _, total_sq, lo, hi = want.mc_moments[seed]
    total = round(float(mean) * samples + sigmas * math.sqrt(float(var) * samples))
    return dataclasses.replace(want, mc_moments={**want.mc_moments, seed: (total, total_sq, lo, hi)})


def test_mc_check_rejects_a_mean_outside_the_sigma_band(oracle_want):
    # the summary agrees with its reference, so only the band can reject it
    inside = want_with_mc_mean_at(oracle_want, 3, oracles.MC_SIGMAS - 0.5)
    oracles.check_mc(mc_summary(inside, 3), 3, inside)
    outside = want_with_mc_mean_at(oracle_want, 3, oracles.MC_SIGMAS + 0.5)
    with pytest.raises(Mismatch, match="sigma"):
        oracles.check_mc(mc_summary(outside, 3), 3, outside)


def test_mc_check_rejects_a_summary_from_another_seed(oracle_want):
    with pytest.raises(Mismatch):
        oracles.check_mc(mc_summary(oracle_want, 4), 3, oracle_want)


def test_reference_sampler_mean_is_near_the_closed_form():
    n, samples = 20, 20_000
    total, _, lo, hi = oracles.reference_mc_moments(n, samples, seed=11)
    mean, var, top = oracles.closed_forms(n)
    sigma = math.sqrt(float(var) / samples)
    assert abs(total / samples - float(mean)) <= 5 * sigma
    assert 0 <= lo <= hi <= top


def test_cli_checks_pin_the_bundled_fixture_and_the_n20_constants():
    footrule = oracles.table_footrule(PL_FINAL, MERSON)
    assert footrule == 56
    oracles.check_cli_mae({"footrule": 56, "mae": 2.8, "mse": 14.0}, footrule, 20)
    with pytest.raises(Mismatch):
        oracles.check_cli_mae({"footrule": 58, "mae": 2.9, "mse": 14.0}, footrule, 20)
    good = {
        "expected_mae": {"exact": "133/20"},
        "variance_score": {"exact": str(Fraction(21 * 807, 45))},
        "max_score": 200,
        "worst_probability": {"exact": "1/184756"},
    }
    oracles.check_cli_stats(good, 20)
    with pytest.raises(Mismatch):
        oracles.check_cli_stats({**good, "worst_probability": {"exact": "1/184757"}}, 20)


def test_cli_predict_check_rejects_two_swapped_teams(want):
    order = list(want.mid_orders["gd"])
    oracles.check_cli_predict(order, want, "gd")
    order[0], order[1] = order[1], order[0]
    with pytest.raises(Mismatch):
        oracles.check_cli_predict(order, want, "gd")
