import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tableguess import _kernels, permstats
from tableguess.permstats import (
    DimensionMismatchError,
    OracleCapError,
    Ranking,
    brute_force_distribution,
    distribution_moments,
    footrule_score,
    identity,
    mae,
    monte_carlo_mae,
    mse,
    ranking_from_orders,
    reversal,
    score_stats,
)
from test_kernels import _reference_scores


@st.composite
def rankings(draw, min_n: int = 2, max_n: int = 12):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    return Ranking(tuple(draw(st.permutations(list(range(1, n + 1))))))


@st.composite
def ranking_pairs(draw, min_n: int = 2, max_n: int = 12):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    values = list(range(1, n + 1))
    first = Ranking(tuple(draw(st.permutations(values))))
    second = Ranking(tuple(draw(st.permutations(values))))
    return first, second


class TestRanking:
    def test_identity_and_reversal(self):
        assert identity(4).places == (1, 2, 3, 4)
        assert reversal(4).places == (4, 3, 2, 1)
        assert reversal(2).places == (2, 1)

    def test_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            Ranking((1, 1, 3))
        with pytest.raises(ValueError):
            Ranking((0, 1, 2))
        with pytest.raises(ValueError):
            Ranking((1, 2, 4))

    def test_rejects_short_rankings(self):
        with pytest.raises(ValueError):
            Ranking((1,))

    def test_accepts_sequences_in_operations(self):
        assert footrule_score([2, 1, 3]) == 2
        with pytest.raises(ValueError):
            footrule_score([2, 2, 3])

    @given(rankings())
    def test_constructed_rankings_are_bijections(self, ranking):
        assert sorted(ranking.places) == list(range(1, ranking.n + 1))


class TestFootrule:
    def test_identity_scores_zero(self):
        assert footrule_score(identity(20)) == 0

    def test_reversal_of_four(self):
        # |4-1| + |3-2| + |2-3| + |1-4| = 3 + 1 + 1 + 3
        assert footrule_score(reversal(4)) == 8

    def test_merson_prediction(self, merson_ranking):
        assert footrule_score(merson_ranking) == 56

    def test_two_ranking_form(self):
        assert footrule_score((2, 1, 3), (2, 1, 3)) == 0
        assert footrule_score((1, 2, 3), (3, 2, 1)) == 4

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            footrule_score(identity(3), identity(4))

    @given(ranking_pairs())
    def test_symmetry(self, pair):
        first, second = pair
        assert footrule_score(first, second) == footrule_score(second, first)

    @given(rankings())
    def test_score_is_even(self, ranking):
        assert footrule_score(ranking) % 2 == 0

    @given(ranking_pairs(max_n=10))
    def test_relabeling_invariance(self, pair):
        first, second = pair
        n = first.n
        for sigma in (tuple(range(n - 1, -1, -1)), tuple(range(1, n)) + (0,)):
            relabelled_first = tuple(first.places[k] for k in sigma)
            relabelled_second = tuple(second.places[k] for k in sigma)
            assert footrule_score(relabelled_first, relabelled_second) == footrule_score(
                first, second
            )

    @given(rankings(min_n=4, max_n=12))
    def test_bounded_by_max_for_even_n(self, ranking):
        if ranking.n % 2 == 0:
            assert 0 <= mae(ranking) <= score_stats(ranking.n).max_mae

    @given(ranking_pairs(min_n=4, max_n=12))
    def test_pairwise_mae_respects_the_same_bound(self, pair):
        first, second = pair
        if first.n % 2 == 0:
            assert 0 <= mae(first, second) <= score_stats(first.n).max_mae

    @given(rankings(max_n=40))
    def test_diaconis_graham_inequality(self, ranking):
        # I <= D <= 2I with I the number of Kendall inversions (Diaconis &
        # Graham 1977)
        inversions = sum(a > b for a, b in itertools.combinations(ranking.places, 2))
        assert inversions <= footrule_score(ranking) <= 2 * inversions

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_reversal_attains_the_enumerated_maximum(self, n):
        dist = brute_force_distribution(n)
        assert footrule_score(reversal(n)) == max(dist.counts) == n * n // 2


class TestMetrics:
    def test_mae_merson(self, merson_ranking):
        assert mae(merson_ranking) == Fraction(14, 5)
        assert mae(merson_ranking) == Fraction("2.8")

    def test_mae_identity(self):
        assert mae(identity(7)) == 0

    def test_mae_reversal_twenty(self):
        assert mae(reversal(20)) == 10

    def test_mse_identity(self):
        assert mse(identity(5)) == 0

    def test_mse_reversal_of_four(self):
        assert mse(reversal(4)) == Fraction(9 + 1 + 1 + 9, 4) == 5

    def test_mse_merson(self, merson_ranking):
        # squared deviations of the fixture sum to 280
        assert mse(merson_ranking) == Fraction(280, 20) == 14


class TestRankingFromOrders:
    def test_same_orders_give_identity(self):
        order = ["a", "b", "c"]
        assert ranking_from_orders(order, order) == identity(3)

    def test_merson_fixture_files(self, merson_from_files, merson_ranking):
        assert merson_from_files == merson_ranking

    def test_label_errors(self):
        with pytest.raises(DimensionMismatchError):
            ranking_from_orders(["a", "b"], ["a", "b", "c"])
        with pytest.raises(ValueError):
            ranking_from_orders(["a", "b"], ["a", "a"])
        with pytest.raises(ValueError):
            ranking_from_orders(["a", "x"], ["a", "b"])


def _maximal_footrule(n: int) -> tuple[int, int]:
    """(largest footrule score, number of permutations reaching it) by the
    transfer-matrix walk: with k open positions, step t moves to k+1 in 1
    way, stays at k in 2k+1 ways or drops to k-1 in k^2 ways, and the score
    grows by twice the new k."""
    best = {0: (0, 1)}  # k -> (largest half-score so far, ways to reach it)
    for _ in range(n):
        step: dict[int, tuple[int, int]] = {}
        for k, (half, ways) in best.items():
            for k2, w in ((k + 1, 1), (k, 2 * k + 1), (k - 1, k * k)):
                if not w:
                    continue
                top, count = step.get(k2, (-1, 0))
                if half + k2 > top:
                    step[k2] = (half + k2, ways * w)
                elif half + k2 == top:
                    step[k2] = (top, count + ways * w)
        best = step
    half, ways = best[0]
    return 2 * half, ways


class TestScoreStats:
    def test_twenty_team_league(self):
        stats = score_stats(20)
        assert stats.expected_mae == Fraction(133, 20) == Fraction("6.65")
        assert stats.max_score == 200
        assert stats.max_mae == 10
        assert stats.worst_count == math.factorial(10) ** 2
        assert stats.worst_probability == Fraction(1, 184756)
        assert stats.correct_probability == Fraction(1, 2432902008176640000)
        assert not stats.generalized

    def test_two_teams(self):
        stats = score_stats(2)
        assert stats.expected_score == 1
        assert stats.variance_score == 1
        assert stats.max_score == 2
        assert stats.worst_count == 1
        assert stats.expected_mae == Fraction(1, 2)

    def test_four_teams(self):
        stats = score_stats(4)
        assert stats.expected_mae == Fraction(5, 4)
        assert stats.variance_score == Fraction(13, 3)
        assert stats.max_score == 8
        assert stats.worst_count == 4

    def test_consistency_identities(self):
        for n in (2, 5, 8, 13, 20):
            stats = score_stats(n)
            assert stats.expected_mae == stats.expected_score / n
            assert stats.variance_mae == stats.variance_score / n**2
            assert stats.max_mae == Fraction(stats.max_score, n)
            assert stats.worst_probability == Fraction(
                stats.worst_count, math.factorial(n)
            )

    def test_odd_n_uses_enumeration_within_cap(self):
        stats = score_stats(3)
        assert stats.generalized
        assert stats.max_score == 4
        assert stats.worst_count == 3
        assert stats.worst_probability == Fraction(3, 6)

    def test_odd_n_beyond_cap_has_no_count(self):
        stats = score_stats(11)
        assert stats.generalized
        assert stats.max_score == 60
        assert stats.worst_count == 11 * math.factorial(5) ** 2 == 158400
        assert stats.worst_probability == Fraction(158400, math.factorial(11))

    def test_worst_count_matches_the_transfer_matrix_walk(self):
        for n in range(2, 32):
            stats = score_stats(n)
            assert (stats.max_score, stats.worst_count) == _maximal_footrule(n)

    def test_rejects_tiny_leagues(self):
        with pytest.raises(ValueError):
            score_stats(1)
        with pytest.raises(ValueError):
            score_stats(0)

    def test_refuses_huge_leagues_before_any_factorial(self, monkeypatch):
        def refuse(n):
            raise AssertionError("a factorial was taken before the size check")

        assert score_stats(permstats.STATS_MAX_N).n == permstats.STATS_MAX_N
        monkeypatch.setattr(permstats.math, "factorial", refuse)
        for n in (permstats.STATS_MAX_N + 1, 10**7):
            with pytest.raises(ValueError, match="league size must be at most 1000"):
                score_stats(n)


class TestBruteForce:
    def test_three_team_distribution(self):
        dist = brute_force_distribution(3)
        assert dist.counts == {0: 1, 2: 2, 4: 3}

    def test_two_team_distribution(self):
        assert brute_force_distribution(2).counts == {0: 1, 2: 1}

    def test_four_team_maximisers(self):
        dist = brute_force_distribution(4)
        assert max(dist.counts) == 8
        assert dist.counts[8] == 4

    def test_counts_account_for_every_permutation(self):
        for n in range(2, 8):
            dist = brute_force_distribution(n)
            assert sum(dist.counts.values()) == math.factorial(n)
            assert dist.counts[0] == 1
            assert all(s % 2 == 0 for s in dist.counts)
            assert max(dist.counts) == n * n // 2

    def test_cap_refusal(self):
        with pytest.raises(OracleCapError):
            brute_force_distribution(permstats.ORACLE_MAX_N + 1)
        with pytest.raises(ValueError):
            brute_force_distribution(1)

    def test_moments_match_closed_forms(self):
        for n in range(2, 7):
            mean, variance, top, top_count = distribution_moments(
                brute_force_distribution(n)
            )
            stats = score_stats(n)
            assert mean == stats.expected_score
            assert variance == stats.variance_score
            assert top == stats.max_score
            assert top_count == stats.worst_count


class TestMaximiserCharacterisation:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_even_n_maximisers_ship_the_top_half(self, n):
        half = n // 2
        best = n * n // 2
        for perm in itertools.permutations(range(1, n + 1)):
            attains = footrule_score(perm) == best
            ships = all(perm[i] >= half + 1 for i in range(half)) and all(
                perm[i] <= half for i in range(half, n)
            )
            assert attains == ships


class TestMonteCarlo:
    def test_bit_identical_for_fixed_seed(self):
        first = monte_carlo_mae(20, 5000, 99)
        second = monte_carlo_mae(20, 5000, 99)
        assert first == second

    def test_two_team_samples_are_zero_or_one(self):
        summary = monte_carlo_mae(2, 500, 7)
        assert summary.minimum in (Fraction(0), Fraction(1))
        assert summary.maximum in (Fraction(0), Fraction(1))
        assert Fraction(0) <= summary.mean <= Fraction(1)

    def test_three_team_mean_near_exact_value(self):
        summary = monte_carlo_mae(3, 100_000, 11)
        expected = score_stats(3).expected_mae
        assert expected == Fraction(8, 9)
        tolerance = 3 * math.sqrt(float(score_stats(3).variance_mae) / 100_000)
        assert abs(float(summary.mean) - float(expected)) <= tolerance

    def test_reversal_bound_applies(self):
        summary = monte_carlo_mae(8, 2000, 3)
        assert summary.maximum <= score_stats(8).max_mae

    def test_seed_changes_the_sample(self):
        assert monte_carlo_mae(20, 1000, 1) != monte_carlo_mae(20, 1000, 2)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            monte_carlo_mae(1, 10, 0)
        with pytest.raises(ValueError):
            monte_carlo_mae(5, 0, 0)

    @pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 42])
    def test_a_seed_outside_64_bits_is_refused_before_sampling(self, monkeypatch, seed):
        def refuse(*args, **kwargs):
            raise AssertionError("sampling started before the seed was checked")

        monkeypatch.setattr(_kernels, "mc_score_moments", refuse)
        with pytest.raises(ValueError, match=rf"^seed must be within 0\.\.2\*\*64-1, got {seed}$"):
            monte_carlo_mae(20, 10, seed)

    @pytest.mark.parametrize(
        "call, args, message",
        [
            (permstats.check_sizes, (10**5000,), "league size must be at most 1000"),
            (permstats.check_sizes, (20, 10**5000), "samples must be at most 100000000"),
            (permstats.check_seed, (-(10**5000),), "seed must be within 0..2**64-1"),
            (brute_force_distribution, (10**5000,), "league size must be at most 10"),
        ],
        ids=["n", "samples", "seed", "enumerable-n"],
    )
    def test_an_integer_too_long_to_print_is_refused_by_its_size(self, call, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}.*, got an integer of 16610 bits$"):
            call(*args)

    @pytest.mark.parametrize(
        "call, args, message",
        [
            (monte_carlo_mae, (20, 1000, 42.7), "seed must be an integer, got 42.7"),
            (monte_carlo_mae, (20, 1000.0, 42), "samples must be an integer, got 1000.0"),
            (score_stats, (20.0,), "league size must be an integer, got 20.0"),
            (brute_force_distribution, (4.0,), "league size must be an integer, got 4.0"),
            (brute_force_distribution, (11.0,), "league size must be an integer, got 11.0"),
        ],
        ids=["mc-seed", "mc-samples", "score-stats-n", "brute-force-n", "brute-force-n-past-ceiling"],
    )
    def test_a_float_size_or_seed_is_refused_before_any_work(
        self, monkeypatch, call, args, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the inputs were checked")

        for name in ("mc_score_moments", "score_distribution_counts"):
            monkeypatch.setattr(_kernels, name, refuse)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(*args)

    def test_work_bound_refuses_before_sampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampling started before the work bound was checked")

        monkeypatch.setattr(_kernels, "mc_score_moments", refuse)
        with pytest.raises(
            ValueError,
            match="^samples must be at most 2000000 at league size 1000, so that "
            "league size x samples stays within 2000000000, got 100000000$",
        ):
            monte_carlo_mae(1000, 10**8, 1)
        with pytest.raises(
            ValueError,
            match="^samples must be at most 100000000 at league size 20, so that "
            "league size x samples stays within 2000000000, got 100000001$",
        ):
            monte_carlo_mae(20, permstats.MC_MAX_WORK // 20 + 1, 1)
        # one sample is far within the work bound, but the league is too large
        with pytest.raises(ValueError, match="^league size must be at most 1000, got 1001$"):
            monte_carlo_mae(1001, 1, 1)

    def test_work_bound_is_two_billion_inclusive(self, monkeypatch):
        assert permstats.MC_MAX_WORK == 2 * 10**9
        runs = []

        def stub(n, samples, seed):
            runs.append((n, samples))
            return 0, 0, 0, 0

        monkeypatch.setattr(_kernels, "mc_score_moments", stub)
        assert monte_carlo_mae(2, 10**9, 1).samples == 10**9
        assert runs == [(2, 10**9)]
        # 3 * 666666667 is one more than the bound
        with pytest.raises(
            ValueError,
            match="^samples must be at most 666666666 at league size 3, so that "
            "league size x samples stays within 2000000000, got 666666667$",
        ):
            monte_carlo_mae(3, 666_666_667, 1)
        assert runs == [(2, 10**9)]

    @pytest.mark.parametrize("n, samples, seed", [(2, 7, 1), (7, 40, 3), (20, 25, 42)])
    def test_summary_is_that_of_the_sampled_mae(self, n, samples, seed):
        maes = [Fraction(score, n) for score in _reference_scores(n, samples, seed)[0]]
        mean = sum(maes) / samples
        summary = monte_carlo_mae(n, samples, seed)
        assert summary.mean == mean
        # the population variance, not the sample variance
        assert summary.variance == sum((m - mean) ** 2 for m in maes) / samples
        assert (summary.minimum, summary.maximum) == (min(maes), max(maes))

    @settings(max_examples=20)
    @given(st.integers(min_value=0, max_value=2**63))
    def test_any_seed_is_accepted(self, seed):
        summary = monte_carlo_mae(4, 16, seed)
        assert summary.samples == 16
