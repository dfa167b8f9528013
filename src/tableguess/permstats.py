"""Permutation-distance metrics for table predictions and their exact
statistics under uniform random guessing.

A prediction is a permutation of the true final order: entry i holds the
predicted place of the team that actually finished i-th. All metrics and
closed forms are exact (integers and ``Fraction``); floats appear only in
Monte Carlo summaries and rendered output.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Hashable, Iterator, Sequence

from ._record import Record
from .textfile import shown

# Enumeration holds all n! permutations in memory at once, so it stops
# here; check_enumerable is the one check of it.
ORACLE_MAX_N = 10
# The largest league score_stats accepts. It bounds the time of the
# factorials, and keeps every exact probability printable: the denominator
# n! must stay under Python's 4300-digit limit for int-to-str conversion
# (1000! has 2568).
STATS_MAX_N = 1000
# Bounds the time of one Monte Carlo run as n * samples, 10**8 samples at
# n = 20. monte_carlo_mae also keeps n within STATS_MAX_N, where a sampler
# block is 655 samples wide or the whole run, so its size bounds the memory.
MC_MAX_WORK = 2 * 10**9


def _integer(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_sizes(
    n: int | None,
    samples: int | None = None,
    n_name: str = "league size",
    samples_name: str = "samples",
) -> None:
    """Refuse a non-integer, n outside 2..``STATS_MAX_N``, samples below 1 or n *
    samples above ``MC_MAX_WORK``, naming each as given; a None is not checked."""
    if n is not None and not 2 <= (n := _integer(n, n_name)) <= STATS_MAX_N:
        bound = "at least 2" if n < 2 else f"at most {STATS_MAX_N}"
        raise ValueError(f"{n_name} must be {bound}, got {shown(n)}")
    if samples is None:
        return
    if (samples := _integer(samples, samples_name)) < 1:
        raise ValueError(f"{samples_name} must be at least 1, got {shown(samples)}")
    if n is not None and n * samples > MC_MAX_WORK:
        raise ValueError(
            f"{samples_name} must be at most {MC_MAX_WORK // n} at {n_name} {n}, so that "
            f"{n_name} x {samples_name} stays within {MC_MAX_WORK}, got {shown(samples)}"
        )


def check_enumerable(n: int, name: str = "league size") -> None:
    """Refuse a non-integer, n above ``ORACLE_MAX_N`` with ``OracleCapError``,
    then what ``check_sizes`` refuses, naming n as given."""
    if (n := _integer(n, name)) > ORACLE_MAX_N:
        raise OracleCapError(
            f"{name} must be at most {ORACLE_MAX_N}, the enumeration ceiling, got {shown(n)}"
        )
    check_sizes(n, n_name=name)


def check_seed(seed: int | None, name: str = "seed") -> None:
    """Refuse a seed that is not an integer in 0..2**64-1; a None is not checked."""
    if seed is not None and not 0 <= _integer(seed, name) < 1 << 64:
        raise ValueError(f"{name} must be within 0..2**64-1, got {shown(seed)}")


class DimensionMismatchError(ValueError):
    """Two rankings of different length were compared."""


class OracleCapError(ValueError):
    """Enumeration was requested beyond ``ORACLE_MAX_N``."""


class Ranking(Record):
    """A bijection on 1..n: places[i-1] is the predicted place of the team
    that finished i-th."""

    places: tuple[int, ...]

    def __init__(self, places: Sequence[int]) -> None:
        places = tuple(operator.index(p) for p in places)
        n = len(places)
        if n < 2:
            raise ValueError(f"a ranking needs at least 2 entries, got {n}")
        if sorted(places) != list(range(1, n + 1)):
            raise ValueError(
                f"places must be a permutation of 1..{n}, got {places}"
            )
        object.__setattr__(self, "places", places)

    @property
    def n(self) -> int:
        return len(self.places)

    def __len__(self) -> int:
        return len(self.places)

    def __iter__(self) -> Iterator[int]:
        return iter(self.places)


def identity(n: int) -> Ranking:
    """The perfect guess: every team placed where it finished."""
    return Ranking(tuple(range(1, n + 1)))


def reversal(n: int) -> Ranking:
    """The order-reversing guess; attains the maximal score for even n."""
    return Ranking(tuple(range(n, 0, -1)))


def ranking_from_orders(
    actual_order: Sequence[Hashable], predicted_order: Sequence[Hashable]
) -> Ranking:
    """Build a Ranking from two orderings of the same labels.

    ``actual_order`` lists labels by true final position, ``predicted_order``
    by predicted position; entry i of the result is the predicted place of
    ``actual_order[i-1]``.
    """
    if len(actual_order) != len(predicted_order):
        raise DimensionMismatchError(
            f"orders differ in length: actual {len(actual_order)}"
            f" vs predicted {len(predicted_order)}"
        )
    place = {label: k for k, label in enumerate(predicted_order, start=1)}
    if len(place) != len(predicted_order):
        raise ValueError("predicted order contains duplicate labels")
    try:
        return Ranking(tuple(place[label] for label in actual_order))
    except KeyError as exc:
        raise ValueError(f"label {exc.args[0]!r} missing from predicted order") from None


def _place_errors(
    pred: Ranking | Sequence[int], actual: Ranking | Sequence[int] | None
) -> list[int]:
    """Check both rankings and their sizes once; return each team's
    predicted place minus its actual place, its index if ``actual`` is None."""
    p = pred if isinstance(pred, Ranking) else Ranking(tuple(pred))
    if actual is None:
        return list(map(operator.sub, p.places, range(1, p.n + 1)))
    a = actual if isinstance(actual, Ranking) else Ranking(tuple(actual))
    if p.n != a.n:
        raise DimensionMismatchError(f"ranking sizes differ: {p.n} vs {a.n}")
    return list(map(operator.sub, p.places, a.places))


def footrule_score(
    pred: Ranking | Sequence[int], actual: Ranking | Sequence[int] | None = None
) -> int:
    """Sum of absolute place errors; 0 iff the prediction is exact.

    ``actual`` defaults to the identity (true final order).
    """
    return sum(map(abs, _place_errors(pred, actual)))


def mae(
    pred: Ranking | Sequence[int], actual: Ranking | Sequence[int] | None = None
) -> Fraction:
    """Mean absolute place error as an exact rational."""
    errors = _place_errors(pred, actual)
    return Fraction(sum(map(abs, errors)), len(errors))


def mse(
    pred: Ranking | Sequence[int], actual: Ranking | Sequence[int] | None = None
) -> Fraction:
    """Mean squared place error as an exact rational."""
    errors = _place_errors(pred, actual)
    return Fraction(sum(d * d for d in errors), len(errors))


class ScoreStats(Record):
    """Exact distributional summary of the score and MAE of a uniformly
    random guess for a league of size n.

    The closed forms of Diaconis & Graham (1977) assume n even. For odd
    n = 2m+1 the maximum is floor(n^2/2) and n * (m!)^2 permutations reach
    it; such values carry ``generalized=True``.
    """

    n: int
    expected_score: Fraction
    expected_mae: Fraction
    variance_score: Fraction
    variance_mae: Fraction
    max_score: int
    max_mae: Fraction
    worst_count: int
    worst_probability: Fraction
    correct_probability: Fraction
    generalized: bool


def score_stats(n: int) -> ScoreStats:
    """Evaluate every closed form exactly for a league of size n.

    Refuses n above ``STATS_MAX_N``.
    """
    check_sizes(n)
    expected_score = Fraction(n * n - 1, 3)
    variance_score = Fraction((n + 1) * (2 * n * n + 7), 45)
    max_score = n * n // 2
    # Walking t = 1..n with k open positions (m = n // 2), a maximal
    # permutation climbs k = 0..m in one way per step, descends k = m..0 in
    # (m!)^2 ways and, for odd n, stays at k = m for one step in n ways.
    generalized = n % 2 == 1
    worst_count = math.factorial(n // 2) ** 2
    if generalized:
        worst_count *= n
    return ScoreStats(
        n=n,
        expected_score=expected_score,
        expected_mae=expected_score / n,
        variance_score=variance_score,
        variance_mae=variance_score / n**2,
        max_score=max_score,
        max_mae=Fraction(max_score, n),
        worst_count=worst_count,
        worst_probability=Fraction(worst_count, math.factorial(n)),
        correct_probability=Fraction(1, math.factorial(n)),
        generalized=generalized,
    )


class ScoreDistribution(Record):
    """Exact distribution of the footrule score over all n! permutations."""

    n: int
    counts: dict[int, int]


def brute_force_distribution(n: int) -> ScoreDistribution:
    """Enumerate all n! permutations and tally their scores.

    The independent oracle behind the closed forms; refuses what
    ``check_enumerable`` refuses.
    """
    check_enumerable(n)
    from . import _kernels

    counts = _kernels.score_distribution_counts(n)
    return ScoreDistribution(
        n=n, counts={s: int(c) for s, c in enumerate(counts) if c}
    )


def distribution_moments(
    dist: ScoreDistribution,
) -> tuple[Fraction, Fraction, int, int]:
    """Exact (mean, variance, max, count at max) of an enumerated distribution."""
    total = math.factorial(dist.n)
    mean = Fraction(sum(s * c for s, c in dist.counts.items()), total)
    second = Fraction(sum(s * s * c for s, c in dist.counts.items()), total)
    top = max(dist.counts)
    return mean, second - mean**2, top, dist.counts[top]


class MonteCarloSummary(Record):
    """Sample summary of MAE over uniform random guesses.

    ``variance`` is the population variance of the sampled MAE values. All
    fields are exact rationals derived from integer score moments, so equal
    seeds give equal summaries bit for bit.
    """

    n: int
    samples: int
    seed: int
    mean: Fraction
    variance: Fraction
    minimum: Fraction
    maximum: Fraction


def monte_carlo_mae(n: int, samples: int, seed: int) -> MonteCarloSummary:
    """Sample ``samples`` uniform random guesses and summarise their MAE.

    Reproducible for a fixed (n, samples, seed); see tableguess._kernels.
    Refuses, before sampling, what ``check_sizes`` and ``check_seed`` refuse.
    """
    check_sizes(n, samples)
    check_seed(seed)
    from . import _kernels

    total, total_sq, lo, hi = _kernels.mc_score_moments(n, samples, seed)
    mean = Fraction(total, samples * n)
    variance = Fraction(
        samples * total_sq - total * total, samples * samples * n * n
    )
    return MonteCarloSummary(
        n=n,
        samples=samples,
        seed=int(seed),
        mean=mean,
        variance=variance,
        minimum=Fraction(lo, n),
        maximum=Fraction(hi, n),
    )
