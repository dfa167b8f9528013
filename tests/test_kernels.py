import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tableguess import _kernels
from tableguess._kernels import score_distribution_counts
from tableguess.cli import main
from tableguess.permstats import ORACLE_MAX_N, OracleCapError, brute_force_distribution

MASK = (1 << 64) - 1
M1 = 0xBF58476D1CE4E5B9
M2 = 0x94D049BB133111EB
SAMPLE_STRIDE = 0x9E3779B97F4A7C15
STEP_STRIDE = 0xC2B2AE3D27D4EB4F
SEED_SALT = 0x8AD64C65E2D4B97F

# (n, samples, seed, (sum, sum of squares, min, max)); seeded results must
# stay bit-stable across versions
PINNED_MOMENTS = [
    (2, 7, 1, (8, 16, 0, 2)),
    (3, 1000, 2, (2664, 9392, 0, 4)),
    (9, 4321, 77, (115108, 3233048, 6, 40)),
    (200, 3000, 5, (40004526, 534543417284, 11166, 15322)),
    (2000, 300, 11, (400397488, 534502117239792, 1277876, 1399660)),
    (20, 50000, 3, (6645194, 902058620, 56, 198)),
    (2000, 2000, 1, (2667784012, 3559276940062072, 1264758, 1404048)),
]


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * M1) & MASK
    z = ((z ^ (z >> 27)) * M2) & MASK
    return z ^ (z >> 31)


def _unxorshift(z: int, shift: int) -> int:
    """Inverse of z -> z ^ (z >> shift) on 64 bits."""
    x = z
    for _ in range(64 // shift + 1):
        x = z ^ (x >> shift)
    return x


def _unmix64(z: int) -> int:
    z = _unxorshift(z, 31)
    z = (z * pow(M2, -1, 1 << 64)) & MASK
    z = _unxorshift(z, 27)
    z = (z * pow(M1, -1, 1 << 64)) & MASK
    return _unxorshift(z, 30)


def _reference_scores(n: int, samples: int, seed: int) -> tuple[list[int], int]:
    """The documented sampler one sample at a time in Python ints: (the
    score of each sample, number of rejected draws)."""
    h = _mix64((seed & MASK) ^ SEED_SALT)
    scores = []
    rejected = 0
    for s in range(samples):
        base = _mix64(h ^ ((s * SAMPLE_STRIDE) & MASK))
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            bound = i + 1
            step = (i * STEP_STRIDE) & MASK
            u = _mix64(base ^ step)
            retry = 0
            while u >= (1 << 64) - (1 << 64) % bound:
                rejected += 1
                retry += 1
                u = _mix64(base ^ step ^ retry)
            j = u % bound
            perm[i], perm[j] = perm[j], perm[i]
        scores.append(sum(abs(v - k) for k, v in enumerate(perm)))
    return scores, rejected


def _reference_moments(n: int, samples: int, seed: int) -> tuple[tuple[int, ...], int]:
    """The reference sampler's ((sum, sum of squares, min, max), number of
    rejected draws)."""
    scores, rejected = _reference_scores(n, samples, seed)
    moments = (sum(scores), sum(s * s for s in scores), min(scores), max(scores))
    return moments, rejected


def _footrule_counts(n: int) -> list[int]:
    """Number of permutations of size n with each footrule score (OEIS
    A062869), by the transfer-matrix walk over k open positions: step t
    moves to k+1 in 1 way, stays at k in 2k+1 ways or drops to k-1 in k^2
    ways, and the score grows by twice the new k."""
    ways = {(0, 0): 1}  # (k, half-score) -> permutations
    for _ in range(n):
        step: dict[tuple[int, int], int] = {}
        for (k, half), w in ways.items():
            for k2, mult in ((k + 1, 1), (k, 2 * k + 1), (k - 1, k * k)):
                if mult and k2 <= n:
                    key = (k2, half + k2)
                    step[key] = step.get(key, 0) + w * mult
        ways = step
    counts = [0] * (n * n // 2 + 1)
    for (k, half), w in ways.items():
        if k == 0:
            counts[2 * half] = w
    return counts


def set_block(monkeypatch, block: int | None) -> None:
    """Cap the sampler's blocks at ``block`` samples, or leave its own size
    when None; no test here is wide enough for the byte limit to bind."""
    if block is not None:
        monkeypatch.setattr(_kernels, "_BLOCK_SAMPLES", block)


class TestNumpyLane:
    def test_chunk_size_cannot_change_results(self, monkeypatch):
        set_block(monkeypatch, 17)
        small = _kernels.mc_score_moments(9, 4321, 77)
        set_block(monkeypatch, 1 << 15)
        large = _kernels.mc_score_moments(9, 4321, 77)
        assert small == large

    def test_counts_match_direct_enumeration(self):
        n = 6
        reference = np.zeros(n * n // 2 + 1, dtype=np.int64)
        for perm in itertools.permutations(range(n)):
            reference[sum(abs(v - k) for k, v in enumerate(perm))] += 1
        assert (_kernels.score_distribution_counts(n) == reference).all()

    def test_moments_match_direct_sampling_statistics(self):
        # the moments must describe genuine permutations: max below the
        # score ceiling, min at least 0, totals consistent
        n, samples = 10, 5000
        total, total_sq, lo, hi = _kernels.mc_score_moments(n, samples, 5)
        assert 0 <= lo <= hi <= n * n // 2
        assert lo % 2 == hi % 2 == 0
        assert samples * lo <= total <= samples * hi
        assert total_sq >= total * total // (samples * samples)

    def test_sum_of_squares_cannot_wrap(self):
        # 128 scores near n^2/3 = 3e8 square to ~1.2e19 together, above the
        # int64 range
        samples = 128
        moments = _kernels.mc_score_moments(30_000, samples, 7)
        assert moments == (38394985116, 11517193972861694000, 296816024, 302926980)
        total, total_sq, _, _ = moments
        assert samples * total_sq >= total**2 > 0

    def test_memory_is_bounded_for_large_leagues(self):
        tracemalloc.start()
        try:
            _kernels.mc_score_moments(2000, 2000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20

    def test_memory_is_bounded_for_small_leagues(self):
        # the sample cap keeps an n = 20 block to 8192 samples; with 32768
        # the traced peak was 4.57 MiB
        tracemalloc.start()
        try:
            _kernels.mc_score_moments(20, 50000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 << 19


PINNED_CASES = [
    (*case, block)
    for case in PINNED_MOMENTS
    for block in (None, 1, 17)
    # one-sample blocks cost a Python loop per sample
    if block != 1 or case[0] * case[1] <= 100_000
]


def pinned_id(case: tuple) -> str:
    """``n200-s3000-seed5-block17``; ``blockdefault`` is the sampler's own size."""
    n, samples, seed, _, block = case
    return f"n{n}-s{samples}-seed{seed}-block{'default' if block is None else block}"


class TestSampler:
    @pytest.mark.parametrize(
        "n, samples, seed, moments, block", PINNED_CASES, ids=[pinned_id(c) for c in PINNED_CASES]
    )
    def test_seeded_moments_are_pinned(self, monkeypatch, n, samples, seed, moments, block):
        set_block(monkeypatch, block)
        assert _kernels.mc_score_moments(n, samples, seed) == moments

    def test_partial_last_tile_and_block_are_pinned(self, monkeypatch):
        n, samples, seed, moments = PINNED_MOMENTS[3]
        block = 1100
        rows = _kernels._TILE_BYTES // (8 * block)
        # neither do the steps fill whole tiles nor the samples whole blocks
        assert (n - 1) % rows and samples % block
        set_block(monkeypatch, block)
        assert _kernels.mc_score_moments(n, samples, seed) == moments

    def test_matches_the_python_reference_sampler(self):
        # scores near 3.3e9 at n = 100000 take the int64 sum
        for n, samples, seed in ((2, 5, 0), (7, 40, 3), (20, 25, 42), (100_000, 2, 5)):
            want, _ = _reference_moments(n, samples, seed)
            assert _kernels.mc_score_moments(n, samples, seed) == want

    def test_rejected_draws_are_redrawn(self, monkeypatch):
        # Work the hash backwards to a seed whose sample 0 draws u = 2^64 - 1
        # at step i = 19 of n = 20, which modulo rejection must refuse.
        n, i = 20, 19
        base = _unmix64(MASK) ^ ((i * STEP_STRIDE) & MASK)
        seed = _unmix64(_unmix64(base)) ^ SEED_SALT
        assert _mix64(_mix64(_mix64(seed ^ SEED_SALT)) ^ ((i * STEP_STRIDE) & MASK)) == MASK

        redraws = []
        redraw = _kernels._redraw

        def spy(u, *args):
            redraws.append(int(u.max()))
            redraw(u, *args)

        monkeypatch.setattr(_kernels, "_redraw", spy)
        want, rejected = _reference_moments(n, 3, seed)
        assert rejected >= 1
        assert _kernels.mc_score_moments(n, 3, seed) == want
        assert MASK in redraws


class TestEnumeration:
    @pytest.mark.parametrize("n", range(0, 8))
    def test_rows_are_every_permutation_once(self, n):
        rows = _kernels._all_permutations(n).T
        assert rows.shape == (math.factorial(n), n)
        assert len({row.tobytes() for row in rows}) == math.factorial(n)
        assert (np.sort(rows, axis=1) == np.arange(n)).all()

    @pytest.mark.parametrize("n", range(2, 11))
    def test_counts_match_the_transfer_matrix(self, n):
        assert _kernels.score_distribution_counts(n).tolist() == _footrule_counts(n)

    def test_ceiling_holds_whatever_the_cap(self):
        with pytest.raises(OracleCapError):
            brute_force_distribution(11)
        with pytest.raises(ValueError):
            _kernels.score_distribution_counts(ORACLE_MAX_N + 1)

    def test_every_route_refuses_past_the_ceiling_by_one_rule(
        self, capsys, monkeypatch, enumerated_sizes
    ):
        def refuse(n):
            raise AssertionError("enumeration started past the ceiling")

        monkeypatch.setattr(_kernels, "_all_permutations", refuse)
        rule = f"must be at most {ORACLE_MAX_N}, the enumeration ceiling, got {ORACLE_MAX_N + 1}"
        with pytest.raises(OracleCapError, match=f"^league size {rule}$"):
            brute_force_distribution(ORACLE_MAX_N + 1)
        # the kernel as defined, not the fixture's spy, which records its calls
        with pytest.raises(OracleCapError, match=f"^league size {rule}$"):
            score_distribution_counts(ORACLE_MAX_N + 1)
        assert main(["verify", "--exact", str(ORACLE_MAX_N + 1)]) == 2
        assert capsys.readouterr() == ("", f"error: --exact {rule}\n")
        assert enumerated_sizes == []

    def test_memory_is_bounded(self):
        tracemalloc.start()
        try:
            _kernels.score_distribution_counts(9)
            _, peak9 = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            _kernels.score_distribution_counts(10)
            _, peak10 = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak9 < 16 << 20
        # 10! permutations of 10 bytes take 34.6 MiB; summed row by row
        # into int16 scores they peaked at 41.6 MiB
        assert peak10 < 40 << 20

    @pytest.mark.parametrize("n", [255, 256, 65535, 65536])
    def test_scores_reach_the_maximum_without_wrapping(self, n):
        # the reversal scores n^2 / 2, one above what int16 holds at n = 256
        # and int32 at n = 65536
        reversal = np.arange(n - 1, -1, -1, dtype=np.int32)[:, None]
        assert _kernels._footrule_scores(reversal).tolist() == [n * n // 2]
