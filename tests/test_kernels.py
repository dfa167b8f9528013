import itertools
import tracemalloc

import numpy as np

from tableguess import _kernels


class TestNumpyLane:
    def test_chunk_size_cannot_change_results(self):
        h = _kernels.seed_hash(77)
        small = _kernels._mc_moments_numpy(9, 4321, h, chunk=17)
        large = _kernels._mc_moments_numpy(9, 4321, h, chunk=1 << 15)
        assert small == large

    def test_counts_match_direct_enumeration(self):
        n = 6
        reference = np.zeros(n * n // 2 + 1, dtype=np.int64)
        for perm in itertools.permutations(range(n)):
            reference[sum(abs(v - k) for k, v in enumerate(perm))] += 1
        assert (_kernels._dist_counts_numpy(n) == reference).all()

    def test_moments_match_direct_sampling_statistics(self):
        # the moments must describe genuine permutations: max below the
        # score ceiling, min at least 0, totals consistent
        n, samples = 10, 5000
        total, total_sq, lo, hi = _kernels._mc_moments_numpy(
            n, samples, _kernels.seed_hash(5)
        )
        assert 0 <= lo <= hi <= n * n // 2
        assert lo % 2 == hi % 2 == 0
        assert samples * lo <= total <= samples * hi
        assert total_sq >= total * total // (samples * samples)

    def test_sum_of_squares_cannot_wrap(self):
        # 128 scores near n^2/3 = 3e8 square to ~1.2e19 together, above the
        # int64 range
        samples = 128
        total, total_sq, _, _ = _kernels.mc_score_moments(30_000, samples, 7)
        assert samples * total_sq >= total**2 > 0

    def test_memory_is_bounded_for_large_leagues(self):
        tracemalloc.start()
        try:
            _kernels.mc_score_moments(2000, 2000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20
