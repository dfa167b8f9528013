"""Hot numeric kernels: random-permutation sampling and full enumeration.

Both are verification oracles for the closed forms in ``permstats``; no
product path runs them. Each has one numpy implementation.

Randomness is counter-based: the value consumed at shuffle step ``i`` of
sample ``s`` is a SplitMix64-style hash of ``(seed, s, i, retry)``, so
results cannot depend on chunk size or vectorisation order. Bounded draws
use modulo with rejection, which keeps the shuffle exactly uniform.
The moments are exact for any n: squared scores are summed in Python ints,
and a block is small enough that its int64 score sum cannot wrap.
"""

from __future__ import annotations

import itertools

import numpy as np

_MASK = (1 << 64) - 1
_M1_INT = 0xBF58476D1CE4E5B9
_M2_INT = 0x94D049BB133111EB
_SAMPLE_STRIDE_INT = 0x9E3779B97F4A7C15
_STEP_STRIDE_INT = 0xC2B2AE3D27D4EB4F
_SEED_SALT = 0x8AD64C65E2D4B97F

_M1 = np.uint64(_M1_INT)
_M2 = np.uint64(_M2_INT)
_SAMPLE_STRIDE = np.uint64(_SAMPLE_STRIDE_INT)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)

# Memory budget of one int64 permutation block in the sampler: 32768 rows
# at n = 20, and a few hundred rows at n in the thousands.
_BLOCK_BYTES = 5 << 20


def _mix64_int(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1_INT) & _MASK
    z = ((z ^ (z >> 27)) * _M2_INT) & _MASK
    return z ^ (z >> 31)


def seed_hash(seed: int) -> int:
    """Condense a user seed into the 64-bit state the sampler starts from."""
    return _mix64_int((int(seed) & _MASK) ^ _SEED_SALT)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _S30)) * _M1
    z = (z ^ (z >> _S27)) * _M2
    return z ^ (z >> _S31)


def _mc_moments_numpy(
    n: int, samples: int, h: int, chunk: int | None = None
) -> tuple[int, int, int, int]:
    if chunk is None:
        chunk = max(1, _BLOCK_BYTES // (8 * n))
    idx = np.arange(n, dtype=np.int64)
    rows_full = np.arange(chunk)
    total = 0
    total_sq = 0
    lo: int | None = None
    hi: int | None = None
    for start in range(0, samples, chunk):
        m = min(chunk, samples - start)
        sample_ids = np.arange(start, start + m, dtype=np.uint64)
        base = _mix64_np(np.uint64(h) ^ (sample_ids * _SAMPLE_STRIDE))
        perm = np.tile(idx, (m, 1))
        rows = rows_full[:m]
        for i in range(n - 1, 0, -1):
            bound = i + 1
            step = np.uint64((i * _STEP_STRIDE_INT) & _MASK)
            u = _mix64_np(base ^ step)
            rem = (1 << 64) % bound
            if rem:
                threshold = np.uint64((1 << 64) - rem)
                retry = 0
                while True:
                    bad = u >= threshold
                    if not bad.any():
                        break
                    retry += 1
                    u = np.where(bad, _mix64_np(base ^ step ^ np.uint64(retry)), u)
            j = (u % np.uint64(bound)).astype(np.int64)
            vi = perm[rows, i]
            vj = perm[rows, j]
            perm[rows, i] = vj
            perm[rows, j] = vi
        scores = np.abs(perm - idx).sum(axis=1)
        total += int(scores.sum())
        total_sq += sum(s * s for s in scores.tolist())
        cmin = int(scores.min())
        cmax = int(scores.max())
        lo = cmin if lo is None else min(lo, cmin)
        hi = cmax if hi is None else max(hi, cmax)
    assert lo is not None and hi is not None
    return total, total_sq, lo, hi


def _dist_counts_numpy(n: int, chunk: int = 40320) -> np.ndarray:
    counts = np.zeros(n * n // 2 + 1, dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    perms = itertools.permutations(range(n))
    while True:
        block = list(itertools.islice(perms, chunk))
        if not block:
            break
        arr = np.array(block, dtype=np.int64)
        scores = np.abs(arr - idx).sum(axis=1)
        counts += np.bincount(scores, minlength=counts.size)
    return counts


def mc_score_moments(n: int, samples: int, seed: int) -> tuple[int, int, int, int]:
    """Exact (sum, sum of squares, min, max) of the footrule score over
    ``samples`` uniform random permutations of size ``n``.

    Bit-identical for a fixed (n, samples, seed).
    """
    return _mc_moments_numpy(n, samples, seed_hash(seed))


def score_distribution_counts(n: int) -> np.ndarray:
    """Footrule score histogram over all n! permutations.

    Index s holds the number of permutations with score s; odd indices stay 0.
    """
    return _dist_counts_numpy(n)
