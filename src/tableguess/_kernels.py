"""Hot numeric kernels: random-permutation sampling and full enumeration.

Both are verification oracles for the closed forms in ``permstats``; no
product path runs them.

Both store permutations positions-major, one permutation per column, and
score them with one reduction, ``_footrule_scores``: it subtracts each
position's index and takes ``abs`` in place, then sums the columns into
the smallest signed type that holds the largest score n^2 / 2 (int8 up to
n = 15, int16 up to 255, int32 up to 65535, int64 above). The sum is
exact, as every partial sum lies between 0 and the column's score.

Enumeration builds all n! permutations at once as an (n, n!) int8 array,
by insertion: the columns for n come from the columns for n-1 with the
value n-1 inserted at each of the n positions, each copy along the
contiguous last axis. It is still brute force over every permutation, so
it stays independent of the closed forms. Because the whole array is held
in memory, ``permstats.check_enumerable`` caps n at ``ORACLE_MAX_N`` = 10
(10! permutations of 10 bytes, 36 MB).

Randomness is counter-based: the value consumed at shuffle step ``i`` of
sample ``s`` is a SplitMix64-style hash of ``(seed, s, i, retry)``, so
results cannot depend on block size or vectorisation order. The seed, a
64-bit key, is checked by ``permstats.check_seed``. Bounded draws use
modulo with rejection, which keeps the shuffle exactly uniform.
A block of samples is stored positions x samples, so the column a
Fisher-Yates step swaps is one contiguous row. The draws are hashed a
tile at a time: a tile holds the draws of consecutive steps, one row of
the block's width per step, within ``_TILE_BYTES``. One set of numpy
passes over a tile mixes the hash, reduces each draw modulo its step's
bound and turns it into a flat swap target. One more pass tells whether
any draw of the tile may be rejected, and only then are its rows checked
one by one. Each step then issues only the three calls of its swap. The
constants of each tile (step hash constants, bounds, rejection limits)
are built once per call, 24 bytes a step.

A block holds at most ``_BLOCK_SAMPLES`` = 8192 samples and at most
``_BLOCK_BYTES // (8 n)``; no caller sets it. The byte limit bounds
memory at large n (21 samples at n = 30000). The sample cap binds up to
n = 80; the byte limit allows 8090 samples at n = 81 and 1024 at n = 640.
The cap keeps a small league's block, and with it the sampler's peak
memory, at a quarter of what the byte limit allows (1.5 rather than 4.6
MiB traced at n = 20). The moments are exact for any n: sums and squares
are taken in Python ints over the distinct scores of a block.
"""

from __future__ import annotations

import numpy as np

from .permstats import check_enumerable

_SEED_SALT = 0x8AD64C65E2D4B97F

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_SAMPLE_STRIDE = np.uint64(0x9E3779B97F4A7C15)
_STEP_STRIDE = np.uint64(0xC2B2AE3D27D4EB4F)
_MAX = np.uint64((1 << 64) - 1)
_ONE = np.uint64(1)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)

# A sampler block holds min(_BLOCK_SAMPLES, _BLOCK_BYTES // (8 n)) samples, as
# the module docstring says; its int32 positions take at most half of _BLOCK_BYTES.
_BLOCK_BYTES = 5 << 20
_BLOCK_SAMPLES = 8192
# A tile holds the draws of as many steps as fit in _TILE_BYTES of uint64,
# one row per step: 4 steps of 8192 samples, or 1560 steps of 21.
_TILE_BYTES = 256 << 10


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray) -> None:
    """Apply the SplitMix64 finalizer to ``z`` in place; ``tmp`` is scratch."""
    for shift, mult in ((_S30, _M1), (_S27, _M2)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= mult
    np.right_shift(z, _S31, out=tmp)
    z ^= tmp


def mc_score_moments(n: int, samples: int, seed: int) -> tuple[int, int, int, int]:
    """Exact (sum, sum of squares, min, max) of the footrule score over
    ``samples`` uniform random permutations of size ``n``.

    Bit-identical for a fixed (n, samples, seed), whatever the block size.
    ``permstats.monte_carlo_mae`` checks samples and seed; only the limit of
    the int32 positions, 1 <= n < 2^31, is checked here.
    """
    if not 0 < n < 1 << 31:
        raise ValueError(f"league size must be in 1..2**31-1, got {n}")
    chunk = max(1, min(_BLOCK_SAMPLES, _BLOCK_BYTES // (8 * n), samples))
    rows = max(1, min(n - 1, _TILE_BYTES // (8 * chunk)))
    idx = np.arange(n, dtype=np.int32)
    # Every buffer shares one allocation, which the C allocator keeps for
    # the next call. Kept apart, they were handed back to the system and
    # faulted in again: 4x the page faults, and 3-7% of the time at n = 20.
    tile = rows * chunk
    arena = np.empty(2 * tile + 2 * chunk + ((n + 1) * chunk + 1) // 2, dtype=np.uint64)
    u_buf, tmp_buf, base_buf, cols_full, ints = np.split(
        arena, [tile, 2 * tile, 2 * tile + chunk, 2 * tile + 2 * chunk]
    )
    cols_full[:] = np.arange(chunk, dtype=np.uint64)
    block, vj_buf = np.split(ints.view(np.int32)[: (n + 1) * chunk], [n * chunk])
    # the 64-bit state the sampler starts from
    h64 = np.array([int(seed) ^ _SEED_SALT], dtype=np.uint64)
    _mix64_inplace(h64, tmp_buf[:1])
    total = 0
    total_sq = 0
    lo, hi = n * n, 0
    # steps n-1 .. 1 in tiles of `rows` steps each
    tiles = [_tile_constants(top, rows) for top in range(n - 1, 0, -rows)]
    for start in range(0, samples, chunk):
        m = min(chunk, samples - start)
        flat = block[: n * m]
        perm = flat.reshape(n, m)
        perm[...] = idx[:, None]
        base, vj, cols = base_buf[:m], vj_buf[:m], cols_full[:m]
        sample_ids = np.arange(start, start + m, dtype=np.uint64)
        np.multiply(sample_ids, _SAMPLE_STRIDE, out=base)
        base ^= h64
        _mix64_inplace(base, tmp_buf[:m])
        for top, *tile in tiles:
            where = _tile_targets(*tile, base, cols, u_buf, tmp_buf)
            for i, w in zip(range(top, 0, -1), where):
                # swap row i with each sample's target (j, c); scattering
                # straight from row i is safe, as the write for sample c
                # touches column c only
                np.take(flat, w, out=vj)
                flat[w] = perm[i]
                perm[i] = vj
        values, counts = np.unique(_footrule_scores(perm), return_counts=True)
        for v, c in zip(values.tolist(), counts.tolist()):
            total += v * c
            total_sq += v * v * c
        lo = min(lo, int(values[0]))
        hi = max(hi, int(values[-1]))
    return total, total_sq, lo, hi


def _tile_constants(
    top: int, rows: int
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.uint64]:
    """For the steps i = top, top-1, ... of one tile (at most ``rows``, all
    above 0): top, each step's hash constant, the bound i + 1, the largest
    draw that rejection accepts, 2^64 - 1 - (2^64 mod bound), and the least
    of those limits."""
    steps = np.arange(top, max(top - rows, 0), -1, dtype=np.uint64)
    bounds = steps + _ONE
    limits = _MAX - (_MAX % bounds + _ONE) % bounds
    return top, steps * _STEP_STRIDE, bounds, limits, limits.min()


def _tile_targets(
    consts: np.ndarray,
    bounds: np.ndarray,
    limits: np.ndarray,
    least: np.uint64,
    base: np.ndarray,
    cols: np.ndarray,
    u_buf: np.ndarray,
    tmp_buf: np.ndarray,
) -> np.ndarray:
    """The flat swap targets ``j * m + sample`` of one tile of Fisher-Yates
    steps, one row per step, where j = u % bound and u is the step's draw
    for that sample. The rows are int64 views into ``tmp_buf``."""
    s, m = len(consts), len(base)
    u = u_buf[: s * m].reshape(s, m)
    tmp = tmp_buf[: s * m].reshape(s, m)
    np.bitwise_xor(base, consts[:, None], out=u)
    _mix64_inplace(u, tmp)
    # one pass finds whether any row can hold a rejected draw
    if u.max() > least:
        for r in np.flatnonzero(u.max(axis=1) > limits):
            _redraw(u[r], base, consts[r], limits[r] + _ONE)
    # floor division by a per-row scalar is several times faster than
    # remainder
    b64 = bounds[:, None]
    np.floor_divide(u, b64, out=tmp)
    tmp *= b64
    np.subtract(u, tmp, out=tmp)
    tmp *= np.uint64(m)
    tmp += cols
    return tmp.view(np.int64)


def _redraw(
    u: np.ndarray, base: np.ndarray, step: np.uint64, threshold: np.uint64
) -> None:
    """Rejection: redraw each value at or above ``threshold`` with the next
    retry counter until none is left."""
    retry = 0
    while True:
        bad = u >= threshold
        if not bad.any():
            return
        retry += 1
        alt = base ^ step ^ np.uint64(retry)
        _mix64_inplace(alt, np.empty_like(alt))
        np.copyto(u, alt, where=bad)


def _footrule_scores(perm: np.ndarray) -> np.ndarray:
    """The footrule score of each column of a positions x permutations int
    array, which is overwritten. Scores are summed in the smallest signed
    type that holds n^2 / 2."""
    n = perm.shape[0]
    perm -= np.arange(n, dtype=perm.dtype)[:, None]
    np.abs(perm, out=perm)
    return perm.sum(axis=0, dtype=np.min_scalar_type(-(n * n // 2) - 1))


def _all_permutations(n: int) -> np.ndarray:
    """Every permutation of 0..n-1 as one column of an (n, n!) int8 array."""
    cols = np.zeros((0, 1), dtype=np.int8)
    for k in range(n):
        # insert the value k at each position p of every column of length k
        grown = np.empty((k + 1, k + 1, cols.shape[1]), dtype=np.int8)
        for p in range(k + 1):
            grown[:p, p] = cols[:p]
            grown[p, p] = k
            grown[p + 1 :, p] = cols[p:]
        cols = grown.reshape(k + 1, -1)
    return cols


def score_distribution_counts(n: int) -> np.ndarray:
    """Footrule score histogram over all n! permutations, n <= ``ORACLE_MAX_N``.

    Index s holds the number of permutations with score s; odd indices stay 0.
    """
    check_enumerable(n)
    # the permutations are freed when the scores are returned, before
    # bincount copies the scores to intp
    return np.bincount(_footrule_scores(_all_permutations(n)), minlength=n * n // 2 + 1)
