"""Random-number-generator plumbing.

Every stochastic entry point in the library accepts ``seed`` — either an
integer, ``None`` (fresh entropy), or an existing
:class:`numpy.random.Generator` — and normalizes it through :func:`as_rng`.
This keeps experiments reproducible end to end while letting callers share a
single generator across components when they want correlated streams.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator

import numpy as np

SeedLike = "int | None | np.random.Generator"


def as_rng(seed: int | None | np.random.Generator = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Passing an existing generator returns it unchanged (shared stream);
    passing an int gives a deterministic fresh generator; ``None`` draws OS
    entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | None | np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split one seed into ``n`` independent child generators.

    Uses :class:`numpy.random.SeedSequence` spawning so the children are
    statistically independent regardless of ``n``.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(seed, np.random.Generator):
        # Derive children by jumping the parent's bit generator state.
        return [np.random.default_rng(seed.integers(0, 2**63)) for _ in range(n)]
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and the
# PCG64 LCG multiplier (numpy/random/src/pcg64/pcg64.h). NEP 19 freezes
# both streams, so a seed maps to the same generator on every numpy release.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int (0 is one word)."""
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value, hash_const: list, mult: int = _MULT_A):
    """SeedSequence's hashmix; ``hash_const`` is the running multiplier.

    ``value`` is a Python int or a uint32 array: the masks make Python
    ints wrap like uint32, and are no-ops on the arrays."""
    value = value ^ hash_const[0]
    hash_const[0] = (hash_const[0] * mult) & _MASK32
    value = (value * hash_const[0]) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def spawned_pcg64_states(seed: int, keys) -> Iterator[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``PCG64(SeedSequence(seed, spawn_key=key))``
    for every ``key`` in ``keys``, in order, vectorized over the keys.

    A key is one non-negative int, standing for the spawn key ``(k,)``,
    or a tuple of them; every key of one call has the same length.
    Setting ``{"state": state, "inc": inc}`` on a reused ``PCG64`` gives the
    same stream as constructing one per key, at a fraction of the cost:
    the seed's words are hashed into SeedSequence's 4-word pool once, and
    only the spawn key's words are mixed in per key, as uint32 arrays.
    Then ``generate_state(4, uint64)`` gives PCG64's ``initstate`` and
    ``initseq``, and its seeding runs ``inc = (initseq << 1) | 1`` and two
    LCG steps. Pinned against numpy's own construction in the tests.
    """
    run_entropy = _uint32_words(operator.index(seed))
    keys = np.asarray(keys, dtype=np.int64)
    if keys.ndim < 2:
        keys = keys.reshape(-1, 1)
    if keys.size and keys.min() < 0:
        raise ValueError(f"expected non-negative spawn keys, got {keys.min()}")
    # With a spawn key, the run entropy is zero-padded to the pool size.
    run_entropy += [0] * (_POOL_SIZE - len(run_entropy))
    hash_const = [_INIT_A]
    pool = [_hashmix(word, hash_const) for word in run_entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_const))
    for word in run_entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, hash_const))
    # In chunks, so memory stays flat however many keys there are.
    for start in range(0, len(keys), 256):
        seeds = _spawned_seeds(pool, hash_const[0], keys[start:start + 256])
        for s0, s1, s2, s3 in seeds.tolist():
            initstate = (s0 << 64) | s1
            inc = ((((s2 << 64) | s3) << 1) | 1) & _MASK128
            yield ((inc + initstate) * _PCG64_MULT + inc) & _MASK128, inc


def _spawned_seeds(pool: list, hash_const: int, keys: np.ndarray) -> np.ndarray:
    """``generate_state(4, uint64)`` of ``pool`` with each key's words
    mixed in; ``keys`` has one row per key."""
    # A key element is one word below 2**32 and two from there on; each
    # word advances the running multiplier, so the keys whose elements
    # have the same widths take one pass.
    wide = keys > _MASK32
    shapes = wide @ (1 << np.arange(keys.shape[1]))
    seeds = np.empty((len(keys), 4), dtype=np.uint64)
    for shape in np.unique(shapes).tolist():
        rows = np.flatnonzero(shapes == shape)
        hc = [hash_const]
        mixed = [np.full(rows.size, word, dtype=np.uint32) for word in pool]
        for col in range(keys.shape[1]):
            for w in range(1 + (shape >> col & 1)):
                word = (keys[rows, col] >> (32 * w)).astype(np.uint32)
                for dst in range(_POOL_SIZE):
                    mixed[dst] = _mix(mixed[dst], _hashmix(word, hc))
        # 8 uint32 words off the pool, paired low-high into 4 uint64.
        hc = [_INIT_B]
        for j in range(4):
            low = _hashmix(mixed[2 * j % _POOL_SIZE], hc, _MULT_B)
            high = _hashmix(mixed[(2 * j + 1) % _POOL_SIZE], hc, _MULT_B)
            seeds[rows, j] = (high.astype(np.uint64) << np.uint64(32)) | low
    return seeds
