"""The random streams of the protocol simulator, seeded in one pass.

``run_system_sim`` draws from one PCG64 stream per (cell, kind), the
stream of ``default_rng(SeedSequence(seed, spawn_key=(c, ki)))``, so
adding cells never perturbs existing streams. NumPy's ``SeedSequence``
is a fixed uint32 hash (O'Neill's seed_seq_fe, NEP 19) and every
stream's entropy has the same length, so ``stream_states`` hashes all
streams at once, bit for bit, and each generator is built from its
precomputed state: about a seventh of the time of one ``SeedSequence``
per stream.
"""
from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["stream_rngs", "stream_states"]

# SeedSequence's hash constants: each steps by a multiply per use
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def stream_states(seed: int, n_cells: int, n_kinds: int) -> np.ndarray:
    """PCG64 seed states of every (cell, kind) stream, hashed in one pass.

    Row ``c * n_kinds + ki`` equals ``SeedSequence(seed, spawn_key=(c,
    ki)).generate_state(4, np.uint64)``. That entropy is the seed's uint32
    words, zero-padded to the pool size of 4, then one word for ``c`` and
    one for ``ki``, so every stream uses the same sequence of hash
    constants. Each entropy word is a uint32 array, of one element for a
    seed word and of one per stream for a spawn-key word: the pool mixed
    from the seed is computed once and broadcasts when the spawn-key words
    are mixed in. Array arithmetic wraps silently. Requires ``seed >= 0``
    and ``c < 2**32``, so that ``c`` is one word; a topology that large
    cannot be built in memory.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    words = []
    while True:
        words.append(np.array([seed & 0xFFFFFFFF], dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    words += [np.zeros(1, dtype=np.uint32)] * (4 - len(words))
    words.append(np.repeat(np.arange(n_cells, dtype=np.uint32), n_kinds))
    words.append(np.tile(np.arange(n_kinds, dtype=np.uint32), n_cells))
    hc = _INIT_A

    def hashmix(v):
        nonlocal hc
        v = v ^ hc
        hc = hc * _MULT_A & 0xFFFFFFFF
        v = v * hc
        return v ^ v >> 16

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ r >> 16

    # SeedSequence.mix_entropy: fill the pool, cross-mix it, then mix in
    # the words past the pool
    pool = [hashmix(w) for w in words[:4]]
    for i in range(4):
        for j in range(4):
            if i != j:
                pool[j] = mix(pool[j], hashmix(pool[i]))
    for w in words[4:]:
        for j in range(4):
            pool[j] = mix(pool[j], hashmix(w))
    # generate_state: 8 output words cycling over the pool, read as 4 <u8
    out = np.empty((n_cells * n_kinds, 8), dtype="<u4")
    hc = _INIT_B
    for i in range(8):
        v = pool[i % 4] ^ hc
        hc = hc * _MULT_B & 0xFFFFFFFF
        v = v * hc
        out[:, i] = v ^ v >> 16
    return out.view("<u8").astype(np.uint64)


class _FixedSeed(ISeedSequence):
    """A seed object that hands a bit generator one precomputed state:
    a ``stream_states`` row, the 4 uint64 words PCG64 asks for."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def stream_rngs(seed: int, n_cells: int, n_kinds: int) -> list[np.random.Generator]:
    """The generator of every (cell, kind) stream, in stream order."""
    return [np.random.Generator(np.random.PCG64(_FixedSeed(state)))
            for state in stream_states(seed, n_cells, n_kinds)]
