"""The label stream of ``defectcost.simulation``, defined in plain Python ints.

Every simulated label is one uniform double of numpy's ``Generator(PCG64(seed))``.
This module states that stream without numpy, so that the tests can pin numpy to it:

* ``seed_sequence_state``: numpy's ``SeedSequence`` (pool of 4 uint32 words) of an
  int entropy, and its ``generate_state(4, uint64)``;
* ``pcg64_seed``: PCG64's (state, inc) from those 4 words (O'Neill 2014, the
  ``pcg_setseq_128_srandom_r`` seeding);
* ``uniforms``: PCG64's step and XSL-RR output, then ``(next_uint64 >> 11) * 2^-53``,
  the draw of ``Generator.random``.
"""

from __future__ import annotations

from itertools import cycle, islice

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(entropy: int) -> list[int]:
    """A non-negative int as uint32 words, least significant first; 0 is [0]."""
    words = [entropy & MASK32]
    entropy >>= 32
    while entropy:
        words.append(entropy & MASK32)
        entropy >>= 32
    return words


def _mix(x: int, y: int) -> int:
    value = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
    return value ^ value >> 16


def seed_sequence_state(entropy: int) -> list[int]:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` as Python ints."""
    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * MULT_A & MASK32
        value = value * hash_const & MASK32
        return value ^ value >> 16

    words = _words(entropy)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    state, hash_const = [], INIT_B
    for value in islice(cycle(pool), 2 * 4):
        value ^= hash_const
        hash_const = hash_const * MULT_B & MASK32
        value = value * hash_const & MASK32
        state.append(value ^ value >> 16)
    # uint32 pairs viewed as little-endian uint64
    return [low | high << 32 for low, high in zip(state[::2], state[1::2])]


def _step(state: int, inc: int) -> int:
    return (state * PCG64_MULT + inc) & MASK128


def pcg64_seed(entropy: int) -> tuple[int, int]:
    """(state, inc) of ``np.random.PCG64(entropy)``."""
    w0, w1, w2, w3 = seed_sequence_state(entropy)
    inc = ((w2 << 64 | w3) << 1 | 1) & MASK128
    state = _step(0, inc)
    return _step((state + (w0 << 64 | w1)) & MASK128, inc), inc


def uniforms(state: int, inc: int, count: int) -> list[float]:
    """The first ``count`` doubles of ``Generator.random`` from PCG64 at (state, inc)."""
    out = []
    for _ in range(count):
        state = _step(state, inc)
        word = ((state >> 64) ^ state) & MASK64
        rotation = state >> 122
        word = (word >> rotation | word << (64 - rotation)) & MASK64
        out.append((word >> 11) * 2.0**-53)
    return out
