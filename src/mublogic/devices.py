"""Preparation and measurement devices for a single qudit.

A state is its complex128 amplitude array of length d, and a measurement's
Born distribution is its float64 probability array over outcome labels.
born() measures the last axis, so a stack of states is measured in one
call and gives the stack of their distributions.

The paper encodes an axiom {a, b} by starting from |0>_a and applying
U = X^f(0) Z^f(1) for a function f consistent with the axiom; any member of
the axiom's group yields the same state up to a global phase. That state
is the one of basis a that a measurement at m = a reads as n = b, so
prepare() returns it directly: the column of B_a that outcome label b names.
The tests keep the operator encoding (tests/reference.py) as the reference
prepare() is pinned against.

Measurement in basis m returns Born probabilities over outcome labels n.
Outcome labels follow n(j) = -j mod d for the shift-generated bases m < d,
and n(j) = j for the computational basis m = d; under the convention
Z|j>_a = |j-1>_a this is the unique affine labeling that makes a state
encoding {a, b} report n = b with certainty when measured at m = a.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .logic import Proposition
from .modmath import Dimension
from .mub import basis_matrix, basis_state

# Per-trial stream derivation: PCG64 seeded with seed XOR (trial * mix),
# all mod 2**64. Multiplication by an odd constant is a bijection on 64-bit
# ints, so distinct trials never collide for a fixed seed.
TRIAL_SEED_MIX = 0x9E3779B97F4A7C15
SEED_BOUND = 1 << 64
_MASK64 = SEED_BOUND - 1


def _column(n, m: int, d: int):
    """Column j of B_m that outcome label n names (int or int array)."""
    return n if m == d else -n % d


def prepare(axiom: Proposition) -> np.ndarray:
    """Encode the axiom: |-b mod d>_a for a < d, and |b> for a = d."""
    return basis_state(axiom.dim, axiom.a, _column(axiom.b, axiom.a, axiom.dim.d))


def born(states: np.ndarray, m: int) -> np.ndarray:
    """Born probabilities of measuring each state in basis m, over labels n.

    `states` is one amplitude array or a stack of them along the last axis.
    The probabilities |B_m^dagger psi|^2 are capped at 1, so rounding never
    reports a probability above 1, and put in outcome-label order. NumPy
    runs one gemv per state, so a state in a stack gets the bits it gets
    when measured alone.
    """
    d = states.shape[-1]
    dim = Dimension(d)
    if not 0 <= m <= d:
        raise ValueError(f"measurement index {m} out of range [0, {d}]")
    b = basis_matrix(dim, m)
    amplitudes = (np.conjugate(b, out=b).T @ states[..., None])[..., 0]
    return np.minimum(np.abs(amplitudes) ** 2, 1.0)[..., _column(np.arange(d), m, d)]


def outcomes(probabilities: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The inverse-CDF outcome of each uniform in u, in one pass.

    That is the first label whose cumulative probability exceeds u, so ties
    at cell boundaries resolve to the smaller label and zero-probability
    cells are never selected; a u past the last sum through rounding gets
    the largest label that carries probability.
    """
    labels = np.searchsorted(np.cumsum(probabilities), u, side="right")
    labels[labels == len(probabilities)] = np.flatnonzero(probabilities > 0.0)[-1]
    return labels


# trial_uniforms replays default_rng(s).random() on arrays of derived seeds:
# SeedSequence(s) hashes the two 32-bit words of s through a 4-word pool and
# emits 4 uint64 words, PCG64 is seeded from them with the set-seq init, and
# one XSL-RR output becomes a double. The constants are numpy's SeedSequence
# hash constants and the PCG64 128-bit LCG multiplier (O'Neill 2014, PCG,
# HMC-CS-2014-0905). They come in blocks of TRIAL_BLOCK trials, which bounds
# the memory of a caller that is done with each block before the next. Steps
# write into one work set per call: new trial-sized arrays, faulted back in
# block by block, cost more than the math.
TRIAL_BLOCK = 8192
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI = np.uint64(_PCG64_MULT >> 64)
_MULT_LO = np.uint64(_PCG64_MULT & _MASK64)
_MULT_LO_LIMBS = (np.uint64(int(_MULT_LO) & 0xFFFFFFFF), np.uint64(int(_MULT_LO) >> 32))
_LOW32 = np.uint64(0xFFFFFFFF)
_U16, _U32 = np.uint32(16), np.uint64(32)


def _hash_constants(h: int, mult: int, count: int) -> list:
    """(h, h * mult) for each successive SeedSequence hash call, mod 2**32."""
    pairs = []
    for _ in range(count):
        nxt = (h * mult) & 0xFFFFFFFF
        pairs.append((np.uint32(h), np.uint32(nxt)))
        h = nxt
    return pairs


# mix_entropy hashes the 4 pool words, then each word into each of the other
# 3 (16 calls); generate_state(4, uint64) hashes 8 output words
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hash(words: np.ndarray, constants, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of uint32 words, written to out; tmp is scratch."""
    h, h_next = constants
    np.bitwise_xor(words, h, out=out)
    out *= h_next
    out ^= np.right_shift(out, _U16, out=tmp)
    return out


# pool words 2 and 3, which no seed below 2**64 fills: _hash of 0, in Python ints
_ZERO_POOL = np.array([[(x := int(h) * int(h_next) & 0xFFFFFFFF) ^ x >> 16]
                       for h, h_next in _POOL_HASH[2:4]], dtype=np.uint32)


def _seed_sequence_state(seeds: np.ndarray, pool: np.ndarray, a, b, state) -> None:
    """SeedSequence(s).generate_state(4, uint64) for each uint64 seed s, into the
    4 uint64 rows of state; seeds, the uint32 (4, n) pool, a and b are scratch."""
    # numpy gives a seed below 2**32 a single entropy word; the pool word it
    # leaves empty is hashed as a 0, exactly like a zero high word here
    words = list(pool)
    np.copyto(words[0], seeds, casting="unsafe")  # the low 32 bits
    np.copyto(words[1], np.right_shift(seeds, _U32, out=seeds), casting="unsafe")
    for word, constants in zip(words[:2], _POOL_HASH):
        _hash(word, constants, word, a)
    pool[2:] = _ZERO_POOL
    calls = iter(_POOL_HASH[4:])
    for src in range(4):
        for dst in range(4):
            if src != dst:  # mix the hash of word src into word dst
                x, y = words[dst], _hash(words[src], next(calls), a, b)
                x *= _MIX_MULT_L
                x -= np.multiply(y, _MIX_MULT_R, out=y)
                x ^= np.right_shift(x, _U16, out=b)
    for i, word in enumerate(state):  # the high half from word 2i + 1, the low from 2i
        np.copyto(word, _hash(words[(2 * i + 1) % 4], _STATE_HASH[2 * i + 1], a, b))
        word <<= _U32
        word |= _hash(words[2 * i % 4], _STATE_HASH[2 * i], a, b)


def _add128(hi, lo, inc_hi, inc_lo, carry) -> None:
    """(hi:lo) += (inc_hi:inc_lo), mod 2**128, in place; carry is scratch."""
    lo += inc_lo
    hi += inc_hi
    hi += np.less(lo, inc_lo, out=carry)


def _pcg64_step(hi, lo, inc_hi, inc_lo, scratch, carry) -> None:
    """(hi:lo) = (hi:lo) * multiplier + inc, mod 2**128, in place; 5 rows of scratch."""
    # high half of lo * _MULT_LO from 32-bit limbs; other cross terms only reach it mod 2**64
    m_lo, m_hi = _MULT_LO_LIMBS
    lh, lo_hi, ll, hl, t = scratch
    np.multiply(np.bitwise_and(lo, _LOW32, out=lh), m_lo, out=ll)
    lh *= m_hi
    np.multiply(np.right_shift(lo, _U32, out=lo_hi), m_lo, out=hl)
    ll >>= _U32  # then the middle terms: (ll >> 32) + (lh & low32) + (hl & low32)
    ll += np.bitwise_and(lh, _LOW32, out=t)
    ll += np.bitwise_and(hl, _LOW32, out=t)
    lo_hi *= m_hi  # then the high half: lo_hi * m_hi plus the terms' carries
    for x in (lh, hl, ll):
        lo_hi += np.right_shift(x, _U32, out=x)
    hi *= _MULT_LO
    hi += lo_hi
    hi += np.multiply(lo, _MULT_HI, out=t)
    lo *= _MULT_LO
    _add128(hi, lo, inc_hi, inc_lo, carry)


def _first_uniform(seed: np.uint64, start: int, mixed: np.ndarray, work) -> np.ndarray:
    """default_rng(seed XOR ((start + t) * TRIAL_SEED_MIX)).random() for t < len(mixed),
    mixed[t] = t * TRIAL_SEED_MIX, in the work set's leading len(mixed) columns."""
    pool, half, wide, carry = (rows[..., :len(mixed)] for rows in work)
    hi, lo, inc_hi, inc_lo, *scratch = wide  # v0..v3 of the SeedSequence state
    t = np.add(mixed, np.uint64(start * TRIAL_SEED_MIX & _MASK64), out=scratch[0])
    t ^= seed
    _seed_sequence_state(t, pool, *half, (hi, lo, inc_hi, inc_lo))
    # set-seq init: inc = (v2:v3) << 1 | 1; state = 0, step, += (v0:v1), step
    inc_hi <<= np.uint64(1)
    inc_hi |= np.right_shift(inc_lo, np.uint64(63), out=t)
    inc_lo <<= np.uint64(1)
    inc_lo |= np.uint64(1)
    _add128(hi, lo, inc_hi, inc_lo, carry)
    _pcg64_step(hi, lo, inc_hi, inc_lo, scratch, carry)
    # random(): one more step, XSL-RR output, top 53 bits as a new double array
    _pcg64_step(hi, lo, inc_hi, inc_lo, scratch, carry)
    rotation = np.right_shift(hi, np.uint64(58), out=t)
    hi ^= lo  # folded
    np.right_shift(hi, rotation, out=lo)
    np.subtract(np.uint64(64), rotation, out=rotation)
    hi <<= np.bitwise_and(rotation, np.uint64(63), out=rotation)
    hi |= lo
    hi >>= np.uint64(11)
    return np.multiply(hi, 2.0**-53)


def trial_uniforms(seed: int, trials: int) -> Iterator[np.ndarray]:
    """default_rng(seed XOR (t * TRIAL_SEED_MIX mod 2**64)).random() for t = 0..trials-1, bit
    for bit, as arrays of at most TRIAL_BLOCK trials in trial order; trials = 0 gives none.
    The call checks the seed and allocates one work set for all the blocks."""
    if not 0 <= seed < SEED_BOUND:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    n = min(trials, TRIAL_BLOCK)
    mixed = np.multiply(np.arange(n, dtype=np.uint64), np.uint64(TRIAL_SEED_MIX))
    work = (np.empty((4, n), np.uint32), np.empty((2, n), np.uint32),
            np.empty((9, n), np.uint64), np.empty(n, np.bool_))
    return (_first_uniform(np.uint64(seed), start, mixed[:trials - start], work)
            for start in range(0, trials, TRIAL_BLOCK))
