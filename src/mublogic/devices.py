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
    amplitudes = (basis_matrix(dim, m).conj().T @ states[..., None])[..., 0]
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
# the memory of a caller that is done with each block before the next.
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


def _hash(words: np.ndarray, constants) -> np.ndarray:
    h, h_next = constants
    words = (words ^ h) * h_next
    return words ^ (words >> _U16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _U16)


def _seed_sequence_state(seeds: np.ndarray) -> list:
    """SeedSequence(s).generate_state(4, uint64) for each uint64 seed s."""
    # numpy gives a seed below 2**32 a single entropy word; the pool word it
    # leaves empty is hashed as a 0, exactly like a zero high word here
    entropy = [(seeds & _LOW32).astype(np.uint32), (seeds >> _U32).astype(np.uint32)]
    zero = np.zeros_like(entropy[0])
    pool = [_hash(w, c) for w, c in zip(entropy + [zero, zero], _POOL_HASH)]
    calls = iter(_POOL_HASH[4:])
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], next(calls)))
    words = [_hash(pool[i % 4], c).astype(np.uint64) for i, c in enumerate(_STATE_HASH)]
    return [words[2 * i] | (words[2 * i + 1] << _U32) for i in range(4)]


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """state * multiplier + inc, mod 2**128, on (high, low) uint64 halves."""
    # high half of lo * _MULT_LO from 32-bit limbs; the other cross terms
    # only reach the high half mod 2**64
    m_lo, m_hi = _MULT_LO_LIMBS
    lo_lo, lo_hi = lo & _LOW32, lo >> _U32
    ll, lh, hl = lo_lo * m_lo, lo_lo * m_hi, lo_hi * m_lo
    middle = (ll >> _U32) + (lh & _LOW32) + (hl & _LOW32)
    carry_hi = lo_hi * m_hi + (lh >> _U32) + (hl >> _U32) + (middle >> _U32)
    product_hi = carry_hi + hi * _MULT_LO + lo * _MULT_HI
    return _add128(product_hi, lo * _MULT_LO, inc_hi, inc_lo)


def _first_uniform(seeds: np.ndarray) -> np.ndarray:
    """default_rng(s).random() for each uint64 seed s."""
    v0, v1, v2, v3 = _seed_sequence_state(seeds)
    # set-seq init: inc = (v2:v3) << 1 | 1; state = 0, step, += (v0:v1), step
    inc_hi = (v2 << np.uint64(1)) | (v3 >> np.uint64(63))
    inc_lo = (v3 << np.uint64(1)) | np.uint64(1)
    hi, lo = _add128(inc_hi, inc_lo, v0, v1)
    hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
    # random(): one more step, XSL-RR output, top 53 bits as a double
    hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
    folded, rotation = hi ^ lo, hi >> np.uint64(58)
    out = (folded >> rotation) | (folded << ((np.uint64(64) - rotation) & np.uint64(63)))
    return (out >> np.uint64(11)).astype(np.float64) * 2.0**-53


def trial_uniforms(seed: int, trials: int) -> Iterator[np.ndarray]:
    """default_rng(seed XOR (t * TRIAL_SEED_MIX mod 2**64)).random() for
    t = 0..trials-1, bit for bit, as arrays of at most TRIAL_BLOCK trials in
    trial order; trials = 0 gives none. The seed is checked on the call."""
    if not 0 <= seed < SEED_BOUND:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    blocks = (np.arange(start, min(start + TRIAL_BLOCK, trials), dtype=np.uint64)
              for start in range(0, trials, TRIAL_BLOCK))
    seed_word, mix_word = np.uint64(seed), np.uint64(TRIAL_SEED_MIX)
    return (_first_uniform(seed_word ^ (t * mix_word)) for t in blocks)
