"""Seeded op lists for the benchmark workloads.

An op is the argv of one ``mublogic`` invocation, always in machine format.
The same (workload, seed) gives the same list. The multiset of dimensions,
trial counts and heavy commands is fixed per workload; the seed draws only
the order, the propositions, the measurements and the sampling seeds, so the
amount of work in a list does not drift from one seed to the next.

In ``sweep`` and ``bases`` every heavy op uses its own d, so a cache that
lives across ops cannot show a gain that a one-command-per-process CLI user
never sees.
"""

from __future__ import annotations

import random

# sampling: 5 dims x 3 trial counts x 8 = 120 `run` ops, 24 of them (20 %)
# with m = a, where the outcome is a point mass.
SAMPLING_DIMS = (3, 5, 7, 11, 13)
SAMPLING_TRIALS = (1000, 2000, 4000)
SAMPLING_REPEATS = 8
SAMPLING_SHARP = 24

# sweep: 13 heavy ops (every cross-validate d once, tables at distinct
# mid-size primes) among 90 single `decide` queries. With 103 ops the
# median lands on a query and the 90th percentile on the heavy ops, with 11
# ops above it.
SWEEP_CROSS_DIMS = (2, 3, 5, 7, 11)
SWEEP_TABLE_DIMS = (13, 17, 19, 23, 29, 31, 37, 41)
SWEEP_QUERY_DIMS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
SWEEP_QUERIES_PER_DIM = 5  # one ProvablyTrue, one ProvablyFalse, three Undecidable

# bases: 12 `verify-mub` ops at distinct primes among 90 `probs` ops. With
# 102 ops the 90th percentile lands between the two cheapest verify ops,
# with 11 ops above it. Twelve verify ops at 53..89 would take twice as long
# per pass (about 14 s on a 2-core host), so they span 29..73 instead.
BASES_VERIFY_DIMS = (29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)
BASES_PROBS_DIMS = (53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
BASES_PROBS_PER_DIM = 9
BASES_SHARP_PER_DIM = 2  # probs ops with m = a

WORKLOADS = ("sampling", "sweep", "bases")


def _op(command: str, d: int, **flags) -> list[str]:
    argv = [command, "--d", str(d)]
    for name, value in flags.items():
        argv += [f"--{name}", value]
    return argv + ["--format", "machine"]


def _pair(x: int, y: int) -> str:
    return f"{x},{y}"


def _light_first(ops: list[list[str]], light: str) -> list[list[str]]:
    """Put the first `light` op at the front.

    The first op of a fresh process also pays one-time costs (lazy imports,
    first BLAS call). Were that a heavy op, whose latency a percentile sits
    on, the percentile would depend on the seed's order.
    """
    i = next(i for i, argv in enumerate(ops) if argv[0] == light)
    ops[0], ops[i] = ops[i], ops[0]
    return ops


def _other(rng: random.Random, d: int, a: int) -> int:
    """A measurement index in 0..d other than a."""
    m = rng.randrange(d)
    return m + 1 if m >= a else m


def sampling(seed: int) -> list[list[str]]:
    rng = random.Random(f"sampling/{seed}")
    cells = [(d, t) for d in SAMPLING_DIMS for t in SAMPLING_TRIALS] * SAMPLING_REPEATS
    rng.shuffle(cells)
    sharp = set(rng.sample(range(len(cells)), SAMPLING_SHARP))
    ops = []
    for i, (d, trials) in enumerate(cells):
        a, b = rng.randrange(d + 1), rng.randrange(d)
        m = a if i in sharp else _other(rng, d, a)
        ops.append(_op(
            "run", d, axiom=_pair(a, b), measure=str(m),
            trials=str(trials), seed=str(rng.getrandbits(63)),
        ))
    return ops


def sweep(seed: int) -> list[list[str]]:
    rng = random.Random(f"sweep/{seed}")
    ops = [_op("cross-validate", d) for d in SWEEP_CROSS_DIMS]
    ops += [_op("table", d) for d in SWEEP_TABLE_DIMS]
    for d in SWEEP_QUERY_DIMS:
        for k in range(SWEEP_QUERIES_PER_DIM):
            a, b = rng.randrange(d + 1), rng.randrange(d)
            if k == 0:
                m, n = a, b
            elif k == 1:
                m, n = a, (b + 1 + rng.randrange(d - 1)) % d
            else:
                m, n = _other(rng, d, a), rng.randrange(d)
            ops.append(_op("decide", d, axiom=_pair(a, b), theorem=_pair(m, n)))
    rng.shuffle(ops)
    return _light_first(ops, "decide")


def bases(seed: int) -> list[list[str]]:
    rng = random.Random(f"bases/{seed}")
    ops = [_op("verify-mub", d) for d in BASES_VERIFY_DIMS]
    for d in BASES_PROBS_DIMS:
        for k in range(BASES_PROBS_PER_DIM):
            a, b = rng.randrange(d + 1), rng.randrange(d)
            m = a if k < BASES_SHARP_PER_DIM else _other(rng, d, a)
            ops.append(_op("probs", d, axiom=_pair(a, b), measure=str(m)))
    rng.shuffle(ops)
    return _light_first(ops, "probs")


def generate(workload: str, seed: int) -> list[list[str]]:
    return {"sampling": sampling, "sweep": sweep, "bases": bases}[workload](seed)
