"""Combinatorics of d-valent functions of a single binary argument.

The d**2 functions f: {0,1} -> Z_d split d+1 ways into d groups of d
functions each. A group collects the functions satisfying one proposition:
either a linear relation "f(1) = a f(0) + b" (partitions a = 0..d-1) or a
value pin "f(0) = b" (partition a = d). Whether one proposition is provable
from another is settled here by exhaustive enumeration, which also serves
as the independent oracle for the quantum layer. Values in Z_d are plain
ints, type- and range-checked once where a Proposition is built. decide
counts a group's d members in pure Python, without numpy; the whole table
is counted in numpy. The tests keep the enumeration over all d**2
functions, one object per function (tests/reference.py), as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import count, repeat

import numpy as np

from .modmath import Dimension, DimensionMismatch


class Decidability(Enum):
    PROVABLY_TRUE = "ProvablyTrue"
    PROVABLY_FALSE = "ProvablyFalse"
    UNDECIDABLE = "Undecidable"


def _check_residue(value, dim: Dimension) -> None:
    """Accept only an int in [0, d)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"residue value must be an int, got {value!r}")
    if not 0 <= value < dim.d:
        raise ValueError(f"residue {value} out of range for d={dim.d}")


@dataclass(frozen=True)
class Proposition:
    """Either "f(1) = a f(0) + b" for a < d, or "f(0) = b" for a = d.

    Doubles as an axiom label, a theorem label, and a measurement-outcome
    label {m, n}.
    """

    a: int
    b: int
    dim: Dimension

    def __post_init__(self) -> None:
        _check_residue(self.b, self.dim)
        if not isinstance(self.a, int) or isinstance(self.a, bool):
            raise TypeError(f"partition index must be an int, got {self.a!r}")
        if not 0 <= self.a <= self.dim.d:
            raise ValueError(
                f"partition index {self.a} out of range [0, {self.dim.d}]"
            )


def partition_array(dim: Dimension) -> np.ndarray:
    """(d+1, d, d, 2) int array: group {a, b} at [a, b] as its (f(0), f(1)) pairs."""
    d = dim.d
    k = np.arange(d)
    table = np.empty((d + 1, d, d, 2), dtype=k.dtype)
    # rows a < d: (k, (a k + b) mod d), [a, b, k]
    table[:d, :, :, 0] = k
    table[:d, :, :, 1] = (k[:, None, None] * k + k[:, None]) % d
    # the value-pin row: (b, k)
    table[d, :, :, 0] = k[:, None]
    table[d, :, :, 1] = k
    return table


def label_counts(axiom: Proposition, m: int) -> list[int]:
    """Per outcome n, how many members (f0, f1) of the axiom's group satisfy
    {m, n}, counted in pure Python: member k is (k, (a k + b) mod d) for
    a < d and (b, k) for a = d, and it lies in the group of partition m
    that its label names, (f1 - m f0) mod d, or f0 at m = d."""
    d, a, b = axiom.dim.d, axiom.a, axiom.b
    if not 0 <= m <= d:
        raise ValueError(f"measurement index {m} out of range [0, {d}]")
    counts = [0] * d
    # the members (f0, f1) in construction order, a linear group's f1 = a f0 + b unreduced
    members = zip(range(d), count(b, a)) if a < d else zip(repeat(b, d), range(d))
    if m == d:
        for f0, _ in members:
            counts[f0] += 1
    else:
        for f0, f1 in members:
            counts[(f1 - m * f0) % d] += 1
    return counts


def label_count_table(dim: Dimension) -> np.ndarray:
    """(d+1, d, d+1, d) array whose [a, b, m] is label_counts of axiom {a, b}
    at m, counted over the members of every group in one bincount."""
    d = dim.d
    members = partition_array(dim)[:, :, None]
    f0, f1 = members[..., 0], members[..., 1]
    # [a, b, m, k]: the label of member k of group {a, b} under partition m
    labels = np.concatenate([(f1 - np.arange(d)[:, None] * f0) % d, f0], axis=2)
    # cell [a, b, m]'s labels offset by its flat index times d
    offsets = np.arange(0, labels.size, d).reshape(labels.shape[:-1] + (1,))
    return np.bincount((labels + offsets).ravel(), minlength=labels.size).reshape(labels.shape)


def decide(axiom: Proposition, theorem: Proposition) -> Decidability:
    """Brute-force decidability of theorem relative to axiom.

    The theorem is provable iff it holds for every function consistent with
    the axiom, refutable iff it holds for none, and undecidable otherwise.
    """
    if axiom.dim != theorem.dim:
        raise DimensionMismatch("function and proposition moduli differ")
    satisfied = label_counts(axiom, theorem.a)[theorem.b]
    if satisfied == axiom.dim.d:
        return Decidability.PROVABLY_TRUE
    if satisfied == 0:
        return Decidability.PROVABLY_FALSE
    return Decidability.UNDECIDABLE
