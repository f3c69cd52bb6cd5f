"""Slow reference paths that the tests pin the package's fast paths against.

Each works element by element: roots of unity and the generalized Pauli
pair one entry at a time, the functions {0,1} -> Z_d as BinaryFunction
objects, the paper's encoding U = X^f(0) Z^f(1) applied to |0>_a, one
generator and one inverse-CDF draw per trial, each cross-validation cell
classified on its own, and the JSON serializer that renders every node of
a document as a string of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mublogic.cli import Fragment, _quote
from mublogic.devices import _MASK64, TRIAL_SEED_MIX
from mublogic.experiment import CrossReport, _behavior_codes
from mublogic.logic import (
    Proposition,
    _check_residue,
    label_counts,
    partition_array,
)
from mublogic.modmath import Dimension, DimensionMismatch
from mublogic.mub import basis_state

# ---------------------------------------------------------------------------
# roots of unity and the generalized Pauli pair


def root_of_unity(dim: Dimension, k: int) -> complex:
    """exp(i 2 pi k / d), evaluated from k mod d."""
    angle = 2.0 * math.pi * (k % dim.d) / dim.d
    return complex(math.cos(angle), math.sin(angle))


def pauli_z(dim: Dimension) -> np.ndarray:
    """Phase operator: Z|k> = eta^k |k>."""
    return np.diag([root_of_unity(dim, k) for k in range(dim.d)])


def pauli_x(dim: Dimension) -> np.ndarray:
    """Cyclic shift: X|k> = |k+1 mod d>."""
    d = dim.d
    entries = np.zeros((d, d), dtype=np.complex128)
    for k in range(d):
        entries[(k + 1) % d, k] = 1.0
    return entries


# ---------------------------------------------------------------------------
# the logic route, function by function


@dataclass(frozen=True)
class BinaryFunction:
    """A function {0,1} -> Z_d stored as the value pair (f(0), f(1))."""

    f0: int
    f1: int
    dim: Dimension

    def __post_init__(self) -> None:
        _check_residue(self.f0, self.dim)
        _check_residue(self.f1, self.dim)

    @classmethod
    def from_values(cls, f0: int, f1: int, dim: Dimension) -> "BinaryFunction":
        return cls(f0, f1, dim)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.f0, self.f1)


def all_functions(dim: Dimension) -> tuple[BinaryFunction, ...]:
    """All d**2 functions, ordered by (f(0), f(1))."""
    return tuple(
        BinaryFunction.from_values(f0, f1, dim)
        for f0 in range(dim.d)
        for f1 in range(dim.d)
    )


def holds(f: BinaryFunction, p: Proposition) -> bool:
    """Does f satisfy proposition p?"""
    if f.dim != p.dim:
        raise DimensionMismatch("function and proposition moduli differ")
    d = p.dim.d
    if p.a < d:
        return f.f1 == (p.a * f.f0 + p.b) % d
    return f.f0 == p.b


def group_arrays(a: int, b: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """f(0) and f(1) of the d functions in group {a, b}, in construction order.

    Linear rows vary f(0) ascending; the value-pin row varies f(1) ascending.
    """
    k = np.arange(d)
    if a < d:
        return k, (a * k + b) % d
    return np.full(d, b), k


def group(p: Proposition) -> tuple[BinaryFunction, ...]:
    """The d functions satisfying p, in construction order."""
    f0, f1 = group_arrays(p.a, p.b, p.dim.d)
    return tuple(
        BinaryFunction.from_values(x, y, p.dim) for x, y in zip(f0.tolist(), f1.tolist())
    )


def partition_table(dim: Dimension) -> tuple[tuple[tuple[BinaryFunction, ...], ...], ...]:
    """(d+1) x d table of groups; rows indexed by a, columns by b."""
    return tuple(
        tuple(tuple(BinaryFunction.from_values(x, y, dim) for x, y in cell) for cell in row)
        for row in partition_array(dim).tolist()
    )


def intersect(p: Proposition, q: Proposition) -> tuple[BinaryFunction, ...]:
    """Functions satisfying both propositions, ordered by (f(0), f(1))."""
    if p.dim != q.dim:
        raise DimensionMismatch("proposition moduli differ")
    common = set(group(p)) & set(group(q))
    return tuple(sorted(common, key=lambda f: f.pair))


def outcome_multiplicities(axiom: Proposition, m: int) -> dict[int, int]:
    """Count, per outcome n, the axiom-consistent functions satisfying {m, n}.

    Counts always sum to d: each function lies in exactly one group of
    partition m.
    """
    return dict(enumerate(label_counts(axiom, m)))


def enumerate_group(p: Proposition) -> set[tuple[int, int]]:
    """Oracle: filter the full enumeration by the defining relation."""
    d = p.dim.d
    members = set()
    for f0 in range(d):
        for f1 in range(d):
            if p.a < d:
                ok = f1 == (p.a * f0 + p.b) % d
            else:
                ok = f0 == p.b
            if ok:
                members.add((f0, f1))
    return members


# ---------------------------------------------------------------------------
# the paper's encoding and per-trial sampling


def encode_unitary(f: BinaryFunction) -> np.ndarray:
    """U = X^f(0) Z^f(1); the Z power acts first on the ket."""
    x, z = pauli_x(f.dim), pauli_z(f.dim)
    return np.linalg.matrix_power(x, f.f0) @ np.linalg.matrix_power(z, f.f1)


def prepare_with(f: BinaryFunction, a: int) -> np.ndarray:
    """Encode via an arbitrary function: U_f applied to |0>_a.

    Every f belongs to exactly one group of partition a, so the result
    equals prepare() of that group's proposition up to a global phase.
    """
    dim = f.dim
    if not 0 <= a <= dim.d:
        raise ValueError(f"basis index {a} out of range [0, {dim.d}]")
    return encode_unitary(f) @ basis_state(dim, a, 0)


def sample(probabilities: np.ndarray, rng: np.random.Generator) -> int:
    """One outcome by inverse-CDF over cumulative probabilities in label order.

    Ties at cell boundaries resolve to the smaller label; zero-probability
    cells are never selected.
    """
    u = rng.random()
    cumulative = 0.0
    for n, p in enumerate(probabilities):
        cumulative += p
        if u < cumulative:
            return n
    # u landed past the last boundary through rounding; return the largest
    # label that actually carries probability
    supported = np.flatnonzero(probabilities > 0.0)
    return int(supported[-1])


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, reproducible stream for one trial of a seeded experiment."""
    if trial < 0:
        raise ValueError("trial index must be non-negative")
    derived = (seed ^ ((trial * TRIAL_SEED_MIX) & _MASK64)) & _MASK64
    return np.random.default_rng(derived)


# ---------------------------------------------------------------------------
# the MUB eigen operators and cell-by-cell cross-validation


def basis_operator(dim: Dimension, a: int) -> np.ndarray:
    """The operator whose eigenbasis is basis a: X Z^a for a < d, Z for a = d.

    The tests' dense reference for the eigenvector check in verify().
    """
    d = dim.d
    if not 0 <= a <= d:
        raise ValueError(f"basis index {a} out of range [0, {d}]")
    if a == d:
        return pauli_z(dim)
    return pauli_x(dim) @ np.linalg.matrix_power(pauli_z(dim), a)


def observed_behavior(probabilities, d: int, tol: float) -> int:
    """Classify an exact Born distribution at tolerance tol: the outcome n
    of a point mass, else d if uniform, else d + 1 (mixed)."""
    for n, p in enumerate(probabilities):
        if p > 1.0 - tol:
            return n
    if all(abs(p - 1.0 / d) <= tol for p in probabilities):
        return d
    return d + 1


def predicted_behavior(axiom: Proposition, m: int) -> int:
    """Forecast the measurement statistics from decidability alone, coded
    as observed_behavior codes them.

    Outcome n is provable when all d axiom-consistent functions satisfy
    {m, n}, refutable when none does, and undecidable otherwise.
    """
    d, counts = axiom.dim.d, np.asarray(label_counts(axiom, m))
    return int(_behavior_codes(counts == d, counts != 0))


def cells(report: CrossReport) -> tuple[tuple, ...]:
    """Every cell of the report in the order a, b, m, as the plain tuple
    (a, b, m, predicted, observed, agree, deviation) read from its arrays."""
    d = report.dim.d
    return tuple(
        (a, b, m, int(report.predicted[a, b, m]), int(report.observed[a, b, m]),
         bool(report.agree[a, b, m]), float(report.deviation[a, b, m]))
        for a in range(d + 1) for b in range(d) for m in range(d + 1)
    )


# ---------------------------------------------------------------------------
# the serializer, one string per node


def to_json(value) -> str:
    """Render a plain-python document as JSON with 17-significant-digit floats.

    A Fragment is emitted as it is. Strings are quoted by the function
    json.dumps uses for them.
    """
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ValueError("only finite numbers are serializable")
        return format(value, ".17g")
    if isinstance(value, str):
        return value if isinstance(value, Fragment) else _quote(value)
    if isinstance(value, dict):
        items = ", ".join(f"{_quote(str(k))}: {to_json(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(to_json(v) for v in value) + "]"
    raise TypeError(f"unserializable value: {value!r}")
