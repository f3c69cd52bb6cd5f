"""Partition combinatorics and brute-force decidability.

The enumeration oracle used here filters all_functions() by the defining
relation directly, independent of the constructive group() loop.
"""

import itertools

import numpy as np
import pytest

from mublogic import logic
from mublogic.logic import Decidability, Proposition, decide, label_count_table, label_counts
from mublogic.modmath import Dimension, DimensionMismatch, is_prime
from reference import (
    BinaryFunction,
    all_functions,
    enumerate_group,
    group,
    holds,
    intersect,
    outcome_multiplicities,
    partition_table,
)

PRIMES = [2, 3, 5, 7]

D3 = Dimension(3)

# table transcription for d = 3: rows a = 0..3, cells b = 0..2, pairs (f0, f1)
TABLE_D3 = [
    [[(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 1), (2, 1)], [(0, 2), (1, 2), (2, 2)]],
    [[(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 2), (2, 0)], [(0, 2), (1, 0), (2, 1)]],
    [[(0, 0), (1, 2), (2, 1)], [(0, 1), (1, 0), (2, 2)], [(0, 2), (1, 1), (2, 0)]],
    [[(0, 0), (0, 1), (0, 2)], [(1, 0), (1, 1), (1, 2)], [(2, 0), (2, 1), (2, 2)]],
]


def pairs(functions) -> list[tuple[int, int]]:
    return [f.pair for f in functions]


def test_holds_table_cells():
    assert holds(BinaryFunction.from_values(0, 1, D3), Proposition(0, 1, D3))
    assert holds(BinaryFunction.from_values(1, 2, D3), Proposition(1, 1, D3))
    assert holds(BinaryFunction.from_values(2, 0, D3), Proposition(3, 2, D3))
    assert not holds(BinaryFunction.from_values(0, 0, D3), Proposition(0, 1, D3))


def test_group_printed_cells():
    assert pairs(group(Proposition(2, 1, D3))) == [(0, 1), (1, 0), (2, 2)]
    assert pairs(group(Proposition(3, 0, D3))) == [(0, 0), (0, 1), (0, 2)]
    d2 = Dimension(2)
    assert pairs(group(Proposition(0, 0, d2))) == [(0, 0), (1, 0)]


@pytest.mark.parametrize("d", PRIMES)
def test_group_matches_enumeration_oracle(d):
    dim = Dimension(d)
    for a in range(d + 1):
        for b in range(d):
            p = Proposition(a, b, dim)
            members = group(p)
            assert {f.pair for f in members} == enumerate_group(p)
            assert all(holds(f, p) for f in members)
            # construction order: ascending f0 for linear rows, f1 for the pin row
            key = 0 if a < d else 1
            order = [f.pair[key] for f in members]
            assert order == sorted(order)


def test_partition_table_d3_matches_transcription():
    table = partition_table(D3)
    rendered = [[pairs(cell) for cell in row] for row in table]
    assert rendered == TABLE_D3


def test_partition_table_d2_shape():
    table = partition_table(Dimension(2))
    assert len(table) == 3
    for row in table:
        assert len(row) == 2
        assert all(len(cell) == 2 for cell in row)
        seen = sorted(f.pair for cell in row for f in cell)
        assert seen == sorted((x, y) for x in range(2) for y in range(2))


@pytest.mark.parametrize("d", PRIMES)
def test_each_row_partitions_all_functions(d):
    dim = Dimension(d)
    everything = {f.pair for f in all_functions(dim)}
    assert len(everything) == d * d
    for row in partition_table(dim):
        seen = [f.pair for cell in row for f in cell]
        assert len(seen) == d * d
        assert set(seen) == everything


@pytest.mark.parametrize("d", PRIMES)
def test_cross_partition_intersections_are_singletons(d):
    dim = Dimension(d)
    for a, m in itertools.combinations(range(d + 1), 2):
        for b in range(d):
            for n in range(d):
                common = intersect(Proposition(a, b, dim), Proposition(m, n, dim))
                assert len(common) == 1


@pytest.mark.parametrize("d", PRIMES)
def test_same_partition_groups_disjoint(d):
    dim = Dimension(d)
    for a in range(d + 1):
        for b, b2 in itertools.combinations(range(d), 2):
            assert intersect(Proposition(a, b, dim), Proposition(a, b2, dim)) == ()


def test_intersect_examples():
    p, q = Proposition(1, 1, D3), Proposition(2, 0, D3)
    assert pairs(intersect(p, q)) == [(1, 2)]
    assert set(intersect(p, p)) == set(group(p))
    assert intersect(p, Proposition(1, 2, D3)) == ()


def test_decide_examples():
    axiom = Proposition(1, 1, D3)
    assert decide(axiom, axiom) is Decidability.PROVABLY_TRUE
    assert decide(axiom, Proposition(1, 2, D3)) is Decidability.PROVABLY_FALSE
    assert decide(axiom, Proposition(2, 0, D3)) is Decidability.UNDECIDABLE


@pytest.mark.parametrize("d", [2, 3, 5])
def test_decide_trichotomy(d):
    dim = Dimension(d)
    props = [Proposition(a, b, dim) for a in range(d + 1) for b in range(d)]
    for axiom in props:
        for theorem in props:
            verdict = decide(axiom, theorem)
            if theorem.a == axiom.a:
                expected = (
                    Decidability.PROVABLY_TRUE
                    if theorem.b == axiom.b
                    else Decidability.PROVABLY_FALSE
                )
            else:
                expected = Decidability.UNDECIDABLE
            assert verdict is expected, (axiom, theorem)
            # decide agrees with intersection cardinality
            size = len(intersect(axiom, theorem))
            assert (verdict is Decidability.PROVABLY_TRUE) == (size == d)
            assert (verdict is Decidability.PROVABLY_FALSE) == (size == 0)


def test_outcome_multiplicities_examples():
    axiom = Proposition(1, 1, D3)
    assert outcome_multiplicities(axiom, 1) == {0: 0, 1: 3, 2: 0}
    assert outcome_multiplicities(axiom, 2) == {0: 1, 1: 1, 2: 1}
    assert outcome_multiplicities(Proposition(3, 0, D3), 0) == {0: 1, 1: 1, 2: 1}


@pytest.mark.parametrize("d", [2, 3, 5])
def test_outcome_multiplicities_point_or_flat(d):
    dim = Dimension(d)
    for a in range(d + 1):
        for b in range(d):
            axiom = Proposition(a, b, dim)
            for m in range(d + 1):
                counts = outcome_multiplicities(axiom, m)
                assert sum(counts.values()) == d
                if m == a:
                    assert counts == {n: (d if n == b else 0) for n in range(d)}
                else:
                    assert counts == {n: 1 for n in range(d)}


VALUE_CONSTRUCTORS = {
    "Proposition b": lambda v: Proposition(0, v, D3),
    "BinaryFunction.from_values f0": lambda v: BinaryFunction.from_values(v, 0, D3),
    "BinaryFunction.from_values f1": lambda v: BinaryFunction.from_values(0, v, D3),
}


@pytest.mark.parametrize("make", VALUE_CONSTRUCTORS.values(), ids=VALUE_CONSTRUCTORS.keys())
def test_values_in_z_d_are_checked(make):
    for good in range(3):
        make(good)
    for bad in (3, 9, -1):
        with pytest.raises(ValueError, match=rf"^residue {bad} out of range for d=3$"):
            make(bad)
    for bad in (True, 1.0):
        with pytest.raises(TypeError, match="^residue value must be an int"):
            make(bad)


def test_partition_index_checked_after_b():
    with pytest.raises(ValueError, match=r"^partition index 4 out of range \[0, 3\]$"):
        Proposition(4, 0, D3)
    with pytest.raises(TypeError, match="^partition index must be an int"):
        Proposition(True, 0, D3)
    with pytest.raises(ValueError, match="^residue 9 out of range"):
        Proposition(9, 9, D3)
    with pytest.raises(TypeError, match="^residue value must be an int"):
        Proposition(9, 1.0, D3)


def test_functions_and_propositions_of_different_dimensions_do_not_mix():
    d5 = Dimension(5)
    with pytest.raises(DimensionMismatch):
        holds(BinaryFunction.from_values(0, 0, D3), Proposition(0, 0, d5))
    with pytest.raises(DimensionMismatch):
        decide(Proposition(0, 0, D3), Proposition(0, 0, d5))
    assert BinaryFunction.from_values(1, 2, D3) != BinaryFunction.from_values(1, 2, d5)


@pytest.mark.parametrize("d", [p for p in range(2, 32) if is_prime(p)])
def test_label_count_table_stacks_label_counts(d):
    dim = Dimension(d)
    table = label_count_table(dim)
    assert table.shape == (d + 1, d, d + 1, d)
    for a in range(d + 1):
        for b in range(d):
            axiom = Proposition(a, b, dim)
            stacked = np.stack([label_counts(axiom, m) for m in range(d + 1)])
            cells = table[a, b]
            assert cells.dtype == stacked.dtype and np.array_equal(cells, stacked), (a, b)


class NoNumpy:
    """Stands in for numpy: reading any attribute fails."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} read")


@pytest.mark.parametrize("d", PRIMES)
def test_decide_and_label_counts_run_without_numpy(monkeypatch, d):
    dim = Dimension(d)
    props = {(a, b): Proposition(a, b, dim) for a in range(d + 1) for b in range(d)}
    groups = {key: enumerate_group(p) for key, p in props.items()}
    monkeypatch.setattr(logic, "np", NoNumpy())
    for (a, b), axiom in props.items():
        for m in range(d + 1):
            # per n, the members of {a, b} that lie in group {m, n}
            shared = [len(groups[a, b] & groups[m, n]) for n in range(d)]
            counts = label_counts(axiom, m)
            assert type(counts) is list and counts == shared, (a, b, m)
            for n, satisfied in enumerate(shared):
                expected = (Decidability.PROVABLY_TRUE if satisfied == d else
                            Decidability.PROVABLY_FALSE if satisfied == 0 else
                            Decidability.UNDECIDABLE)
                assert decide(axiom, props[m, n]) is expected, (a, b, m, n)
