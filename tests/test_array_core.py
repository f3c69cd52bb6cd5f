"""The array-backed routes against the per-element references they replace.

The quantum route builds each basis as one matrix B_a and measures with one
product |B_m^dagger psi|^2; the logic route counts over the int arrays of a
group. Each is compared here with the element-by-element computation it
replaced, written out in full. partition_array, one broadcast, is compared
with the table built cell by cell. cross_validate, which measures the stack
of all states with one born() call per basis, counts every cell in one
bincount and classifies all cells in one array pass, is compared with the
per-cell path through the public functions.
"""

import math

import numpy as np
import pytest

from mublogic import experiment, logic
from mublogic.devices import born, prepare
from mublogic.experiment import cross_validate
from mublogic.logic import (
    Decidability,
    Proposition,
    decide,
    partition_array,
)
from mublogic.modmath import Dimension, is_prime
from mublogic.mub import basis_matrix, basis_state
import reference
from reference import (
    cells,
    enumerate_group,
    group_arrays,
    observed_behavior,
    outcome_multiplicities,
    partition_table,
    predicted_behavior,
    root_of_unity,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def reference_amplitudes(dim: Dimension, a: int, j: int) -> np.ndarray:
    """|j>_a amplitude by amplitude, as basis_state computed it before B_a."""
    d = dim.d
    if a == d:
        amps = np.zeros(d, dtype=np.complex128)
        amps[j] = 1.0
        return amps
    if d == 2 and a == 1:
        half = 1.0 / math.sqrt(2.0)
        sign = 1.0 if j == 0 else -1.0
        return np.array([half, sign * 1j * half], dtype=np.complex128)
    s = [sum(range(k, d)) % d for k in range(d)]
    norm = 1.0 / math.sqrt(d)
    return np.array(
        [norm * root_of_unity(dim, -(j * k + a * s[k])) for k in range(d)],
        dtype=np.complex128,
    )


@pytest.mark.parametrize("d", SMALL_PRIMES + [97])
def test_basis_matrix_equals_per_amplitude_formula_bit_for_bit(d):
    dim = Dimension(d)
    for a in range(d + 1):
        matrix = basis_matrix(dim, a)
        expected = np.column_stack([reference_amplitudes(dim, a, j) for j in range(d)])
        assert matrix.dtype == np.complex128 and matrix.shape == (d, d)
        assert np.array_equal(matrix.view(np.float64), expected.view(np.float64)), a


def test_basis_matrix_rejects_bad_index():
    with pytest.raises(ValueError):
        basis_matrix(Dimension(3), 4)
    with pytest.raises(ValueError):
        basis_matrix(Dimension(3), -1)


@pytest.mark.parametrize("d", SMALL_PRIMES)
def test_born_matches_per_state_inner_products(d):
    dim = Dimension(d)
    states = [[basis_state(dim, m, j) for j in range(d)] for m in range(d + 1)]
    for a in range(d + 1):
        for b in range(d):
            psi = prepare(Proposition(a, b, dim))
            for m in range(d + 1):
                raw = [abs(np.vdot(states[m][j], psi)) ** 2 for j in range(d)]
                # outcome n reads state j = -n mod d, except in the Z basis
                expected = raw if m == d else [raw[-n % d] for n in range(d)]
                got = born(psi, m)
                assert np.max(np.abs(got - expected)) <= 1e-15, (a, b, m)


def reference_partition_array(dim: Dimension) -> np.ndarray:
    """The partition table cell by cell, as partition_array built it before."""
    d = dim.d
    return np.array(
        [[np.column_stack(group_arrays(a, b, d)) for b in range(d)] for a in range(d + 1)]
    )


@pytest.mark.parametrize("d", [p for p in range(2, 42) if is_prime(p)])
def test_partition_array_equals_per_cell_construction(d):
    dim = Dimension(d)
    table = partition_array(dim)
    expected = reference_partition_array(dim)
    assert table.dtype == expected.dtype and table.shape == (d + 1, d, d, 2)
    assert table.flags.c_contiguous
    assert np.array_equal(table, expected)


def oracle_decide(axiom_group: set, theorem_group: set, d: int) -> Decidability:
    common = len(axiom_group & theorem_group)
    if common == d:
        return Decidability.PROVABLY_TRUE
    if common == 0:
        return Decidability.PROVABLY_FALSE
    return Decidability.UNDECIDABLE


@pytest.mark.parametrize("d", SMALL_PRIMES)
def test_logic_route_matches_filter_oracle(d):
    dim = Dimension(d)
    props = {(a, b): Proposition(a, b, dim) for a in range(d + 1) for b in range(d)}
    groups = {key: enumerate_group(p) for key, p in props.items()}
    table = partition_table(dim)
    for (a, b), axiom in props.items():
        cell = [f.pair for f in table[a][b]]
        assert set(cell) == groups[a, b]
        f0, f1 = group_arrays(a, b, d)
        assert list(zip(f0.tolist(), f1.tolist())) == cell
        for m in range(d + 1):
            counts = outcome_multiplicities(axiom, m)
            assert counts == {n: len(groups[a, b] & groups[m, n]) for n in range(d)}
            verdicts = []
            for n in range(d):
                verdict = decide(axiom, props[m, n])
                assert verdict is oracle_decide(groups[a, b], groups[m, n], d), (a, b, m, n)
                verdicts.append(verdict)
            # the trichotomy predicted_behavior read from d decide calls before
            if verdicts.count(Decidability.PROVABLY_TRUE) == 1 and verdicts.count(
                Decidability.PROVABLY_FALSE
            ) == d - 1:
                expected = verdicts.index(Decidability.PROVABLY_TRUE)
            elif verdicts.count(Decidability.UNDECIDABLE) == d:
                expected = d  # uniform
            else:
                expected = d + 1  # mixed
            assert predicted_behavior(axiom, m) == expected


@pytest.mark.parametrize("d", SMALL_PRIMES)
@pytest.mark.parametrize("tol", [1e-9, 1e-20, 0.6])
def test_cross_validate_cells_equal_per_cell_reference(d, tol):
    assert_cells_equal_per_cell_reference(Dimension(d), tol)


@pytest.mark.parametrize("d", [2, 5])
def test_cross_validate_flags_a_wrong_forecast_like_the_reference(d, monkeypatch):
    # a broken logic route: at m = 0 every count moves to the next outcome,
    # in label_counts (read by the reference) and in the table (read by
    # cross_validate) alike
    counts, table = logic.label_counts, logic.label_count_table

    def rolled_table(dim):
        rows = table(dim)
        rows[:, :, 0] = np.roll(rows[:, :, 0], 1, axis=-1)
        return rows

    for module in (logic, reference):
        monkeypatch.setattr(
            module, "label_counts", lambda axiom, m: np.roll(counts(axiom, m), 1 if m == 0 else 0)
        )
    monkeypatch.setattr(experiment, "label_count_table", rolled_table)
    report = cross_validate(Dimension(d))
    assert report.disagreements == d
    assert_cells_equal_per_cell_reference(Dimension(d), 1e-9)


def assert_cells_equal_per_cell_reference(dim, tol):
    d = dim.d
    report_cells = iter(cells(cross_validate(dim, tol)))
    for a in range(d + 1):
        for b in range(d):
            axiom = Proposition(a, b, dim)
            psi = prepare(axiom)
            for m in range(d + 1):
                probabilities = born(psi, m)
                observed = observed_behavior(probabilities, d, tol)
                predicted = predicted_behavior(axiom, m)
                multiplicities = outcome_multiplicities(axiom, m)
                deviation = max(
                    abs(probabilities[n] - multiplicities[n] / d) for n in range(d)
                )
                expected = b if m == a else d  # a point mass at b, else uniform
                agree = observed == predicted == expected
                cell = next(report_cells)
                assert cell == (a, b, m, predicted, observed, agree, deviation)
                assert cell[-1].hex() == float(deviation).hex()
    assert next(report_cells, None) is None
