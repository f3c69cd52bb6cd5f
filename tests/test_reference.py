"""The reference roots of unity and generalized Pauli pair, as plain numpy arrays."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mublogic.modmath import Dimension
from phase import phase_distance
from reference import pauli_x, pauli_z, root_of_unity

PRIMES = [2, 3, 5, 7, 11]


def max_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def test_root_of_unity_examples():
    # d=4 is not a valid Dimension; the d=2 and d=3 cases cover the contract
    assert root_of_unity(Dimension(2), 0) == 1 + 0j
    assert root_of_unity(Dimension(2), 1) == pytest.approx(-1 + 0j)
    eta3 = root_of_unity(Dimension(3), 1)
    assert eta3.real == pytest.approx(-0.5, abs=1e-15)
    assert eta3.imag == pytest.approx(math.sqrt(3) / 2, abs=1e-15)


@pytest.mark.parametrize("d", PRIMES)
def test_root_of_unity_reduces_exponent(d):
    dim = Dimension(d)
    for k in range(-2 * d, 2 * d):
        # bitwise equality: same reduced exponent, same cos/sin calls
        assert root_of_unity(dim, k) == root_of_unity(dim, k % d)


@pytest.mark.parametrize("d", PRIMES)
def test_paulis_are_complex128_d_by_d(d):
    for op in (pauli_x(Dimension(d)), pauli_z(Dimension(d))):
        assert op.dtype == np.complex128 and op.shape == (d, d)


def test_pauli_z_entries():
    assert max_distance(pauli_z(Dimension(2)), np.diag([1, -1])) < 1e-15
    d3 = Dimension(3)
    eta = root_of_unity(d3, 1)
    assert max_distance(pauli_z(d3), np.diag([1, eta, eta**2])) < 1e-12


def test_pauli_x_is_cyclic_shift():
    assert max_distance(pauli_x(Dimension(2)), np.array([[0, 1], [1, 0]])) == 0
    eye = np.eye(3)
    assert np.array_equal(pauli_x(Dimension(3)) @ eye[:, 2], eye[:, 0])
    assert np.array_equal(pauli_x(Dimension(3)) @ eye[:, 0], eye[:, 1])


@pytest.mark.parametrize("d", PRIMES)
def test_pauli_powers_have_order_d(d):
    dim = Dimension(d)
    eye = np.eye(d)
    assert max_distance(np.linalg.matrix_power(pauli_x(dim), d), eye) < 1e-12
    assert max_distance(np.linalg.matrix_power(pauli_z(dim), d), eye) < 1e-12


@pytest.mark.parametrize("d", PRIMES)
def test_weyl_commutation(d):
    dim = Dimension(d)
    x, z = pauli_x(dim), pauli_z(dim)
    assert max_distance(z @ x, root_of_unity(dim, 1) * (x @ z)) < 1e-12


@pytest.mark.parametrize("d", PRIMES)
def test_constructed_operators_unitary(d):
    dim = Dimension(d)
    for op in (np.eye(d), pauli_x(dim), pauli_z(dim), pauli_x(dim) @ pauli_z(dim)):
        assert max_distance(op @ op.conj().T, np.eye(d)) < 1e-10


@given(
    d=st.sampled_from([2, 3, 5]),
    word=st.lists(st.tuples(st.sampled_from("XZ"), st.integers(0, 10)), max_size=8),
    start=st.integers(0, 4),
)
def test_norm_preserved_under_pauli_words(d, word, start):
    dim = Dimension(d)
    s = np.eye(d, dtype=np.complex128)[:, start % d]
    for gate, k in word:
        s = np.linalg.matrix_power(pauli_x(dim) if gate == "X" else pauli_z(dim), k) @ s
    assert abs(float(np.vdot(s, s).real) - 1.0) < 1e-12


def test_phase_distance():
    dim = Dimension(3)
    x = pauli_x(dim)
    assert phase_distance(x, root_of_unity(dim, 2) * x) < 1e-12
    assert phase_distance(x, pauli_z(dim)) > 0.5
    ket0 = np.eye(3, dtype=np.complex128)[:, 0]
    assert phase_distance(ket0, root_of_unity(dim, 1) * ket0) < 1e-12
    assert phase_distance(ket0, np.eye(3)[:, 1]) > 0.5
