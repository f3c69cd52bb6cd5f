"""Mutually unbiased basis construction and its defining properties."""

import cmath
import math
import time

import numpy as np
import pytest

from mublogic import mub
from mublogic.modmath import Dimension, is_prime
from mublogic.mub import MubReport, basis_matrix, basis_state, verify
from reference import basis_operator, pauli_z, root_of_unity

PRIMES = [2, 3, 5]
PRIMES_TO_31 = [p for p in range(2, 32) if is_prime(p)]
FIELDS = (
    "max_orthonormality_deviation",
    "max_unbiasedness_deviation",
    "max_eigen_residual",
    "max_shift_residual",
)


def formula_state(d: int, a: int, j: int) -> np.ndarray:
    """Oracle: evaluate the closed formula directly with cmath."""
    s = [sum(range(k, d)) for k in range(d)]
    return np.array(
        [cmath.exp(-2j * cmath.pi * (j * k + a * s[k]) / d) / math.sqrt(d) for k in range(d)]
    )


def test_computational_basis_row():
    d3 = Dimension(3)
    assert np.array_equal(basis_state(d3, 3, 1), np.array([0, 1, 0], dtype=complex))


def test_fourier_state_d2():
    d2 = Dimension(2)
    expected = np.array([1, -1]) / math.sqrt(2)
    assert np.allclose(basis_state(d2, 0, 1), expected, atol=1e-15)


def test_formula_state_d3():
    d3 = Dimension(3)
    # s = (3, 3, 2), reduced mod 3 to (0, 0, 2)
    state = basis_state(d3, 1, 0)
    assert np.allclose(state, formula_state(3, 1, 0), atol=1e-14)
    # eigenvector of X Z^1
    image = basis_operator(d3, 1) @ state
    lam = np.vdot(state, image)
    assert np.linalg.norm(image - lam * state) < 1e-12


@pytest.mark.parametrize("a", [0, 1, 2])
@pytest.mark.parametrize("j", [0, 1, 2])
def test_formula_matches_oracle_d3(a, j):
    d3 = Dimension(3)
    assert np.allclose(basis_state(d3, a, j), formula_state(3, a, j), atol=1e-14)


def test_d2_special_basis():
    d2 = Dimension(2)
    half = 1 / math.sqrt(2)
    assert np.allclose(basis_state(d2, 1, 0), [half, 1j * half])
    assert np.allclose(basis_state(d2, 1, 1), [half, -1j * half])


def all_bases(dim: Dimension) -> list[np.ndarray]:
    """The d+1 bases, each as its states: row j of entry a is |j>_a."""
    return [basis_matrix(dim, a).T for a in range(dim.d + 1)]


def test_full_set_counts():
    assert len(all_bases(Dimension(2))) == 3
    bases3 = all_bases(Dimension(3))
    assert len(bases3) == 4
    assert sum(len(b) for b in bases3) == 12
    assert len(all_bases(Dimension(5))) == 6


@pytest.mark.parametrize("d", PRIMES)
def test_verify_passes(d):
    report = verify(Dimension(d), 1e-10)
    assert report.passed
    assert report.max_deviation < 1e-10


@pytest.mark.parametrize("d", PRIMES)
def test_shift_property_exact(d):
    dim = Dimension(d)
    z = pauli_z(dim)
    for a in range(d):
        for j in range(d):
            shifted = z @ basis_state(dim, a, j)
            target = basis_state(dim, a, (j - 1) % d)
            assert np.linalg.norm(shifted - target) < 1e-12


@pytest.mark.parametrize("d", PRIMES)
def test_eigenvector_property(d):
    dim = Dimension(d)
    for a in range(d):
        op = basis_operator(dim, a)
        for j in range(d):
            v = basis_state(dim, a, j)
            image = op @ v
            lam = np.vdot(v, image)
            assert abs(abs(lam) - 1.0) < 1e-10
            assert np.linalg.norm(image - lam * v) < 1e-10


@pytest.mark.parametrize("d", PRIMES)
def test_unbiasedness_and_orthonormality(d):
    dim = Dimension(d)
    bases = all_bases(dim)
    for a in range(d + 1):
        for j in range(d):
            for m in range(a, d + 1):
                for k in range(d):
                    overlap = abs(np.vdot(bases[a][j], bases[m][k])) ** 2
                    if a == m:
                        expected = 1.0 if j == k else 0.0
                    else:
                        expected = 1.0 / d
                    assert abs(overlap - expected) < 1e-10


def test_cross_basis_overlap_example():
    d3 = Dimension(3)
    overlap = abs(np.vdot(basis_state(d3, 0, 0), basis_state(d3, 1, 0))) ** 2
    assert overlap == pytest.approx(1 / 3, abs=1e-12)


def test_invalid_labels_rejected():
    d3 = Dimension(3)
    with pytest.raises(ValueError):
        basis_state(d3, 4, 0)
    with pytest.raises(ValueError):
        basis_state(d3, -1, 0)
    with pytest.raises(ValueError):
        basis_state(d3, 0, 3)


def test_basis_zero_is_ket_like_for_pin_row():
    d3 = Dimension(3)
    assert np.array_equal(basis_state(d3, 3, 0), np.eye(3)[:, 0])


def per_entry_basis(dim: Dimension, a: int, eta: np.ndarray) -> np.ndarray:
    """B_a with each entry (1/sqrt(d)) * eta[-(k j + a s_k) % d], scaled after
    its gather, as _columns once computed it."""
    d = dim.d
    if a == d:
        return np.eye(d, dtype=np.complex128)
    if d == 2 and a == 1:
        half = 1.0 / math.sqrt(2.0)
        return np.array([[half, half], [1j * half, -1j * half]])
    k = np.arange(d)[:, None]
    s = np.array([sum(range(r, d)) for r in range(d)])[:, None]
    return (1.0 / math.sqrt(d)) * eta[-(k * np.arange(d) + a * s) % d]


@pytest.mark.parametrize("d", [p for p in range(2, 102) if is_prime(p)] + [211, 311])
def test_columns_have_the_bits_of_the_per_entry_formula(d):
    # gathering from the table scaled in advance must not move a bit: the
    # born sha256 pins and the envelope pins of cross-validate and table
    # rest on these entries
    dim = Dimension(d)
    eta = np.array([root_of_unity(dim, e) for e in range(d)])
    for a in range(d + 1) if d <= 101 else (0, 1, d - 1, d):
        expected = per_entry_basis(dim, a, eta)
        assert mub._columns(dim, a, np.arange(d)).tobytes() == expected.tobytes(), a
        assert basis_state(dim, a, d - 1).tobytes() == expected[:, d - 1].tobytes(), a


# ---------------------------------------------------------------------------
# verify() reads one representative column per basis pair; the reference
# below is the full pairwise check it replaced, O(d^5). Both build their
# columns through mub._columns (verify directly, the reference through
# basis_matrix), so a mutant patched in there reaches both.


def _eigen_residual(op: np.ndarray, basis: np.ndarray) -> float:
    # Rayleigh quotient per column, then the residual norm
    image = op @ basis
    eigenvalues = np.sum(basis.conj() * image, axis=0)
    return float(np.max(np.linalg.norm(image - basis * eigenvalues, axis=0)))


def reference_verify(dim: Dimension, tol: float = 1e-10) -> MubReport:
    """Every overlap of every basis pair, by dense products B_a^dagger B_m."""
    d = dim.d
    matrices = [mub.basis_matrix(dim, a) for a in range(d + 1)]
    eye = np.eye(d)
    z = pauli_z(dim)

    ortho = max(
        float(np.max(np.abs(m.conj().T @ m - eye))) for m in matrices
    )
    unbias = max(
        float(np.max(np.abs(np.abs(matrices[a].conj().T @ matrices[m]) ** 2 - 1.0 / d)))
        for a in range(d + 1)
        for m in range(a + 1, d + 1)
    )
    eigen = max(
        _eigen_residual(basis_operator(dim, a), matrices[a])
        for a in range(d)
    )
    shift = max(
        float(
            np.max(
                np.linalg.norm(
                    z @ matrices[a] - matrices[a][:, (np.arange(d) - 1) % d], axis=0
                )
            )
        )
        for a in range(d)
    )

    passed = max(ortho, unbias, eigen, shift) < tol
    return MubReport(ortho, unbias, eigen, shift, passed)


@pytest.mark.parametrize("d", PRIMES_TO_31)
def test_verify_matches_the_full_pairwise_reference(d):
    dim = Dimension(d)
    reference = reference_verify(dim)
    report = verify(dim)
    # the docstring bound, 2(d-1) times the shift residual, plus rounding
    # from summing each entry in a different order
    bound = 2 * (d - 1) * reference.max_shift_residual + 4 * d * np.finfo(float).eps
    for field in FIELDS:
        assert abs(getattr(report, field) - getattr(reference, field)) <= bound, field
    for tol in (1e-10, 1e-20):
        assert verify(dim, tol).passed == reference_verify(dim, tol).passed


def full_column_verify(dim: Dimension, tol: float = 1e-10) -> MubReport:
    """The verify() that read every pair from both ends, G = B_a^dagger F over
    all d+1 first columns, and took the eigen residual of every column, with
    every basis from basis_matrix: F from whole builds, each B_a built again
    in the loop, eta from pauli_z."""
    d = dim.d
    k = np.arange(d)
    eta = pauli_z(dim).diagonal()
    first = np.empty((d, d + 1), dtype=np.complex128)
    for m in range(d + 1):
        first[:, m] = basis_matrix(dim, m)[:, 0]

    ortho = unbias = eigen = shift = 0.0
    for a in range(d + 1):
        basis = basis_matrix(dim, a)
        overlaps = basis.conj().T @ first
        deviations = np.abs(np.abs(np.delete(overlaps, a, axis=1)) ** 2 - 1.0 / d)
        ortho = max(ortho, float(np.max(np.abs(overlaps[:, a] - (k == 0)))))
        unbias = max(unbias, float(np.max(deviations)))
        if a == d:
            ortho = max(ortho, float(np.max(np.abs(basis - np.eye(d)))))
            continue
        image = np.roll(eta[(a * k) % d, None] * basis, 1, axis=0)
        eigenvalues = np.sum(basis.conj() * image, axis=0)
        residuals = np.linalg.norm(image - basis * eigenvalues, axis=0)
        eigen = max(eigen, float(np.max(residuals)))
        residuals = np.linalg.norm(eta[:, None] * basis - basis[:, k - 1], axis=0)
        shift = max(shift, float(np.max(residuals)))

    passed = max(ortho, unbias, eigen, shift) < tol
    return MubReport(ortho, unbias, eigen, shift, passed)


def two_build_verify(dim: Dimension, tol: float = 1e-10) -> MubReport:
    """verify() with every basis from basis_matrix: F from whole builds, each
    B_a built again in the loop, eta from pauli_z, rolls for the X and the
    column shift. verify() matches it bit for bit."""
    d = dim.d
    k = np.arange(d)
    eta = pauli_z(dim).diagonal()
    first = np.empty((d, d + 1), dtype=np.complex128)
    for m in range(d + 1):
        first[:, m] = basis_matrix(dim, m)[:, 0]

    ortho = unbias = eigen = shift = 0.0
    for a in range(d + 1):
        basis = basis_matrix(dim, a)
        overlaps = basis.conj().T @ first[:, : a + 1]  # each pair at its later basis
        deviations = np.abs(np.abs(overlaps[:, :a]) ** 2 - 1.0 / d)
        ortho = max(ortho, float(np.max(np.abs(overlaps[:, a] - (k == 0)))))
        unbias = max(unbias, float(np.max(deviations, initial=0.0)))
        if a == d:
            ortho = max(ortho, float(np.max(np.abs(basis - np.eye(d)))))
            continue
        image = np.roll(eta[(a * k) % d] * basis[:, 0], 1)  # column 0 only
        residual = image - np.vdot(basis[:, 0], image) * basis[:, 0]
        eigen = max(eigen, float(np.vdot(residual, residual).real))
        residuals = eta[:, None] * basis - np.roll(basis, 1, axis=1)
        shift = max(shift, float(np.max(np.sum(residuals.real**2 + residuals.imag**2, axis=0))))

    eigen, shift = math.sqrt(eigen), math.sqrt(shift)
    passed = max(ortho, unbias, eigen, shift) < tol
    return MubReport(ortho, unbias, eigen, shift, passed)


@pytest.mark.parametrize("d", PRIMES_TO_31)
def test_verify_matches_the_full_column_algorithm(d):
    # the half gemm drops the second reading of each pair, and the eigen
    # residual of columns j > 0; both are within the docstring bound
    dim = Dimension(d)
    full = full_column_verify(dim)
    report = verify(dim)
    bound = 2 * (d - 1) * full.max_shift_residual + 4 * d * np.finfo(float).eps
    for field in FIELDS:
        assert abs(getattr(report, field) - getattr(full, field)) <= bound, field
    for tol in (1e-10, 1e-20):
        assert verify(dim, tol).passed == full_column_verify(dim, tol).passed


@pytest.mark.parametrize("d", [p for p in range(2, 102) if is_prime(p)])
def test_verify_is_bit_identical_to_the_two_build_algorithm(d):
    dim = Dimension(d)
    for tol in (1e-10, 1e-20):
        report, reference = verify(dim, tol), two_build_verify(dim, tol)
        for field in FIELDS:
            assert getattr(report, field).hex() == getattr(reference, field).hex(), field
        assert report.passed == reference.passed


@pytest.mark.parametrize("d", [2, 3, 31, 97])
def test_verify_builds_one_table_of_roots(monkeypatch, d):
    calls = []
    roots = mub._roots

    def counting(dim):
        calls.append(dim.d)
        return roots(dim)

    monkeypatch.setattr(mub, "_roots", counting)
    verify(Dimension(d))
    assert calls == [d]


def test_roots_have_the_bits_of_root_of_unity():
    # the vectorized table takes the same float angles through np.cos and
    # np.sin; every basis entry, up to the probs and run budget, rests on it
    for d in (p for p in range(2, 1010) if is_prime(p)):
        dim = Dimension(d)
        expected = np.array([root_of_unity(dim, e) for e in range(d)])
        assert mub._roots(dim).tobytes() == expected.tobytes(), d


def _sum_below(d: int, a: int) -> np.ndarray:
    """A wrong s_k: 0 + 1 + ... + (k-1), the other end of the sum."""
    k = np.arange(d)
    s = k * (k - 1) // 2
    exponents = -(np.outer(k, k) + a * s[:, None]) % d
    return np.exp(2j * np.pi * exponents / d) / math.sqrt(d)


def _patch_bases(monkeypatch, mutant) -> None:
    """Serve every column of B_a from mutant(original, dim, a), a whole matrix,
    where original(dim, a) is the unpatched B_a."""
    columns = mub._columns

    def original(dim, a):
        return columns(dim, a, np.arange(dim.d))

    monkeypatch.setattr(
        mub, "_columns",
        lambda dim, a, j, table=None, base=None, s=None: mutant(original, dim, a)[:, j],
    )


def _assert_both_fail(monkeypatch, dim: Dimension, mutant) -> None:
    _patch_bases(monkeypatch, mutant)
    for check in (verify, reference_verify):
        assert not check(dim, 1e-10).passed, check.__name__


@pytest.mark.parametrize("d", [3, 5, 7])
def test_wrong_s_k_fails_both_verifies(monkeypatch, d):
    # B_a becomes B_{-a}: still a MUB set, shift-labelled, but not the
    # eigenbasis of X Z^a, which verify sees from column 0 alone
    _assert_both_fail(
        monkeypatch, Dimension(d),
        lambda original, dim, a: _sum_below(d, a) if 0 < a < d else original(dim, a),
    )
    report = verify(Dimension(d))
    assert report.max_eigen_residual >= 1e-10
    for field in FIELDS:
        if field != "max_eigen_residual":
            assert getattr(report, field) < 1e-10, field


# (d, j, a): column j of basis a. At d = 29 verify checks the bases below d
# in blocks of four, the last one partial: basis 15 ends a middle block, and
# basis 28 is alone in the last
REPHASED = [(2, 1, 1), (3, 2, 1), (5, 4, 1), (7, 6, 1), (3, 1, 1), (7, 3, 1), (29, 5, 15), (29, 27, 28)]


@pytest.mark.parametrize(
    "d, j, a", REPHASED,
    ids=[f"{d}-{j}" if a == 1 else f"{d}-{j}-basis {a}" for d, j, a in REPHASED],
)
def test_rephased_column_fails_only_the_shift_check(monkeypatch, d, j, a):
    # |j>_a times a unit phase is still an eigenvector of X Z^a with the same
    # eigenvalue, and keeps every overlap's modulus; verify reads neither from
    # it, and only the shift labelling around column j sees it (for j inside
    # 1..d-2, not the pair of columns 0 and d-1)
    def mutant(original, dim, b):
        matrix = original(dim, b)
        if b == a:
            matrix[:, j] *= cmath.exp(0.1j)
        return matrix

    _assert_both_fail(monkeypatch, Dimension(d), mutant)
    report = verify(Dimension(d))
    assert report.max_shift_residual >= 1e-10
    for field in FIELDS:
        if field != "max_shift_residual":
            assert getattr(report, field) < 1e-10, field


@pytest.mark.parametrize("d", [3, 5, 7])
@pytest.mark.parametrize("a", [0, 1])
def test_swapped_columns_fail_both_verifies(monkeypatch, d, a):
    def mutant(original, dim, b):
        matrix = original(dim, b)
        if b == a:
            matrix[:, [1, 2]] = matrix[:, [2, 1]]
        return matrix

    _assert_both_fail(monkeypatch, Dimension(d), mutant)


@pytest.mark.parametrize(
    "where, d",
    [(where, d) for where in ("first column", "last column", "Z basis") for d in (2, 5)]
    + [("middle block", 29), ("partial last block", 29)],  # see REPHASED
)
def test_perturbed_column_fails_both_verifies(monkeypatch, d, where):
    a, j = {
        "first column": (0, 0), "last column": (1, d - 1), "Z basis": (d, 1),
        "middle block": (15, 3), "partial last block": (28, 27),
    }[where]

    def mutant(original, dim, b):
        matrix = original(dim, b)
        if b == a:
            matrix[:, j] += 1e-6
        return matrix

    _assert_both_fail(monkeypatch, Dimension(d), mutant)


@pytest.mark.parametrize("columns", [[2, 1], [1, 1]], ids=["swapped", "repeated"])
def test_relabelled_z_basis_fails_verify(monkeypatch, columns):
    # columns 1 and 2 of B_d swapped keep every overlap, so the pairwise
    # reference passes; made equal, they break its orthonormality too
    dim = Dimension(5)

    def mutant(original, dim, a):
        matrix = original(dim, a)
        if a == dim.d:
            matrix[:, [1, 2]] = matrix[:, columns]
        return matrix

    _patch_bases(monkeypatch, mutant)
    report = verify(dim)
    assert not report.passed and report.max_orthonormality_deviation == 1.0
    assert reference_verify(dim).passed is (columns == [2, 1])


def test_z_basis_is_exactly_the_identity():
    for d in PRIMES_TO_31:
        identity = np.eye(d, dtype=np.complex128)
        assert basis_matrix(Dimension(d), d).tobytes() == identity.tobytes()


def test_conjugated_d2_seed_passes_both_verifies(monkeypatch):
    # conjugating the i seed swaps the two labels of basis 1; at d = 2 the
    # shift labelling Z|j>_1 = |j-1>_1 reads the same both ways, so neither
    # verify can see it, and test_d2_special_basis is the check that does
    dim = Dimension(2)
    mutated = basis_matrix(dim, 1).conj()
    assert not np.allclose(mutated[:, 0], basis_matrix(dim, 1)[:, 0])
    _patch_bases(
        monkeypatch, lambda original, dim, a: mutated if a == 1 else original(dim, a)
    )
    assert np.array_equal(basis_matrix(dim, 1), mutated)
    assert verify(dim).passed and reference_verify(dim).passed


@pytest.mark.parametrize("d", [2, 5, 29])
def test_every_basis_verify_reads_goes_through_the_mutant_seam(monkeypatch, d):
    # the mutant tests above patch mub._columns; if verify built a basis some
    # other way they would pass without testing anything. At d = 29 the
    # bases below d fall into 8 blocks of at most 4, the last of 1, and the Z
    # basis is read after them
    dim = Dimension(d)
    for perturbed in range(d + 1):
        with monkeypatch.context() as patch:
            _patch_bases(
                patch,
                lambda original, dim, a: original(dim, a) * (1 + 1e-6 * (a == perturbed)),
            )
            assert not verify(dim).passed, perturbed


def best_times(dim: Dimension, checks, rounds: int) -> dict:
    best = dict.fromkeys(checks, math.inf)
    for _ in range(rounds):  # interleaved, so a slow stretch of the host hits each
        for check in best:
            start = time.perf_counter()
            check(dim)
            best[check] = min(best[check], time.perf_counter() - start)
    return best


def test_verify_is_five_times_faster_than_the_reference_at_d61():
    best = best_times(Dimension(61), (verify, reference_verify), 3)
    assert 5 * best[verify] < best[reference_verify]


def test_verify_is_faster_than_the_full_column_algorithm_at_d61():
    best = best_times(Dimension(61), (verify, full_column_verify), 5)
    assert 1.3 * best[verify] <= best[full_column_verify]
