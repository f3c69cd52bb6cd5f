"""The complete set of d+1 mutually unbiased bases for prime d.

Bases a = 0..d-1 are eigenbases of X Z^a; basis a = d is the computational
(Z eigen-) basis. For odd d the states come from the closed formula

    |j>_a = (1/sqrt(d)) sum_k eta^(-(j k + a s_k)) |k>,   s_k = k + ... + (d-1),

with exponents reduced mod d (Wootters & Fields 1989, Ann. Phys. 191, 363).
The labeling convention is fixed by the Z-shift property
Z|j>_a = |j-1 mod d>_a (exact, no phase), which the encoding layer relies
on. Bases, states and operators are plain complex128 arrays.

The d roots of unity are computed in one vectorized cos/sin pass from
exponents reduced mod d, which keeps phase error independent of exponent
magnitude. Each basis entry is gathered from that table scaled by 1/sqrt(d)
and stored twice end to end (length 2d), at index base + ((-a s_k) mod d)
with base = (-(k j)) mod d: both terms lie in [0, d), so their sum needs no
reduction. basis_matrix() builds B_a, the
d x d matrix with |j>_a as column j; basis_state() its column j alone, bit
for bit, as a contiguous vector. verify() builds one table and one base for
all d+1 bases, and reads each basis pair once, in a half gemm.

d = 2 needs one special case: the integer-exponent formula cannot produce
the X Z eigenbasis (that basis has imaginary components), so basis a = 1 is
seeded with |0>_1 = (|0> + i|1>)/sqrt(2) and the remaining label is
generated by the same Z-shift convention. The verify() report, not the
formula, is the arbiter that all defining properties hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modmath import Dimension


@dataclass(frozen=True)
class MubReport:
    """Worst-case deviations from the defining properties of a full MUB set."""

    max_orthonormality_deviation: float
    max_unbiasedness_deviation: float
    max_eigen_residual: float
    max_shift_residual: float
    passed: bool

    @property
    def max_deviation(self) -> float:
        return max(
            self.max_orthonormality_deviation,
            self.max_unbiasedness_deviation,
            self.max_eigen_residual,
            self.max_shift_residual,
        )


def basis_matrix(dim: Dimension, a: int) -> np.ndarray:
    """B_a: the states |j>_a of basis a as columns; B_d is the identity."""
    _check_index(dim, a)
    return _columns(dim, a, np.arange(dim.d))


def basis_state(dim: Dimension, a: int, j: int) -> np.ndarray:
    """State |j>_a of basis a; basis a = d is the computational basis.

    Only column j is computed; its bits are those of basis_matrix(dim, a)[:, j].
    The array is contiguous, as born() needs: a strided column would change
    the bits of its matrix-vector product.
    """
    _check_index(dim, a)
    if not 0 <= j < dim.d:
        raise ValueError(f"state label {j} out of range [0, {dim.d})")
    return _columns(dim, a, np.array([j])).ravel()


def _check_index(dim: Dimension, a: int) -> None:
    if not 0 <= a <= dim.d:
        raise ValueError(f"basis index {a} out of range [0, {dim.d}]")


def _roots(dim: Dimension) -> np.ndarray:
    """eta^e for e = 0..d-1 from the float angles 2 pi e / d, through np.cos
    and np.sin: bit for bit what math.cos and math.sin give at those angles,
    as the tests check root by root (tests/reference.py)."""
    d = dim.d
    angles = 2.0 * math.pi * np.arange(d) / d
    roots = np.empty(d, dtype=np.complex128)
    roots.real = np.cos(angles)
    roots.imag = np.sin(angles)
    return roots


def _table(eta: np.ndarray) -> np.ndarray:
    """(1/sqrt(d)) * eta stored twice end to end, so that entry e is
    (1/sqrt(d)) eta^(e mod d) for every e in [0, 2d)."""
    d = len(eta)
    table = np.empty(2 * d, dtype=np.complex128)
    table[:d] = table[d:] = (1.0 / math.sqrt(d)) * eta
    return table


def _columns(dim: Dimension, a: int, j: np.ndarray, table=None, base=None) -> np.ndarray:
    """Columns j (an int array) of B_a, entry (k, j) gathered from
    table = _table(_roots(dim)) at base + ((-a s_k) mod d), with base the
    exponents (-(k j)) mod d; each is built here if not given. Both terms
    lie in [0, d), so the index needs no reduction: entry e of the doubled
    table is the root of exponent e mod d. No entry's bits depend on j."""
    d = dim.d
    k = np.arange(d)[:, None]
    if a == d:
        return (k == j).astype(np.complex128)
    if d == 2 and a == 1:
        # |j>_1 = Z^(-j) |0>_1 with |0>_1 = (|0> + i|1>)/sqrt(2)
        half = 1.0 / math.sqrt(2.0)
        return np.array([[half, half], [1j * half, -1j * half]]).take(j, axis=1)
    s = (d - k) * (d + k - 1) // 2  # s_k = k + (k+1) + ... + (d-1)
    if table is None:
        table = _table(_roots(dim))
    if base is None:
        base = (-k * j) % d
    return table[base + (-a * s) % d]  # row k, column j


def verify(dim: Dimension, tol: float = 1e-10) -> MubReport:
    """Measure the worst deviation from each defining property.

    Checks orthonormality within every basis, cross-basis overlap
    |<j_a|k_m>|^2 against 1/d, the eigenvector property of X Z^a on its
    basis, and the exact Z-shift labeling. Passing means every maximum is
    below tol.

    Z is unitary, so the labeling Z|j>_a = |j-1>_a makes every overlap matrix
    circulant, <j_a|k_m> = <j-k_a|0_m> for a, m < d, and gives each row of
    B_m one modulus. So G = B_a^dagger F[:, :a+1], with F the first columns
    B_m[:, 0] filled as each B_a is built (once), reads each pair once, from
    its later basis: column a for orthonormality, the others for unbiasedness
    (a pair with m = d at a = d, where G is F). And X Z^a Z^(-j) =
    eta^j Z^(-j) X Z^a, so |j>_a = Z^(-j)|0>_a has the eigen residual of column
    0, the one read. One root-of-unity table gives the phases, and its
    doubled, scaled copy with one array of base exponents every column.

    These reductions hold only because the shift check, over every column,
    is part of `passed`: if the shift residual is eps, each overlap and each
    column's eigen residual is within about 2(d-1) eps of its representative,
    and those fields are maxima over the representatives. The shift check
    covers only a < d; B_d is instead checked to be the identity entry by
    entry (each Z eigenstate |j> labelled j), and max|B_d - I| is part of the
    orthonormality deviation: a relabelled or repeated Z-basis state fails.
    """
    d = dim.d
    k = np.arange(d)
    eta = _roots(dim)
    table, base = _table(eta), (-k[:, None] * k) % d  # base: shared by every B_a
    first = np.empty((d, d + 1), dtype=np.complex128)

    ortho = unbias = eigen = shift = 0.0  # eigen and shift as squared norms
    for a in range(d + 1):
        basis = _columns(dim, a, k, table, base)
        first[:, a] = column = basis[:, 0]
        overlaps = basis.conj().T @ first[:, : a + 1]
        ortho = max(ortho, float(np.max(np.abs(overlaps[:, a] - (k == 0)))))  # against e_0
        deviations = np.abs(np.abs(overlaps) ** 2 - 1.0 / d)
        deviations[:, a] = 0.0  # column a is basis a itself; deviations are >= 0
        unbias = max(unbias, float(np.max(deviations)))
        if a == d:
            ortho = max(ortho, float(np.max(np.abs(basis - np.eye(d)))))
            continue
        image = (eta[(a * k) % d] * column)[k - 1]  # X Z^a |0>_a
        residual = image - np.vdot(column, image) * column  # by its Rayleigh quotient
        eigen = max(eigen, float(np.vdot(residual, residual).real))
        residuals = eta[:, None] * basis - basis[:, k - 1]  # Z|j>_a - |j-1>_a
        shift = max(shift, float(np.max(np.sum(residuals.real**2 + residuals.imag**2, axis=0))))

    eigen, shift = math.sqrt(eigen), math.sqrt(shift)
    passed = max(ortho, unbias, eigen, shift) < tol
    return MubReport(ortho, unbias, eigen, shift, passed)
