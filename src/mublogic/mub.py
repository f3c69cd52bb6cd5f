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


def _columns(dim: Dimension, a: int, j: np.ndarray, table=None, base=None, s=None) -> np.ndarray:
    """Columns j (an int array) of B_a, entry (k, j) gathered from
    table = _table(_roots(dim)) at base + ((-a s_k) mod d), with base the
    exponents (-(k j)) mod d and s the column of s_k; each is built here if
    not given. Both terms lie in [0, d), so the index needs no reduction:
    entry e of the doubled table is the root of exponent e mod d. No entry's
    bits depend on j."""
    d = dim.d
    if a == d:
        return (np.arange(d)[:, None] == j).astype(np.complex128)
    if d == 2 and a == 1:
        # |j>_1 = Z^(-j) |0>_1 with |0>_1 = (|0> + i|1>)/sqrt(2)
        half = 1.0 / math.sqrt(2.0)
        return np.array([[half, half], [1j * half, -1j * half]]).take(j, axis=1)
    if s is None:
        s = _sums(d)
    if table is None:
        table = _table(_roots(dim))
    if base is None:  # built here, so the shift is added in place
        base = _base(d, j)
        return table[np.add(base, (-a * s) % d, out=base)]
    return table[base + (-a * s) % d]  # row k, column j


def _base(d: int, j: np.ndarray) -> np.ndarray:
    """The exponents (-(k j)) mod d, row k, column j, as ((d - k) j) mod d:
    x - (x // d) d in place. NumPy divides an integer array by a scalar
    through libdivide, which its % does not use."""
    x = np.multiply.outer(d - np.arange(d), j)
    q = x // d
    q *= d
    x -= q
    return x


def _sums(d: int) -> np.ndarray:
    """s_k = k + (k+1) + ... + (d-1), as a column."""
    k = np.arange(d)[:, None]
    return (d - k) * (d + k - 1) // 2


# verify() checks the bases a block at a time, in a (g, d, d) buffer of at
# most this many complex entries (or of one basis, from d = 67 on): 64 KiB,
# under glibc's 128 KiB mmap threshold, so the buffers come from the heap.
# Buffers of 2**15 entries (512 KiB) are mapped afresh, and a verify-mub op
# in a new process faulted in up to 350 pages for them. From d = 47 on a
# block holds one basis.
BLOCK_ENTRIES = 2**12


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

    Each basis alone is gathered, read in its half gemm and checked for
    orthonormality. For unbiasedness only the least and the greatest |G|
    over all pairs are kept: squaring and subtracting 1/d round
    monotonically, so the largest |fl(fl(|G|^2) - 1/d)| is reached at one of
    the two, bit for bit. The bases a < d are copied, a block of at most
    BLOCK_ENTRIES entries at a time, into one reused buffer, where the shift
    check runs over the whole block in place, and the eigen images of the
    block's first columns are built together; only the two vdots of each
    eigen residual stay per basis.

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
    table, base, s = _table(eta), _base(d, k), _sums(d)  # shared by every B_a
    e_0, phases = k == 0, eta[:, None]
    first = np.empty((d, d + 1), dtype=np.complex128)
    g = max(1, BLOCK_ENTRIES // (d * d))
    block, work = np.empty((2, g, d, d), dtype=np.complex128)

    ortho = eigen = shift = 0.0  # eigen and shift as squared norms
    low, high = math.inf, 0.0  # the least and the greatest |G[:, :a]|
    for start in range(0, d, g):
        n = min(g, d - start)
        for i in range(n):
            a = start + i
            basis = _columns(dim, a, k, table, base, s)
            block[i], first[:, a] = basis, basis[:, 0]
            deviation, least, greatest = _read_pairs(basis, first[:, : a + 1], e_0)
            ortho, low, high = max(ortho, deviation), min(low, least), max(high, greatest)
        shift = max(shift, _shift_residual(phases, block[:n], work[:n]))
        # X Z^a |0>_a: a phase per row (eta^(a k) = eta^base[-a, k]), then a
        # shift down one row
        columns = first[:, start : start + n].T
        images = (eta[base[-np.arange(start, start + n)]] * columns)[:, k - 1]
        for column, image in zip(columns, images):
            residual = image - np.vdot(column, image) * column  # by its Rayleigh quotient
            eigen = max(eigen, float(np.vdot(residual, residual).real))

    basis = _columns(dim, d, k, table, base, s)  # B_d: checked to be the identity
    first[:, d] = basis[:, 0]
    deviation, least, greatest = _read_pairs(basis, first, e_0)
    ortho = max(ortho, deviation, float(np.abs(basis - np.eye(d)).max()))
    low, high = min(low, least), max(high, greatest)

    # rounding is monotone: the largest |fl(fl(|G|^2) - 1/d)| is at low or high
    unbias = max(abs(high * high - 1.0 / d), abs(low * low - 1.0 / d))
    eigen, shift = math.sqrt(eigen), math.sqrt(shift)
    passed = max(ortho, unbias, eigen, shift) < tol
    return MubReport(ortho, unbias, eigen, shift, passed)


def _read_pairs(basis: np.ndarray, first: np.ndarray, e_0: np.ndarray) -> tuple:
    """From G = B_a^dagger F[:, :a+1], the half gemm: max |G[:, a] - e_0|, and
    the least and the greatest |G[:, :a]| (inf and 0 at a = 0). Its
    temporaries are freed on return, before the next basis is built."""
    overlaps = basis.conj().T @ first
    column = float(np.abs(overlaps[:, -1] - e_0).max())
    if overlaps.shape[1] == 1:
        return column, math.inf, 0.0
    moduli = np.abs(overlaps[:, :-1])
    return column, float(moduli.min()), float(moduli.max())


def _shift_residual(phases: np.ndarray, block: np.ndarray, work: np.ndarray) -> float:
    """The largest squared norm of Z|j>_a - |j-1>_a over the bases in block,
    worked out in place in work, a buffer of block's shape."""
    # the phases come first, as in eta[:, None] * B_a: numpy's complex
    # product does not give the same bits with its operands swapped
    residuals = np.multiply(phases, block, out=work)
    wrapped = residuals[:, :, 0].copy()
    # one flat pass subtracts each entry's left neighbour; in column 0 that
    # is the row above's last entry, so column 0 is done again
    residuals.reshape(-1)[1:] -= block.reshape(-1)[:-1]
    np.subtract(wrapped, block[:, :, -1], out=residuals[:, :, 0])
    squares = residuals.view(np.float64)
    squares *= squares
    norms = np.add(squares[..., ::2], squares[..., 1::2])  # |r|^2 = re^2 + im^2
    return float(norms.sum(axis=1).max())  # summed down each column, in order
