"""Roots of unity and the generalized Pauli pair for one prime-d qudit.

States, operators and Born distributions are plain complex128 / float64
numpy arrays; the only algebra they need is numpy's own (`@`,
`np.linalg.matrix_power`, `np.vdot`). Roots of unity are always computed
from exponents reduced mod d, which keeps phase error independent of
exponent magnitude.
"""

from __future__ import annotations

import math

import numpy as np

from .modmath import Dimension


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
