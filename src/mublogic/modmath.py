"""The prime dimension d shared by the logic and the quantum layer.

Values in Z_d are plain ints, range-checked where they enter a Proposition.
Logic objects bound to different dimensions raise
DimensionMismatch when combined; the quantum layer's arrays carry d as
their length, so a mismatch there fails numpy's own shape checks.
"""

from __future__ import annotations

from dataclasses import dataclass


class NotPrimeError(ValueError):
    """Dimension construction requires a prime d >= 2."""


class DimensionMismatch(ValueError):
    """Operands are bound to different moduli."""


def is_prime(n: int) -> bool:
    """Deterministic trial division, plenty for desk-scale inputs."""
    if n < 2:
        return False
    if n in (2, 3):
        return True
    if n % 2 == 0:
        return False
    k = 3
    while k * k <= n:
        if n % k == 0:
            return False
        k += 2
    return True


@dataclass(frozen=True)
class Dimension:
    """A prime system dimension d >= 2."""

    d: int

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or isinstance(self.d, bool):
            raise TypeError(f"dimension must be an int, got {self.d!r}")
        if self.d < 2 or not is_prime(self.d):
            raise NotPrimeError(f"d must be prime and >= 2, got {self.d}")
