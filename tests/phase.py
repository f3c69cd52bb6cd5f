"""Equality up to a global phase, for state vectors and operators alike."""

import numpy as np


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - lambda b| entrywise over the best unit-modulus lambda.

    Zero iff a and b agree up to a global phase. For unit vectors and
    unitaries the optimal phase is the direction of <b|a> (tr(b^dagger a)
    for matrices), which np.vdot computes over the flattened entries.
    """
    overlap = complex(np.vdot(b, a))
    phase = overlap / abs(overlap) if abs(overlap) > 0.0 else 1.0
    return float(np.max(np.abs(a - phase * b)))
