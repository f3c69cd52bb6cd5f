"""Multi-trial experiments, uniformity statistics, and cross-validation.

The cross-validation sweeps every axiom {a, b} against every measurement
setting m and checks that the two routes agree cell by cell:

  * logical route: brute-force decidability of the propositions {m, n}
    relative to the axiom, plus counting multiplicities over the axiom's
    group;
  * quantum route: exact Born probabilities of the encoded state.

Sampling experiments model single-run outcomes with a seeded pseudo-random
stream. That stream is a simulation device for reproducibility, not a claim
about where the randomness of a physical measurement comes from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .devices import _column, born, outcomes, prepare, trial_uniforms
from .logic import Proposition, label_count_table
from .modmath import Dimension
from .mub import basis_matrix

ALPHA = 0.001

# Upper critical values of the chi-square distribution at alpha = 0.001,
# degrees of freedom 1..30, from the standard reference table (checked
# against scipy.stats.chi2.ppf in the test suite).
CHI2_CRITICAL_001 = {
    1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515,
    6: 22.458, 7: 24.322, 8: 26.124, 9: 27.877, 10: 29.588,
    11: 31.264, 12: 32.909, 13: 34.528, 14: 36.123, 15: 37.697,
    16: 39.252, 17: 40.790, 18: 42.312, 19: 43.820, 20: 45.315,
    21: 46.797, 22: 48.268, 23: 49.728, 24: 51.179, 25: 52.620,
    26: 54.052, 27: 55.476, 28: 56.892, 29: 58.301, 30: 59.703,
}


class ValidityError(ValueError):
    """A statistical test's validity preconditions are not met."""


def run(axiom: Proposition, m: int, trials: int, seed: int) -> np.ndarray:
    """Outcome counts of `trials` seeded trials measuring the encoded axiom
    in basis m, one per outcome label.

    Each trial draws from its own derived stream, so the counts are
    independent of execution order and reproducible from (seed, trials).
    The uniforms come block by block from trial_uniforms (which also checks
    the seed), map to outcomes by inverse CDF (outcomes) and are counted one
    bincount per block, so the counts equal those of a scalar loop that
    seeds one generator per trial and draws once from it, exactly.
    """
    d = axiom.dim.d
    if not 0 <= m <= d:
        raise ValueError(f"measurement index {m} out of range")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    probabilities = born(prepare(axiom), m)
    blocks = trial_uniforms(seed, trials)  # at least one, as trials >= 1
    return sum(np.bincount(outcomes(probabilities, u), minlength=d) for u in blocks)


def chi_square_uniform(counts: np.ndarray) -> tuple[float, int, float, str]:
    """Goodness-of-fit test of the counts against the uniform distribution:
    (statistic, degrees of freedom, critical value, verdict), the verdict
    "RejectUniform" or "ConsistentWithUniform".

    Requires an embedded critical value for d - 1 degrees of freedom and
    trials >= 5 d (the usual expected-count floor); raises ValidityError
    otherwise instead of returning a verdict.
    """
    d = len(counts)
    trials = int(counts.sum())
    df = d - 1
    if df not in CHI2_CRITICAL_001:
        raise ValidityError(f"no embedded chi-square critical value for df = {df}")
    if trials < 5 * d:
        raise ValidityError(f"needs at least {5 * d} trials for a verdict")
    expected = trials / d
    # summed in order, as Python floats: numpy's pairwise sum rounds otherwise
    statistic = sum((c - expected) ** 2 / expected for c in counts.tolist())
    critical = CHI2_CRITICAL_001[df]
    verdict = "RejectUniform" if statistic > critical else "ConsistentWithUniform"
    return float(statistic), df, critical, verdict


@dataclass(frozen=True, eq=False)
class CrossReport:
    """Every cell of a cross-validation, as arrays indexed [a, b, m]: the
    predicted and observed behavior codes (_behavior_codes), the verdicts
    and each cell's max |born - counting/d|."""

    dim: Dimension
    predicted: np.ndarray
    observed: np.ndarray
    agree: np.ndarray
    deviation: np.ndarray

    @property
    def disagreements(self) -> int:
        return int(np.count_nonzero(~self.agree))

    @property
    def all_agree(self) -> bool:
        return self.disagreements == 0

    @property
    def max_born_vs_counting_deviation(self) -> float:
        return float(self.deviation.max())


def cross_validate(dim: Dimension, tol: float = 1e-9) -> CrossReport:
    """Check every (axiom, measurement) cell for logic/quantum agreement.

    A cell agrees when the Born classification matches the decidability
    forecast, the m = a cell is deterministic at n = b, and every m != a
    cell is uniform. The cell also records how far the Born probabilities
    drift from group-counting multiplicities divided by d; for this function
    family the two are equal. Two array passes fill every cell: one born()
    call per basis m on the stack of all encoded states, and one bincount
    over the members of every group (label_count_table). All cells are then
    classified in one array pass; the tests compare it with each cell
    classified on its own.
    """
    d = dim.d
    if d > 31:
        raise ValueError("cross-validation is a desk-scale sweep; d <= 31 required")
    k = np.arange(d)
    # [a, b]: the state of axiom {a, b}, the column of B_a that prepare() returns
    states = np.stack([basis_matrix(dim, a)[:, _column(k, a, d)].T for a in range(d + 1)])
    # [a, b, m]: the Born probabilities and the label counts of cell ({a, b}, m)
    probabilities = np.stack([born(states, m) for m in range(d + 1)], axis=2)
    counts = label_count_table(dim)
    observed = _behavior_codes(probabilities > 1.0 - tol, np.abs(probabilities - 1.0 / d) <= tol)
    predicted = _behavior_codes(counts == d, counts != 0)
    deviation = np.max(np.abs(probabilities - counts / d), axis=-1)
    a, b, m = np.ogrid[: d + 1, :d, : d + 1]
    agree = (observed == predicted) & (predicted == np.where(m == a, b, d))
    return CrossReport(dim, predicted, observed, agree, deviation)


def _behavior_codes(point: np.ndarray, near_uniform: np.ndarray) -> np.ndarray:
    """Along the last axis: the first outcome n with a point mass, else d if
    every outcome is near uniform, else d + 1 (mixed)."""
    d = point.shape[-1]
    rest = np.where(near_uniform.all(axis=-1), d, d + 1)
    return np.where(point.any(axis=-1), point.argmax(axis=-1), rest)
