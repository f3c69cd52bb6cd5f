"""Experiment runner, chi-square uniformity test, and cross-validation."""

import numpy as np
import pytest

from mublogic import devices, experiment, mub
from mublogic.experiment import (
    ALPHA,
    CHI2_CRITICAL_001,
    ValidityError,
    chi_square_uniform,
    cross_validate,
    run,
)
from mublogic.logic import Proposition
from mublogic.modmath import Dimension
from reference import cells, observed_behavior, predicted_behavior

D3 = Dimension(3)

# recorded once; guards cross-version stability of the seeded stream
TALLY_D3_SEED42_9000 = [2959, 3018, 3023]


def run_at(d, a, b, m, trials, seed):
    dim = Dimension(d)
    return run(Proposition(a, b, dim), m, trials, seed)


def test_run_seed_must_lie_in_64_bit_range():
    run_at(3, 0, 0, 1, 10, 0)
    run_at(3, 0, 0, 1, 10, 2**64 - 1)
    for seed in (-1, 2**64, 5 + 2**64):
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*64\), got {seed}$"):
            run_at(3, 0, 0, 1, 10, seed)


def test_run_deterministic_at_matching_setting():
    counts = run_at(3, 0, 0, 0, 100, 42)
    assert counts.tolist() == [100, 0, 0]


def test_run_uniform_within_binomial_band():
    counts = run_at(3, 0, 0, 1, 9000, 42)
    assert counts.tolist() == TALLY_D3_SEED42_9000
    sigma = (9000 * (1 / 3) * (2 / 3)) ** 0.5
    for c in counts:
        assert abs(c - 3000) < 5 * sigma


def test_run_small_deterministic_case():
    assert run_at(2, 2, 1, 2, 7, 1).tolist() == [0, 7]


def test_run_reproducible():
    assert np.array_equal(run_at(3, 1, 2, 2, 500, 2024), run_at(3, 1, 2, 2, 500, 2024))


def test_chi_square_balanced_tally():
    assert chi_square_uniform(np.array([3000, 3000, 3000])) == (
        0.0, 2, 13.816, "ConsistentWithUniform"
    )


def test_chi_square_degenerate_tally():
    statistic, _, _, verdict = chi_square_uniform(np.array([9000, 0, 0]))
    assert statistic == pytest.approx(18000.0)
    assert verdict == "RejectUniform"


def test_chi_square_seeded_uniform_run():
    _, df, _, verdict = chi_square_uniform(run_at(5, 0, 0, 1, 10_000, 7))
    assert df == 4
    assert verdict == "ConsistentWithUniform"


def test_chi_square_validity_floor():
    with pytest.raises(ValidityError, match="^needs at least 15 trials for a verdict$"):
        chi_square_uniform(np.array([5, 5, 4]))


def test_chi_square_needs_embedded_critical_value():
    counts = np.array([370] + [0] * 36)
    with pytest.raises(ValidityError, match="^no embedded chi-square critical value for df = 36$"):
        chi_square_uniform(counts)


def test_critical_values_against_scipy_oracle():
    scipy_stats = pytest.importorskip("scipy.stats")
    for df, value in CHI2_CRITICAL_001.items():
        exact = scipy_stats.chi2.ppf(1.0 - ALPHA, df)
        assert value == pytest.approx(exact, abs=5e-4), df


def test_run_validation():
    with pytest.raises(ValueError, match="^measurement index 4 out of range$"):
        run_at(3, 0, 0, 4, 10, 0)
    with pytest.raises(ValueError, match="^trials must be >= 1$"):
        run_at(3, 0, 0, 0, 0, 0)
    # the measurement index first, then the trial count, then the seed
    with pytest.raises(ValueError, match="^measurement index -1 out of range$"):
        run_at(3, 0, 0, -1, 0, -1)
    with pytest.raises(ValueError, match="^trials must be >= 1$"):
        run_at(3, 0, 0, 0, 0, -1)


def test_observed_behavior_classification():
    assert observed_behavior([0.0, 1.0, 0.0], 3, 1e-9) == 1
    third = 1 / 3
    assert observed_behavior([third, third, third], 3, 1e-9) == 3
    assert observed_behavior([0.5, 0.5, 0.0], 3, 1e-9) == 4


def test_predicted_behavior_from_decidability():
    axiom = Proposition(1, 1, D3)
    assert predicted_behavior(axiom, 1) == 1
    assert predicted_behavior(axiom, 2) == 3
    assert predicted_behavior(axiom, 3) == 3


def test_predicted_behavior_rejects_measurement_outside_range():
    axiom = Proposition(1, 1, D3)
    for m in (-1, 4, 7):
        with pytest.raises(ValueError, match=rf"measurement index {m} out of range \[0, 3\]"):
            predicted_behavior(axiom, m)


@pytest.mark.parametrize("d", [2, 3])
def test_cross_validate_all_cells_agree(d):
    report = cross_validate(Dimension(d))
    assert len(cells(report)) == (d + 1) * d * (d + 1)
    assert report.all_agree
    assert report.disagreements == 0
    assert report.max_born_vs_counting_deviation < 1e-10


def test_cross_validate_cell_detail():
    report = cross_validate(D3)
    by_key = {cell[:3]: cell[3:5] for cell in cells(report)}
    assert by_key[1, 1, 1] == (1, 1)  # both a point mass at n = 1
    assert by_key[1, 1, 2] == (3, 3)  # both uniform


def test_cross_validate_flags_routes_that_agree_on_the_wrong_outcome(monkeypatch):
    # both routes read axiom {a, b + 1} in place of {a, b}: they agree with
    # each other, but the m = a cell is not deterministic at n = b
    d = 5
    column, table = experiment._column, experiment.label_count_table
    monkeypatch.setattr(experiment, "_column", lambda n, m, d: column((n + 1) % d, m, d))
    monkeypatch.setattr(
        experiment, "label_count_table", lambda dim: np.roll(table(dim), -1, axis=1)
    )
    report = cross_validate(Dimension(d))
    wrong = [(a, b, m, p, o) for a, b, m, p, o, agree, _ in cells(report) if not agree]
    assert len(wrong) == report.disagreements == (d + 1) * d
    assert all(m == a and p == o for a, b, m, p, o in wrong)


def test_cross_validate_rejects_oversized_d():
    with pytest.raises(ValueError):
        cross_validate(Dimension(37))


@pytest.mark.parametrize("d", [2, 3, 13])
def test_cross_validate_builds_each_basis_twice_and_no_single_state(monkeypatch, d):
    # d+1 bases for the states, d+1 for the measurements; every build asks
    # for all d columns, so no basis_state (one column) is among them
    widths = []
    columns = mub._columns

    def counting(dim, a, j, table=None, base=None, s=None):
        widths.append(len(j))
        return columns(dim, a, j, table, base, s)

    def no_state(*args):
        raise AssertionError("basis_state called")

    # and d+1 born() calls, each on the stack of every state, with no
    # Proposition built
    born_calls, propositions = [], []
    born, post_init = experiment.born, Proposition.__post_init__

    def counting_born(states, m):
        born_calls.append((states.shape, m))
        return born(states, m)

    def counting_post_init(self):
        propositions.append(self)
        post_init(self)

    monkeypatch.setattr(mub, "_columns", counting)
    monkeypatch.setattr(mub, "basis_state", no_state)
    monkeypatch.setattr(devices, "basis_state", no_state)
    monkeypatch.setattr(experiment, "born", counting_born)
    monkeypatch.setattr(Proposition, "__post_init__", counting_post_init)
    cross_validate(Dimension(d))
    assert widths == [d] * (2 * (d + 1))
    assert born_calls == [((d + 1, d, d), m) for m in range(d + 1)]
    assert propositions == []
