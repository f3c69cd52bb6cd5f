"""Experiment runner, chi-square uniformity test, and cross-validation."""

import pytest

from mublogic import devices, mub
from mublogic.experiment import (
    ALPHA,
    CHI2_CRITICAL_001,
    Behavior,
    ExperimentConfig,
    Tally,
    UniformityVerdict,
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
TALLY_D3_SEED42_9000 = (2959, 3018, 3023)


def config(d, a, b, m, trials, seed):
    dim = Dimension(d)
    return ExperimentConfig(dim, Proposition.of(a, b, dim), m, trials, seed)


def test_config_seed_must_lie_in_64_bit_range():
    config(3, 0, 0, 1, 10, 0)
    config(3, 0, 0, 1, 10, 2**64 - 1)
    for seed in (-1, 2**64, 5 + 2**64):
        with pytest.raises(ValueError, match="seed"):
            config(3, 0, 0, 1, 10, seed)


def test_run_deterministic_at_matching_setting():
    tally = run(config(3, 0, 0, 0, 100, 42))
    assert tally.counts == (100, 0, 0)


def test_run_uniform_within_binomial_band():
    tally = run(config(3, 0, 0, 1, 9000, 42))
    assert tally.counts == TALLY_D3_SEED42_9000
    sigma = (9000 * (1 / 3) * (2 / 3)) ** 0.5
    for c in tally.counts:
        assert abs(c - 3000) < 5 * sigma


def test_run_small_deterministic_case():
    tally = run(config(2, 2, 1, 2, 7, 1))
    assert tally.counts == (0, 7)


def test_run_reproducible():
    cfg = config(3, 1, 2, 2, 500, 2024)
    assert run(cfg).counts == run(cfg).counts


def test_chi_square_balanced_tally():
    cfg = config(3, 0, 0, 1, 9000, 0)
    result = chi_square_uniform(Tally((3000, 3000, 3000), cfg))
    assert result.chi_square_statistic == 0.0
    assert result.degrees_of_freedom == 2
    assert result.critical_value == 13.816
    assert result.verdict is UniformityVerdict.CONSISTENT_WITH_UNIFORM


def test_chi_square_degenerate_tally():
    cfg = config(3, 0, 0, 0, 9000, 0)
    result = chi_square_uniform(Tally((9000, 0, 0), cfg))
    assert result.chi_square_statistic == pytest.approx(18000.0)
    assert result.verdict is UniformityVerdict.REJECT_UNIFORM


def test_chi_square_seeded_uniform_run():
    tally = run(config(5, 0, 0, 1, 10_000, 7))
    result = chi_square_uniform(tally)
    assert result.degrees_of_freedom == 4
    assert result.verdict is UniformityVerdict.CONSISTENT_WITH_UNIFORM


def test_chi_square_validity_floor():
    cfg = config(3, 0, 0, 1, 14, 0)
    with pytest.raises(ValidityError):
        chi_square_uniform(Tally((5, 5, 4), cfg))


def test_chi_square_needs_embedded_critical_value():
    d37 = Dimension(37)
    cfg = ExperimentConfig(d37, Proposition.of(0, 0, d37), 0, 370, 0)
    counts = tuple([370] + [0] * 36)
    with pytest.raises(ValidityError):
        chi_square_uniform(Tally(counts, cfg))


def test_critical_values_against_scipy_oracle():
    scipy_stats = pytest.importorskip("scipy.stats")
    for df, value in CHI2_CRITICAL_001.items():
        exact = scipy_stats.chi2.ppf(1.0 - ALPHA, df)
        assert value == pytest.approx(exact, abs=5e-4), df


def test_tally_validation():
    cfg = config(3, 0, 0, 0, 10, 0)
    with pytest.raises(ValueError):
        Tally((5, 5), cfg)
    with pytest.raises(ValueError):
        Tally((5, 5, 5), cfg)
    with pytest.raises(ValueError):
        Tally((11, -1, 0), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        config(3, 0, 0, 4, 10, 0)
    with pytest.raises(ValueError):
        config(3, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        ExperimentConfig(D3, Proposition.of(0, 0, Dimension(5)), 0, 10, 0)


def test_observed_behavior_classification():
    assert observed_behavior([0.0, 1.0, 0.0], 3, 1e-9) == Behavior.deterministic(1)
    third = 1 / 3
    assert observed_behavior([third, third, third], 3, 1e-9) == Behavior.uniform()
    assert observed_behavior([0.5, 0.5, 0.0], 3, 1e-9) == Behavior.mixed()


def test_predicted_behavior_from_decidability():
    axiom = Proposition.of(1, 1, D3)
    assert predicted_behavior(axiom, 1) == Behavior.deterministic(1)
    assert predicted_behavior(axiom, 2) == Behavior.uniform()
    assert predicted_behavior(axiom, 3) == Behavior.uniform()


def test_predicted_behavior_rejects_measurement_outside_range():
    axiom = Proposition.of(1, 1, D3)
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
    by_key = {(c.axiom.a, c.axiom.b, c.m): c for c in cells(report)}
    cell = by_key[(1, 1, 1)]
    assert cell.predicted == Behavior.deterministic(1)
    assert cell.observed == Behavior.deterministic(1)
    off = by_key[(1, 1, 2)]
    assert off.predicted == Behavior.uniform()
    assert off.observed == Behavior.uniform()


def test_cross_validate_flags_routes_that_agree_on_the_wrong_outcome(monkeypatch):
    # both routes read axiom {a, b + 1} in place of {a, b}: they agree with
    # each other, but the m = a cell is not deterministic at n = b
    from mublogic import experiment

    d = 5
    column, matrix = experiment._column, experiment.label_count_matrix
    monkeypatch.setattr(experiment, "_column", lambda n, m, d: column((n + 1) % d, m, d))
    monkeypatch.setattr(
        experiment, "label_count_matrix",
        lambda axiom: matrix(Proposition.of(axiom.a, (axiom.b + 1) % d, axiom.dim)),
    )
    report = cross_validate(Dimension(d))
    wrong = [cell for cell in cells(report) if not cell.agree]
    assert len(wrong) == report.disagreements == (d + 1) * d
    assert all(cell.m == cell.axiom.a and cell.predicted == cell.observed for cell in wrong)


def test_cross_validate_rejects_oversized_d():
    with pytest.raises(ValueError):
        cross_validate(Dimension(37))


@pytest.mark.parametrize("d", [2, 3, 13])
def test_cross_validate_builds_each_basis_twice_and_no_single_state(monkeypatch, d):
    # d+1 bases for the states, d+1 for the measurements; every build asks
    # for all d columns, so no basis_state (one column) is among them
    widths = []
    columns = mub._columns

    def counting(dim, a, j, table=None, base=None):
        widths.append(len(j))
        return columns(dim, a, j, table, base)

    def no_state(*args):
        raise AssertionError("basis_state called")

    monkeypatch.setattr(mub, "_columns", counting)
    monkeypatch.setattr(mub, "basis_state", no_state)
    monkeypatch.setattr(devices, "basis_state", no_state)
    cross_validate(Dimension(d))
    assert widths == [d] * (2 * (d + 1))
