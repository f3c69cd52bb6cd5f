"""Preparation/measurement devices: encoding, Born statistics, sampling."""

import hashlib
import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mublogic.devices import (
    TRIAL_BLOCK,
    born,
    outcomes,
    prepare,
    trial_uniforms,
)
from mublogic.experiment import run
from mublogic.logic import Proposition
from mublogic.modmath import Dimension
from mublogic.mub import basis_matrix, basis_state
from phase import phase_distance
from reference import (
    BinaryFunction,
    encode_unitary,
    group,
    outcome_multiplicities,
    pauli_x,
    pauli_z,
    prepare_with,
    sample,
    trial_rng,
)

PRIMES = [2, 3, 5]

D3 = Dimension(3)

# recorded once from trial_rng(123, t) over the uniform d=3 distribution;
# guards the platform-independence of the sampling contract
SAMPLE_SEQUENCE_SEED_123 = [2, 2, 0, 1, 0, 0, 2, 1, 1, 0, 2, 0, 2, 0, 2, 1, 1, 0, 0, 0]


class FixedUniform:
    """Stub stream handing out a scripted u value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_encode_identity_and_shift():
    assert np.array_equal(encode_unitary(BinaryFunction.from_values(0, 0, D3)), np.eye(3))
    d2 = Dimension(2)
    assert np.array_equal(encode_unitary(BinaryFunction.from_values(1, 0, d2)), pauli_x(d2))


@pytest.mark.parametrize("d", PRIMES)
def test_encode_proportional_to_group_form(d):
    dim = Dimension(d)
    x, z = pauli_x(dim), pauli_z(dim)
    power = np.linalg.matrix_power
    for f0, f1 in itertools.product(range(d), repeat=2):
        u = encode_unitary(BinaryFunction.from_values(f0, f1, dim))
        for a in range(d):
            b = (f1 - a * f0) % d
            grouped = power(x @ power(z, a), f0) @ power(z, b)
            assert phase_distance(u, grouped) < 1e-10


def test_prepare_examples():
    assert np.allclose(prepare(Proposition(3, 2, D3)), np.eye(3)[:, 2])
    # b = 0 leaves |0>_a fixed exactly, not merely up to phase
    assert np.array_equal(prepare(Proposition(0, 0, D3)), basis_state(D3, 0, 0))
    assert phase_distance(prepare(Proposition(1, 1, D3)), basis_state(D3, 1, 2)) < 1e-12


@pytest.mark.parametrize("d", PRIMES)
def test_prepare_lands_on_shifted_label(d):
    dim = Dimension(d)
    for a in range(d + 1):
        for b in range(d):
            state = prepare(Proposition(a, b, dim))
            target_j = b if a == d else (-b) % d
            assert phase_distance(state, basis_state(dim, a, target_j)) < 1e-10


@pytest.mark.parametrize("d", PRIMES)
def test_group_members_encode_same_state(d):
    dim = Dimension(d)
    for a in range(d + 1):
        for b in range(d):
            states = [prepare_with(f, a) for f in group(Proposition(a, b, dim))]
            for s, t in itertools.combinations(states, 2):
                assert abs(np.vdot(s, t)) > 1.0 - 1e-10


PRIMES_TO_31 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@pytest.mark.parametrize("d", PRIMES_TO_31 + [53, 97])
def test_prepare_is_the_column_of_b_a_that_b_names(d):
    # basis_state computes column j alone; its bits are those of B_a's column
    dim = Dimension(d)
    for a in range(d + 1):
        matrix = basis_matrix(dim, a)
        for b in range(d):
            j = b if a == d else (-b) % d
            state = prepare(Proposition(a, b, dim))
            assert state.tobytes() == basis_state(dim, a, j).tobytes()
            assert state.tobytes() == matrix[:, j].tobytes()


@pytest.mark.parametrize("d", PRIMES_TO_31)
def test_prepare_matches_the_canonical_unitary_encoding(d):
    # the canonical member has f(0) = 0, or f(1) = 0 on the pin row a = d, so
    # U = Z^b (X^b) shifts |0>_a onto the prepared state with no global phase
    dim = Dimension(d)
    for a in range(d + 1):
        for b in range(d):
            f0, f1 = (b, 0) if a == d else (0, b)
            reference = prepare_with(BinaryFunction.from_values(f0, f1, dim), a)
            state = prepare(Proposition(a, b, dim))
            assert np.max(np.abs(state - reference)) <= 1e-14


def test_born_examples():
    probs = born(prepare(Proposition(0, 1, D3)), 0)
    assert np.allclose(probs, [0, 1, 0], atol=1e-12)
    flat = born(prepare(Proposition(0, 1, D3)), 2)
    assert np.allclose(flat, [1 / 3] * 3, atol=1e-10)
    pin = born(prepare(Proposition(3, 2, D3)), 3)
    assert np.allclose(pin, [0, 0, 1], atol=1e-12)


@pytest.mark.parametrize("d", PRIMES)
def test_confirmation_point_mass(d):
    dim = Dimension(d)
    for a in range(d + 1):
        for b in range(d):
            probs = born(prepare(Proposition(a, b, dim)), a)
            expected = np.zeros(d)
            expected[b] = 1.0
            assert np.max(np.abs(probs - expected)) < 1e-12


@pytest.mark.parametrize("d", PRIMES)
def test_complementarity_uniform(d):
    dim = Dimension(d)
    for a in range(d + 1):
        for b in range(d):
            state = prepare(Proposition(a, b, dim))
            for m in range(d + 1):
                if m == a:
                    continue
                probs = born(state, m)
                assert np.max(np.abs(probs - 1.0 / d)) < 1e-10


@pytest.mark.parametrize("d", PRIMES)
def test_born_matches_counting_oracle(d):
    dim = Dimension(d)
    for a in range(d + 1):
        for b in range(d):
            axiom = Proposition(a, b, dim)
            state = prepare(axiom)
            for m in range(d + 1):
                probs = born(state, m)
                counts = outcome_multiplicities(axiom, m)
                for n in range(d):
                    assert abs(probs[n] - counts[n] / d) < 1e-10


def assert_state_invariants(state, d):
    assert state.dtype == np.complex128 and state.shape == (d,)
    # born's gemv bits depend on the layout of the state it is handed
    assert state.flags.c_contiguous
    assert abs(float(np.vdot(state, state).real) - 1.0) <= 1e-12


def assert_distribution_invariants(probs, d):
    assert probs.dtype == np.float64 and probs.shape == (d,)
    assert np.all((probs >= 0.0) & (probs <= 1.0))
    assert abs(float(probs.sum()) - 1.0) <= 1e-12


def prepared_states(dim):
    """prepare() of every axiom {a, b}, in the order a, b."""
    return [prepare(Proposition(a, b, dim)) for a in range(dim.d + 1) for b in range(dim.d)]


@pytest.mark.parametrize("d", PRIMES_TO_31)
def test_states_and_distributions_are_unit_arrays(d):
    # born() measures the whole stack of states in one call per m
    states = prepared_states(Dimension(d))
    for state in states:
        assert_state_invariants(state, d)
    stack = np.stack(states)
    for m in range(d + 1):
        for probs in born(stack, m):
            assert_distribution_invariants(probs, d)


@pytest.mark.parametrize("d", PRIMES_TO_31 + [53, 97, 1009])
def test_born_measures_each_state_of_a_stack_as_if_alone(d):
    # every cell up to d = 31, a few beyond
    dim = Dimension(d)
    if d <= 31:
        states, settings = prepared_states(dim), range(d + 1)
    else:
        states = [prepare(Proposition(a, b, dim)) for a, b in ((0, 1), (d // 2, d - 1), (d, 1))]
        settings = (0, 1, d // 2, d)
    stack = np.stack(states)
    for m in settings:
        measured = born(stack, m)
        for i, state in enumerate(stack):
            assert measured[i].tobytes() == born(state, m).tobytes(), (m, i)


@pytest.mark.parametrize("d", [53, 97, 1009])
def test_probs_cells_are_unit_arrays_at_large_d(d):
    dim = Dimension(d)
    for a, b in ((0, 1), (1, 0), (d // 2, d - 1), (d, 1)):
        state = prepare(Proposition(a, b, dim))
        assert_state_invariants(state, d)
        for m in sorted({0, a, (a + 1) % (d + 1), d}):
            assert_distribution_invariants(born(state, m), d)


# sha256 of born(prepare(axiom), m).tobytes(), concatenated over every cell in
# the order a, b, m; recorded before states and distributions became plain
# arrays, so a change of dtype, layout or summation order shows here even
# where it stays inside the golden tolerance
BORN_SHA256 = {
    11: "0ef10c6def0eb2b56f21cb6a4626af23c6201e67564d55a655e751d9ddf9bff6",
    53: "3b55dc6706a57a926bcebf803265cb0e15b0061d49e4aae3a478adaf85bb1abf",
}


@pytest.mark.parametrize("d", sorted(BORN_SHA256))
def test_born_bits_are_pinned(d):
    # d = 11 measures each state alone; d = 53 measures the stack of all
    # states in one born() call per m
    states = prepared_states(Dimension(d))
    digest = hashlib.sha256()
    if d == 11:
        for state in states:
            for m in range(d + 1):
                digest.update(born(state, m).tobytes())
    else:
        stack = np.stack(states)
        digest.update(np.stack([born(stack, m) for m in range(d + 1)], axis=1).tobytes())
    assert digest.hexdigest() == BORN_SHA256[d]


def test_born_holds_one_basis_matrix_beside_its_exponents():
    # B_m is gathered through exponents summed in place and conjugated in
    # place, so at d = 1009 the peak is B_m beside its int64 exponents, 1.5
    # times B_m; an index sum or a conjugated copy takes it to 2 times
    dim = Dimension(1009)
    state = prepare(Proposition(5, 3, dim))
    tracemalloc.start()
    try:
        born(state, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * 16 * dim.d**2


def test_sample_point_mass():
    dist = np.array([0.0, 1.0, 0.0])
    for seed in range(50):
        assert sample(dist, trial_rng(seed, 0)) == 1


def test_sample_tie_breaks_to_smaller_label():
    dist = np.array([0.5, 0.0, 0.5])
    assert sample(dist, FixedUniform(0.25)) == 0
    assert sample(dist, FixedUniform(0.5)) == 2
    assert sample(dist, FixedUniform(0.75)) == 2
    skewed = np.array([0.5, 0.5, 0.0])
    # the zero-probability trailing cell is never chosen
    assert sample(skewed, FixedUniform(0.9999999999)) == 1
    point = np.array([0.0, 1.0, 0.0])
    assert sample(point, FixedUniform(0.0)) == 1


@pytest.mark.parametrize(
    "probabilities",
    [[0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [1 / 3] * 3,
     # sums to just under 1: the top uniforms land past the last boundary
     [0.5, 0.5 - 1e-13, 0.0]],
)
def test_outcomes_follow_sample_rule_at_boundaries(probabilities):
    dist = np.array(probabilities)
    cumulative = np.cumsum(dist)
    u = np.concatenate([
        [0.0, 0.25, 0.5, 0.75, 0.9999999999, 1.0 - 2.0**-53],
        cumulative, np.nextafter(cumulative, 0.0),
    ])
    u = u[u < 1.0]
    expected = [sample(dist, FixedUniform(x)) for x in u]
    assert outcomes(dist, u).tolist() == expected


def test_sample_sequence_regression():
    dist = born(prepare(Proposition(0, 0, D3)), 1)
    seq = [sample(dist, trial_rng(123, t)) for t in range(20)]
    assert seq == SAMPLE_SEQUENCE_SEED_123


def test_uniform_sampling_within_binomial_band():
    dist = born(prepare(Proposition(0, 0, D3)), 1)
    trials = 10_000
    counts = [0, 0, 0]
    for t in range(trials):
        counts[sample(dist, trial_rng(99, t))] += 1
    mean = trials / 3
    sigma = (trials * (1 / 3) * (2 / 3)) ** 0.5
    for c in counts:
        assert abs(c - mean) < 5 * sigma


def test_trial_rng_streams_are_independent_and_stable():
    assert trial_rng(7, 0).random() == trial_rng(7, 0).random()
    assert trial_rng(7, 0).random() != trial_rng(7, 1).random()
    assert trial_rng(7, 0).random() != trial_rng(8, 0).random()
    with pytest.raises(ValueError):
        trial_rng(7, -1)


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def scalar_uniforms(seed, trials):
    return np.array([trial_rng(seed, t).random() for t in trials])


def uniforms(seed, trials):
    """The blocks of trial_uniforms, concatenated."""
    return np.concatenate(list(trial_uniforms(seed, trials)))


def test_trial_uniforms_match_scalar_streams():
    # 200 random 64-bit seeds x 50 trials: 10^4 (seed, t) pairs, then the edges
    seeds = np.random.default_rng(2024).integers(0, 2**64, size=200, dtype=np.uint64)
    for seed in [*map(int, seeds), *EDGE_SEEDS]:
        assert np.array_equal(uniforms(seed, 50), scalar_uniforms(seed, range(50)))


def test_trial_uniforms_match_across_a_block_boundary():
    trials = TRIAL_BLOCK + 5
    around = range(TRIAL_BLOCK - 5, trials)
    for seed in (7, 2**64 - 1):
        u = uniforms(seed, trials)
        assert np.array_equal(u[around.start:], scalar_uniforms(seed, around))


def test_trial_uniforms_come_in_blocks():
    blocks = list(trial_uniforms(3, 2 * TRIAL_BLOCK + 1))
    assert [len(block) for block in blocks] == [TRIAL_BLOCK, TRIAL_BLOCK, 1]
    # the blocks are drawn in one work set, but each is its own array, which
    # a caller may keep while it draws the next
    assert not any(np.shares_memory(x, y) for x, y in itertools.combinations(blocks, 2))


def test_run_counts_block_by_block_as_one_bincount():
    trials = 3 * TRIAL_BLOCK + 1
    for axiom, m in ((Proposition(0, 0, D3), 1), (Proposition(2, 1, Dimension(5)), 4)):
        u = uniforms(11, trials)
        expected = np.bincount(outcomes(born(prepare(axiom), m), u), minlength=axiom.dim.d)
        assert np.array_equal(run(axiom, m, trials, 11), expected)


def test_trial_uniforms_seed_range_and_empty_run():
    assert list(trial_uniforms(3, 0)) == []
    # the seed is checked on the call, before any block is asked for
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            trial_uniforms(seed, 1)


def scalar_counts(axiom, m, trials, seed):
    dist = born(prepare(axiom), m)
    counts = [0] * axiom.dim.d
    for t in range(trials):
        counts[sample(dist, trial_rng(seed, t))] += 1
    return counts


@st.composite
def experiments(draw):
    """The arguments of one run(): axiom, m, trials, seed."""
    dim = Dimension(draw(st.sampled_from([2, 3, 5, 7, 11, 13])))
    a = draw(st.integers(0, dim.d))
    # half the cells are point masses (m = a), where zero-probability labels
    # and the past-the-end fallback matter
    m = a if draw(st.booleans()) else draw(st.integers(0, dim.d))
    axiom = Proposition(a, draw(st.integers(0, dim.d - 1)), dim)
    return axiom, m, draw(st.integers(1, 500)), draw(st.integers(0, 2**64 - 1))


@given(experiments())
def test_run_counts_equal_scalar_sample_loop(experiment):
    assert run(*experiment).tolist() == scalar_counts(*experiment)


def test_vectorized_run_at_least_20x_faster_than_scalar_loop():
    experiment = (Proposition(0, 0, D3), 1, 20_000, 11)
    start = time.perf_counter()
    expected = scalar_counts(*experiment)
    scalar_s = time.perf_counter() - start
    vector_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        counts = run(*experiment).tolist()
        vector_s = min(vector_s, time.perf_counter() - start)
    assert counts == expected
    assert scalar_s >= 20 * vector_s, (scalar_s, vector_s)
