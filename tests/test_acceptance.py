"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test also asserts, so a plain `pytest` run enforces them all.
Timing criteria measure the in-process operation, not interpreter startup.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np

from mublogic.cli import main
from mublogic.devices import born, prepare
from mublogic.experiment import CHI2_CRITICAL_001, chi_square_uniform, cross_validate, run
from mublogic.logic import Decidability, Proposition, decide
from mublogic.modmath import Dimension
from mublogic.mub import verify
from phase import phase_distance
from reference import (
    BinaryFunction,
    cells,
    encode_unitary,
    group,
    intersect,
    pauli_x,
    pauli_z,
    prepare_with,
    root_of_unity,
)

GOLDEN_TABLE_D3 = Path(__file__).parent / "golden" / "table_d3.txt"


def report(number: int, name: str, ok: bool) -> None:
    print(f"acceptance {number} ({name}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_table_reproduction(capsys):
    start = time.perf_counter()
    code = main(["table", "--d", "3"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    ok = code == 0 and out == GOLDEN_TABLE_D3.read_text() and elapsed < 0.1
    with capsys.disabled():
        report(1, "d=3 table byte-exact, <0.1s", ok)
    assert code == 0
    assert out == GOLDEN_TABLE_D3.read_text()
    assert elapsed < 0.1, f"table rendering took {elapsed:.3f}s"


def test_criterion_2_mub_completeness():
    start = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 5, 7, 11):
        rep = verify(Dimension(d), 1e-10)
        worst = max(worst, rep.max_deviation)
        assert rep.passed, f"d={d}: {rep}"
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    report(2, "MUB completeness d in {2,3,5,7,11}, <1s", ok)
    assert worst < 1e-10
    assert elapsed < 1.0, f"verification took {elapsed:.3f}s"


def test_criterion_3_operator_algebra():
    worst = 0.0
    power = np.linalg.matrix_power
    for d in (2, 3, 5):
        dim = Dimension(d)
        x, z = pauli_x(dim), pauli_z(dim)
        worst = max(worst, float(np.max(np.abs(z @ x - root_of_unity(dim, 1) * (x @ z)))))
        worst = max(worst, float(np.max(np.abs(power(x, d) - np.eye(d)))))
        worst = max(worst, float(np.max(np.abs(power(z, d) - np.eye(d)))))
        for f0, f1 in itertools.product(range(d), repeat=2):
            u = encode_unitary(BinaryFunction.from_values(f0, f1, dim))
            for a in range(d):
                b = (f1 - a * f0) % d
                grouped = power(x @ power(z, a), f0) @ power(z, b)
                worst = max(worst, phase_distance(u, grouped))
    ok = worst < 1e-10
    report(3, "operator algebra and encoding proportionality", ok)
    assert worst < 1e-10, f"worst deviation {worst:.3e}"


def test_criterion_4_confirmation_determinism():
    worst = 0.0
    for d in (2, 3, 5):
        dim = Dimension(d)
        for a in range(d + 1):
            for b in range(d):
                probs = born(prepare(Proposition(a, b, dim)), a)
                expected = np.zeros(d)
                expected[b] = 1.0
                worst = max(worst, float(np.max(np.abs(probs - expected))))
    ok = worst < 1e-12
    report(4, "confirmation is a point mass at n=b", ok)
    assert worst < 1e-12, f"worst deviation {worst:.3e}"


def test_criterion_5_complementarity_uniformity():
    worst = 0.0
    for d in (2, 3, 5):
        dim = Dimension(d)
        for a in range(d + 1):
            for b in range(d):
                state = prepare(Proposition(a, b, dim))
                for m in range(d + 1):
                    if m == a:
                        continue
                    probs = born(state, m)
                    worst = max(worst, float(np.max(np.abs(probs - 1.0 / d))))
    ok = worst < 1e-10
    report(5, "off-axiom measurements exactly uniform", ok)
    assert worst < 1e-10, f"worst deviation {worst:.3e}"


def test_criterion_6_logic_quantum_equivalence():
    total_disagreements = 0
    worst = 0.0
    for d in (2, 3, 5, 7):
        rep = cross_validate(Dimension(d))
        assert len(cells(rep)) == (d + 1) * d * (d + 1)
        total_disagreements += rep.disagreements
        worst = max(worst, rep.max_born_vs_counting_deviation)
    ok = total_disagreements == 0 and worst < 1e-10
    report(6, "undecidable iff uniform, cell by cell", ok)
    assert total_disagreements == 0
    assert worst < 1e-10, f"worst born-vs-counting deviation {worst:.3e}"


def test_criterion_7_combinatorial_oracle():
    ok = True
    for d in (2, 3, 5, 7):
        dim = Dimension(d)
        props = [Proposition(a, b, dim) for a in range(d + 1) for b in range(d)]
        for p, q in itertools.combinations(props, 2):
            common = intersect(p, q)
            if p.a == q.a:
                ok = ok and len(common) == 0
            else:
                ok = ok and len(common) == 1
        for axiom in props:
            for theorem in props:
                undecidable = decide(axiom, theorem) is Decidability.UNDECIDABLE
                ok = ok and undecidable == (axiom.a != theorem.a)
    report(7, "intersection pattern and decidability", ok)
    assert ok


def test_criterion_8_sampling_statistics():
    dim = Dimension(3)
    assert CHI2_CRITICAL_001[2] == 13.816
    start = time.perf_counter()
    axiom = Proposition(0, 0, dim)
    counts = run(axiom, 1, 10_000, 42)
    statistic, _, _, verdict = chi_square_uniform(counts)
    deterministic = run(axiom, 0, 10_000, 42)
    rerun = run(axiom, 1, 10_000, 42)
    elapsed = time.perf_counter() - start
    single_outcome = deterministic.max() == 10_000
    ok = (
        statistic < 13.816
        and verdict == "ConsistentWithUniform"
        and single_outcome
        and np.array_equal(rerun, counts)
        and elapsed < 1.0
    )
    report(8, "seeded sampling: uniform verdict, determinism, reproducibility, <1s", ok)
    assert statistic < 13.816
    assert single_outcome, deterministic
    assert np.array_equal(rerun, counts)
    assert elapsed < 1.0, f"sampling took {elapsed:.3f}s"


def test_criterion_9_representative_independence():
    worst = 1.0
    for d in (2, 3, 5):
        dim = Dimension(d)
        for a in range(d + 1):
            for b in range(d):
                states = [
                    prepare_with(f, a) for f in group(Proposition(a, b, dim))
                ]
                for s, t in itertools.combinations(states, 2):
                    worst = min(worst, abs(np.vdot(s, t)))
    ok = worst > 1.0 - 1e-10
    report(9, "group members encode one state up to phase", ok)
    assert worst > 1.0 - 1e-10, f"worst overlap {worst!r}"
