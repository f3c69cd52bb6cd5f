"""CLI surface: golden table, envelopes, exit codes, schema conformance."""

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mublogic import cli
from mublogic.cli import (
    MAX_D, MAX_TRIALS, Fragment, _cross_report_doc, floats_json, main, table_json, to_json,
)
from mublogic.devices import born
from mublogic.experiment import CrossReport, cross_validate
from mublogic.logic import partition_array
from mublogic.modmath import Dimension, is_prime
from reference import cells
from reference import to_json as reference_to_json
from test_golden import golden_argvs

REPO = Path(__file__).resolve().parents[1]
GOLDEN_TABLE_D3 = REPO / "tests" / "golden" / "table_d3.txt"
ENVELOPE_SCHEMA = REPO / "schemas" / "envelope.schema.json"


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def invoke_machine(capsys, *argv):
    code, out = invoke(capsys, *argv, "--format", "machine")
    return code, json.loads(out)


def module_env(**overrides) -> dict:
    """The environment for `python -m mublogic` in a subprocess: src on PYTHONPATH."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return env


def test_table_d3_matches_golden_file(capsys):
    code, out = invoke(capsys, "table", "--d", "3")
    assert code == 0
    assert out == GOLDEN_TABLE_D3.read_text()


def test_table_d3_row_contents(capsys):
    _, out = invoke(capsys, "table", "--d", "3")
    assert "00 12 21 | 01 10 22 | 02 11 20" in out
    assert "00 11 22 | 01 12 20 | 02 10 21" in out


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_text_table_cells_are_the_groups_of_partition_array(capsys, d):
    _, out = invoke(capsys, "table", "--d", str(d))
    rows = [line.split(" : ", 1)[1].split(" | ") for line in out.splitlines()[3:]]
    assert rows == [[" ".join(f"{f0}{f1}" for f0, f1 in group) for group in row]
                    for row in partition_array(Dimension(d)).tolist()]


def test_table_machine_payload(capsys):
    code, env = invoke_machine(capsys, "table", "--d", "3")
    assert code == 0
    assert env["status"] == "ok"
    cells = env["payload"]["cells"]
    assert len(cells) == 4 and all(len(row) == 3 for row in cells)
    assert cells[1] == [
        [[0, 0], [1, 1], [2, 2]],
        [[0, 1], [1, 2], [2, 0]],
        [[0, 2], [1, 0], [2, 1]],
    ]
    assert env["payload"]["labels"][3] == "f(0) = b"


def test_table_nonprime_is_usage_error(capsys):
    code, env = invoke_machine(capsys, "table", "--d", "4")
    assert code == 1
    assert env["status"] == "error"
    assert "prime" in env["error_message"]
    assert env["payload"] is None


def test_table_text_rejects_wide_dimensions(capsys):
    code, out = invoke(capsys, "table", "--d", "11")
    assert code == 1
    assert "machine" in out
    code, env = invoke_machine(capsys, "table", "--d", "11")
    assert code == 0
    assert len(env["payload"]["cells"]) == 12


# sha256 of the machine `table` envelope (stdout, newline included), recorded
# before integer arrays were serialized in one encoder call
TABLE_ENVELOPE_SHA256 = {
    13: "f71773a80a267645c0d4149a23dcbccfc2548ff806f98710ac7586cd689c7c50",
    41: "e04dcdb5207f37098e93e86bc7f84dcaf70df862bd3cf87970ee33ce49e33abe",
}


@pytest.mark.parametrize("d", sorted(TABLE_ENVELOPE_SHA256))
def test_table_machine_envelope_bytes_are_pinned(capsys, d):
    code, out = invoke(capsys, "table", "--d", str(d), "--format", "machine")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_ENVELOPE_SHA256[d]


@pytest.mark.parametrize("d", [103, 2147483647])
@pytest.mark.parametrize("fmt", ["machine", "text"])
def test_table_above_size_budget_fails_fast(capsys, d, fmt):
    assert MAX_D["table"] == 101
    start = time.perf_counter()
    code, out = invoke(capsys, "table", "--d", str(d), "--format", fmt)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    message = f"table is limited to d <= 101, got d = {d}"
    if fmt == "machine":
        env = json.loads(out)
        assert out.count("\n") == 1
        assert env["status"] == "error" and env["payload"] is None
        assert env["error_message"] == message
    else:
        assert out == f"error: {message}\n"


# the arguments each command needs besides --d; all inside every budget
BUDGET_ARGS = {
    "table": (),
    "verify-mub": (),
    "decide": ("--axiom", "0,0", "--theorem", "1,0"),
    "probs": ("--axiom", "0,0", "--measure", "1"),
    "run": ("--axiom", "0,0", "--measure", "1", "--trials", "10", "--seed", "1"),
    "cross-validate": (),
}


def test_size_budgets():
    assert MAX_D == {
        "table": 101, "verify-mub": 311, "decide": 2**20,
        "probs": 1009, "run": 1009, "cross-validate": 31,
    }
    assert MAX_TRIALS == 10_000_000


def assert_fails_fast(capsys, argv, message):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(ENVELOPE_SCHEMA.read_text())
    for fmt in ("machine", "text"):
        start = time.perf_counter()
        code = main([*argv, "--format", fmt])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        if fmt == "machine":
            assert captured.out.count("\n") == 1
            env = json.loads(captured.out)
            jsonschema.validate(env, schema)
            assert env["status"] == "error" and env["payload"] is None
            assert env["error_message"] == message
        else:
            assert captured.out == f"error: {message}\n"


@pytest.mark.parametrize("command", sorted(BUDGET_ARGS))
@pytest.mark.parametrize("over", ["limit+1", "2**61-1"])
def test_dimension_above_command_budget_fails_fast(capsys, command, over):
    limit = MAX_D[command]
    d = limit + 1 if over == "limit+1" else 2**61 - 1
    argv = [command, "--d", str(d), *BUDGET_ARGS[command]]
    assert_fails_fast(capsys, argv, f"{command} is limited to d <= {limit}, got d = {d}")


def test_trials_above_budget_fails_fast(capsys):
    argv = ["run", "--d", "3", "--axiom", "0,0", "--measure", "1",
            "--trials", "10000001", "--seed", "1"]
    message = "run is limited to trials <= 10000000, got trials = 10000001"
    assert_fails_fast(capsys, argv, message)


def test_table_at_size_budget_is_served(capsys):
    code, out = invoke(capsys, "table", "--d", "101", "--format", "machine")
    assert code == 0
    cells = json.loads(out)["payload"]["cells"]
    assert len(cells) == 102 and cells[101][100][100] == [100, 100]
    # text format keeps its own, smaller limit
    code, out = invoke(capsys, "table", "--d", "101")
    assert code == 1 and "d <= 7" in out


def test_verify_mub_pass_and_fail_paths(capsys):
    code, env = invoke_machine(capsys, "verify-mub", "--d", "3")
    assert code == 0
    assert env["payload"]["passed"] is True
    # an unreachable tolerance exercises the validation-failure exit code
    code, env = invoke_machine(capsys, "verify-mub", "--d", "3", "--tol", "1e-20")
    assert code == 2
    assert env["status"] == "error"
    assert env["payload"]["passed"] is False
    code, env = invoke_machine(capsys, "verify-mub", "--d", "9")
    assert code == 1


def test_decide_examples(capsys):
    cases = [
        (("1,1", "1,1"), "ProvablyTrue"),
        (("1,1", "1,2"), "ProvablyFalse"),
        (("1,1", "2,0"), "Undecidable"),
    ]
    for (axiom, theorem), expected in cases:
        code, env = invoke_machine(
            capsys, "decide", "--d", "3", "--axiom", axiom, "--theorem", theorem
        )
        assert code == 0
        assert env["payload"]["decidability"] == expected


def test_probs_confirmation(capsys):
    code, env = invoke_machine(capsys, "probs", "--d", "3", "--axiom", "0,1", "--measure", "0")
    assert code == 0
    probs = env["payload"]["probabilities"]
    assert probs[1] == pytest.approx(1.0, abs=1e-12)
    assert probs[0] == pytest.approx(0.0, abs=1e-12)


def test_probs_serializes_17_significant_digits(capsys):
    code, out = invoke(
        capsys, "probs", "--d", "3", "--axiom", "0,1", "--measure", "2", "--format", "machine"
    )
    assert code == 0
    # 1/3-ish doubles need the full 17-digit form somewhere in the payload
    assert "0.33333333333333" in out
    env = json.loads(out)
    from mublogic.devices import born, prepare
    from mublogic.logic import Proposition
    from mublogic.modmath import Dimension

    exact = born(prepare(Proposition(0, 1, Dimension(3))), 2)
    # serialization must round-trip every double bit-exactly
    assert env["payload"]["probabilities"] == list(exact)
    assert to_json(0.1) == "0.10000000000000001"


def test_run_deterministic_counts_and_null_uniformity(capsys):
    code, env = invoke_machine(
        capsys, "run", "--d", "2", "--axiom", "2,1", "--measure", "2",
        "--trials", "7", "--seed", "1",
    )
    assert code == 0
    assert env["payload"]["counts"] == [0, 7]
    assert env["payload"]["uniformity"] is None  # below the 5d validity floor


def test_run_uniformity_verdict(capsys):
    code, env = invoke_machine(
        capsys, "run", "--d", "3", "--axiom", "0,0", "--measure", "1",
        "--trials", "9000", "--seed", "42",
    )
    assert code == 0
    uniformity = env["payload"]["uniformity"]
    assert uniformity["verdict"] == "ConsistentWithUniform"
    assert uniformity["critical_value"] == 13.816


def test_run_machine_output_byte_identical(capsys):
    argv = ("run", "--d", "3", "--axiom", "1,2", "--measure", "0",
            "--trials", "200", "--seed", "77", "--format", "machine")
    _, first = invoke(capsys, *argv)
    _, second = invoke(capsys, *argv)
    assert first == second


def test_cross_validate(capsys):
    for d in ("2", "3", "5"):
        code, env = invoke_machine(capsys, "cross-validate", "--d", d)
        assert code == 0
        assert env["payload"]["disagreements"] == 0


def test_usage_error_exit_code(capsys):
    assert main(["decide", "--d", "3", "--axiom", "1,1"]) == 1  # missing --theorem
    assert main(["probs", "--d", "3", "--axiom", "9,9", "--measure", "0"]) == 1
    assert main(["nope"]) == 1


# b and n must lie in [0, d); b is checked before a, so {9,9} names residue 9
OUT_OF_RANGE_ENVELOPES = [
    (
        ("decide", "--d", "3", "--axiom", "0,5", "--theorem", "1,1"),
        '{"schema_version": "1.0.0", "command": "decide", "parameters": {"d": 3, "axiom": [0, 5], "theorem": [1, 1]}, "status": "error", "payload": null, "error_message": "residue 5 out of range for d=3"}',
    ),
    (
        ("decide", "--d", "3", "--axiom", "0,1", "--theorem", "1,-1"),
        '{"schema_version": "1.0.0", "command": "decide", "parameters": {"d": 3, "axiom": [0, 1], "theorem": [1, -1]}, "status": "error", "payload": null, "error_message": "residue -1 out of range for d=3"}',
    ),
    (
        ("decide", "--d", "3", "--axiom", "9,9", "--theorem", "1,1"),
        '{"schema_version": "1.0.0", "command": "decide", "parameters": {"d": 3, "axiom": [9, 9], "theorem": [1, 1]}, "status": "error", "payload": null, "error_message": "residue 9 out of range for d=3"}',
    ),
    (
        ("probs", "--d", "5", "--axiom", "2,7", "--measure", "1"),
        '{"schema_version": "1.0.0", "command": "probs", "parameters": {"d": 5, "axiom": [2, 7], "measure": 1}, "status": "error", "payload": null, "error_message": "residue 7 out of range for d=5"}',
    ),
    (
        ("run", "--d", "3", "--axiom", "0,3", "--measure", "1", "--trials", "10", "--seed", "1"),
        '{"schema_version": "1.0.0", "command": "run", "parameters": {"d": 3, "axiom": [0, 3], "measure": 1, "trials": 10, "seed": 1}, "status": "error", "payload": null, "error_message": "residue 3 out of range for d=3"}',
    ),
]


@pytest.mark.parametrize("argv, envelope", OUT_OF_RANGE_ENVELOPES)
def test_out_of_range_residue_envelope(capsys, argv, envelope):
    code = main([*argv, "--format", "machine"])
    assert code == 1
    assert capsys.readouterr().out == envelope + "\n"


# run checks the measurement index before the trial count; unlike
# devices.measurement, its message names no range
RUN_BOUNDARY_ENVELOPES = [
    (
        ("run", "--d", "3", "--axiom", "0,0", "--measure", "9", "--trials", "10", "--seed", "1"),
        '{"schema_version": "1.0.0", "command": "run", "parameters": {"d": 3, "axiom": [0, 0], "measure": 9, "trials": 10, "seed": 1}, "status": "error", "payload": null, "error_message": "measurement index 9 out of range"}',
    ),
    (
        ("run", "--d", "3", "--axiom", "0,0", "--measure", "-1", "--trials", "10", "--seed", "1"),
        '{"schema_version": "1.0.0", "command": "run", "parameters": {"d": 3, "axiom": [0, 0], "measure": -1, "trials": 10, "seed": 1}, "status": "error", "payload": null, "error_message": "measurement index -1 out of range"}',
    ),
    (
        ("run", "--d", "3", "--axiom", "0,0", "--measure", "1", "--trials", "0", "--seed", "1"),
        '{"schema_version": "1.0.0", "command": "run", "parameters": {"d": 3, "axiom": [0, 0], "measure": 1, "trials": 0, "seed": 1}, "status": "error", "payload": null, "error_message": "trials must be >= 1"}',
    ),
    (
        ("run", "--d", "3", "--axiom", "0,0", "--measure", "1", "--trials", "-5", "--seed", "1"),
        '{"schema_version": "1.0.0", "command": "run", "parameters": {"d": 3, "axiom": [0, 0], "measure": 1, "trials": -5, "seed": 1}, "status": "error", "payload": null, "error_message": "trials must be >= 1"}',
    ),
    (
        ("run", "--d", "3", "--axiom", "0,0", "--measure", "9", "--trials", "0", "--seed", "1"),
        '{"schema_version": "1.0.0", "command": "run", "parameters": {"d": 3, "axiom": [0, 0], "measure": 9, "trials": 0, "seed": 1}, "status": "error", "payload": null, "error_message": "measurement index 9 out of range"}',
    ),
]


@pytest.mark.parametrize("argv, envelope", RUN_BOUNDARY_ENVELOPES,
                         ids=[" ".join(argv[5:9]) for argv, _ in RUN_BOUNDARY_ENVELOPES])
def test_run_boundary_errors_are_pinned(capsys, argv, envelope):
    assert main([*argv, "--format", "machine"]) == 1
    assert capsys.readouterr() == (envelope + "\n", "")
    assert main(list(argv)) == 1
    assert capsys.readouterr() == (f"error: {json.loads(envelope)['error_message']}\n", "")


BAD_SEEDS = ["-1", str(2**64), str(5 + 2**64), "five"]
BAD_TOLERANCES = ["nan", "inf", "0", "-1", "tiny"]


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_run_seed_outside_64_bit_range_is_usage_error(capsys, seed):
    code = main(["run", "--d", "3", "--axiom", "0,0", "--measure", "1",
                 "--trials", "10", "--seed", seed, "--format", "machine"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "usage error: argument --seed" in captured.err


def test_run_seed_range_bounds_are_accepted(capsys):
    for seed in ("0", str(2**64 - 1)):
        code, env = invoke_machine(capsys, "run", "--d", "3", "--axiom", "0,0",
                                   "--measure", "1", "--trials", "10", "--seed", seed)
        assert code == 0
        assert env["parameters"]["seed"] == int(seed)


@pytest.mark.parametrize("command", ["verify-mub", "cross-validate"])
@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_tolerance_must_be_finite_and_positive(capsys, command, tol):
    code = main([command, "--d", "3", "--tol", tol, "--format", "machine"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "usage error: argument --tol" in captured.err


@pytest.mark.parametrize("command", ["verify-mub", "cross-validate"])
def test_tiny_tolerance_is_a_validation_failure(capsys, command):
    code, env = invoke_machine(capsys, command, "--d", "3", "--tol", "1e-20")
    assert code == 2
    assert env["status"] == "error"


def test_run_skip_message_names_missing_critical_value(capsys):
    argv = ("run", "--d", "37", "--axiom", "0,0", "--measure", "1",
            "--trials", "1000", "--seed", "1")
    _, out = invoke(capsys, *argv)
    assert "no embedded chi-square critical value for df = 36" in out
    assert "needs at least" not in out
    _, env = invoke_machine(capsys, *argv)
    assert env["payload"]["uniformity"] is None


def test_envelopes_validate_against_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(ENVELOPE_SCHEMA.read_text())
    invocations = [
        ("table", "--d", "3"),
        ("table", "--d", "4"),
        ("verify-mub", "--d", "2"),
        ("verify-mub", "--d", "3", "--tol", "1e-20"),
        ("decide", "--d", "3", "--axiom", "1,1", "--theorem", "2,0"),
        ("probs", "--d", "3", "--axiom", "0,1", "--measure", "2"),
        ("run", "--d", "3", "--axiom", "0,0", "--measure", "1", "--trials", "100", "--seed", "5"),
        ("run", "--d", "2", "--axiom", "2,1", "--measure", "2", "--trials", "7", "--seed", "1"),
        ("cross-validate", "--d", "2"),
    ]
    for argv in invocations:
        _, env = invoke_machine(capsys, *argv)
        jsonschema.validate(env, schema)


def test_to_json_rejects_non_finite():
    with pytest.raises(ValueError):
        to_json(float("nan"))
    with pytest.raises(ValueError):
        to_json(float("inf"))


@pytest.mark.parametrize("d", [p for p in range(2, 62) if is_prime(p)] + [101])
def test_table_json_equals_json_dumps_of_nested_lists(d):
    dim = Dimension(d)
    nested = partition_array(dim).tolist()
    assert to_json(table_json(dim)) == json.dumps(nested) == to_json(nested)
    assert to_json({"cells": table_json(dim)}) == json.dumps({"cells": nested})


def test_to_json_emits_a_fragment_verbatim():
    fragment = Fragment('[1, "a\u2264"]')
    assert to_json(fragment) == fragment
    assert to_json({"x": [fragment, "b"]}) == '{"x": [[1, "a\u2264"], "b"]}'
    assert to_json(str(fragment)) == json.dumps(str(fragment))


@pytest.mark.parametrize(
    "text", ['say "hi"', "back\\slash", "new\nline", "\x01", "\u2264", "\ud800", ""]
)
def test_to_json_strings_and_keys_match_json_dumps(text):
    assert to_json(text) == json.dumps(text)
    assert to_json({text: 1}) == json.dumps({text: 1})


@pytest.mark.parametrize(
    "array",
    [
        np.array([0.5, 1.0]),
        np.array([True, False]),
        np.array([1j]),
        np.array(["a"]),
        np.arange(4).reshape(2, 2),
        np.arange(3, dtype=np.uint8),
    ],
    ids=["float", "bool", "complex", "str", "int", "uint8"],
)
def test_to_json_rejects_ndarrays(array):
    with pytest.raises(TypeError):
        to_json(array)


# documents from every kind of value to_json takes; text with lone surrogates
# among it, floats finite with -0.0 among them, ints unbounded
TEXT = st.text(st.one_of(st.characters(), st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)))
PLAIN_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), TEXT)
FLOATS = st.one_of(st.just(-0.0), st.floats(allow_nan=False, allow_infinity=False))
UNSERIALIZABLE = st.sampled_from(
    [math.nan, math.inf, -math.inf, np.array([0.5]), np.arange(3), object(), {1}, 1j, b"x", np.int64(1)]
)


def documents(leaves):
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ), max_leaves=20)


@given(documents(st.one_of(PLAIN_LEAVES, FLOATS, TEXT.map(Fragment))))
def test_to_json_equals_the_reference_serializer(document):
    assert to_json(document) == reference_to_json(document)


@given(documents(PLAIN_LEAVES))
def test_to_json_equals_json_dumps_without_floats_or_fragments(document):
    assert to_json(document) == reference_to_json(document) == json.dumps(document)


def rendered_or_raised(render, document):
    try:
        return render(document)
    except (TypeError, ValueError) as exc:
        return type(exc)


@given(documents(st.one_of(PLAIN_LEAVES, FLOATS, UNSERIALIZABLE)))
def test_to_json_raises_as_the_reference_serializer(document):
    assert rendered_or_raised(to_json, document) == rendered_or_raised(reference_to_json, document)


def best_of(render, repeats=5):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        render()
        times.append(time.perf_counter() - start)
    return min(times)


def test_table_json_at_least_2x_faster_than_to_json_of_nested_lists():
    dim = Dimension(41)
    fragment = best_of(lambda: to_json(table_json(dim)))
    assert 2 * fragment <= best_of(lambda: to_json(partition_array(dim).tolist()))


def reference_behavior_doc(code, d):
    """A behavior code as the payload spells it."""
    if code < d:
        return {"kind": "deterministic", "outcome": code}
    return {"kind": "uniform" if code == d else "mixed", "outcome": None}


def reference_cross_report_doc(report, cells):
    """The cross-validate results as one dict per cell, from the report's cells."""
    d = report.dim.d
    return {
        "cells": [
            {
                "axiom": [a, b],
                "measure": m,
                "predicted": reference_behavior_doc(predicted, d),
                "observed": reference_behavior_doc(observed, d),
                "agree": agree,
                "born_vs_counting_deviation": deviation,
            }
            for a, b, m, predicted, observed, agree, deviation in cells
        ],
        "disagreements": report.disagreements,
        "max_born_vs_counting_deviation": float(report.max_born_vs_counting_deviation),
    }


def distinct_deviations(shape):
    """A deviation of its own in every cell, over many magnitudes."""
    rng = np.random.default_rng(0)
    return rng.random(shape) * 10.0 ** rng.integers(-20, 1, shape)


def signed_zero_deviations(shape):
    """0.0 and -0.0 in turn, with one other value: a value-keyed rendering
    would print both zeros alike."""
    deviation = np.where(np.arange(np.prod(shape)).reshape(shape) % 2, 0.0, -0.0)
    deviation.flat[5] = 1e-16
    return deviation


@pytest.mark.parametrize(
    "d, tol, deviations",
    [pytest.param(p, 1e-9, None, id=f"{p}-1e-09") for p in range(2, 32) if is_prime(p)]
    + [pytest.param(11, 1e-20, None, id="11-1e-20")]
    + [pytest.param(d, 1e-9, deviations, id=f"{d}-{deviations.__name__}")
       for d in (3, 11) for deviations in (distinct_deviations, signed_zero_deviations)]
)
def test_cross_report_template_equals_per_cell_dicts(d, tol, deviations):
    report = cross_validate(Dimension(d), tol)
    if deviations is not None:
        report = dataclasses.replace(report, deviation=deviations(report.deviation.shape))
        bits = report.deviation.view(np.uint64)
        assert len(np.unique(bits)) == (bits.size if deviations is distinct_deviations else 3)
    rendered = to_json(_cross_report_doc(report))
    assert rendered == to_json(reference_cross_report_doc(report, cells(report)))
    if deviations is signed_zero_deviations:
        assert rendered.count('"born_vs_counting_deviation": -0}') == report.agree.size // 2
    if tol == 1e-20:  # every disagreeing cell is observed mixed
        assert report.disagreements == 1552
        assert {cell[4] for cell in cells(report) if not cell[5]} == {d + 1}


def test_cross_report_template_equals_per_cell_dicts_on_a_disagreeing_report():
    report = one_disagreeing_report(Dimension(3))
    rendered = to_json(_cross_report_doc(report))
    assert rendered == to_json(reference_cross_report_doc(report, cells(report)))
    assert json.loads(rendered)["disagreements"] == 1


def test_cross_report_rejects_a_non_finite_deviation():
    report = one_disagreeing_report(Dimension(3))
    report.deviation[0, 0, 0] = math.nan
    with pytest.raises(ValueError, match="finite"):
        to_json(_cross_report_doc(report))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_floats_json_is_to_json_of_the_list_and_rejects_non_finite(bad):
    values = np.array([0.1, -0.0, 1.0, 1 / 3, 5e-324, 1e300, 2.0**-30])
    assert floats_json(values) == to_json(values.tolist())
    assert floats_json(np.empty(0)) == "[]"
    values[2] = bad
    with pytest.raises(ValueError, match="finite"):
        floats_json(values)


def assert_one_error_envelope(capsys, argv):
    jsonschema = pytest.importorskip("jsonschema")
    code, out = invoke(capsys, *argv, "--format", "machine")
    assert code == 1 and out.count("\n") == 1 and "nan" not in out.lower()
    env = json.loads(out)
    jsonschema.validate(env, json.loads(ENVELOPE_SCHEMA.read_text()))
    assert (env["status"], env["payload"]) == ("error", None)
    assert env["error_message"] == "only finite numbers are serializable"


def test_a_non_finite_probability_is_one_error_envelope(capsys, monkeypatch):
    def nan_born(state, m):
        probabilities = born(state, m)
        probabilities[0] = math.nan
        return probabilities

    monkeypatch.setattr(cli, "born", nan_born)
    assert_one_error_envelope(capsys, ["probs", "--d", "5", "--axiom", "1,2", "--measure", "3"])


def test_a_non_finite_cross_validate_deviation_is_one_error_envelope(capsys, monkeypatch):
    def nan_report(dim, tol):
        report = cross_validate(dim, tol)
        report.deviation[1, 0, 2] = math.nan
        return report

    monkeypatch.setattr(cli, "cross_validate", nan_report)
    assert_one_error_envelope(capsys, ["cross-validate", "--d", "3"])


def test_cross_report_template_at_least_3x_faster_than_per_cell_dicts_at_d11():
    report = cross_validate(Dimension(11))
    per_cell = cells(report)  # the reference rendered cells that already existed
    renders = {
        "template": lambda: to_json(_cross_report_doc(report)),
        "dicts": lambda: to_json(reference_cross_report_doc(report, per_cell)),
    }
    best = dict.fromkeys(renders, math.inf)
    for _ in range(5):  # interleaved, so a slow stretch of the host hits both
        for name, render in renders.items():
            best[name] = min(best[name], best_of(render, 1))
    assert 3 * best["template"] <= best["dicts"]


# sha256 of stdout, recorded before the table and the cross-validate cells were
# rendered from fragments, and the verify-mub reports (the cheapest and the
# dearest verify op of the bench) after verify moved to its half gemm, and at
# the verify-mub cap, where every block holds one basis, before verify
# checked its bases in blocks; the goldens compare floats at FLOAT_TOL, these
# compare every byte
STDOUT_SHA256 = {
    ("table", "--d", "41", "--format", "machine"):
        "e04dcdb5207f37098e93e86bc7f84dcaf70df862bd3cf87970ee33ce49e33abe",
    ("table", "--d", "101", "--format", "machine"):
        "515f8869e4ea53572747e3a288b17c074751dd1965a1fb649e96d9b8de164fe9",
    ("cross-validate", "--d", "11", "--format", "machine"):
        "94afecc9507243bb96724aebe1dc75a189e49e13e79413f01dd975af5dd885fc",
    ("cross-validate", "--d", "19", "--format", "machine"):
        "1f1fcd86141f24707b379b2f1d230a742a486b432f9d576f0face7b1cb19533a",
    ("cross-validate", "--d", "11", "--tol", "1e-20"):
        "8598c7192ba1a5264583a95e2e2d9fd1503e6f4b6ac7c31db0b399a92a234b11",
    ("verify-mub", "--d", "29", "--format", "machine"):
        "8dd18cdfd7c78982db9a2d61161a83a27500dee2a5df22f76b8ee476cfc0dd6c",
    ("verify-mub", "--d", "73", "--format", "machine"):
        "8a7dc0303560b8860d6afecb8ce0c5bbdcbf58bd5f5ce5ad8fecc55eb2077ab0",
    ("verify-mub", "--d", "311", "--format", "machine"):
        "b7dac9b0499c72b7419c032679eb8e08778b6d66dce8a5c88067bd6d787cc45e",
    ("probs", "--d", "97", "--axiom", "5,3", "--measure", "11", "--format", "machine"):
        "767bd066c602f63d4121ab6aaccc8d9d6bfb4ced3f6ee44a0701d9765a8b4816",
    ("probs", "--d", "1009", "--axiom", "1,1", "--measure", "0", "--format", "machine"):
        "410091c8ec7ce09c2384603e1a0a45d04608c21d7c9c5a8f288628e6ed3d4e6d",
}


@pytest.mark.parametrize("argv", sorted(STDOUT_SHA256), ids=" ".join)
def test_rendered_envelope_bytes_are_pinned(argv):
    # in a process with one BLAS thread, as the benchmark runs: a gemv split
    # over threads sums in other blocks, so the bits of probs --d 97 depend
    # on the thread count
    env = module_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "mublogic", *argv], capture_output=True, env=env)
    assert proc.returncode == (2 if "1e-20" in argv else 0)
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[argv]


# sha256 over (argv, exit code, stdout) of each benchmark op list, recorded
# before the table rows were rendered by rotation and the cross-validate
# cells from pre-rendered pieces; OPS_DIGEST_SCRIPT makes them
OPS_SHA256 = {
    "sampling": ["97f6e07750aafb56131da0d501b30379fb3ffa84bdd1642c0e7348aa19097ff2",
                 "f9eec156d3d54a5f8a19243407fc9920148405f62eeac86a72f8a4f152fc95f2",
                 "70f205a670f096c3f66e155424da84332f001ad1f143803e8281d0c662416a4d"],
    "sweep": ["044cca777163c487741809148c2f0fbfe81049ca9e7c991105903e73b8b94693",
              "dc13721ce10fa396f979385d30ae9ae5911c86d74e3ba486689de698d4262445",
              "f81c239d82692cb49fa401be4be12620b79d9cd3f522a28aa99a9d1796a39bf5"],
    "bases": ["572dc7f28aef051278fca192cafe04ccba1f8df9555005c8b87bcf53eb0763ce",
              "724797ba76cd4006d8eb24343330a5a7cff10a8a9c720d9a6b3ee4e96aca3382",
              "a97e4f46925e0251e166cf8cecd34dc8001d1baab498e273de7bb72ce8245a74"],
}
# argv: the path of perfbench/ops.py, which is only read, and a workload;
# prints one digest per seed 0..2
OPS_DIGEST_SCRIPT = """
import contextlib, hashlib, importlib.util, io, json, sys
from mublogic.cli import main
spec = importlib.util.spec_from_file_location("ops", sys.argv[1])
ops = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ops)
for seed in range(3):
    digest = hashlib.sha256()
    for argv in ops.generate(sys.argv[2], seed):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        digest.update(json.dumps([argv, code, out.getvalue()]).encode())
    print(digest.hexdigest())
"""


@pytest.mark.parametrize("workload", sorted(OPS_SHA256))
def test_benchmark_op_lists_print_the_recorded_bytes(workload):
    # one BLAS thread, as the benchmark runs (see test_rendered_envelope_bytes_are_pinned)
    env = module_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", OPS_DIGEST_SCRIPT, str(REPO / "perfbench" / "ops.py"), workload],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.split() == OPS_SHA256[workload]


def test_a_large_table_envelope_is_copied_few_times():
    # the peak, about 2.00x, is the table's row Fragments and the one join
    # of the envelope, its final newline among the pieces. Joining the rows
    # into one Fragment first, and adding the newline after the join, made
    # two more copies (3.07x). A renderer that copies a fragment at every
    # level of nesting, one string per node, peaked at 6.8x here
    argv = ["table", "--d", "101", "--format", "machine"]
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(out.getvalue())


@pytest.mark.parametrize("command", sorted(BUDGET_ARGS))
def test_machine_results_leave_the_parameters_to_main(capsys, command):
    argv = [command, "--d", "3", *BUDGET_ARGS[command]]
    args = cli._parse_argv([*argv, "--format", "machine"])
    parameters = cli._parameters(args)
    results, _, _ = cli._HANDLERS[command](args, Dimension(3))
    assert results.keys().isdisjoint(parameters)
    _, env = invoke_machine(capsys, *argv)
    assert list(env["payload"]) == [*parameters, *results]


# the peak resident set (in KiB on Linux) and the minor page faults of
# `python -m mublogic <argv>`
USAGE_SCRIPT = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "mublogic", *sys.argv[1:]], stdout=subprocess.DEVNULL, check=True)
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
print(usage.ru_maxrss, usage.ru_minflt)
"""


def child_usage(*argv) -> tuple[int, int]:
    proc = subprocess.run([sys.executable, "-c", USAGE_SCRIPT, *argv],
                          capture_output=True, text=True, env=module_env(), check=True)
    peak_kib, faults = map(int, proc.stdout.split())
    return peak_kib, faults


RUN_D3 = ["run", "--d", "3", "--axiom", "0,0", "--measure", "1", "--seed", "7", "--format", "machine"]


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_run_at_the_trial_budget_peaks_below_64_mb():
    # the uniforms are drawn and counted a block at a time; drawn all at
    # once, with their outcomes, the run peaked at 191 MB
    peak_kib, _ = child_usage(*RUN_D3, "--trials", str(MAX_TRIALS))
    assert peak_kib < 64 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads a child's ru_minflt on Linux")
def test_run_draws_a_million_trials_without_faulting_in_fresh_memory():
    # all 123 blocks are drawn in one work set, so its pages are faulted in
    # once: about 200 more faults than one trial on a 2-vCPU Linux VM, where
    # a new array per step, freed and faulted back in block by block, took
    # about 24 000 more
    _, one = child_usage(*RUN_D3, "--trials", "1")
    _, million = child_usage(*RUN_D3, "--trials", "1000000")
    assert million - one < 2000


# each command at its cap (the largest prime d <= MAX_D[command]) in machine
# format: the tail of its argv after --d, and its peak bound in MB. The
# interpreter and the numpy import take about 29 MB of every peak; measured
# on Linux, the peaks are 41, 59, 52, 52, 68 and 37 MB in this order
CAP_PEAKS = {
    # at the cap a block holds one basis, so verify's block and work buffers
    # are d x d each, beside F and the base exponents
    "verify-mub": ((), 64),
    # the row fragments and the envelope joined from them, about 10 MB each
    "table": ((), 80),
    # B_m, 16 MB of complex128 at d = 1009, beside its 8 MB of int64
    # exponents while it is gathered; it is conjugated in place for the gemv
    "probs": (("--axiom", "5,3", "--measure", "2"), 64),
    # the same B_m for the Born distribution; the trials add little
    "run": (("--axiom", "5,3", "--measure", "2", "--trials", "1000", "--seed", "7"), 64),
    # the [a, b, m, n] probabilities, label counts and their difference,
    # about 8 MB each at d = 31, and the 6 MB envelope
    "cross-validate": ((), 96),
    # label_counts' list of d counts, 8 MB of pointers at d = 1048573
    "decide": (("--axiom", "5,3", "--theorem", "7,2"), 48),
}


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("command", sorted(CAP_PEAKS))
def test_command_at_its_cap_peaks_below_its_bound(command):
    tail, bound_mb = CAP_PEAKS[command]
    d = max(p for p in range(MAX_D[command] - 10, MAX_D[command] + 1) if is_prime(p))
    argv = [command, "--d", str(d), *tail, "--format", "machine"]
    peak_kib, _ = child_usage(*argv)
    assert peak_kib < bound_mb * 1024


def test_decide_at_the_cap_takes_under_half_a_second_end_to_end():
    # the count walks all d members in pure Python, 0.1-0.2 s on a 2-core
    # host; start-up and the numpy import take most of the rest
    d = max(p for p in range(MAX_D["decide"] - 10, MAX_D["decide"] + 1) if is_prime(p))
    argv = [sys.executable, "-m", "mublogic", "decide", "--d", str(d), "--axiom", "5,3",
            "--theorem", "7,2", "--format", "machine"]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=module_env(), check=True)
        times.append(time.perf_counter() - start)
        assert json.loads(proc.stdout)["payload"]["decidability"] == "Undecidable"
    assert d == 1048573 and min(times) < 0.5, times


def test_text_cross_validate_builds_cells_only_where_they_disagree(capsys, monkeypatch):
    built = []
    line = cli.disagreement_line
    monkeypatch.setattr(cli, "disagreement_line", lambda report, i: built.append(i) or line(report, i))
    code, out = invoke(capsys, "cross-validate", "--d", "11", "--tol", "1e-20")
    assert code == 2
    assert len(built) == out.count("DISAGREE") == 1552


def test_text_outputs_are_readable(capsys):
    _, out = invoke(capsys, "verify-mub", "--d", "3")
    assert "PASS" in out
    _, out = invoke(capsys, "decide", "--d", "3", "--axiom", "1,1", "--theorem", "2,0")
    assert "Undecidable" in out
    _, out = invoke(capsys, "cross-validate", "--d", "2")
    assert "disagreements" in out and "PASS" in out
    _, out = invoke(capsys, "run", "--d", "2", "--axiom", "2,1", "--measure", "2",
                    "--trials", "7", "--seed", "1")
    assert "chi-square skipped" in out


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "mublogic", "table", "--d", "3"],
        capture_output=True, text=True, env=module_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_TABLE_D3.read_text()


def test_cli_module_invocation_matches_package_invocation():
    argv = ["decide", "--d", "3", "--axiom", "0,0", "--theorem", "1,0", "--format", "machine"]
    package, module = (
        subprocess.run([sys.executable, "-m", name, *argv], capture_output=True, text=True,
                       env=module_env())
        for name in ("mublogic", "mublogic.cli")
    )
    assert package.stdout.startswith('{"schema_version"')
    assert (module.stdout, module.returncode) == (package.stdout, package.returncode)


def read_head_then_close(argv: list[str], **env) -> tuple[int, str]:
    """Run argv, read 50 bytes of its stdout and close the pipe, like `| head -c 50`.

    Every argv used here prints well over a pipe buffer, so the writer is
    still writing when the pipe closes. `env` overrides variables of the
    environment. Returns the exit code and stderr.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env(**env))
    assert len(proc.stdout.read(50)) == 50
    proc.stdout.close()
    code = proc.wait(timeout=60)
    return code, proc.stderr.read().decode()


def test_closed_stdout_exits_1_without_traceback():
    argv = [sys.executable, "-m", "mublogic", "cross-validate", "--d", "13"]
    code, stderr = read_head_then_close([*argv, "--format", "machine"])
    assert (code, stderr) == (1, "")
    # the text report is one write of about 158 KB; an unbuffered stdout
    # drops what a partial write leaves, so the closed pipe must still show
    for unbuffered in ("1", ""):
        code, stderr = read_head_then_close([*argv, "--tol", "1e-20"], PYTHONUNBUFFERED=unbuffered)
        assert (code, stderr) == (1, ""), unbuffered


class SevenByteWrites(io.RawIOBase):
    """A raw stdout that takes at most 7 bytes per write, as a pipe may."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, chunk):
        self.data += bytes(chunk[:7])
        return min(len(chunk), 7)


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("d", ["3", "4"], ids=["success", "error"])
def test_partial_writes_deliver_the_whole_envelope(capsys, monkeypatch, d, fmt):
    argv = ["table", "--d", d, "--format", fmt]
    code, expected = invoke(capsys, *argv)
    raw = SevenByteWrites()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
    assert main(argv) == code
    assert raw.data.decode() == expected


def one_disagreeing_report(dim, tol=1e-9):
    """A cross-validation report whose only disagreeing cell is axiom {1, 2},
    m = 0: predicted uniform, observed mixed. Every other cell agrees."""
    d = dim.d
    a, b, m = np.ogrid[: d + 1, :d, : d + 1]
    predicted = np.broadcast_to(np.where(m == a, b, d), (d + 1, d, d + 1)).copy()
    observed = predicted.copy()
    observed[1, 2, 0] = d + 1
    return CrossReport(dim, predicted, observed, predicted == observed, np.zeros(observed.shape))


def test_cross_validate_text_names_each_disagreeing_cell(capsys, monkeypatch):
    import mublogic.cli

    monkeypatch.setattr(mublogic.cli, "cross_validate", one_disagreeing_report)
    code, out = invoke(capsys, "cross-validate", "--d", "3")
    assert code == 2
    assert out.splitlines()[-2:] == [
        "  DISAGREE axiom {1,2} m=0: predicted uniform, observed mixed",
        "FAIL",
    ]


# ---------------------------------------------------------------------------
# argument parsing: a command name followed by a well-formed tail is read
# straight from COMMANDS; every other argv goes to the full parser (top level
# plus every subparser), which is the reference the reader must match


def parse_outcome(parse, argv):
    """What parsing argv does: the Namespace as a dict or the usage error
    text, then the exit code of a help exit, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    result, code = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except cli.UsageError as exc:
            result = f"usage error: {exc}"
        except SystemExit as exc:
            code = exc.code
    return result, code, out.getvalue(), err.getvalue()


def assert_parsed_as_by_the_full_parser(argv):
    lean = parse_outcome(cli._parse_argv, argv)
    full = parse_outcome(lambda argv: cli.build_parser().parse_args(argv), argv)
    assert lean == full


def invalid_argvs():
    """No argument at all, and every argv the tests above expect to fail,
    in parsing or after it."""
    argvs = [
        [],
        ["decide", "--d", "3", "--axiom", "1,1"],
        ["probs", "--d", "3", "--axiom", "9,9", "--measure", "0"],
        ["nope"],
        ["table", "--d", "4"],
        ["table", "--d", "11"],
        ["verify-mub", "--d", "9"],
        ["verify-mub", "--d", "3", "--tol", "1e-20"],
    ]
    argvs += [list(argv) for argv, _ in OUT_OF_RANGE_ENVELOPES + RUN_BOUNDARY_ENVELOPES]
    argvs += [
        ["run", "--d", "3", "--axiom", "0,0", "--measure", "1", "--trials", "10", "--seed", seed]
        for seed in BAD_SEEDS
    ]
    argvs += [
        [command, "--d", "3", "--tol", tol]
        for command in ("verify-mub", "cross-validate")
        for tol in BAD_TOLERANCES
    ]
    argvs += [
        [command, "--d", str(d), *BUDGET_ARGS[command]]
        for command in BUDGET_ARGS
        for d in (MAX_D[command] + 1, 2**61 - 1)
    ]
    argvs.append(["run", "--d", "3", "--axiom", "0,0", "--measure", "1",
                  "--trials", "10000001", "--seed", "1"])
    return [argv + tail for argv in argvs for tail in ([], ["--format", "machine"])]


def test_golden_argvs_parse_as_by_the_full_parser():
    for argv in golden_argvs():
        assert_parsed_as_by_the_full_parser(argv)


@pytest.mark.parametrize("argv", invalid_argvs(), ids=" ".join)
def test_invalid_argvs_parse_as_by_the_full_parser(argv):
    assert_parsed_as_by_the_full_parser(argv)


# per option a good value first, then bad ones
OPTION_VALUES = {
    "--d": ["3", "7", "4", "x", "-3", "2.5", ""],
    "--format": ["machine", "text", "json"],
    "--tol": ["1e-9", "0", "nan", "tiny"],
    "--axiom": ["1,1", "0,5", "1", "a,b", "1,2,3", "-1,0"],
    "--theorem": ["1,0", "3,0", "1,", "x"],
    "--measure": ["2", "0", "x", "-1"],
    "--trials": ["10", "0", "ten"],
    "--seed": ["0", "-1", str(2**64), "five"],
}
ABBREVIATED = {"--d": "--d", "--format": "--form", "--tol": "--to", "--axiom": "--ax",
               "--theorem": "--theo", "--measure": "--meas", "--trials": "--tr", "--seed": "--se"}
COMMAND_OPTIONS = {
    "table": ["--d", "--format"],
    "verify-mub": ["--d", "--format", "--tol"],
    "decide": ["--d", "--format", "--axiom", "--theorem"],
    "probs": ["--d", "--format", "--axiom", "--measure"],
    "run": ["--d", "--format", "--axiom", "--measure", "--trials", "--seed"],
    "cross-validate": ["--d", "--format", "--tol"],
}
# tokens no command takes where they land: stray positionals, names that are
# ambiguous (--t in run), unknown or short, a bare "--" and a help flag
STRAY = ["3", "extra", "decide", "--t", "--f", "--x", "-d", "--", "-h"]
# good forms of an option outweigh the broken ones, so many argvs parse
FORMS = ["good"] * 10 + ["abbreviated", "joined", "bad", "missing", "without value"]


@st.composite
def argv_strategy(draw):
    """A command's options in a drawn order, each good, abbreviated, joined
    with =, given a bad value, missing, or missing its value; then stray
    tokens. The first token is sometimes not a command at all."""
    first = draw(st.sampled_from([*COMMAND_OPTIONS] * 3 + ["nope", "dec", "--d", "--format"]))
    options = COMMAND_OPTIONS.get(first, ["--d", "--format"])
    argv = [first]
    for name in draw(st.permutations(options)):
        form = draw(st.sampled_from(FORMS))
        good, *bad = OPTION_VALUES[name]
        value = draw(st.sampled_from(bad)) if form == "bad" else good
        argv += {
            "good": [name, value], "bad": [name, value], "missing": [],
            "abbreviated": [ABBREVIATED[name], value], "joined": [f"{name}={value}"],
            "without value": [name],
        }[form]
    argv += draw(st.lists(st.sampled_from(STRAY), max_size=2))
    return argv


@given(argv_strategy())
def test_generated_argvs_parse_as_by_the_full_parser(argv):
    assert_parsed_as_by_the_full_parser(argv)


# sha256 of each help text (stdout) at 80 columns, recorded before a command's
# parser was built on its own
HELP_SHA256 = {
    "": "5edfe9621b134da241d4276d0ebd5e33f6044a92c601cfbdc81b08f03f818571",
    "table": "c569ba38fbef753387c77d35d653dc7b6f2098af8b7583c115e7ffd5ec38d067",
    "verify-mub": "34df3223665382ea4aadca2cf03aa62fb9ffab3f8967e511c5b549b0930928b5",
    "decide": "de449eb2f47a816e32be0fa9012903feac289853ec997b015f17c0c1d4d019ad",
    "probs": "8cea6712e0e72b8c739db322abd5f84b58a034ee44c32462e491594fa767a804",
    "run": "0e621afe33e7fdfb5bf951b21831d72372a630506a85c9012a5f386185351c06",
    "cross-validate": "f5a39d778d7292ed41a022ac0e5522eb94a38b316f4bbe3943016fe808c13ce4",
}


@pytest.mark.parametrize("command", sorted(HELP_SHA256))
def test_help_is_pinned_and_the_full_parsers(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    _, code, out, err = parse_outcome(cli._parse_argv, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]
    assert_parsed_as_by_the_full_parser(argv)


def constructed_parsers(monkeypatch, argv) -> list:
    """The prog of every _Parser that main(argv) constructs."""
    progs = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(cli._Parser, "__init__", counting_init)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with contextlib.suppress(SystemExit):
                main(argv)
    return progs


@pytest.mark.parametrize("command", sorted(BUDGET_ARGS))
def test_a_well_formed_command_builds_no_parser(monkeypatch, command):
    well_formed = [command, *BUDGET_ARGS[command], "--d", "2"]
    assert constructed_parsers(monkeypatch, well_formed) == []


def test_the_reader_reads_every_op_and_golden_argv_as_the_full_parser(monkeypatch):
    spec = importlib.util.spec_from_file_location("ops", REPO / "perfbench" / "ops.py")
    ops = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ops)
    argvs = [argv for workload in ops.WORKLOADS for seed in range(5)
             for argv in ops.generate(workload, seed)]
    full = cli.build_parser()
    # main parses and checks budgets, but runs no command
    monkeypatch.setattr(cli, "_HANDLERS", dict.fromkeys(cli.COMMANDS, lambda args, dim: ({}, None, "")))
    for argv in argvs + golden_argvs():
        args = cli._read_well_formed(argv[0], argv[1:])
        assert args is not None, argv
        assert {**vars(args), "command": argv[0]} == vars(full.parse_args(argv))
        assert constructed_parsers(monkeypatch, argv) == [], argv


# argv the reader declines, one rule broken in each; argparse then decides
DECLINED = [
    ["run", *BUDGET_ARGS["run"][:-1], str(2**64), "--d", "3"],  # a --seed that parse_seed rejects
    ["table", "--d", "3", "--format", "json"],  # a value outside the choices
    ["table", "--d", "3", "--d", "5"],  # a repeated option
    ["table", "--form", "machine", "--d", "3"],  # an abbreviated name
    ["table", "--d=3"],  # a value joined to its name
    ["table", "--d", "-3"],  # values that start with "-"
    ["probs", "--d", "3", "--axiom", "-1,0", "--measure", "0"],
    ["table", "--d", "3", "--format", "--"],
    ["table", "--d", "3", "--", "machine"],  # a bare "--"
    ["table", "-h", "3"],  # a help flag
    ["decide", "--d", "3", "--axiom", "1,1"],  # a missing required option
    ["table", "--d", "3", "--format"],  # an odd token count
]


@pytest.mark.parametrize("argv", DECLINED, ids=" ".join)
def test_the_reader_declines_other_argv_and_argparse_decides(argv):
    assert cli._read_well_formed(argv[0], argv[1:]) is None
    assert_parsed_as_by_the_full_parser(argv)


def test_options_use_only_the_keywords_the_reader_understands():
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    for command, (_, options) in cli.COMMANDS.items():
        parser = subparsers.choices[command]
        for flag, keywords in cli._SHARED + options:
            assert keywords.keys() <= {"type", "required", "default", "choices", "help", "metavar"}
            # argparse passes a string default through the type; the reader does not
            assert not ("type" in keywords and isinstance(keywords.get("default"), str))
            assert parser._option_string_actions[flag].dest == flag[2:]


def test_reading_a_well_formed_run_argv_at_least_5x_faster_than_its_parser():
    argv = ["run", "--d", "7", "--axiom", "1,2", "--measure", "3", "--trials", "2000",
            "--seed", "5", "--format", "machine"]
    parses = {
        "reader": lambda: cli._parse_argv(argv),
        "parser": lambda: cli.build_parser().parse_args(argv),
    }
    best = dict.fromkeys(parses, math.inf)
    for _ in range(5):  # interleaved, so a slow stretch of the host hits both
        for name, parse in parses.items():
            best[name] = min(best[name], best_of(parse, 1))
    assert 5 * best["reader"] <= best["parser"]


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["nope"], ["--d", "3", "table"],
    *([command, *tail] for command in sorted(BUDGET_ARGS) for tail in (["--d", "x"], ["--help"])),
], ids=str)
def test_argv_the_reader_declines_builds_the_full_parser(monkeypatch, argv):
    progs = constructed_parsers(monkeypatch, argv)
    assert progs == ["mublogic", *(f"mublogic {name}" for name in cli.COMMANDS)]


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    argv = ["decide", "--d", "3", "--axiom", "1,1", "--theorem", "2,0", "--format", "machine"]
    expected = invoke(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["mublogic", *argv])
    assert main() == expected[0]
    assert capsys.readouterr().out == expected[1]
