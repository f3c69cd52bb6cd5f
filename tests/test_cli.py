"""CLI surface: golden table, envelopes, exit codes, schema conformance."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mublogic.cli import MAX_D, MAX_TABLE_D, MAX_TRIALS, main, to_json
from mublogic.logic import partition_array
from mublogic.modmath import Dimension, is_prime

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


def test_table_d3_matches_golden_file(capsys):
    code, out = invoke(capsys, "table", "--d", "3")
    assert code == 0
    assert out == GOLDEN_TABLE_D3.read_text()


def test_table_d3_row_contents(capsys):
    _, out = invoke(capsys, "table", "--d", "3")
    assert "00 12 21 | 01 10 22 | 02 11 20" in out
    assert "00 11 22 | 01 12 20 | 02 10 21" in out


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
    assert MAX_TABLE_D == 101
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
        "table": 101, "verify-mub": 211, "decide": 2**20,
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

    exact = born(prepare(Proposition.of(0, 1, Dimension(3))), 2).probabilities
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


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(5 + 2**64), "five"])
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
@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "tiny"])
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


@pytest.mark.parametrize("d", [p for p in range(2, 62) if is_prime(p)])
def test_to_json_int_array_equals_nested_lists(d):
    table = partition_array(Dimension(d))
    assert to_json(table) == to_json(table.tolist())


def test_to_json_int_arrays_of_other_shapes_and_widths():
    for array in (
        np.zeros((0,), dtype=np.int64),
        np.zeros((2, 0), dtype=np.int64),
        np.arange(6, dtype=np.uint8).reshape(2, 3),
        np.array([-(2**63), 2**63 - 1]),
        np.array([2**64 - 1], dtype=np.uint64),
    ):
        assert to_json(array) == to_json(array.tolist())
        assert to_json(array) == json.dumps(array.tolist())


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
    ],
    ids=["float", "bool", "complex", "str"],
)
def test_to_json_rejects_arrays_other_than_integer_ones(array):
    with pytest.raises(TypeError):
        to_json(array)


def test_to_json_int_array_at_least_2x_faster_than_nested_lists():
    table = partition_array(Dimension(41))
    nested = table.tolist()

    def best_of(value, repeats=5):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            to_json(value)
            times.append(time.perf_counter() - start)
        return min(times)

    assert 2 * best_of(table) <= best_of(nested)


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
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_TABLE_D3.read_text()


def test_cli_module_invocation_matches_package_invocation():
    argv = ["decide", "--d", "3", "--axiom", "0,0", "--theorem", "1,0", "--format", "machine"]
    package, module = (
        subprocess.run([sys.executable, "-m", name, *argv], capture_output=True, text=True)
        for name in ("mublogic", "mublogic.cli")
    )
    assert package.stdout.startswith('{"schema_version"')
    assert (module.stdout, module.returncode) == (package.stdout, package.returncode)


def read_head_then_close(argv: list[str]) -> tuple[int, str]:
    """Run argv, read 50 bytes of its stdout and close the pipe, like `| head -c 50`.

    Every argv used here prints well over a pipe buffer, so the writer is
    still writing when the pipe closes. Returns the exit code and stderr.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(50)) == 50
    proc.stdout.close()
    code = proc.wait(timeout=60)
    return code, proc.stderr.read().decode()


def test_closed_stdout_exits_1_without_traceback():
    code, stderr = read_head_then_close(
        [sys.executable, "-m", "mublogic", "cross-validate", "--d", "13", "--format", "machine"]
    )
    assert (code, stderr) == (1, "")


def one_disagreeing_report(dim, tol=1e-9):
    """A cross-validation report whose only cell disagrees."""
    from mublogic.experiment import Behavior, CrossCell, CrossReport
    from mublogic.logic import Proposition

    cell = CrossCell(Proposition.of(1, 2, dim), 0, Behavior.uniform(), Behavior.mixed(), False, 0.0)
    return CrossReport(dim, tol, (cell,))


def test_cross_validate_text_names_each_disagreeing_cell(capsys, monkeypatch):
    import mublogic.cli

    monkeypatch.setattr(mublogic.cli, "cross_validate", one_disagreeing_report)
    code, out = invoke(capsys, "cross-validate", "--d", "3")
    assert code == 2
    assert out.splitlines()[-2:] == [
        "  DISAGREE axiom {1,2} m=0: predicted uniform, observed mixed",
        "FAIL",
    ]
