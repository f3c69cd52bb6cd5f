"""CLI output against goldens recorded before the array-backed core.

tests/golden/envelopes.jsonl holds one record per invocation: the argv, the
exit code and the exact stdout. Stdout must match byte for byte, except in
the three Born-derived float fields, where a matrix product may sum in a
different order than a per-state inner product, and the encoded state is
read from a column of B_a instead of being built by X^f(0) Z^f(1): those
agree to 1e-15 absolute.

The six `verify-mub` records at d = 3, 5 and 7 (both tolerances) were
re-captured when verify() moved to one representative column per basis
pair: its four deviation fields, and the maximum that the --tol 1e-20
error message quotes, are maxima over fewer entries, each summed in a
different order. The d = 2 records did not change.

All eight `verify-mub` records (d = 2, 3, 5, 7, both tolerances) were
re-captured a second time when verify() moved to a half gemm, each pair
read once from its later basis, and to the eigen residual of column 0
alone: the orthonormality, unbiasedness and eigen fields, and the maxima
that the --tol 1e-20 messages quote at d = 3, 5 and 7, moved; the shift
field did not.
"""

import json
from pathlib import Path

import pytest

from mublogic.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "envelopes.jsonl"
FLOAT_FIELDS = {"probabilities", "born_vs_counting_deviation", "max_born_vs_counting_deviation"}
FLOAT_TOL = 1e-15


def golden_argvs() -> list[list[str]]:
    """The fixed invocation set: all six commands at d in {2, 3, 5, 7}."""
    argvs = []
    for d in (2, 3, 5, 7):
        machine = ["--d", str(d), "--format", "machine"]
        argvs.append(["table", *machine])
        argvs.append(["verify-mub", *machine])
        argvs.append(["verify-mub", *machine, "--tol", "1e-20"])
        for axiom in ("1,1", f"{d},0"):
            for theorem in ("1,1", "1,0", "0,1", f"{d},0", f"{d},1"):
                argvs.append(["decide", *machine, "--axiom", axiom, "--theorem", theorem])
        for axiom in ("0,1", "1,1", f"{d - 1},{d - 1}", f"{d},1"):
            for m in range(d + 1):
                argvs.append(["probs", *machine, "--axiom", axiom, "--measure", str(m)])
        for axiom, m, trials, seed in (
            ("0,0", 1, 1000, 42),
            ("1,1", 1, 500, 7),
            (f"{d},1", 0, 300, 2**64 - 1),
            ("1,0", d, 4 * d, 0),
        ):
            tail = ["--axiom", axiom, "--measure", str(m), "--trials", str(trials), "--seed", str(seed)]
            argvs.append(["run", *machine, *tail])
            argvs.append(["run", "--d", str(d), *tail])
        argvs.append(["cross-validate", *machine])
        argvs.append(["probs", *machine, "--axiom", "1,1", "--measure", str(d + 1)])
        argvs.append(["decide", *machine, "--axiom", f"{d + 1},0", "--theorem", "0,0"])
    # d = 37 has no embedded chi-square critical value, with and without
    # enough trials for the expected-count floor
    for trials in ("1000", "100"):
        tail = ["--axiom", "0,0", "--measure", "1", "--trials", trials, "--seed", "1"]
        argvs.append(["run", "--d", "37", *tail])
        argvs.append(["run", "--d", "37", "--format", "machine", *tail])
    return argvs


def record(argv: list[str], capsys) -> dict:
    code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": capsys.readouterr().out}


def assert_close(actual, expected, path: str, loose: bool) -> None:
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), path
        for key in expected:
            assert_close(actual[key], expected[key], f"{path}.{key}", loose or key in FLOAT_FIELDS)
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (x, y) in enumerate(zip(actual, expected)):
            assert_close(x, y, f"{path}[{i}]", loose)
    elif loose:
        # to_json renders a float with no fraction digits, like 0.0, as "0"
        assert isinstance(actual, (int, float)) and isinstance(expected, (int, float)), path
        assert abs(actual - expected) <= FLOAT_TOL, path
    else:
        assert type(actual) is type(expected) and actual == expected, path


def load_goldens() -> list[dict]:
    return [json.loads(line) for line in GOLDEN.read_text().splitlines()]


def test_golden_set_matches_argv_list():
    assert [g["argv"] for g in load_goldens()] == golden_argvs()


@pytest.mark.parametrize("golden", load_goldens(), ids=lambda g: " ".join(g["argv"]))
def test_output_matches_golden(golden, capsys):
    got = record(golden["argv"], capsys)
    assert got["exit"] == golden["exit"]
    command = golden["argv"][0]
    if "machine" in golden["argv"] and command in ("probs", "cross-validate"):
        assert_close(json.loads(got["stdout"]), json.loads(golden["stdout"]), "$", False)
    else:
        assert got["stdout"] == golden["stdout"]
