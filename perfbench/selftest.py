"""Self-test of the benchmark's own parts.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Run from the root of a checkout. Checks that op lists are deterministic per
seed, that the checker accepts genuine envelopes and rejects tampered ones,
and that tracing leaves outputs unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

import ops as op_lists
import run
from checker import Checker, options

sys.path.insert(0, str(run.ROOT / "src"))
import mublogic.cli  # noqa: E402

CHECKER = Checker(json.loads(run.SCHEMA.read_text()))


def cli_output(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mublogic.cli.main(argv)
    return code, buf.getvalue()


def tampered(out: str, edit) -> str:
    doc = json.loads(out)
    edit(doc)
    return json.dumps(doc) + "\n"


def rejects(argv, out, code=0) -> bool:
    return bool(CHECKER.problems(argv, code, out))


def workload_shape(ops: list[list[str]]) -> Counter:
    return Counter((argv[0], options(argv)["d"], options(argv).get("trials")) for argv in ops)


def test_op_lists_are_deterministic_per_seed():
    for workload in op_lists.WORKLOADS:
        first = op_lists.generate(workload, 7)
        assert first == op_lists.generate(workload, 7), workload
        assert first != op_lists.generate(workload, 8), workload
        # the seed moves inputs, never the amount of work
        assert workload_shape(first) == workload_shape(op_lists.generate(workload, 8))


def test_op_lists_match_their_description():
    sampling = op_lists.generate("sampling", 0)
    assert len(sampling) == 120
    sharp = [a for a in sampling if options(a)["axiom"].split(",")[0] == options(a)["measure"]]
    assert len(sharp) == 24
    sweep = op_lists.generate("sweep", 0)
    heavy = [a for a in sweep if a[0] != "decide"]
    assert len({options(a)["d"] for a in heavy}) == len(heavy)
    bases = op_lists.generate("bases", 0)
    verify = [a for a in bases if a[0] == "verify-mub"]
    assert len({options(a)["d"] for a in verify}) == len(verify)
    for ops in (sampling, sweep, bases):
        assert len(ops) >= 100  # at least ten ops above the 90th percentile


def test_checker_accepts_genuine_envelopes():
    for argv in (
        op_lists.generate("sampling", 0)[0],
        op_lists.generate("sweep", 0)[0],
        op_lists.generate("bases", 0)[0],
        ["decide", "--d", "5", "--axiom", "2,3", "--theorem", "2,3", "--format", "machine"],
        ["decide", "--d", "5", "--axiom", "5,3", "--theorem", "5,1", "--format", "machine"],
        ["probs", "--d", "5", "--axiom", "1,4", "--measure", "1", "--format", "machine"],
        ["table", "--d", "5", "--format", "machine"],
        ["cross-validate", "--d", "3", "--format", "machine"],
        ["verify-mub", "--d", "7", "--format", "machine"],
    ):
        code, out = cli_output(argv)
        assert CHECKER.problems(argv, code, out) == [], argv


def test_checker_rejects_tampered_envelopes():
    argv = ["run", "--d", "5", "--axiom", "1,2", "--measure", "3",
            "--trials", "500", "--seed", "11", "--format", "machine"]
    _, out = cli_output(argv)

    def bump(doc):
        doc["payload"]["counts"][0] += 1

    assert rejects(argv, tampered(out, bump))
    assert rejects(argv, out, code=1)
    assert rejects(argv, out + out)
    assert rejects(argv, tampered(out, lambda doc: doc.pop("status")))
    assert rejects(argv, tampered(out, lambda doc: doc["payload"].update(extra=1)))

    sharp = ["run", "--d", "5", "--axiom", "1,2", "--measure", "1",
             "--trials", "500", "--seed", "11", "--format", "machine"]
    _, out = cli_output(sharp)

    def move(doc):
        doc["payload"]["counts"][2] -= 1
        doc["payload"]["counts"][0] += 1

    assert rejects(sharp, tampered(out, move))

    for theorem, flipped in (("2,3", "ProvablyFalse"), ("2,4", "ProvablyTrue"), ("4,0", "ProvablyTrue")):
        argv = ["decide", "--d", "5", "--axiom", "2,3", "--theorem", theorem, "--format", "machine"]
        _, out = cli_output(argv)
        assert not rejects(argv, out)
        assert rejects(argv, tampered(out, lambda doc: doc["payload"].update(decidability=flipped)))
        assert rejects(argv, tampered(out, lambda doc: doc["payload"].update(decidability="Maybe")))

    argv = ["probs", "--d", "5", "--axiom", "1,4", "--measure", "2", "--format", "machine"]
    _, out = cli_output(argv)

    def nudge(doc):
        doc["payload"]["probabilities"][0] += 1e-9

    assert rejects(argv, tampered(out, nudge))

    argv = ["table", "--d", "5", "--format", "machine"]
    _, out = cli_output(argv)

    def swap(doc):
        row = doc["payload"]["cells"][1]
        row[0][0], row[1][0] = row[1][0], row[0][0]

    assert rejects(argv, tampered(out, swap))
    assert rejects(argv, tampered(out, lambda doc: doc["payload"]["cells"][0][0][0].append(0)))

    argv = ["cross-validate", "--d", "2", "--format", "machine"]
    _, out = cli_output(argv)
    assert rejects(argv, tampered(out, lambda doc: doc["payload"]["cells"][0].update(agree=False)))

    argv = ["verify-mub", "--d", "5", "--format", "machine"]
    _, out = cli_output(argv)
    assert rejects(argv, tampered(out, lambda doc: doc["payload"].update(passed=False)))


def test_recorded_counts_catch_a_changed_tally():
    ops = op_lists.generate("sampling", 0)[:3]
    digests = run.load_digests("sampling", 0)
    assert digests is not None and len(digests) == 120
    codes, outputs = zip(*(cli_output(argv) for argv in ops))
    result = {"codes": list(codes), "outputs": list(outputs)}
    assert run.check_first_pass(CHECKER, ops, result, digests) == [[], [], []]

    def shuffle(doc):
        counts = doc["payload"]["counts"]
        counts[0], counts[-1] = counts[-1] + 1, counts[0] - 1

    spread = [
        i for i, argv in enumerate(ops)
        if options(argv)["axiom"].split(",")[0] != options(argv)["measure"]
    ]
    i = spread[0]
    result["outputs"][i] = tampered(result["outputs"][i], shuffle)
    assert not CHECKER.problems(ops[i], 0, result["outputs"][i])  # within 6 sigma
    assert run.check_first_pass(CHECKER, ops, result, digests)[i]


def test_tracing_leaves_outputs_unchanged(tmp_path: Path | None = None):
    ops = [
        ["decide", "--d", "3", "--axiom", "1,1", "--theorem", "2,0", "--format", "machine"],
        ["run", "--d", "3", "--axiom", "0,0", "--measure", "1", "--trials", "40",
         "--seed", "42", "--format", "machine"],
        ["probs", "--d", "5", "--axiom", "5,2", "--measure", "0", "--format", "machine"],
        ["table", "--d", "3", "--format", "machine"],
        ["verify-mub", "--d", "3", "--format", "machine"],
        ["cross-validate", "--d", "2", "--format", "machine"],
    ]
    env = run.child_env()
    spans = (tmp_path or run.OUT) / "selftest.spans"
    spans.parent.mkdir(exist_ok=True)
    plain = run.spawn_pass(env, ops, None)
    traced = run.spawn_pass(env, ops, spans)
    assert traced["outputs"] == plain["outputs"] and traced["codes"] == plain["codes"]
    metrics = run.layer_metrics(traced["trace"])
    assert metrics["cli.main.calls"][0] == len(ops)
    assert metrics["devices.trials"][0] == 40
    # the query, then d decides for each of the (d+1)**2 * d cells at d = 2
    assert metrics["logic.decide.calls"][0] == 1 + 9 * 2 * 2
    assert metrics["cli.serialize_bytes"][0] == sum(len(out) - 1 for out in plain["outputs"])
    header = json.loads(spans.read_bytes().split(b"\n", 1)[0])
    assert dict((k, n) for k, _, n in header["arrays"])["start"] == traced["trace"]["spans"]
    spans.unlink()

    absent = run.layer_metrics({
        "calls": {}, "fn_s": {}, "layer_s": {}, "serialize_bytes": 0, "spans": 0,
    })
    assert all(value == 0 for value, _ in absent.values())


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
