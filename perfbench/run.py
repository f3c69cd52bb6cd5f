"""Benchmark of the mublogic CLI: seeded op lists run in fresh processes.

    python3 perfbench/run.py --workload {sampling,sweep,bases} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src``.

A pass spawns a fresh interpreter that imports ``mublogic.cli`` and then
runs the whole op list of the workload through ``mublogic.cli.main(argv)``
in-process, one op after another (a closed loop, one client), with stdout
captured and the BLAS pool capped at one thread. Passes repeat until the
next would end after S seconds. Each op's latency is its median over the
passes; ``wall_s`` is their sum and the percentiles are taken over them.
Set-up time is measured apart from the passes, by spawning interpreters
that only import.

Every output is checked after the timed region (see ``checker.py``); the
first pass is checked in full and every later pass must repeat it byte for
byte. With ``--trace 1`` traced and untraced passes alternate, and the
per-layer metrics come from the traced ones (see ``tracer.py``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Spans and a
record of each run go to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import ops as op_lists
from checker import Checker, counts_digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SCHEMA = ROOT / "schemas" / "envelope.schema.json"
DIGESTS = BENCH / "sampling_digests.json"

SETUP_SPAWNS_PER_PASS = 4
BLAS_THREADS = "1"
SETUP_TIMEOUT_S = 60
PASS_TIMEOUT_S = 150
CALIBRATION_ROUNDS = 3

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    # a fixed hash seed makes a pass's allocations, and so the ops its
    # garbage-collector pauses land on, repeat from one pass to the next
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_setup(env) -> tuple[float, dict]:
    """Time from spawn to `import mublogic.cli` done, with the child's report.

    The child reads the end time off the same monotonic clock, which on
    Linux is shared by every process on the machine.
    """
    start = perf_counter()
    facts = run_child([sys.executable, str(BENCH / "child.py"), "setup"], env, None, SETUP_TIMEOUT_S)
    return facts["imported_at"] - start, facts


def spawn_pass(env, ops: list, spans: Path | None) -> dict:
    argv = [sys.executable, str(BENCH / "child.py"), "pass"]
    if spans is not None:
        argv.append(str(spans))
    return run_child(argv, env, json.dumps(ops), PASS_TIMEOUT_S)


def run_child(argv, env, stdin: str | None, timeout: float) -> dict:
    """Run a child to completion and parse its JSON stdout; never leave it running."""
    proc = subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, cwd=ROOT, text=True,
    )
    try:
        out, err = proc.communicate(stdin, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[2]} child took longer than {timeout} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{argv[2]} child failed: {err.strip()[-500:]}")
    try:
        return json.loads(out)
    except ValueError:
        raise BenchError(f"{argv[2]} child printed no JSON result") from None


# ---------------------------------------------------------------------------
# machine facts


def calibrate() -> float:
    """A fixed pure-Python loop; reported beside the metrics, never used to scale them."""
    start = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - start


def machine_facts(child_facts: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": child_facts["numpy"],
        "blas": child_facts["blas"],
        "blas_thread_cap": int(BLAS_THREADS),
        "blas_threads_seen": child_facts["blas_threads"],
        "calib_s": statistics.median(calibrate() for _ in range(CALIBRATION_ROUNDS)),
    }


# ---------------------------------------------------------------------------
# checking


def load_digests(workload: str, seed: int) -> list[str] | None:
    """Recorded count digests of the sampling op list for its default seed."""
    if workload != "sampling":
        return None
    recorded = json.loads(DIGESTS.read_text())
    return recorded["digests"] if recorded["seed"] == seed else None


def check_first_pass(checker, ops, result, digests) -> list[list[str]]:
    problems = []
    for i, argv in enumerate(ops):
        found = checker.problems(argv, result["codes"][i], result["outputs"][i])
        if not found and digests is not None:
            counts = json.loads(result["outputs"][i])["payload"]["counts"]
            if counts_digest(counts) != digests[i]:
                found = ["counts differ from the ones recorded for this seed"]
        problems.append(found)
    return problems


def repeat_problems(reference, first_problems, result) -> list[list[str]]:
    """A later pass must repeat the first byte for byte, faults included."""
    return [
        found if (code, out) == (ref_code, ref_out) else ["output differs from the first pass"]
        for code, out, ref_code, ref_out, found in zip(
            result["codes"], result["outputs"],
            reference["codes"], reference["outputs"], first_problems,
        )
    ]


# ---------------------------------------------------------------------------
# metrics


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def op_latencies(passes: list[dict]) -> list[float]:
    """Each op's median latency over the passes.

    The host's speed drifts within a pass as well as between passes, so the
    median is taken per op, where a slow stretch of one pass cannot move it.
    """
    return [statistics.median(column) for column in zip(*(r["latencies_s"] for r in passes))]


def end_to_end(passes: list[dict]) -> dict:
    latencies = op_latencies(passes)
    return {
        "wall_s": sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": p90(latencies) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced pass; absent functions read zero."""
    calls, fn_s = trace["calls"], trace["fn_s"]

    def c(key):
        return calls.get(key, 0)

    def t(key):
        return fn_s.get(key, 0.0)

    trials = c("devices.trial_rng")
    trial_s = t("devices.trial_rng") + t("devices.sample")
    metrics = {
        "devices.trial_rng_s": (t("devices.trial_rng"), "s"),
        "devices.sample_s": (t("devices.sample"), "s"),
        "devices.trials": (trials, "count"),
        "devices.trial_us": (trial_s / trials * 1e6 if trials else 0.0, "us"),
        "logic.decide.calls": (c("logic.decide"), "count"),
        "logic.decide_s": (t("logic.decide"), "s"),
        "logic.multiplicities_s": (t("logic.outcome_multiplicities"), "s"),
        "logic.from_values.calls": (c("logic.BinaryFunction.from_values"), "count"),
        "experiment.predicted_behavior_s": (t("experiment.predicted_behavior"), "s"),
        "experiment.cross_validate_s": (t("experiment.cross_validate"), "s"),
        "logic.partition_table_s": (t("logic.partition_table"), "s"),
        "cli.serialize_s": (t("cli.to_json"), "s"),
        "cli.serialize_bytes": (trace["serialize_bytes"], "bytes"),
        "cli.parse_s": (t("cli.build_parser") + t("cli._Parser.parse_args"), "s"),
        "cli.main.calls": (c("cli.main"), "count"),
        "devices.prepare_s": (t("devices.prepare"), "s"),
        "devices.born.calls": (c("devices.born"), "count"),
        "devices.born_s": (t("devices.born"), "s"),
        "mub.basis_state.calls": (c("mub.basis_state"), "count"),
        "mub.basis_state_s": (t("mub.basis_state"), "s"),
        "qlinalg.root_of_unity.calls": (c("qlinalg.root_of_unity"), "count"),
        "mub.full_set_s": (t("mub.full_set"), "s"),
        # full_set is called only from verify, so this is the checks alone
        "mub.verify_self_s": (t("mub.verify") - t("mub.full_set"), "s"),
        "experiment.run_s": (t("experiment.run"), "s"),
        "experiment.chi_square_s": (t("experiment.chi_square_uniform"), "s"),
    }
    for layer, seconds in trace["layer_s"].items():
        metrics[f"layer.{layer}_s"] = (seconds, "s")
    metrics["trace.spans"] = (trace["spans"], "count")
    return metrics


def counts_of(trace: dict) -> tuple:
    return (trace["calls"], trace["serialize_bytes"], trace["spans"])


def median_metrics(per_pass: list[dict]) -> dict:
    return {
        name: (statistics.median(m[name][0] for m in per_pass), per_pass[0][name][1])
        for name in per_pass[0]
    }


# ---------------------------------------------------------------------------
# measurement


def measure(args) -> tuple[dict, int, int, bool]:
    if not (ROOT / "src" / "mublogic" / "cli.py").is_file() or not SCHEMA.is_file():
        raise BenchError(f"no mublogic source tree at {ROOT}")
    checker = Checker(json.loads(SCHEMA.read_text()))
    ops = op_lists.generate(args.workload, args.seed)
    digests = load_digests(args.workload, args.seed)
    env = child_env()
    notes = []
    consistent = True

    # the first spawn also compiles bytecode; it is not timed
    _, child_facts = spawn_setup(env)
    facts = machine_facts(child_facts)

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{args.workload}-seed{args.seed}.spans"
    plain, traced, setups = [], [], []
    reference = None
    attempted = failed = 0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        # set-up spawns sit between passes, so that they sample the host's
        # speed over the whole run rather than at one moment
        setups += [spawn_setup(env) for _ in range(SETUP_SPAWNS_PER_PASS)]
        tracing = bool(args.trace) and len(plain) > len(traced)
        result = spawn_pass(env, ops, spans if tracing else None)
        if reference is None:
            reference = result
            problems = first_problems = check_first_pass(checker, ops, result, digests)
        else:
            problems = repeat_problems(reference, first_problems, result)
        attempted += len(ops)
        failed += sum(1 for p in problems if p)
        notes += [f"op {i} {' '.join(ops[i])}: {p[0]}" for i, p in enumerate(problems) if p]
        (traced if tracing else plain).append(result)
        if result is not reference:
            del result["outputs"]
        # stop before a pass that would end after the deadline
        now = perf_counter()
        done = not args.trace or traced
        if done and now - start + (now - pass_start) > args.seconds:
            break

    setup = {
        "setup_s": statistics.median(s[0] for s in setups),
        "numpy_import_s": statistics.median(s[1]["numpy_import_s"] for s in setups),
        "mublogic_import_s": statistics.median(s[1]["mublogic_import_s"] for s in setups),
    }
    e2e = end_to_end(plain)
    e2e["setup_s"] = setup["setup_s"]
    cut = e2e["op_p90_ms"] / 1e3
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "ops_per_pass": len(ops),
        "passes": len(plain), "traced_passes": len(traced),
        "setup_spawns": len(setups), "setup": setup,
        "end_to_end": e2e, "attempted": attempted, "failed": failed,
        "pass_walls_s": [r["wall_s"] for r in plain],
        "above_p90": sum(1 for x in op_latencies(plain) if x > cut),
    }

    layer = {}
    if args.trace:
        per_pass = [layer_metrics(r["trace"]) for r in traced]
        if any(counts_of(r["trace"]) != counts_of(traced[0]["trace"]) for r in traced):
            consistent = False
            notes.append("trace counts differ between traced passes of one op list")
        layer = median_metrics(per_pass)
        traced_wall = sum(op_latencies(traced))
        layer["trace.wall_s"] = (traced_wall, "s")
        layer["trace.overhead_s"] = (traced_wall - e2e["wall_s"], "s")
        layer["setup.numpy_import_s"] = (setup["numpy_import_s"], "s")
        layer["setup.mublogic_import_s"] = (setup["mublogic_import_s"], "s")
        layer["machine.calib_s"] = (facts["calib_s"], "s")
        record["per_layer"] = {k: v[0] for k, v in layer.items()}
        record["trace_calls"] = traced[0]["trace"]["calls"]
    record["notes"] = notes
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    report(args, record, layer)

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        units = dict(END_TO_END)
        metrics = {k: {"value": e2e[k], "unit": units[k]} for k, _ in END_TO_END}
    return metrics, attempted, failed, consistent and failed == 0


def report(args, record: dict, layer: dict) -> None:
    m = record["machine"]
    print(
        f"machine: nproc {m['nproc']} (allowed {m['cpus_allowed']}), python {m['python']}, "
        f"numpy {m['numpy']}, {m['blas']}, BLAS threads {m['blas_threads_seen']} "
        f"(cap {m['blas_thread_cap']}), machine.calib_s {m['calib_s']:.4f} s"
    )
    n = record["ops_per_pass"]
    print(
        f"workload {args.workload}, seed {args.seed}: {record['passes']} untraced and "
        f"{record['traced_passes']} traced passes of {n} ops in fresh processes, "
        f"{record['setup_spawns']} set-up spawns"
    )
    units = dict(END_TO_END)
    for name, value in record["end_to_end"].items():
        extra = ""
        if name == "op_p90_ms":
            extra = f"  ({n} ops, {record['above_p90']} above it)"
        print(f"  {name:<12} {value:.6g} {units[name]}{extra}")
    ratio = record["failed"] / record["attempted"]
    print(f"  {'fail_ratio':<12} {ratio:.6g} 1  ({record['failed']} of {record['attempted']} ops)")
    for name, (value, unit) in layer.items():
        print(f"  {name:<34} {value:.6g} {unit}")
    for note in record["notes"][:10]:
        print(f"  FAIL {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=op_lists.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        metrics, attempted, failed, correct = measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
