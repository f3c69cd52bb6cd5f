"""Output checker: every envelope against the schema and a closed-form oracle.

The oracles follow from the construction, not from the program's code:

* decide: m = a is ProvablyTrue iff n = b and ProvablyFalse otherwise;
  m != a is Undecidable (any two groups from different partitions share
  exactly one function);
* probs: a point mass at n = b when m = a, and 1/d everywhere otherwise;
* run: counts sum to trials, a point mass at b when m = a, and within
  6 sigma of trials/d otherwise;
* table: each row partitions all d**2 pairs into d groups of d that satisfy
  the row's relation;
* cross-validate and verify-mub: the program's own report must pass with
  every deviation below 1e-10.
"""

from __future__ import annotations

import hashlib
import json
import math

import jsonschema

PROB_TOL = 1e-12
REPORT_TOL = 1e-10
SIGMAS = 6.0


def options(argv: list[str]) -> dict[str, str]:
    """The --flag value pairs after the command name."""
    return {flag[2:]: value for flag, value in zip(argv[1::2], argv[2::2])}


def pair(text: str) -> tuple[int, int]:
    x, y = text.split(",")
    return int(x), int(y)


def counts_digest(counts: list[int]) -> str:
    return hashlib.sha256(json.dumps(counts).encode()).hexdigest()[:16]


class Checker:
    def __init__(self, schema: dict):
        self.validator = jsonschema.Draft202012Validator(schema)

    def problems(self, argv: list[str], code, out: str) -> list[str]:
        """Why the output of one op is wrong; empty when it is right."""
        if code != 0:
            return [f"exit code {code!r}, expected 0"]
        if not out.endswith("\n") or out.count("\n") != 1:
            return ["stdout is not exactly one line"]
        try:
            doc = json.loads(out)
        except ValueError as exc:
            return [f"stdout is not JSON: {exc}"]
        error = next(iter(self.validator.iter_errors(_schema_view(doc))), None)
        if error is not None:
            return [f"schema: {error.message[:200]}"]
        command = argv[0]
        if doc["command"] != command or doc["status"] != "ok":
            return [f"envelope is {doc['command']}/{doc['status']}, expected {command}/ok"]
        payload = doc["payload"]
        opts = options(argv)
        d = int(opts["d"])
        if payload["d"] != d:
            return [f"payload d={payload['d']}, expected {d}"]
        return _SEMANTICS[command](payload, opts, d)


def _schema_view(doc: dict) -> dict:
    """The document the schema validator sees.

    Schema validation of a large table costs seconds per op, almost all of
    it in the function-pair arrays. Those are left out here; ``_table``
    checks every pair with stricter rules (integers in 0..d-1) instead.
    """
    if doc.get("command") != "table" or not isinstance(doc.get("payload"), dict):
        return doc
    return {**doc, "payload": {**doc["payload"], "cells": []}}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _decide(payload, opts, d):
    a, b = pair(opts["axiom"])
    m, n = pair(opts["theorem"])
    if payload["axiom"] != [a, b] or payload["theorem"] != [m, n]:
        return ["axiom or theorem not echoed"]
    if m != a:
        expected = "Undecidable"
    else:
        expected = "ProvablyTrue" if n % d == b % d else "ProvablyFalse"
    if payload["decidability"] != expected:
        return [f"decidability {payload['decidability']}, expected {expected}"]
    return []


def _probs(payload, opts, d):
    a, b = pair(opts["axiom"])
    m = int(opts["measure"])
    probs = payload["probabilities"]
    if len(probs) != d:
        return [f"{len(probs)} probabilities, expected {d}"]
    if m == a:
        expected = [1.0 if n == b else 0.0 for n in range(d)]
    else:
        expected = [1.0 / d] * d
    worst = max(abs(p - q) for p, q in zip(probs, expected))
    if worst > PROB_TOL:
        return [f"probabilities off by {worst:.3e}"]
    return []


def _run(payload, opts, d):
    a, b = pair(opts["axiom"])
    m, trials = int(opts["measure"]), int(opts["trials"])
    counts = payload["counts"]
    if payload["seed"] != int(opts["seed"]) or payload["trials"] != trials:
        return ["seed or trials not echoed"]
    if len(counts) != d or sum(counts) != trials:
        return [f"counts {counts} do not split {trials} trials over {d} outcomes"]
    if m == a:
        if counts[b] != trials:
            return [f"counts {counts} are not a point mass at {b}"]
        return []
    mean = trials / d
    sigma = math.sqrt(trials * (1.0 / d) * (1.0 - 1.0 / d))
    worst = max(abs(c - mean) for c in counts)
    if worst > SIGMAS * sigma:
        return [f"count deviates {worst:.1f} from {mean:.1f}, beyond {SIGMAS:g} sigma"]
    return []


def _table(payload, opts, d):
    rows = payload["cells"]
    if not isinstance(rows, list) or len(rows) != d + 1 or len(payload["labels"]) != d + 1:
        return [f"cells are not {d + 1} rows"]
    everything = {(x, y) for x in range(d) for y in range(d)}
    for a, row in enumerate(rows):
        if (
            not isinstance(row, list) or len(row) != d
            or not all(isinstance(group, list) and len(group) == d for group in row)
            or not all(
                isinstance(p, list) and len(p) == 2 and _is_int(p[0]) and _is_int(p[1])
                for group in row for p in group
            )
        ):
            return [f"row {a} is not {d} groups of {d} integer pairs"]
        seen = {tuple(p) for group in row for p in group}
        if seen != everything:
            return [f"row {a} does not cover every pair exactly once"]
        for b, group in enumerate(row):
            for x, y in group:
                holds = x == b if a == d else y == (a * x + b) % d
                if not holds:
                    return [f"pair {x}{y} is not in group ({a}, {b})"]
    return []


def _cross_validate(payload, opts, d):
    cells = payload["cells"]
    if len(cells) != (d + 1) ** 2 * d:
        return [f"{len(cells)} cells, expected {(d + 1) ** 2 * d}"]
    if payload["disagreements"] != 0 or not all(c["agree"] for c in cells):
        return [f"{payload['disagreements']} disagreements"]
    worst = max(c["born_vs_counting_deviation"] for c in cells)
    worst = max(worst, payload["max_born_vs_counting_deviation"])
    if worst >= REPORT_TOL:
        return [f"max deviation {worst:.3e}"]
    return []


def _verify_mub(payload, opts, d):
    worst = max(
        payload["max_orthonormality_deviation"],
        payload["max_unbiasedness_deviation"],
        payload["max_eigen_residual"],
        payload["max_shift_residual"],
    )
    if not payload["passed"] or worst >= REPORT_TOL:
        return [f"verification did not pass: max deviation {worst:.3e}"]
    return []


_SEMANTICS = {
    "decide": _decide,
    "probs": _probs,
    "run": _run,
    "table": _table,
    "cross-validate": _cross_validate,
    "verify-mub": _verify_mub,
}
