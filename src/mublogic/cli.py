"""Command line surface.

Every invocation emits exactly one envelope on standard output. In machine
format the envelope is a single-line JSON document with floats rendered to
17 significant digits (enough to round-trip any double), table rows joined
from rotations of the d lists of pair strings "[f0, f1]", cross-validation
cells joined from pieces rendered once per distinct value, Born
probabilities filled into one template, and the whole envelope joined once;
in text format it is a human-readable rendering of the same.

Exit codes: 0 success, 1 usage or input error (a non-finite float in a
machine envelope among them), 2 validation failure (a verification command
ran but its checks did not pass).
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .experiment import ALPHA, CrossReport, ValidityError, chi_square_uniform, cross_validate, run
from .devices import SEED_BOUND, born, prepare
from .logic import Proposition, decide
from .modmath import Dimension
from .mub import verify

SCHEMA_VERSION = "1.0.0"
MAX_TEXT_TABLE_D = 7
# size budgets per command, checked before any work, so that a huge --d or
# --trials fails fast with one error envelope. `table` is bound by its
# envelope (2 d**2 (d+1) ints, about 10 MB at d = 101), `verify-mub` by a 5 s
# machine run at the cap, `cross-validate` by time, `probs` and `run` by
# their d x d basis matrices, `decide` by its primality test and its O(d)
# walk over the members of the axiom's group, and --trials by time
MAX_D = {
    "table": 101,
    "verify-mub": 311,
    "decide": 2**20,
    "probs": 1009,
    "run": 1009,
    "cross-validate": 31,
}
MAX_TRIALS = 10_000_000


# ---------------------------------------------------------------------------
# serialization


_quote = json.encoder.encode_basestring_ascii


class Fragment(str):
    """JSON text, rendered in advance, that to_json emits verbatim."""


def to_json(value, end: str = "") -> str:
    """Render a plain-python document as JSON with 17-significant-digit floats,
    followed by `end`, in one join of the pieces _pieces lists.

    A Fragment is emitted as it is. Strings are quoted by the function
    json.dumps uses for them.
    """
    return "".join([*_pieces(value, []), end])


def _finite(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise ValueError("only finite numbers are serializable")
    return format(value, ".17g")


# the renderer of each type _pieces takes, by exact type (None: a container);
# any other type renders as the first it is an instance of, in this order
_RENDERERS = {
    type(None): {None: "null"}.__getitem__,
    bool: ("false", "true").__getitem__,
    int: str,
    float: _finite,
    Fragment: lambda fragment: fragment,  # as itself: str() would copy it
    str: _quote,
    dict: None,
    list: None,
    tuple: None,
}


def _pieces(value, out: list) -> list:
    """Append the JSON text of value to out, piece by piece; return out.

    A dict's or a list's leaves are rendered in its loop. A Fragment is
    appended itself, so the one join in to_json is the only copy of its text.
    """
    kind = type(value)
    if kind not in _RENDERERS:
        kind = next((base for base in _RENDERERS if isinstance(value, base)), None)
        if kind is None:
            raise TypeError(f"unserializable value: {value!r}")
    render = _RENDERERS[kind]
    if render is not None:
        out.append(render(value))
    elif kind is dict:
        separator = "{"
        for key, item in value.items():
            out += (separator, _quote(key if type(key) is str else str(key)), ": ")
            if (render := _RENDERERS.get(type(item))) is None:
                _pieces(item, out)
            else:
                out.append(render(item))
            separator = ", "
        out.append("}" if value else "{}")
    else:
        separator = "["
        for item in value:
            out.append(separator)
            if (render := _RENDERERS.get(type(item))) is None:
                _pieces(item, out)
            else:
                out.append(render(item))
            separator = ", "
        out.append("]" if value else "[]")
    return out


def floats_json(values: np.ndarray) -> Fragment:
    """A float64 array as a JSON list: the bytes to_json gives for
    values.tolist(), non-finite values rejected alike."""
    if not np.isfinite(values).all():
        raise ValueError("only finite numbers are serializable")
    return Fragment("[" + ", ".join(["%.17g"] * len(values)) % tuple(values.tolist()) + "]")


def _behavior_kind(code: int, d: int) -> str:
    """What a behavior code of a CrossReport stands for: a point mass at
    outcome code < d ("deterministic"), "uniform" at d, "mixed" at d + 1."""
    return "deterministic" if code < d else ("uniform", "mixed")[code - d]


def _uniformity_doc(statistic: float, df: int, critical: float, verdict: str) -> dict:
    return {
        "chi_square_statistic": statistic,
        "degrees_of_freedom": df,
        "critical_value": critical,
        "alpha": ALPHA,
        "verdict": verdict,
    }


def disagreement_line(report: CrossReport, index: int) -> str:
    """One-line description of a cell that does not agree, at flat index
    `index` of the report's [a, b, m] arrays."""
    d = report.dim.d
    ab, m = divmod(int(index), d + 1)
    a, b = divmod(ab, d)
    predicted, observed = (_behavior_kind(int(codes.flat[index]), d)
                           for codes in (report.predicted, report.observed))
    return f"DISAGREE axiom {{{a},{b}}} m={m}: predicted {predicted}, observed {observed}"


def _cross_report_doc(report: CrossReport) -> dict:
    """The cross-validate results, its cells in a, b, m order joined once from
    four pieces per cell, each rendered once per distinct value: the axiom,
    the measure with the predicted doc, the observed doc with "agree", and
    the .17g deviation (told apart by bit pattern, so -0.0 stays "-0").
    The maximum goes through to_json, which rejects a non-finite one."""
    d = report.dim.d
    docs = [to_json({"kind": _behavior_kind(code, d), "outcome": code if code < d else None})
            for code in range(d + 2)]
    heads = [f'{{"axiom": [{a}, {b}], "measure": ' for a in range(d + 1) for b in range(d)]
    forecasts = [f'{m}, "predicted": {doc}, "observed": ' for m in range(d + 1) for doc in docs]
    verdicts = [f'{doc}, "agree": {agree}, "born_vs_counting_deviation": '
                for doc in docs for agree in ("false", "true")]
    bits, which = np.unique(report.deviation.view(np.uint64), return_inverse=True)
    ends = [f"{dev:.17g}}}, " for dev in bits.view(np.float64).tolist()]
    forecast = (d + 2) * np.arange(d + 1) + report.predicted  # [a, b, m] -> forecasts
    verdict = 2 * report.observed + report.agree  # [a, b, m] -> verdicts
    # piece j of cell i, flat index ((a d + b)(d + 1) + m), at 4 i + j
    pieces = [""] * (4 * report.agree.size)
    for m in range(d + 1):
        pieces[4 * m::4 * (d + 1)] = heads
    pieces[1::4] = map(forecasts.__getitem__, forecast.ravel().tolist())
    pieces[2::4] = map(verdicts.__getitem__, verdict.ravel().tolist())
    pieces[3::4] = map(ends.__getitem__, which.ravel().tolist())
    pieces[0] = "[" + pieces[0]
    pieces[-1] = pieces[-1][:-2] + "]"
    return {
        "cells": Fragment("".join(pieces)),
        "disagreements": report.disagreements,
        "max_born_vs_counting_deviation": report.max_born_vs_counting_deviation,
    }


# ---------------------------------------------------------------------------
# table rendering


def relation_label(a: int, d: int) -> str:
    if a == d:
        return "f(0) = b"
    if a == 0:
        return "f(1) = b"
    if a == 1:
        return "f(1) = f(0) + b"
    return f"f(1) = {a} f(0) + b"


def _rows(tokens: list[list[str]]) -> Iterator[Iterable[Sequence[str]]]:
    """Row by row of the partition table, each group {a, b} as its members'
    tokens, taken from tokens[f0][f1].

    Member k of group {a, b}, a < d, is (k, a k + b), so across b the k-th
    members of row a are tokens[k] rotated by a k mod d; group {d, b} of
    the value-pin row is tokens[b].
    """
    d = len(tokens)
    doubled = [row + row for row in tokens]
    for a in range(d):
        yield zip(*[row[a * k % d:][:d] for k, row in enumerate(doubled)])
    yield tokens


def render_table_text(dim: Dimension) -> str:
    """Fixed-layout text table; each cell lists its pairs f(0)f(1)."""
    d = dim.d
    if d > MAX_TEXT_TABLE_D:
        raise ValueError(
            f"text table rendering is defined for d <= {MAX_TEXT_TABLE_D}; "
            "use --format machine"
        )
    labels = [relation_label(a, d) for a in range(d + 1)]
    label_width = max(len(label) for label in labels)
    cell_width = 3 * d - 1

    lines = [f"Partition table for d = {d} (pairs f(0)f(1); arithmetic mod {d})", ""]
    prefix_width = len(f"a={d}  ") + label_width + len(" : ")
    header_cells = "   ".join(f"b={b}".ljust(cell_width) for b in range(d))
    lines.append((" " * prefix_width + header_cells).rstrip())
    pairs = [[f"{f0}{f1}" for f1 in range(d)] for f0 in range(d)]
    for a, row in enumerate(_rows(pairs)):
        cells = " | ".join(map(" ".join, row))
        lines.append(f"a={a}  {labels[a].ljust(label_width)} : {cells}")
    return "\n".join(lines) + "\n"


def table_json(dim: Dimension) -> list[Fragment]:
    """The partition table as its rows' JSON, one Fragment per row, which
    to_json renders as the bytes of json.dumps(partition_array(dim).tolist()):
    each row joined from the rotated "[f0, f1]" pair strings of _rows."""
    d = dim.d
    pairs = [[f"[{f0}, {f1}]" for f1 in range(d)] for f0 in range(d)]
    return [Fragment("[[%s]]" % "], [".join(map(", ".join, row))) for row in _rows(pairs)]


# ---------------------------------------------------------------------------
# argument parsing


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _pair(text: str) -> tuple[int, int]:
    try:
        first, second = map(int, text.split(","))
    except ValueError:  # not two parts, or not two ints
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated integers, got {text!r}"
        ) from None
    return first, second


def parse_seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer seed, got {text!r}"
        ) from None
    if not 0 <= seed < SEED_BOUND:
        raise argparse.ArgumentTypeError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def parse_tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be finite and > 0, got {text!r}"
        )
    return tol


# every command's options after the shared --d and --format: name ->
# (help, [(flag, add_argument keywords), ...]); the parser, _read_well_formed
# and _parameters read it, so the keywords stay within what that reader
# understands: type, required, default, choices, help and metavar
_SHARED = [
    ("--d", dict(type=int, required=True, help="prime dimension")),
    ("--format", dict(choices=("text", "machine"), default="text",
                      help="output rendering (default: text)")),
]
_AXIOM = ("--axiom", dict(type=_pair, required=True, metavar="A,B"))
_MEASURE = ("--measure", dict(type=int, required=True, metavar="M"))
COMMANDS = {
    "table": ("render the (d+1) x d partition table of function groups", []),
    "verify-mub": ("verify the d+1 mutually unbiased bases numerically", [
        ("--tol", dict(type=parse_tolerance, default=1e-10, help="pass tolerance")),
    ]),
    "decide": ("decide a theorem relative to an axiom by enumeration", [
        _AXIOM, ("--theorem", dict(type=_pair, required=True, metavar="M,N")),
    ]),
    "probs": ("exact Born probabilities for an encoded axiom", [_AXIOM, _MEASURE]),
    "run": ("seeded multi-trial sampling experiment", [
        _AXIOM, _MEASURE,
        ("--trials", dict(type=int, required=True)),
        ("--seed", dict(type=parse_seed, required=True, help="in [0, 2**64)")),
    ]),
    "cross-validate": ("sweep all axiom/measurement cells for agreement", [
        ("--tol", dict(type=parse_tolerance, default=1e-9, help="classification tolerance")),
    ]),
}


# per command, built once: its options by flag as (name, type, choices), its
# required flags, its defaults by name and its parameters' names (not --format)
_READERS = {command: (
    {flag: (flag[2:], kw.get("type", str), kw.get("choices")) for flag, kw in options},
    {flag for flag, kw in options if kw.get("required")},
    {flag[2:]: kw.get("default") for flag, kw in options},
    [flag[2:] for flag, _ in options if flag != "--format"],
) for command, (_, tail) in COMMANDS.items() for options in [_SHARED + tail]}


def build_parser() -> argparse.ArgumentParser:
    """The full parser, the top level and a subparser per command, for the
    argv that _read_well_formed declines."""
    parser = _Parser(prog="mublogic", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in COMMANDS.items():
        subparser = subparsers.add_parser(name, help=help_text)
        for flag, keywords in _SHARED + options:
            subparser.add_argument(flag, **keywords)
    return parser


def _read_well_formed(command: str, tail: list[str]) -> argparse.Namespace | None:
    """The Namespace the command's parser makes of `tail`, when argparse has
    no choice about it; otherwise None.

    Well formed is: pairs of an exact full option name of the command and a
    value not starting with "-", each name once, each value converted by the
    option's type (failing only as argparse catches) and in its choices, and
    every required option given. The others take their defaults.
    """
    options, required, defaults, _ = _READERS[command]
    given = dict(zip(tail[::2], tail[1::2]))  # short on a repeated name or an odd count
    if 2 * len(given) != len(tail) or not options.keys() >= given.keys() >= required:
        return None
    values = defaults.copy()
    for flag, text in given.items():
        name, convert, choices = options[flag]
        if text.startswith("-"):
            return None
        try:
            value = convert(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[name] = value
    return argparse.Namespace(**values)


def _parse_argv(argv: list[str]) -> argparse.Namespace:
    """argv parsed as the full parser would, building no parser when it need not.

    A command name followed by a well-formed tail is read straight from
    COMMANDS. Every other argv (a usage error, help, an abbreviated, joined
    or repeated option, "--", no command name) goes to the full parser.
    """
    if argv and argv[0] in COMMANDS:
        args = _read_well_formed(argv[0], argv[1:])
        if args is not None:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def _parameters(args: argparse.Namespace) -> dict:
    """The envelope's parameters: every option of the command but --format,
    in COMMANDS order, a pair as a list."""
    params = {}
    for name in _READERS[args.command][3]:
        value = getattr(args, name)
        params[name] = list(value) if isinstance(value, tuple) else value
    return params


# ---------------------------------------------------------------------------
# command handlers: each takes the parsed args and the Dimension of --d and
# returns (results, failure_message, text); main puts the machine results,
# what the command computed, after the parameters in the payload


def check_budget(command: str, d: int, trials: int | None) -> None:
    """Raise ValueError if `command` at this size is over its budget."""
    for name, value, limit in (("d", d, MAX_D[command]), ("trials", trials, MAX_TRIALS)):
        if value is not None and value > limit:
            raise ValueError(f"{command} is limited to {name} <= {limit}, got {name} = {value}")


def _cmd_table(args, dim):
    if args.format == "text":
        return None, None, render_table_text(dim)
    labels = [relation_label(a, dim.d) for a in range(dim.d + 1)]
    return {"labels": labels, "cells": table_json(dim)}, None, ""


def _cmd_verify_mub(args, dim):
    report = verify(dim, args.tol)
    failure = None if report.passed else (
        f"MUB verification failed: max deviation {report.max_deviation:.3e} "
        f"exceeds tolerance {args.tol:g}"
    )
    if args.format == "machine":
        return dataclasses.asdict(report), failure, ""
    lines = [
        f"MUB verification for d = {dim.d} (tolerance {args.tol:g})",
        f"  max orthonormality deviation : {report.max_orthonormality_deviation:.3e}",
        f"  max unbiasedness deviation   : {report.max_unbiasedness_deviation:.3e}",
        f"  max eigenvector residual     : {report.max_eigen_residual:.3e}",
        f"  max shift residual           : {report.max_shift_residual:.3e}",
        "PASS" if report.passed else "FAIL",
    ]
    return None, failure, "\n".join(lines) + "\n"


def _cmd_decide(args, dim):
    axiom = Proposition(args.axiom[0], args.axiom[1], dim)
    theorem = Proposition(args.theorem[0], args.theorem[1], dim)
    verdict = decide(axiom, theorem).value
    text = "" if args.format == "machine" else (
        f"axiom {{{axiom.a},{axiom.b}}}, theorem "
        f"{{{theorem.a},{theorem.b}}}, d={dim.d}: {verdict}\n"
    )
    return {"decidability": verdict}, None, text


def _cmd_probs(args, dim):
    axiom = Proposition(args.axiom[0], args.axiom[1], dim)
    probabilities = born(prepare(axiom), args.measure)
    if args.format == "machine":
        return {"probabilities": floats_json(probabilities)}, None, ""
    lines = [
        f"Born probabilities for axiom {{{axiom.a},{axiom.b}}}, "
        f"measurement m={args.measure}, d={dim.d}"
    ]
    lines += [f"  n={n}: {p:.12g}" for n, p in enumerate(probabilities.tolist())]
    return None, None, "\n".join(lines) + "\n"


def _cmd_run(args, dim):
    axiom = Proposition(args.axiom[0], args.axiom[1], dim)
    counts = run(axiom, args.measure, args.trials, args.seed)
    # without a valid chi-square test the counts are still reported, just
    # without a verdict
    try:
        uniformity, skipped = chi_square_uniform(counts), None
    except ValidityError as exc:
        uniformity, skipped = None, exc
    if args.format == "machine":
        doc = None if uniformity is None else _uniformity_doc(*uniformity)
        return {"counts": counts.tolist(), "uniformity": doc}, None, ""
    lines = [
        f"counts for axiom {{{axiom.a},{axiom.b}}}, m={args.measure}, "
        f"d={dim.d}, trials={args.trials}, seed={args.seed}"
    ]
    lines += [f"  n={n}: {c}" for n, c in enumerate(counts.tolist())]
    if uniformity is None:
        lines.append(f"chi-square skipped: {skipped}")
    else:
        statistic, df, critical, verdict = uniformity
        lines.append(f"chi-square statistic {statistic:.6g} (df {df}, critical "
                     f"{critical:g} at alpha {ALPHA}): {verdict}")
    return None, None, "\n".join(lines) + "\n"


def _cmd_cross_validate(args, dim):
    report = cross_validate(dim, args.tol)
    failure = None if report.all_agree else (
        f"cross-validation found {report.disagreements} disagreeing cells"
    )
    if args.format == "machine":
        return _cross_report_doc(report), failure, ""
    lines = [
        f"cross-validation for d = {dim.d} (classification tolerance {args.tol:g})",
        f"  cells checked           : {report.agree.size}",
        f"  disagreements           : {report.disagreements}",
        f"  max |born - counting/d| : {report.max_born_vs_counting_deviation:.3e}",
    ]
    lines += [f"  {disagreement_line(report, i)}" for i in np.flatnonzero(~report.agree)]
    lines.append("PASS" if report.all_agree else "FAIL")
    return None, failure, "\n".join(lines) + "\n"


_HANDLERS = {
    "table": _cmd_table,
    "verify-mub": _cmd_verify_mub,
    "decide": _cmd_decide,
    "probs": _cmd_probs,
    "run": _cmd_run,
    "cross-validate": _cmd_cross_validate,
}


def _envelope(command: str, parameters: dict, status: str, payload, error_message) -> dict:
    env = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "status": status,
        "payload": payload,
    }
    if error_message is not None:
        env["error_message"] = error_message
    return env


def main(argv=None) -> int:
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    parameters = _parameters(args)
    try:
        check_budget(args.command, args.d, getattr(args, "trials", None))
        results, failure, text = _HANDLERS[args.command](args, Dimension(args.d))
        code = 0 if failure is None else 2
        if args.format == "machine":  # rendered in the try: a non-finite float is an input error
            status = "ok" if failure is None else "error"
            payload = {**parameters, **results}
            text = to_json(_envelope(args.command, parameters, status, payload, failure), "\n")
    except ValueError as exc:
        code, text = 1, f"error: {exc}\n"
        if args.format == "machine":
            text = to_json(_envelope(args.command, parameters, "error", None, str(exc)), "\n")
    _write(text)
    return code


def _write(text: str) -> None:
    """Write text to stdout in full, or raise BrokenPipeError if its reader
    closes first.

    An unbuffered stdout (python -u, PYTHONUNBUFFERED) makes one os.write
    per call and drops what a partial write leaves, so a reader that closes
    early goes unseen; there the bytes are written until none is left.
    """
    raw = getattr(sys.stdout, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[raw.write(data):]


def entrypoint() -> None:
    """sys.exit(main()); exit 1, without a traceback, if stdout's reader closes early."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout at devnull, so the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
