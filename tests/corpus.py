"""The byte-identity corpus: for each argv of a fixed list, the sha256 of
json.dumps([argv, exit code, stdout, stderr]), one line each in
tests/golden/corpus.txt, under a header that records the Python, numpy and
BLAS versions of the capture, the kernel OpenBLAS picked and numpy's SIMD
level. test_cli.py checks every line; a change that moves bytes on purpose
re-captures them, and sees each argv that moved, with

    python tests/corpus.py
"""

import contextlib
import ctypes
import hashlib
import io
import json
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
CORPUS = REPO / "tests" / "golden" / "corpus.txt"
MACHINE = ["--format", "machine"]


def op_lists(seeds) -> list[list[str]]:
    """Every op of the benchmark's lists at these seeds; perfbench/ops.py is only read."""
    ops = runpy.run_path(str(REPO / "perfbench" / "ops.py"))
    return [argv for workload in ops["WORKLOADS"] for seed in seeds
            for argv in ops["generate"](workload, seed)]


def argvs() -> list[list[str]]:
    """Every argv of the corpus, each once, in a fixed order."""
    # imported here, so that the runner's process imports none of the suite
    from mublogic.cli import COMMANDS
    from mublogic.modmath import is_prime
    from test_cli import invalid_argvs
    from test_golden import golden_argvs

    primes = [p for p in range(2, 102) if is_prime(p)]
    golden = golden_argvs()
    listed = golden + [["text" if token == "machine" else token for token in argv] for argv in golden]
    listed += [["table", "--d", str(p), *fmt] for p in primes for fmt in ([], MACHINE)]
    listed += [["cross-validate", "--d", str(p), *tol, *fmt]  # no --tol: the default, 1e-9
               for p in primes if p <= 31 for tol in ([], ["--tol", "1e-20"], ["--tol", "0.6"])
               for fmt in ([], MACHINE)]
    listed += [["verify-mub", "--d", str(d), *MACHINE] for d in (29, 73, 311)]
    listed += [["probs", "--d", "97", "--axiom", "5,3", "--measure", "11", *MACHINE],
               ["probs", "--d", "1009", "--axiom", "1,1", "--measure", "0", *MACHINE]]
    listed += invalid_argvs() + [["--help"]] + [[command, "--help"] for command in COMMANDS]
    listed += op_lists(range(3))
    return [list(argv) for argv in dict.fromkeys(map(tuple, listed))]


def run(listed: list[list[str]]) -> dict[tuple, str]:
    """The digest of each argv, all run through main in one new process, with
    help at 80 columns and one BLAS thread, as the benchmark runs (a gemv
    split over threads sums in other blocks, which moves Born bits)."""
    from test_cli import module_env

    env = module_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", COLUMNS="80")
    proc = subprocess.run([sys.executable, "-c", "import corpus; corpus.print_digests()"],
                          input=json.dumps(listed), capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    return dict(zip(map(tuple, listed), proc.stdout.split()))


def print_digests() -> None:
    """Print the digest of each argv of the JSON list on stdin, run through main."""
    from mublogic.cli import main

    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # help, and argparse's usage exits
                code = exc.code
        record = json.dumps([argv, code, out.getvalue(), err.getvalue()])
        print(hashlib.sha256(record.encode()).hexdigest())


def openblas_core() -> str | None:
    """The kernel numpy's bundled OpenBLAS picked for this CPU, or None if not found."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in libs.glob("lib*openblas*"):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_char_p
                getter.argtypes = []
                return getter().decode()
    return None


def simd_level() -> str:
    """The highest of numpy's SIMD targets, baseline or dispatched, that this CPU runs."""
    from numpy._core import _multiarray_umath as umath

    targets = umath.__cpu_baseline__ + umath.__cpu_dispatch__
    return [target for target in targets if umath.__cpu_features__.get(target)][-1]


def versions() -> str:
    """The versions and the host the bytes depend on: a gemv sums in the order
    of the kernel OpenBLAS picks for the CPU, and numpy's loops in that of its SIMD level."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python {sys.version.split()[0]}, numpy {np.__version__}, "
            f"blas {blas['name']} {blas['version']}, "
            f"openblas core {openblas_core()}, simd {simd_level()}")


def read() -> tuple[str, dict[tuple, str]]:
    """The versions the file was captured under, and its digest of each argv."""
    header, *lines = CORPUS.read_text().splitlines()
    pairs = (line.split(" ", 1) for line in lines if not line.startswith("#"))
    return header.removeprefix("# "), {tuple(json.loads(argv)): digest for digest, argv in pairs}


def changes(recorded: dict[tuple, str], digests: dict[tuple, str]) -> list[str]:
    """Each argv whose digest moved, that the file lacks, or that it alone has."""
    lines = [f"{'moved' if argv in recorded else 'missing'}: {json.dumps(argv)}"
             for argv, digest in digests.items() if recorded.get(argv) != digest]
    return lines + [f"stale: {json.dumps(argv)}" for argv in recorded if argv not in digests]


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))  # tests/ is on it, as the script's directory
    digests = run(argvs())
    print("\n".join(changes(read()[1], digests)) or "no argv moved")
    CORPUS.write_text("".join([f"# {versions()}\n", "# sha256 of json.dumps([argv, exit code, stdout,"
                               " stderr]), then the argv; python tests/corpus.py re-captures\n"]
                              + [f"{digest} {json.dumps(argv)}\n" for argv, digest in digests.items()]))
