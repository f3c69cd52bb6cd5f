"""Child process of the benchmark; one fresh interpreter per use.

    child.py setup         import numpy, then mublogic.cli, and print the
                           import times and machine facts as one JSON line
    child.py pass [SPANS]  read a JSON list of argv lists from stdin, run each
                           through mublogic.cli.main in this process with
                           stdout captured, and print one JSON result; with
                           SPANS, trace the layers and write the spans there

The parent sets PYTHONPATH to the checkout's ``src`` and caps the BLAS
thread pool through the environment. A pass is a closed loop: one client,
one process, no extra threads.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter


def _blas_threads():
    """Threads in numpy's bundled OpenBLAS pool, or None if not found."""
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "lib*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return getter()
    return None


def setup() -> None:
    t0 = perf_counter()
    import numpy

    t1 = perf_counter()
    import mublogic.cli  # noqa: F401

    t2 = perf_counter()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "imported_at": t2,
        "numpy_import_s": t1 - t0,
        "mublogic_import_s": t2 - t1,
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }), flush=True)


def run_pass(spans_path: str | None) -> None:
    ops = json.load(sys.stdin)
    import mublogic.cli as cli

    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    codes, outputs, latencies = [], [], []
    start = perf_counter()
    for i, argv in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        buf = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except (Exception, SystemExit):  # an op's failure must not end the pass
            code = None
            buf.write(traceback.format_exc())
        latencies.append(perf_counter() - t0)
        codes.append(code)
        outputs.append(buf.getvalue())
    wall = perf_counter() - start

    result = {
        "wall_s": wall,
        "latencies_s": latencies,
        "codes": codes,
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(spans_path)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup()
    else:
        run_pass(sys.argv[2] if len(sys.argv) > 2 else None)
