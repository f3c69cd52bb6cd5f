"""In-process spans around the public functions of each mublogic layer.

Each public function is wrapped at every name under which a mublogic module
looks it up (``mublogic.experiment.trial_rng`` as well as
``mublogic.devices.trial_rng``), so every call pays the wrapper once. A span
records its name, start, end, parent span and the op it belongs to; spans
are kept in flat arrays and written out by ``write``.

Two self times come out of the spans:

* per layer, a span's duration minus its direct child spans;
* per function, the duration of its outermost spans minus the time spent in
  child spans of other layers, so ``logic.decide`` includes the ``group``
  and ``holds`` calls it makes but not, say, a ``mub`` call.

``modmath`` is not wrapped: its calls are per element, so a wrapper would
cost more than they do, and their time lands in the callers' self time.
Functions called per element in other layers are wrapped with a counter
only. A function or layer that no longer exists reads zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "experiment", "logic", "mub", "qlinalg", "devices")

# per-element calls: counted, not timed
COUNT_ONLY = {"qlinalg.root_of_unity", "logic.holds", "logic.BinaryFunction.from_values"}
# recursive: only the outermost call is a span; while it runs, its names
# point at the unwrapped function, so the recursion pays no wrapper
OUTERMOST_ONLY = {"cli.to_json"}
# methods traced in addition to the module-level public functions
METHODS = (
    ("logic", "BinaryFunction", "from_values"),
    ("cli", "_Parser", "parse_args"),
)


class Tracer:
    def __init__(self):
        self.op = -1
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = defaultdict(int)
        self.fn_s: dict[str, float] = defaultdict(float)
        self.layer_s: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        self.serialize_bytes = 0
        # where each wrapper is installed: key -> [(namespace, alias)]
        self.sites: dict[str, list] = defaultdict(list)
        # open spans: [span id, layer, child time, foreign child time]
        self._stack: list[list] = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, key: str, layer: str, fn):
        name_id = len(self.names)
        self.names.append(key)
        stack, depth, calls = self._stack, self.depth, self.calls
        outermost_only = key in OUTERMOST_ONLY
        serializer = key == "cli.to_json"
        sites = self.sites[key]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = depth[key]
            calls[key] += 1
            span = len(self.span_start)
            frame = [span, layer, 0.0, 0.0]
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(frame)
            depth[key] = nested + 1
            if outermost_only:
                for namespace, alias in sites:
                    setattr(namespace, alias, fn)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if outermost_only:
                    for namespace, alias in sites:
                        setattr(namespace, alias, wrapper)
                depth[key] = nested
                stack.pop()
                self._close(frame, key, nested, start, end)
            if serializer:
                self.serialize_bytes += len(result)
            return result

        return wrapper

    def _close(self, frame, key, nested, start, end):
        span, layer, child, foreign = frame
        self.span_start[span] = start
        self.span_end[span] = end
        duration = end - start
        self.layer_s[layer] += duration - child
        if not nested:
            self.fn_s[key] += duration - foreign
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent[3] += duration if parent[1] != layer else foreign

    def _counted(self, key: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, key: str, layer: str, fn):
        if key in COUNT_ONLY:
            return self._counted(key, fn)
        return self._timed(key, layer, fn)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of each layer at every name it has."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"mublogic.{layer}")
            except ModuleNotFoundError:  # a removed layer reads zero
                continue
        namespaces = [
            module for name, module in sys.modules.items()
            if name == "mublogic" or name.startswith("mublogic.")
        ]
        for layer, module in modules.items():
            for name, fn in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or not callable(fn)
                    or isinstance(fn, type)
                    or getattr(fn, "__module__", None) != module.__name__
                ):
                    continue
                key = f"{layer}.{name}"
                wrapper = self._wrap(key, layer, fn)
                for namespace in namespaces:
                    for alias, value in list(vars(namespace).items()):
                        if value is fn:
                            setattr(namespace, alias, wrapper)
                            self.sites[key].append((namespace, alias))
        for layer, cls_name, method in METHODS:
            cls = getattr(modules.get(layer), cls_name, None)
            if cls is None or not hasattr(cls, method):
                continue
            key = f"{layer}.{cls_name}.{method}"
            raw = cls.__dict__.get(method)
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(self._wrap(key, layer, raw.__func__)))
            else:
                setattr(cls, method, self._wrap(key, layer, getattr(cls, method)))

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "fn_s": dict(self.fn_s),
            "layer_s": {layer: self.layer_s.get(layer, 0.0) for layer in LAYERS},
            "serialize_bytes": self.serialize_bytes,
            "spans": len(self.span_start),
        }

    def write(self, path) -> None:
        """Spans as a JSON header line followed by the five raw arrays.

        The header gives the span-name table and, per array, its typecode
        and length; the arrays follow in header order, native byte order.
        """
        arrays = {
            "name": self.span_name, "parent": self.span_parent, "op": self.span_op,
            "start": self.span_start, "end": self.span_end,
        }
        header = {
            "names": self.names,
            "arrays": [[key, a.typecode, len(a)] for key, a in arrays.items()],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for a in arrays.values():
                a.tofile(out)
