"""Outside-in span tracer for decolab's layers.

The tracer wraps each layer's public functions, and the `__post_init__` of
the classes listed in CONSTRUCTORS, from outside the package: it rebinds
every module attribute of every loaded `decolab` module that holds one of
those functions, so re-exports (`decolab.scenarios.bell_evaluate`) and names
imported with `from ... import` (`decolab.cli.sample_collapse`) are traced
too.  Nothing under `src/` is edited; `restore()` puts every original back.

Spans are kept in memory as [name, layer, parent index, start, end, bytes]
and are reduced to per-name and per-layer totals by `summarize()`.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from importlib import import_module

# Layer name -> module.  Layer names are the metric prefixes.
LAYERS = {
    "hilbert": "decolab.hilbert",
    "wavepacket": "decolab.wavepacket",
    "collapse": "decolab.collapse",
    "supersystem": "decolab.supersystem",
    "scenarios.sterngerlach": "decolab.scenarios.sterngerlach",
    "scenarios.bell": "decolab.scenarios.bell",
    "cli": "decolab.cli",
}

# Constructors traced through their dataclass `__post_init__`: layer -> classes.
CONSTRUCTORS = {
    "hilbert": ("OperatorMatrix", "StateVector"),
    "supersystem": ("CorrelatedState",),
}


def _emit_bytes(args, result) -> int:
    return sum(path.stat().st_size for path in result)


def _jsonl_bytes(args, result) -> int:
    return len(result.encode("utf-8"))


def _operator_bytes(args, result) -> int:
    return args[0].entries.nbytes


# Span name -> computed byte count of the call (array or file sizes).
BYTE_COUNTERS = {
    "cli.emit": _emit_bytes,
    "collapse.outcomes_to_jsonl": _jsonl_bytes,
    "hilbert.OperatorMatrix": _operator_bytes,
}

NAME, LAYER, PARENT, START, END, BYTES = range(6)


def public_functions(module) -> dict:
    """Public functions defined in `module` itself (not imported into it)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    """Patch decolab's layer boundaries with span-recording wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (owner, attribute, original)

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count_bytes = BYTE_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count_bytes is not None:
                span[BYTES] = count_bytes(args, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer, module_name in LAYERS.items():
            module = import_module(module_name)
            for name, fn in public_functions(module).items():
                wrappers[fn] = self._wrap(fn, f"{layer}.{name}", layer)
            for class_name in CONSTRUCTORS.get(layer, ()):
                cls = getattr(module, class_name)
                original = cls.__dict__["__post_init__"]
                self._patched.append((cls, "__post_init__", original))
                setattr(cls, "__post_init__", self._wrap(original, f"{layer}.{class_name}", layer))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "decolab" or module_name.startswith("decolab.")):
                continue
            for attribute, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attribute, value))
                    setattr(module, attribute, wrappers[value])

    def restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def patched_names(self) -> list[tuple]:
        """(owner, attribute, original) for every rebinding currently in place."""
        return list(self._patched)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def summarize(spans: list[list]) -> dict:
    """Reduce spans to totals keyed by span name and by layer.

    Returns {"names": {name: {calls, s, self_s, bytes}},
             "layers": {layer: {calls, self_s}}, "root_s": float}.
    `s` is inclusive time, counted once for nested calls of the same name.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    names: dict = {}
    layers: dict = {}
    root_s = 0.0
    for i, span in enumerate(spans):
        duration = span[END] - span[START]
        self_s = duration - child_time[i]
        entry = names.setdefault(span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["bytes"] += span[BYTES]
        if not _inside_same_name(spans, i):
            entry["s"] += duration
        layer = layers.setdefault(span[LAYER], {"calls": 0, "self_s": 0.0})
        layer["calls"] += 1
        layer["self_s"] += self_s
        if span[PARENT] < 0:
            root_s += duration
    return {"names": names, "layers": layers, "root_s": root_s}


def _inside_same_name(spans: list[list], index: int) -> bool:
    name = spans[index][NAME]
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
