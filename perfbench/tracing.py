"""Outside-in span tracing of the automizer library.

The benchmark does not touch the library's source.  It replaces public names
with timing wrappers, at the place where the caller looks each name up:
``realize`` imports ``verify_stability``, ``decompose``, ``generate`` and the
rest with ``from ... import``, so patching ``automizer.biset`` alone would
record nothing.  A span is recorded only while a root span opened by the
benchmark is active, so checks the benchmark makes after an operation stay
out of the figures."""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

# Module-level functions: (module whose namespace the caller reads, name, span).
FUNCTION_PATCH_POINTS = (
    ("automizer.realize", "build_S", "grouprep.build_S"),
    ("automizer.realize", "enumerate_subgroups", "grouprep.enumerate_subgroups"),
    ("automizer.realize", "automorphisms_of", "grouprep.automorphisms_of"),
    ("automizer.realize", "generate", "fusion.generate"),
    ("automizer.realize", "build_semicharacteristic", "biset.build_semicharacteristic"),
    ("automizer.realize", "verify_generated", "biset.verify_generated"),
    ("automizer.realize", "verify_stability", "biset.verify_stability"),
    ("automizer.realize", "check_orbit_predictions", "biset.check_orbit_predictions"),
    ("automizer.realize", "decompose", "park.decompose"),
    ("automizer.realize", "verify_embedding", "park.verify_embedding"),
    ("automizer.realize", "build_fusion_for", "realize.build_fusion_for"),
    ("automizer.realize", "verify_thm31", "realize.verify_thm31"),
    ("automizer.realize", "verify_main", "realize.verify_main"),
    ("automizer.realize", "run_pipeline", "realize.run_pipeline"),
    ("automizer.realize", "verify_certificate", "realize.verify_certificate"),
    ("automizer.cli", "run_pipeline", "realize.run_pipeline"),
    ("automizer.cli", "verify_certificate", "realize.verify_certificate"),
    ("automizer.cli", "main", "cli.main"),
)

# Methods: (module, class, attribute, span).
METHOD_PATCH_POINTS = (
    ("automizer.park", "ParkEmbedding", "witness", "park.witness"),
    ("automizer.park", "ParkEmbedding", "check_witness", "park.check_witness"),
    ("automizer.realize", "Certificate", "to_json_bytes", "realize.to_json_bytes"),
    ("automizer.realize", "Certificate", "from_json_bytes", "realize.from_json_bytes"),
)


def _len(value) -> int:
    return len(value) if value is not None else 0


def _stored_morphisms(system) -> int:
    return sum(len(bucket) for bucket in getattr(system, "store", {}).values())


def _report(result) -> dict:
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], dict):
        return result[1]
    return {}


def _closure_rounds(result) -> int:
    return int(_report(result).get("top_closure", {}).get("rounds", 0))


def _stability_counts(args, result) -> dict:
    X = args[1] if len(args) > 1 else None
    return {
        "biset.checked_classes": int(_report(result).get("checked_classes", 0)),
        "biset.orbits": _len(getattr(X, "orbits", None)),
        "biset.slots": int(getattr(X, "n", 0)),
    }


# Size counters read off a wrapped call: span name -> (args, result) -> {counter: amount}.
COUNTERS: dict[str, Callable[[tuple, object], dict]] = {
    "grouprep.enumerate_subgroups": lambda args, r: {"grouprep.subgroups": _len(r)},
    "fusion.generate": lambda args, r: {
        "fusion.generators": _len(getattr(r, "generators", None)),
        "fusion.stored_morphisms": _stored_morphisms(r),
    },
    "biset.verify_stability": _stability_counts,
    "realize.verify_main": lambda args, r: {"realize.top_closure_rounds": _closure_rounds(r)},
}

COUNTER_NAMES = (
    "grouprep.subgroups",
    "fusion.generators",
    "fusion.stored_morphisms",
    "biset.checked_classes",
    "biset.orbits",
    "biset.slots",
    "realize.top_closure_rounds",
)

ROOT_SPAN = "harness.op"

# Every span name a traced run reports, the root first.
SPAN_NAMES = (ROOT_SPAN,) + tuple(
    dict.fromkeys(point[-1] for point in FUNCTION_PATCH_POINTS + METHOD_PATCH_POINTS)
)


class Tracer:
    """Spans kept in memory: [name, start, end, parent index] per span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self):
        """One benchmark operation; library spans nest under it."""
        span = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, fn, name: str):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                for key, amount in count(args, result).items():
                    self.counters[key] += amount
            return result

        return traced

    # -- results ----------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its children cover.  Calls run on one
        thread, so children of one span never overlap."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_table(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            row = table[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += own
        return dict(table)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                record = {
                    "run": self.run_id,
                    "span": i,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                }
                fh.write(json.dumps(record) + "\n")


def install(tracer: Tracer) -> tuple[Callable[[], None], list[str]]:
    """Wrap every patch point.  Returns an undo function and the names of
    patch points that this version of the library does not have."""
    wrappers: dict[int, Callable] = {}
    undo: list[tuple[object, str, object]] = []
    missing: list[str] = []

    def wrapped(fn, name):
        if id(fn) not in wrappers:
            wrappers[id(fn)] = tracer.wrap(fn, name)
        return wrappers[id(fn)]

    for module_name, attr, name in FUNCTION_PATCH_POINTS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append("%s.%s" % (module_name, attr))
            continue
        undo.append((module, attr, fn))
        setattr(module, attr, wrapped(fn, name))

    for module_name, cls_name, attr, name in METHOD_PATCH_POINTS:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        original: Optional[object] = cls.__dict__.get(attr) if cls is not None else None
        if original is None:
            missing.append("%s.%s.%s" % (module_name, cls_name, attr))
            continue
        undo.append((cls, attr, original))
        if isinstance(original, classmethod):
            setattr(cls, attr, classmethod(wrapped(original.__func__, name)))
        else:
            setattr(cls, attr, wrapped(original, name))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore, missing


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured on a no-op."""

    def noop():
        return None

    tracer = Tracer("calibration")
    traced = tracer.wrap(noop, "calibration")
    with tracer.root():
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        t1 = time.perf_counter()
    t2 = time.perf_counter()
    for _ in range(calls):
        noop()
    t3 = time.perf_counter()
    return max(0.0, ((t1 - t0) - (t3 - t2)) / calls)
