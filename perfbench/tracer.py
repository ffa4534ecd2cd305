"""Span tracer that wraps the program's public functions from outside.

Nothing here touches ``src/``: :func:`install` replaces functions and
methods on the already-imported ``repro`` modules with thin wrappers that
record one span per call.  Each span's *self time* is its duration minus
the part covered by its child spans on the same thread, so the self times
of one thread's spans add up exactly to the wall time of its root spans.

Per-layer totals live in memory.  A process forked from a traced process
(the sweep executor's and the serve scheduler's pool workers) starts with
empty totals and writes them to ``<out_dir>/trace-<pid>.json`` whenever
its outermost span ends, because pool workers exit without running
``atexit`` handlers.  :func:`collect` sums every process's file.

Span names beginning with ``lane.`` mark the regions whose wall time the
trace must explain; their self time is the unaccounted part.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path


class Tracer:
    """Per-layer span totals for one process (self time, duration, calls)
    plus named counters fed by result hooks."""

    def __init__(self, out_dir: str | Path) -> None:
        self.out_dir = Path(out_dir)
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # Also runs in forked children: a lock held by another thread at
        # fork time would never be released there.
        self._lock = threading.Lock()
        self._local = threading.local()
        #: layer -> [self seconds, total seconds, calls]
        self.spans: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent(self) -> str | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1][0] if stack else None

    def enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def exit(self, frame: list) -> None:
        duration = time.perf_counter() - frame[1]
        stack = self._stack()
        stack.pop()
        with self._lock:
            entry = self.spans.setdefault(frame[0], [0.0, 0.0, 0])
            entry[0] += duration - frame[2]
            entry[1] += duration
            entry[2] += 1
        if stack:
            stack[-1][2] += duration
        elif os.getpid() != _OWNER_PID:
            self.flush()

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def snapshot(self) -> dict:
        with self._lock:
            return {"spans": {k: list(v) for k, v in self.spans.items()},
                    "counters": dict(self.counters),
                    "maxima": dict(self.maxima)}

    def flush(self) -> None:
        """Atomically write this process's totals to its trace file."""
        path = self.out_dir / f"trace-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)

    def lane(self, name: str):
        """A context manager marking a driving region (``lane.<name>``)."""
        return _Span(self, f"lane.{name}")


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.exit(self.frame)


_OWNER_PID = os.getpid()


def collect(out_dir: str | Path, own: dict | None = None) -> dict:
    """Sum every per-process trace file in *out_dir* (plus *own*)."""
    parts = [json.loads(p.read_text())
             for p in sorted(Path(out_dir).glob("trace-*.json"))]
    if own is not None:
        parts.append(own)
    return merge(parts)


def merge(parts: list[dict]) -> dict:
    """Sum snapshots: span totals and counters add, maxima take the max."""
    total = {"spans": {}, "counters": {}, "maxima": {}}
    for part in parts:
        for name, (self_s, dur, calls) in part["spans"].items():
            entry = total["spans"].setdefault(name, [0.0, 0.0, 0])
            entry[0] += self_s
            entry[1] += dur
            entry[2] += calls
        for name, value in part["counters"].items():
            total["counters"][name] = total["counters"].get(name, 0) + value
        for name, value in part["maxima"].items():
            total["maxima"][name] = max(total["maxima"].get(name, value),
                                        value)
    return total


# -- wrapping -------------------------------------------------------------------

def _wrap(tracer: Tracer, fn, layer: str, hook=None, skip_under=()):
    """A wrapper recording one *layer* span per call of *fn*.

    ``hook(tracer, result, args, parent)`` runs after the call with the
    name of the enclosing span; calls made directly inside a span named
    in *skip_under* are not recorded (their time stays with that span).
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = tracer.parent()
        if parent in skip_under:
            return fn(*args, **kwargs)
        frame = tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if hook is not None:
            hook(tracer, result, args, parent)
        return result

    return wrapper


def _rebind(original, wrapper) -> None:
    """Point every ``repro`` module global bound to *original* at
    *wrapper* (``from x import f`` copies must be patched too)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer, targets) -> None:
    """Wrap every target: ``(module, "func" | "Class.method", layer,
    hook, skip_under)``.  A target that no longer exists raises, so a
    renamed program function cannot silently drop out of the trace."""
    for module_name, qualname, layer, hook, skip_under in targets:
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, _wrap(tracer, cls.__dict__[meth], layer,
                                     hook, skip_under))
        else:
            original = getattr(module, qualname)
            _rebind(original, _wrap(tracer, original, layer, hook,
                                    skip_under))


def wrap_mapping(tracer: Tracer, mapping: dict, layer: str) -> None:
    """Wrap the callables stored as values of *mapping* in place."""
    for key, fn in list(mapping.items()):
        mapping[key] = _wrap(tracer, fn, layer)
