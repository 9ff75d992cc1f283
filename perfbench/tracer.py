"""Spans around calls into linkhom's layers, installed from outside the library.

A Tracer wraps named functions and methods.  Each call records a span
(name, start, end, parent) in memory; hooks read counts off the arguments
and results after the span has closed.  Module-level functions are rebound
in every module of the package that imported them by name, so a call through
``from .diagrams import canonicalize`` is traced like one through the module.
A target that no longer exists is listed in ``missing``, and a hook that
cannot read a changed result is listed in ``hook_errors``; neither raises.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

#: span name of the time spent in hooks, which is tracing overhead
HOOK = "trace.hook"


class Tracer:
    def __init__(self, package: str = "linkhom"):
        self.package = package
        self.spans = []         # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}
        self.missing = []
        self.hook_errors = []
        self.keep = {}          # id -> object, so ids stay unique while tracing
        self._undo = []

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span and return its result."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[idx] = [name, start, end, parent]

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                try:
                    # a span of its own keeps the counting out of the caller's self time
                    self.call(HOOK, hook, self, args, result)
                except Exception as exc:    # a changed return type must not fail the call
                    self.hook_errors.append(f"{name}: {exc!r}")
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap each (module, attribute path, span name, hook) target."""
        for module_name, path, name, hook in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}:{path}")
                continue
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{module_name}:{path}")
                continue
            wrapped = self._wrap(name, original, hook)
            if owner_path:
                self._rebind(owner, attr, wrapped)
                continue
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != self.package and not mod_name.startswith(self.package + "."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapped)

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            if old is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo.clear()


def self_times(spans) -> dict:
    """Per span name: [calls, inclusive seconds, self seconds].

    Self time is a span's duration minus the durations of its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
    return out
