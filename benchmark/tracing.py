"""Spans around the calls into ghzforge's layers, recorded from outside.

The benchmark wraps module-level functions of the package at run time; the
package itself carries no instrumentation.  Each boundary is found by name
when tracing is installed, so a boundary that a refactor removes is listed
in `Tracer.missing` instead of raising.  Every module attribute and builder
table entry that refers to the wrapped function is swapped, so callers that
imported the name directly (`from .dynamics import sweep_drive_strength`)
are traced too.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "ghzforge"
# (layer, module, attribute).  A dict attribute is a builder table: each of
# its values is wrapped.
BOUNDARIES = (
    ("scenario.load", "ghzforge.cli", "load_scenario"),
    ("model.build", "ghzforge.dynamics", "_SINGLE_BUILDERS"),
    ("model.build", "ghzforge.dynamics", "_COUPLED_BUILDERS"),
    ("dynamics.evolve", "ghzforge.dynamics", "evolve_sampled"),
    ("dynamics.observe", "ghzforge.dynamics", "_observe"),
    ("dynamics.sweep", "ghzforge.dynamics", "sweep_drive_strength"),
    ("dynamics.sweep_point", "ghzforge.dynamics", "_sweep_point"),
    ("cli.write", "ghzforge.cli", "_write_trajectory_csv"),
)


class Tracer:
    """Records spans (layer, start, end, parent index) in memory.

    `calls` keeps the positional arguments of each call per layer, for
    counts that are worked out after the request (steps, nnz, samples) so
    that they cost nothing inside the timed region.
    """

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = boundaries
        self.spans: list[list] = []
        self.calls: dict[str, list] = defaultdict(list)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = [layer, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                self.calls[layer].append(args)

        return traced

    def _swap(self, holder, key, new):
        """Replace holder[key] (a dict) or holder.key (a module), undoably."""
        if isinstance(holder, dict):
            self._undo.append((holder, key, holder[key]))
            holder[key] = new
        else:
            self._undo.append((holder, key, getattr(holder, key)))
            setattr(holder, key, new)

    def _replace_everywhere(self, original, wrapped):
        for name, module in list(sys.modules.items()):
            if module is None or name.split(".")[0] != PACKAGE:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._swap(module, attr, wrapped)

    def install(self) -> None:
        self.missing = []
        for layer, module_name, attr in self.boundaries:
            where = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(where)
                continue
            target = getattr(module, attr, None)
            if isinstance(target, dict):
                for key, fn in list(target.items()):
                    wrapped = self._wrap(layer, fn)
                    self._swap(target, key, wrapped)
                    self._replace_everywhere(fn, wrapped)
            elif callable(target):
                self._replace_everywhere(target, self._wrap(layer, target))
            else:
                self.missing.append(where)

    def uninstall(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)

    def take(self):
        """Return and clear the spans and call records gathered so far."""
        spans, calls = self.spans, self.calls
        self.spans, self.calls = [], defaultdict(list)
        return spans, calls


def self_times(spans) -> tuple[dict[str, float], float]:
    """Per-layer self time (s) and the time covered by top-level spans.

    A span's self time is its duration minus the durations of the spans
    directly inside it.
    """
    child_time = defaultdict(float)
    for _layer, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    per_layer = defaultdict(float)
    top = 0.0
    for index, (layer, start, end, parent) in enumerate(spans):
        per_layer[layer] += (end - start) - child_time[index]
        if parent is None:
            top += end - start
    return dict(per_layer), top


def durations(spans, layer) -> list[float]:
    return [end - start for name, start, end, _parent in spans if name == layer]
