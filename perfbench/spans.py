"""Span tracing from outside the program.

:class:`Tracer` wraps every public function of the ``mobility_esda``
modules, wherever the package holds a reference to it: the defining
module's attribute, a name another module imported directly (``cli``
imports ``circulation_indicator``, ``load_geojson``, ...), and function
tables such as ``cli.COMMANDS``. Each call records a span (name, start,
end, parent span id, run id) in memory; :meth:`Tracer.uninstall` puts
every original back. Nothing under ``src/`` changes.

A span's self time is its duration minus the part of its interval that
its child spans cover, so the self times of one run add up to the root
span's duration.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, NamedTuple

PACKAGE = "mobility_esda"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root
    run: int


def _result_bytes(result) -> int:
    if isinstance(result, (tuple, list)):
        return sum(_result_bytes(r) for r in result)
    if isinstance(result, str):
        return len(result.encode("utf-8"))
    if isinstance(result, bytes):
        return len(result)
    return 0


def _written_bytes(args, kwargs, result) -> int:
    data = kwargs["data"] if "data" in kwargs else args[1]
    return _result_bytes(data)


RENDERERS = (
    "render.render_lisa_maps",
    "render.render_choropleth",
    "render.render_moran_scatter",
    "render.render_radar",
    "render.render_series",
    "render.lisa_to_csv",
    "render.join_geojson",
)

# byte counts recorded at the layer boundary: the text each renderer
# returns, and the data handed to the atomic file writer
COUNTERS: dict[str, Callable] = {name: lambda a, k, r: _result_bytes(r) for name in RENDERERS}
COUNTERS["cli.atomic_write"] = _written_bytes


def package_modules() -> dict[str, object]:
    """Imported ``mobility_esda`` modules by short name (the package itself is ``""``)."""
    prefix = PACKAGE + "."
    return {
        name[len(prefix):] if name != PACKAGE else "": mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(prefix))
    }


def public_functions(modules: dict[str, object]) -> dict[Callable, str]:
    """Every public function defined in the package, mapped to ``module.function``."""
    found = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                found[obj] = f"{short}.{attr}"
    return found


class Tracer:
    """Records spans around calls into the package's public functions."""

    def __init__(self, run: int = 0):
        self.spans: list[Span | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.run = run
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = Span(name, start, end, parent, self.run)
            if counter is not None:
                counts[name] += counter(args, kwargs, result)
            return result

        traced.__traced__ = fn
        return traced

    def install(self) -> int:
        """Wrap every reference the package holds to its public functions.

        Returns the number of references replaced.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        names = public_functions(modules)
        wrappers = {fn: self.wrap(name, fn) for fn, name in names.items()}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            obj[key] = wrappers[value]
                            self._patched.append((obj, key, value))
        return len(self._patched)

    def uninstall(self) -> None:
        """Put every original function back where :meth:`install` found it."""
        while self._patched:
            target, key, original = self._patched.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    def finished_spans(self) -> list[Span]:
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        return list(self.spans)


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list[int]] = defaultdict(list)
    for sid, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(sid)
    out = []
    for sid, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for cid in sorted(children.get(sid, ()), key=lambda c: spans[c].start):
            lo = max(spans[cid].start, cursor)
            hi = min(spans[cid].end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: total self time and call count."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
    for span, own in zip(spans, self_times(spans)):
        totals[span.name]["self_s"] += own
        totals[span.name]["calls"] += 1
    return dict(totals)
