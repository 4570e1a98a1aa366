"""In-memory span recorder that wraps package functions from the outside.

A span is one call of a wrapped function: its name, start and end on
``time.perf_counter``, the index of the span that was open when it started
(its parent) and an optional summary of the return value.  Spans stay in
memory until :meth:`Tracer.take` hands them over.

Modules of the package import functions by name (``bnorbit.orbit_points``
is the very object ``curve.orbit_points``), so :meth:`Tracer.install`
replaces every binding of a target function object in every module of the
package, and wraps methods on their class.  :meth:`Tracer.uninstall`
restores every binding, so untraced runs execute the package unpatched.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Mapping

Summarizer = Callable[[object], object]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 for a root span
    info: object = None  # summary of the return value, if one was asked for

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans of the functions it wraps; one tracer per run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable,
             summarize: Summarizer | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if summarize is not None:
                span.info = summarize(result)
            return result

        return traced

    def install(self, targets: Mapping[str, Summarizer | None],
                package: str = "orbitopes") -> None:
        """Wrap each target, named ``module.function`` or
        ``module.Class.method`` relative to ``package``."""
        for qualname, summarize in targets.items():
            parts = qualname.split(".")
            module = importlib.import_module(f"{package}.{parts[0]}")
            if len(parts) == 3:
                self._wrap_method(qualname, getattr(module, parts[1]), parts[2],
                                  summarize)
            elif len(parts) == 2:
                self._wrap_function(qualname, getattr(module, parts[1]),
                                    package, summarize)
            else:
                raise ValueError(f"bad target name {qualname!r}")

    def _wrap_function(self, qualname: str, original: Callable, package: str,
                       summarize: Summarizer | None) -> None:
        wrapped = self.wrap(qualname, original, summarize)
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def _wrap_method(self, qualname: str, cls: type, attr: str,
                     summarize: Summarizer | None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(qualname, raw.__func__, summarize))
        else:
            wrapped = self.wrap(qualname, raw, summarize)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start an empty record."""
        taken = list(self.spans)
        self.spans.clear()
        self._stack.clear()
        return taken


def layer_stats(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s``.

    ``self_s`` is each span's duration minus the time its direct children
    cover (children of one span never overlap: calls are sequential).
    ``total_s`` sums only spans with no ancestor of the same name, so a
    recursive call is not counted twice.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    stats: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = stats.setdefault(span.name,
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += span.duration - covered[index]
        if not _has_ancestor_named(spans, span):
            entry["total_s"] += span.duration
    return stats


def _has_ancestor_named(spans: list[Span], span: Span) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == span.name:
            return True
        parent = spans[parent].parent
    return False
