"""In-memory span tracer that wraps the program's layer functions from outside.

A span records name, start, end, parent span and op id, plus counts taken at
the same boundary.  The tracer installs wrappers at the names the callers
look up (a module global such as ``dominofill.tower.validate_word`` or a class
attribute such as ``Tiling.concat``) and restores the originals on
``uninstall``; the package source is never edited.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            **self.counts,
        }


class Tracer:
    """Collects spans of one process; ``op`` tags every span begun after it is set."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[Span] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), 0.0, parent, self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def parent_name(self, span: Span) -> str | None:
        return None if span.parent is None else self.spans[span.parent].name

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[[tuple], str],
        count: Callable[["Tracer", Span, tuple, Any], dict] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a function that records a span per call.

        ``name`` is a span name or a function of the call's positional
        arguments; ``count`` maps (tracer, span, args, result) to counts.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.begin(name if isinstance(name, str) else name(args))
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
            if count is not None:
                span.counts.update(count(self, span, args, result))
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self, hooks) -> None:
        """Wrap every ``(module, attr path, name, count)`` hook."""
        for module_name, path, name, count in hooks:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            self.wrap(owner, attr, name, count)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, []), key=lambda c: c.start):
            lo = max(child.start, reach, span.start)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and summed counts."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for span, own in zip(spans, selfs):
        row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own
        for key, value in span.counts.items():
            row[key] = row.get(key, 0) + value
    return out
