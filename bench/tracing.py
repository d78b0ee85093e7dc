"""In-memory spans around llycurv's public layer calls, and their arithmetic.

The tracer records spans from the benchmark's side only: it swaps the named
public functions in every loaded llycurv module for wrappers while a replay
runs, and restores them afterwards.  Spans stay in memory and are written
out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

# One span: [name, start, end, parent index (-1 for a root), command id, tag].
# The tag is what a tag function read off the call's result (a count or an
# outcome name), or None.
Span = list


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.command = ""
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, tag: Callable[[Any], Any] | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if tag is not None:
                record[5] = tag(result)
            return result

        return traced

    @contextmanager
    def patched(self, targets: Iterable[tuple[str, str, Callable | None]]) -> Iterator[None]:
        """Trace each (module, function, tag) of llycurv wherever it is bound.

        `from .x import f` copies f into the importing module, so every
        llycurv module attribute that is the original function gets the
        wrapper; all are restored on exit.
        """
        saved: list[tuple[object, str, Callable]] = []
        try:
            for module_name, attr, tag in targets:
                original = getattr(importlib.import_module(f"llycurv.{module_name}"), attr)
                wrapper = self.wrap(f"{module_name}.{attr}", original, tag)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "llycurv" and not mod_name.startswith("llycurv."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield
        finally:
            for mod, key, original in reversed(saved):
                setattr(mod, key, original)

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, command, tag in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent, command, tag]) + "\n")


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            children[parent].append((max(start, p_start), min(end, p_end)))
    return [
        (end - start) - union_length(children[i])
        for i, (name, start, end, *_) in enumerate(spans)
    ]


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    counted: int = 0
    outcomes: Counter = field(default_factory=Counter)


def aggregate(spans: list[Span]) -> dict[str, LayerStats]:
    """Per span name: calls, self seconds, and the summed or tallied tags."""
    stats: dict[str, LayerStats] = {}
    for (name, *_, tag), own in zip(spans, self_times(spans)):
        entry = stats.setdefault(name, LayerStats())
        entry.calls += 1
        entry.self_s += own
        if isinstance(tag, (bool, str)):
            entry.outcomes[tag] += 1
        elif isinstance(tag, int):
            entry.counted += tag
    return stats


def nearest_rank(values: list[float], pct: float) -> float:
    """The pct-th percentile by the nearest-rank rule: a value that was observed.

    With n samples, p90 is the ceil(0.9 n)-th smallest, so n >= 100 leaves
    at least ten samples above it.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]
