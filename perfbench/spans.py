"""Wall-clock spans recorded around calls into the program's layers.

:class:`SpanRecorder` replaces a function attribute (a class method, a
classmethod or a module-level name) with a wrapper that opens a span
around each call, and puts the original back on :meth:`uninstall`.
The patch goes on the attribute each caller looks up: a method on its
class, a module-level function in the namespace of the module that
imported it.  Spans are kept in memory; nothing is written while the
program runs.

The program's own ``repro.observability.Tracer`` runs on the virtual
clock, so host time has to be taken here, outside the program.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


@dataclass
class Span:
    """One wrapped call: name, host-clock interval and its context."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1             # index of the enclosing span, -1 = root
    group: int | None = None     # dispatch group (by its request ids)
    requests: tuple[int, ...] = ()
    error: bool = False          # the call raised
    note: object = None          # per-target summary of the return value

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans for every patched target while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._groups: dict[tuple[int, ...], int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _group_id(self, requests: tuple[int, ...]) -> int:
        return self._groups.setdefault(requests, len(self._groups))

    def wrap(self, fn: Callable, name: str, *,
             requests_of: Callable | None = None,
             note: Callable | None = None) -> Callable:
        """``fn`` with a span around every call.

        ``requests_of(*args, **kwargs)`` names the request ids the call
        serves; spans without it inherit their parent's group.
        ``note(result)`` keeps a summary of the return value.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = recorder._stack[-1] if recorder._stack else -1
            if requests_of is not None:
                requests = tuple(requests_of(*args, **kwargs))
                group = recorder._group_id(requests)
            elif parent >= 0:
                requests = recorder.spans[parent].requests
                group = recorder.spans[parent].group
            else:
                requests, group = (), None
            span = Span(name, time.perf_counter(), parent=parent,
                        group=group, requests=requests)
            recorder._stack.append(len(recorder.spans))
            recorder.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                recorder._stack.pop()
            if note is not None:
                span.note = note(result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Wrap ``owner.attr`` in place (``owner`` a class or module)."""
        try:
            raw = vars(owner)[attr]
        except KeyError:
            raise AttributeError(
                f"{owner!r} does not define {attr!r} itself") from None
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(raw.__func__, name, **options))
        else:
            wrapped = self.wrap(raw, name, **options)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original attribute back, last patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self, targets: Iterable[tuple]):
        """Patch ``(owner, attr, name, options)`` targets for the block."""
        try:
            for owner, attr, name, options in targets:
                self.patch(owner, attr, name, **options)
            yield self
        finally:
            self.uninstall()

    def write_jsonl(self, path) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "group": s.group,
                    "requests": list(s.requests), "error": s.error},
                    separators=(",", ":")) + "\n")


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
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


def children_of(spans: Sequence[Span]) -> list[list[int]]:
    """Direct child indices of every span."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    return children


def covered(spans: Sequence[Span], i: int,
            children: list[list[int]]) -> float:
    """Seconds of span ``i`` that its direct children cover."""
    parent = spans[i]
    return union_length(
        (max(spans[c].start, parent.start), min(spans[c].end, parent.end))
        for c in children[i] if spans[c].end > parent.start
        and spans[c].start < parent.end)


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = children_of(spans)
    return [s.duration - covered(spans, i, children)
            for i, s in enumerate(spans)]


#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def tail_percentile(values: Sequence[float]) -> tuple[float, float]:
    """``(pct, value)``: the highest ladder percentile with at least
    ``TAIL_MIN_BEYOND`` samples beyond it (nearest rank).

    With too few samples for any of them (under 20), no percentile is
    supported; the maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    for pct in TAIL_LADDER:
        # Nearest rank, in integer per-mille so 99.9% of 10000 is 9990.
        rank = -(-round(pct * 10) * n // 1000)
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, ordered[rank - 1]
    return 100.0, ordered[-1]


def timing_summary(prefix: str, values: Sequence[float]) -> dict:
    """``prefix.p50``, ``.tail``, ``.tail_pct`` and ``.n`` of samples."""
    if not values:
        return {f"{prefix}.p50": 0.0, f"{prefix}.tail": 0.0,
                f"{prefix}.tail_pct": 0.0, f"{prefix}.n": 0}
    pct, value = tail_percentile(values)
    return {f"{prefix}.p50": statistics.median(values),
            f"{prefix}.tail": value, f"{prefix}.tail_pct": pct,
            f"{prefix}.n": len(values)}
