"""Structured event log: the system-wide telemetry timeline.

Production serving stacks treat their behavior as a first-class,
*observable* subsystem: fault injections, detections, replans, retries,
load-shed decisions — and, since the observability layer landed,
per-request span summaries — are all recorded as structured events so
that operators (and tests) can reconstruct exactly what the system did.
:class:`EventLog` is the minimal queryable form of that: an append-only
list of :class:`Event` records, each a ``kind`` plus arbitrary
structured data.

The events of journaled cluster transitions (admissions, completions,
hedges, replica and pool changes, the ``kv_handoff*`` family, ...) are
*projections*: only :class:`repro.cluster.journal.Journal` records them,
as it appends the matching record (``EVENT_PROJECTIONS`` there).

The log is deliberately dependency-free (it sits below the mesh, serving
and observability layers) so that fault injection in
:mod:`repro.mesh.faults`, the request lifecycle in
:mod:`repro.serving.resilient`, and the span tracer in
:mod:`repro.observability.spans` (which emits ``request_span`` events)
can share one timeline.

    >>> log = EventLog()
    >>> _ = log.record("fault_detected", chip=(0, 1, 0))
    >>> _ = log.record("replanned", plan="degraded-2x1x2")
    >>> log.kinds()
    ['fault_detected', 'replanned']
    >>> log.of_kind("replanned")[0]["plan"]
    'degraded-2x1x2'
    >>> log.query(where=lambda e: e.get("chip") == (0, 1, 0))[0].kind
    'fault_detected'
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Canonical event kinds emitted by the fault-tolerance stack.  The log
#: accepts any string kind; these constants keep emitters and tests in sync.
FAULT_INJECTED = "fault_injected"
FAULT_DETECTED = "fault_detected"
REPLANNED = "replanned"
REQUEST_RETRIED = "request_retried"
REQUEST_SHED = "request_shed"
REQUEST_COMPLETED = "request_completed"
REQUEST_FAILED = "request_failed"

#: Cluster control-plane event kinds (see :mod:`repro.cluster`).
REPLICA_HEALTH = "replica_health"
BREAKER_TRANSITION = "breaker_transition"
ADMISSION_REJECTED = "admission_rejected"
REQUEST_ADMITTED = "request_admitted"
FAILOVER = "failover"
HEDGE = "hedge"

#: Autoscaler / brownout event kinds (see :mod:`repro.cluster.autoscaler`).
AUTOSCALE_DECISION = "autoscale_decision"
REPLICA_ADDED = "replica_added"
REPLICA_REMOVED = "replica_removed"
PLAN_SWITCHED = "plan_switched"
BROWNOUT_STEP = "brownout_step"
BROWNOUT_RECOVERED = "brownout_recovered"
ADMISSION_LIMITS_CHANGED = "admission_limits_changed"

#: Disaggregated prefill/decode serving (see :mod:`repro.cluster.disagg`).
#: ``KV_HANDOFF`` carries the bytes moved and the virtual-clock transfer
#: cost priced by the Appendix A.1 link model; the pool events bracket
#: the brownout ladder's collapse-to-colocated rung.
KV_HANDOFF = "kv_handoff"
POOLS_COLLAPSED = "pools_collapsed"
POOLS_RESTORED = "pools_restored"

#: Crash-recovery control plane (see :mod:`repro.cluster.journal` and
#: :mod:`repro.cluster.audit`).  All but ``JOURNAL_TRUNCATED`` — a
#: bounded journal saying *loudly* that it dropped records — are views
#: of journal records: handoff prepare/retry/commit/abort/dedup, replica
#: restart/rejoin, control-plane recovery, pool quarantine/rejoin.
JOURNAL_TRUNCATED = "journal_truncated"
KV_HANDOFF_PREPARED = "kv_handoff_prepared"
KV_HANDOFF_RETRIED = "kv_handoff_retried"
KV_HANDOFF_ABORTED = "kv_handoff_aborted"
KV_HANDOFF_DEDUPED = "kv_handoff_deduped"
REPLICA_RESTARTED = "replica_restarted"
REPLICA_REJOINED = "replica_rejoined"
CONTROL_PLANE_RECOVERED = "control_plane_recovered"
POOL_QUARANTINED = "pool_quarantined"
POOL_REJOINED = "pool_rejoined"


@dataclass(frozen=True)
class Event:
    """One structured event: a kind, a sequence number, and a data dict."""

    kind: str
    seq: int
    data: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)


class EventLog:
    """Append-only, queryable log of :class:`Event` records.

    ``max_events`` (optional) bounds the log to a ring buffer: once full,
    recording a new event silently drops the *oldest* one and increments
    :attr:`dropped`.  Sequence numbers keep counting over the whole
    lifetime, so a bounded log's events still carry their true emission
    index.  The default stays unbounded — long chaos runs opt in.
    """

    def __init__(self, max_events: int | None = None) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_events = max_events
        self.events: list[Event] = []
        self.dropped = 0
        self._seq = 0

    def record(self, kind: str, **data: Any) -> Event:
        event = Event(kind=kind, seq=self._seq, data=data)
        self._seq += 1
        self.events.append(event)
        if self.max_events is not None and len(self.events) > self.max_events:
            del self.events[0]
            self.dropped += 1
        return event

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def of_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.kind == kind]

    def query(self, kind: str | None = None,
              where: Callable[[Event], bool] | None = None) -> list[Event]:
        """Filter events by kind and/or an arbitrary predicate."""
        out = self.events if kind is None else self.of_kind(kind)
        if where is not None:
            out = [e for e in out if where(e)]
        return list(out)

    def kinds(self) -> list[str]:
        """Event kinds in emission order (with repeats) — the timeline."""
        return [e.kind for e in self.events]

    def assert_sequence(self, *kinds: str) -> None:
        """Assert the given kinds appear in order (not necessarily
        adjacent) — the detect -> replan -> retry style assertion used by
        the fault-tolerance tests."""
        timeline = self.kinds()
        pos = 0
        for kind in kinds:
            try:
                pos = timeline.index(kind, pos) + 1
            except ValueError:
                raise AssertionError(
                    f"event sequence {kinds} not found in order; log has "
                    f"{timeline}") from None
