"""Write-ahead journal of control-plane transitions, with replay.

The control plane's state — which requests were admitted, which groups
dispatched, which drains are pending, which brownout levers are pulled —
lives only in memory; this module makes it *recoverable*.  Every typed
transition is appended to a :class:`Journal` as a
:class:`JournalRecord` on the virtual clock, and
:func:`replay_journal` folds the records (from a
:class:`ControlPlaneState` snapshot) back into the exact state the live
run reached — bit-identically, asserted by the chaos harness on every
scenario.  A control-plane crash mid-drain or mid-handoff therefore
recovers by replay instead of losing the fleet
(:meth:`~repro.cluster.control_plane.ClusterControlPlane` checks the
reconstruction against its live state and rebuilds its dispatch
bookkeeping from the replayed snapshot).

The journal is also the only emitter of the
:class:`~repro.events.EventLog` entries for journaled transitions: a
journal bound to an event log writes each record's *projection*
(:data:`EVENT_PROJECTIONS`, e.g. ``handoff_commit`` ->
``kv_handoff``, ``group_complete`` -> one ``request_completed`` per
request) into it as the record is appended, so the event view cannot
drift from the records replay and the auditor trust.

Unlike the :class:`~repro.events.EventLog` ring buffer, whose drops are
silently counted, a bounded journal is **loud**: the first dropped
record emits a typed :data:`~repro.events.JOURNAL_TRUNCATED` event,
:func:`replay_journal` raises :class:`JournalTruncated` when the
retained suffix no longer covers the snapshot's watermark, and the
auditor (:mod:`repro.cluster.audit`) refuses to certify a truncated
journal outright.

Record kinds, their replay semantics (:data:`_FOLDERS`) and their event
view (:data:`EVENT_PROJECTIONS`) are defined in one place, so a new
transition cannot be journaled without deciding how it replays and
whether it shows up as an event.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import events as ev
from repro.events import JOURNAL_TRUNCATED, EventLog


def token_crc(tokens) -> int:
    """Order-sensitive fingerprint of one completed token stream.

    ``crc32`` over the raw bytes — cheap enough to journal per request,
    strong enough that the auditor's bit-identity check against the
    fault-free oracle cannot pass by accident.
    """
    return zlib.crc32(np.ascontiguousarray(tokens).tobytes())


class JournalTruncated(RuntimeError):
    """Replay (or audit) needs records the bounded journal dropped."""


class JournalReplayMismatch(RuntimeError):
    """Replaying the journal did not reconstruct the live state."""


@dataclass(frozen=True)
class JournalRecord:
    """One typed control-plane transition on the virtual clock."""

    seq: int
    t_s: float
    kind: str
    data: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)


@dataclass(frozen=True)
class ControlPlaneState:
    """Canonical, comparable snapshot of the control plane's state.

    Everything here is reconstructible by folding journal records from
    a prior snapshot — the definition of "the journal is complete".
    Collections are sorted tuples so two snapshots compare by ``==``
    regardless of the order transitions happened to interleave.
    ``journal_seq`` is the replay watermark: the sequence number of the
    next record this snapshot has *not* absorbed.
    """

    journal_seq: int = 0
    replicas: tuple[str, ...] = ()
    pools: tuple[tuple[str, str], ...] = ()
    retiring: tuple[str, ...] = ()
    removed: tuple[str, ...] = ()
    pending_drains: tuple[tuple[str, float], ...] = ()
    group_counter: int = 0
    admitted: tuple[int, ...] = ()
    rejected: tuple[tuple[int, str], ...] = ()
    #: ``(request_id, token_crc, stream_len, output_capped)`` per finished
    #: request, ``stream_len`` counting prompt + generated tokens — the
    #: auditor checks the crc against the fault-free oracle (capped
    #: streams against the oracle's prefix).
    completed: tuple[tuple[int, int, int, bool], ...] = ()
    failed: tuple[tuple[int, str], ...] = ()
    failovers: int = 0
    hedges: int = 0
    restarts: int = 0
    recoveries: int = 0
    kv_handoffs: int = 0
    handoff_retries: int = 0
    handoff_aborts: int = 0
    handoff_dup_drops: int = 0
    #: Page-lease ledger: every cached-prefix pin (a kvstore PageLease)
    #: and its release, journaled so the auditor can prove exactly-once
    #: page lifecycle — no double free, no lease leaked by failover.
    kv_page_leases: int = 0
    kv_page_releases: int = 0
    kv_pages_leased: int = 0
    kv_pages_released: int = 0
    hedging_enabled: bool = True
    output_caps: tuple[tuple[str, int], ...] = ()
    target_profile: str | None = None
    shed_classes: tuple[str, ...] = ()
    pools_collapsed: bool = False
    quarantined: tuple[str, ...] = ()


class Journal:
    """Append-only write-ahead journal with an optional bound.

    With an ``event_log``, every appended record's projection
    (:func:`project_record`) is recorded there too — the one emit for a
    journaled transition.  ``max_records`` turns it into a ring: once
    full, appending drops the *oldest* record — but loudly (see module
    doc).  ``set_genesis`` stores the snapshot replay starts from; the
    control plane takes it at the top of ``serve()`` so construction-time
    bookkeeping is captured once instead of journaled piecemeal.
    """

    def __init__(self, max_records: int | None = None,
                 event_log: EventLog | None = None):
        if max_records is not None and max_records < 1:
            raise ValueError(
                f"max_records must be >= 1, got {max_records}")
        self.max_records = max_records
        self.events = event_log
        self.genesis: ControlPlaneState | None = None
        self.records: list[JournalRecord] = []
        self.truncated = 0
        self._seq = 0

    @property
    def next_seq(self) -> int:
        return self._seq

    def set_genesis(self, state: ControlPlaneState) -> None:
        """Record the snapshot replay starts from (first call wins)."""
        if self.genesis is None:
            self.genesis = state

    def append(self, kind: str, t_s: float, **data: Any) -> JournalRecord:
        record = JournalRecord(seq=self._seq, t_s=t_s, kind=kind,
                               data=data)
        self._seq += 1
        self.records.append(record)
        if self.events is not None:
            for name, event_data in project_record(record):
                self.events.record(name, **event_data)
        if self.max_records is not None and \
                len(self.records) > self.max_records:
            del self.records[0]
            self.truncated += 1
            if self.truncated == 1 and self.events is not None:
                self.events.record(JOURNAL_TRUNCATED, t_s=t_s,
                                   max_records=self.max_records,
                                   first_dropped_seq=record.seq
                                   - self.max_records)
        return record

    def of_kind(self, kind: str) -> list[JournalRecord]:
        return [r for r in self.records if r.kind == kind]

    def __len__(self) -> int:
        return len(self.records)


# ---------------------------------------------------------------------------
# Replay: fold records into a state
# ---------------------------------------------------------------------------

class _Working:
    """Mutable scratch form of :class:`ControlPlaneState` during a fold."""

    def __init__(self, state: ControlPlaneState):
        self.replicas = set(state.replicas)
        self.pools = dict(state.pools)
        self.retiring = set(state.retiring)
        self.removed = set(state.removed)
        self.pending_drains = dict(state.pending_drains)
        self.group_counter = state.group_counter
        self.admitted = set(state.admitted)
        self.rejected = dict(state.rejected)
        self.completed = {rid: (crc, n, capped)
                          for rid, crc, n, capped in state.completed}
        self.failed = dict(state.failed)
        self.failovers = state.failovers
        self.hedges = state.hedges
        self.restarts = state.restarts
        self.recoveries = state.recoveries
        self.kv_handoffs = state.kv_handoffs
        self.handoff_retries = state.handoff_retries
        self.handoff_aborts = state.handoff_aborts
        self.handoff_dup_drops = state.handoff_dup_drops
        self.kv_page_leases = state.kv_page_leases
        self.kv_page_releases = state.kv_page_releases
        self.kv_pages_leased = state.kv_pages_leased
        self.kv_pages_released = state.kv_pages_released
        self.hedging_enabled = state.hedging_enabled
        self.output_caps = dict(state.output_caps)
        self.target_profile = state.target_profile
        self.shed_classes = set(state.shed_classes)
        self.pools_collapsed = state.pools_collapsed
        self.quarantined = set(state.quarantined)

    def freeze(self, journal_seq: int) -> ControlPlaneState:
        return ControlPlaneState(
            journal_seq=journal_seq,
            replicas=tuple(sorted(self.replicas)),
            pools=tuple(sorted(self.pools.items())),
            retiring=tuple(sorted(self.retiring)),
            removed=tuple(sorted(self.removed)),
            pending_drains=tuple(sorted(self.pending_drains.items())),
            group_counter=self.group_counter,
            admitted=tuple(sorted(self.admitted)),
            rejected=tuple(sorted(self.rejected.items())),
            completed=tuple(sorted(
                (rid, crc, n, capped)
                for rid, (crc, n, capped) in self.completed.items())),
            failed=tuple(sorted(self.failed.items())),
            failovers=self.failovers,
            hedges=self.hedges,
            restarts=self.restarts,
            recoveries=self.recoveries,
            kv_handoffs=self.kv_handoffs,
            handoff_retries=self.handoff_retries,
            handoff_aborts=self.handoff_aborts,
            handoff_dup_drops=self.handoff_dup_drops,
            kv_page_leases=self.kv_page_leases,
            kv_page_releases=self.kv_page_releases,
            kv_pages_leased=self.kv_pages_leased,
            kv_pages_released=self.kv_pages_released,
            hedging_enabled=self.hedging_enabled,
            output_caps=tuple(sorted(self.output_caps.items())),
            target_profile=self.target_profile,
            shed_classes=tuple(sorted(self.shed_classes)),
            pools_collapsed=self.pools_collapsed,
            quarantined=tuple(sorted(self.quarantined)),
        )


def _fold_admit(w: _Working, r: JournalRecord) -> None:
    w.admitted.add(r["request_id"])


def _fold_reject(w: _Working, r: JournalRecord) -> None:
    w.rejected[r["request_id"]] = r["error"]


def _fold_group_start(w: _Working, r: JournalRecord) -> None:
    w.group_counter = max(w.group_counter, r["group"] + 1)


def _fold_group_complete(w: _Working, r: JournalRecord) -> None:
    for e in r["entries"]:
        w.completed[e["request_id"]] = (e["token_crc"], e["stream_len"],
                                        e["output_capped"])


def _fold_group_fail(w: _Working, r: JournalRecord) -> None:
    for rid in r["requests"]:
        w.failed[rid] = r["error"]


def _fold_drain(w: _Working, r: JournalRecord) -> None:
    w.pending_drains.pop(r["replica"], None)


def _fold_scale_in(w: _Working, r: JournalRecord) -> None:
    w.retiring.add(r["replica"])
    w.pending_drains[r["replica"]] = r.t_s


def _fold_scale_in_abandoned(w: _Working, r: JournalRecord) -> None:
    w.retiring.discard(r["replica"])


def _fold_replica_add(w: _Working, r: JournalRecord) -> None:
    w.replicas.add(r["replica"])
    if r.get("pool") is not None:
        w.pools[r["replica"]] = r["pool"]


def _fold_replica_remove(w: _Working, r: JournalRecord) -> None:
    w.replicas.discard(r["replica"])
    w.retiring.discard(r["replica"])
    w.removed.add(r["replica"])


def _fold_lever(w: _Working, r: JournalRecord) -> None:
    lever = r["lever"]
    if lever == "hedging":
        w.hedging_enabled = r["value"]
    elif lever == "target_profile":
        w.target_profile = r["value"]
    elif lever == "output_cap":
        if r["cap"] is None:
            w.output_caps.pop(r["priority_class"], None)
        else:
            w.output_caps[r["priority_class"]] = r["cap"]
    else:
        raise ValueError(f"unknown lever {lever!r} in record {r}")


def _fold_limits(w: _Working, r: JournalRecord) -> None:
    if r["accept"]:
        w.shed_classes.discard(r["priority_class"])
    else:
        w.shed_classes.add(r["priority_class"])


def _fold_pools(w: _Working, r: JournalRecord) -> None:
    w.pools_collapsed = r["collapsed"]


def _fold_quarantine(w: _Working, r: JournalRecord) -> None:
    w.quarantined.update(r["replicas"])


def _fold_pool_rejoin(w: _Working, r: JournalRecord) -> None:
    w.quarantined.difference_update(r["replicas"])


def _fold_page_lease(w: _Working, r: JournalRecord) -> None:
    w.kv_page_leases += 1
    w.kv_pages_leased += r["pages"]


def _fold_page_release(w: _Working, r: JournalRecord) -> None:
    w.kv_page_releases += 1
    w.kv_pages_released += r["pages"]


def _no_state(w: _Working, r: JournalRecord) -> None:
    """No state change: a ``replica_crash`` takes effect through its
    ``replica_rejoin``, and a ``handoff_prepare`` is only audited."""


def _count(counter: str):
    """Fold rule for a kind whose only state is how often it happened."""
    def fold(w: _Working, r: JournalRecord) -> None:
        setattr(w, counter, getattr(w, counter) + 1)
    return fold


#: kind -> fold function.  Every journaled kind must appear here; replay
#: of an unknown kind is a hard error (a silent skip would let the
#: bit-identical-reconstruction guarantee rot).
_FOLDERS = {
    "admit": _fold_admit,
    "reject": _fold_reject,
    "group_start": _fold_group_start,
    "group_complete": _fold_group_complete,
    "group_fail": _fold_group_fail,
    "failover": _count("failovers"),
    "hedge": _count("hedges"),
    "drain": _fold_drain,
    "scale_in": _fold_scale_in,
    "scale_in_abandoned": _fold_scale_in_abandoned,
    "replica_add": _fold_replica_add,
    "replica_remove": _fold_replica_remove,
    "replica_crash": _no_state,
    "replica_rejoin": _count("restarts"),
    "lever": _fold_lever,
    "limits": _fold_limits,
    "pools": _fold_pools,
    "quarantine": _fold_quarantine,
    "pool_rejoin": _fold_pool_rejoin,
    "handoff_prepare": _no_state,
    "handoff_retry": _count("handoff_retries"),
    "handoff_commit": _count("kv_handoffs"),
    "handoff_dup": _count("handoff_dup_drops"),
    "handoff_abort": _count("handoff_aborts"),
    "page_lease": _fold_page_lease,
    "page_release": _fold_page_release,
    "control_recovered": _count("recoveries"),
}

JOURNAL_KINDS = tuple(sorted(_FOLDERS))

#: kind -> the :class:`~repro.events.EventLog` entry its records project
#: to: the record's data plus ``t_s``.  ``group_complete`` fans out to
#: one event per ``entries`` item, ``group_fail`` to one per
#: ``requests`` id, and ``pools`` picks ``(restored, collapsed)`` by its
#: ``collapsed`` flag.  Unlisted kinds have no event view.  The append
#: is the only emitter of these names: nothing records them directly.
EVENT_PROJECTIONS: dict[str, str | tuple[str, str]] = {
    "admit": ev.REQUEST_ADMITTED,
    "reject": ev.ADMISSION_REJECTED,
    "group_complete": ev.REQUEST_COMPLETED,
    "group_fail": ev.REQUEST_FAILED,
    "hedge": ev.HEDGE,
    "replica_add": ev.REPLICA_ADDED,
    "replica_remove": ev.REPLICA_REMOVED,
    "replica_crash": ev.REPLICA_RESTARTED,
    "replica_rejoin": ev.REPLICA_REJOINED,
    "control_recovered": ev.CONTROL_PLANE_RECOVERED,
    "pools": (ev.POOLS_RESTORED, ev.POOLS_COLLAPSED),
    "quarantine": ev.POOL_QUARANTINED,
    "pool_rejoin": ev.POOL_REJOINED,
    "handoff_prepare": ev.KV_HANDOFF_PREPARED,
    "handoff_retry": ev.KV_HANDOFF_RETRIED,
    "handoff_commit": ev.KV_HANDOFF,
    "handoff_dup": ev.KV_HANDOFF_DEDUPED,
    "handoff_abort": ev.KV_HANDOFF_ABORTED,
}


def project_record(record: JournalRecord) -> list[tuple[str, dict]]:
    """The ``(event name, data)`` entries ``record`` shows up as."""
    name = EVENT_PROJECTIONS.get(record.kind)
    if name is None:
        return []
    data = dict(record.data, t_s=record.t_s)
    if record.kind == "pools":
        return [(name[data["collapsed"]], data)]
    if record.kind == "group_complete":
        entries = data.pop("entries")
        return [(name, {**data, **entry}) for entry in entries]
    if record.kind == "group_fail":
        rids = data.pop("requests")
        return [(name, dict(data, request_id=rid)) for rid in rids]
    return [(name, data)]


def replay_journal(journal: Journal,
                   snapshot: ControlPlaneState | None = None
                   ) -> ControlPlaneState:
    """Fold the journal into the control-plane state it describes.

    Starts from ``snapshot`` (default: the journal's genesis snapshot;
    an empty state if none was set) and applies every retained record
    with ``seq >= snapshot.journal_seq`` in order.  Raises
    :class:`JournalTruncated` when the bounded journal dropped records
    the snapshot has not absorbed — recovery from a later snapshot is
    still possible, recovery from this one is not.
    """
    start = snapshot if snapshot is not None else journal.genesis
    if start is None:
        start = ControlPlaneState()
    todo = [r for r in journal.records if r.seq >= start.journal_seq]
    if journal.truncated and journal.next_seq > start.journal_seq:
        oldest = journal.records[0].seq if journal.records \
            else journal.next_seq
        if oldest > start.journal_seq:
            raise JournalTruncated(
                f"journal dropped {journal.truncated} records; replay "
                f"needs seq >= {start.journal_seq} but the oldest "
                f"retained record is seq {oldest}")
    working = _Working(start)
    seq = start.journal_seq
    for record in todo:
        folder = _FOLDERS.get(record.kind)
        if folder is None:
            raise ValueError(f"journal record kind {record.kind!r} has "
                             f"no replay rule (seq {record.seq})")
        folder(working, record)
        seq = record.seq + 1
    return working.freeze(seq)


def diff_states(a: ControlPlaneState, b: ControlPlaneState) -> list[str]:
    """Field-by-field differences, for readable mismatch errors."""
    out = []
    for name in ControlPlaneState.__dataclass_fields__:
        left, right = getattr(a, name), getattr(b, name)
        if left != right:
            out.append(f"{name}: {left!r} != {right!r}")
    return out
