"""The cluster control plane: N replicas behind one serving front end.

The paper's Section 4 studies one slice; production PaLM-class serving
runs many slices behind a router.  :class:`ClusterControlPlane` is that
router, grown from the single-mesh resilient lifecycle (PR 2) to fleet
scope:

* **Admission** (:mod:`repro.cluster.admission`) — token buckets,
  bounded priority queues, typed rejections.  Offered load the fleet
  cannot carry is refused *explicitly*, never timed out.
* **Dispatch** — request groups go to the least-busy dispatchable
  replica whose circuit breaker admits traffic.  Heartbeats run at every
  dispatch point, so a scheduled chip kill is usually absorbed by
  proactive degraded replanning before any collective trips on it.
* **Failover** — a :class:`~repro.mesh.faults.MeshFault` mid-group marks
  the breaker, health-checks the replica (replan or ``DEAD``), and
  re-dispatches the group to another replica by re-prefilling from the
  prompts.  Greedy decoding makes the move invisible in the tokens.
* **Drain** — a *planned* removal migrates the live KV caches to the
  target replica mid-decode (:meth:`GroupRun.migrate_to`, the Section
  4.4 host-mediated transfer) and falls back to re-prefill only when
  the target's plan cannot host the batch.
* **Hedged decode** — when consecutive decode steps run slower than the
  straggler threshold, the group is re-dispatched to a second replica
  and the first completion wins; both streams are asserted bit-identical
  before the winner is taken.

Time is *virtual* throughout: every model invocation charges its
:class:`~repro.serving.resilient.CostModel` cost (scaled by replica
degradation, plus injected straggler delay); replicas run in parallel in
simulated time via per-replica ``busy_until_s``.  The attached
:class:`~repro.observability.Tracer` runs on the same virtual clock, so
a chaos run's spans and events are bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from repro.cluster.admission import (
    DEFAULT_CLASSES,
    AdmissionController,
    AdmissionError,
    CircuitBreaker,
    NoHealthyReplica,
    PriorityClass,
)
from repro.cluster.journal import (
    ControlPlaneState,
    Journal,
    JournalReplayMismatch,
    diff_states,
    replay_journal,
    token_crc,
)
from repro.cluster.replica import GroupRun, Replica, ReplicaHealth
from repro.events import FAILOVER, FAULT_DETECTED, EventLog
from repro.mesh.faults import FaultPlan, MeshFault, ReplicaCrashed
from repro.observability.spans import Tracer
from repro.serving.engine import Completion, Request
from repro.serving.resilient import CostModel, ResilientRequest

Coord = tuple[int, int, int]


@dataclass(frozen=True)
class ClusterPolicy:
    """Control-plane knobs: retries, hedging, breakers, overheads."""

    max_retries: int = 3               # failovers per group before FAILED
    failover_overhead_s: float = 0.05  # detect + re-dispatch cost
    drain_migrate_s: float = 0.02      # host-mediated KV transfer cost
    hedge_slowdown: float = 3.0        # observed/expected step-time ratio
    hedge_after_steps: int = 2         # consecutive slow steps to hedge
    breaker_failures: int = 3
    breaker_cooldown_s: float = 1.0
    plan_switch_s: float = 0.01        # decode-plan reshard (host-side)
    cold_restart_s: float = 0.25       # process death: re-shard + re-init
    warm_rejoin_s: float = 0.05        # journal-guided rejoin (cache inval)
    #: Age-based partial-group dispatch: a queued head older than this
    #: goes out even below ``decode_batch``.  ``None`` keeps the legacy
    #: full-groups-only behavior (mixed-length traces need the age
    #: trigger or odd-length prompts would wait for the final flush).
    max_batch_wait_s: float | None = None
    #: Prefix-affinity dispatch: route a new group to the prefill
    #: replica whose paged KV store holds the longest cached prefix of
    #: its head prompt (ties and zero matches fall back to least-busy).
    prefix_affinity: bool = True
    #: Per-replica prefix-cache capacity in pages; 0 disables the
    #: stores entirely (prefills always recompute).
    kvstore_pages: int = 256


@dataclass(frozen=True)
class ClusterSubmission:
    """One request as the front end sees it: class, deadline, arrival."""

    request: Request
    priority_class: str = "default"
    deadline_s: float | None = None
    arrival_s: float = 0.0


class ClusterRequestStatus(str, Enum):
    COMPLETED = "completed"
    REJECTED = "rejected"              # typed admission rejection
    FAILED = "failed"                  # failover budget exhausted
    DEADLINE_MISSED = "deadline_missed"


@dataclass
class ClusterOutcome:
    """Terminal record for one submission."""

    request_id: int
    status: ClusterRequestStatus
    priority_class: str
    completion: Completion | None = None
    replica: str | None = None
    arrival_s: float = 0.0
    finish_s: float = 0.0
    hedged: bool = False
    failovers: int = 0
    rejection: str | None = None       # AdmissionError subclass name
    first_token_s: float | None = None  # end of the group's prefill
    output_capped: bool = False         # brownout shortened max_new_tokens

    @property
    def ok(self) -> bool:
        return self.status is ClusterRequestStatus.COMPLETED

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.arrival_s

    @property
    def ttft_s(self) -> float | None:
        """Time to first token: arrival -> end of the group's prefill."""
        if self.first_token_s is None:
            return None
        return self.first_token_s - self.arrival_s

    @property
    def tpot_s(self) -> float | None:
        """Time per output token over the decode phase."""
        if self.first_token_s is None or self.completion is None:
            return None
        steps = self.completion.n_generated - 1
        if steps <= 0:
            return 0.0
        return (self.finish_s - self.first_token_s) / steps


@dataclass
class _PendingGroup:
    wrapped: list[ResilientRequest]
    submissions: list[ClusterSubmission]


class FleetConfigError(ValueError):
    """Invalid fleet topology: duplicate replica names, name/shape arity
    mismatches, empty pools, or overlapping pool membership.  Raised at
    construction time — a misconfigured fleet never serves a request —
    mirroring :class:`~repro.mesh.faults.FaultPlan`'s eager validation.
    """


@dataclass(frozen=True)
class RestartSpec:
    """Scheduled full-replica process death (a chaos fault class).

    Unlike a :class:`~repro.mesh.faults.ChipKill` — one chip fails and
    the mesh replans around it — a restart takes the whole replica
    process down at ``at_s``.  A group running there at that moment
    fails over (re-prefill elsewhere); the replica itself comes back
    after the policy's restart downtime:

    * ``mode="cold"`` — full restart: re-shard the weights, rebuild
      both phase models, empty capture caches
      (``ClusterPolicy.cold_restart_s``).
    * ``mode="warm"`` — journal-guided rejoin: the process state
      survives, only the capture caches are invalidated
      (``ClusterPolicy.warm_rejoin_s``).
    """

    at_s: float
    mode: str = "cold"

    def __post_init__(self):
        if self.mode not in ("cold", "warm"):
            raise ValueError(
                f"restart mode must be 'cold' or 'warm', got {self.mode!r}")
        if self.at_s < 0:
            raise ValueError(f"restart at_s must be >= 0, got {self.at_s}")


class _JournaledCaps(dict):
    """Brownout output caps that journal every change as a lever record.

    The autoscaler mutates ``plane.output_caps`` directly
    (``caps[name] = cap`` on the way down the ladder, ``caps.pop(name)``
    on the way back up), so journaling lives in the container rather
    than at every call site.
    """

    def __init__(self, plane: "ClusterControlPlane"):
        super().__init__()
        self._plane = plane

    def __setitem__(self, key: str, value: int) -> None:
        if self.get(key) != value:
            self._plane._journal("lever", lever="output_cap",
                                 priority_class=key, cap=value)
        super().__setitem__(key, value)

    def __delitem__(self, key: str) -> None:
        if key in self:
            self._plane._journal("lever", lever="output_cap",
                                 priority_class=key, cap=None)
        super().__delitem__(key)

    def pop(self, key: str, *default):
        if key in self:
            self._plane._journal("lever", lever="output_cap",
                                 priority_class=key, cap=None)
        return super().pop(key, *default)

    def replace_silently(self, mapping: Mapping[str, int]) -> None:
        """Crash recovery: adopt replayed caps without re-journaling."""
        super().clear()
        super().update(mapping)


class ClusterControlPlane:
    """N heterogeneous mesh replicas behind one admission front end."""

    def __init__(self, weights, shapes: Sequence[Coord], *,
                 backend: str | None = None, decode_batch: int = 4,
                 classes: Sequence[PriorityClass] = DEFAULT_CLASSES,
                 fault_plans: Mapping[int, FaultPlan] | None = None,
                 drains: Mapping[str, float] | None = None,
                 costs: CostModel | None = None,
                 policy: ClusterPolicy | None = None,
                 event_log: EventLog | None = None,
                 tracer: Tracer | None = None,
                 trace_mesh: bool = False,
                 prompt_len_hint: int = 64,
                 step_threads: int = 0,
                 autoscaler=None,
                 journal: Journal | None = None,
                 restarts: Mapping[str, RestartSpec] | None = None,
                 crash_at_s: float | None = None,
                 names: Sequence[str] | None = None):
        if not shapes:
            raise ValueError("a cluster needs at least one replica")
        # ``step_threads`` survives only as a must-be-zero argument for
        # callers that still pass it; hedges always run serially.
        if step_threads != 0:
            raise ValueError(
                "step_threads must be 0: threaded replica stepping was "
                "removed; hedges run serially")
        if names is None:
            names = [f"r{i}" for i in range(len(shapes))]
        else:
            names = list(names)
            if len(names) != len(shapes):
                raise FleetConfigError(
                    f"{len(names)} replica names for {len(shapes)} "
                    f"shapes")
            dupes = {n for n in names if names.count(n) > 1}
            if dupes:
                raise FleetConfigError(
                    f"duplicate replica names: {sorted(dupes)}")
        self.costs = costs or CostModel()
        self.policy = policy or ClusterPolicy()
        self.events = event_log if event_log is not None else EventLog()
        self.now_s = 0.0
        # The write-ahead journal records every control-plane transition
        # on the virtual clock; ``serve()`` snapshots genesis state and
        # the chaos harness asserts replay(genesis + journal) ==
        # control_state() after every run.  It is also the one emitter
        # of the transitions' events, so it must write into this log.
        journal = journal if journal is not None else Journal()
        if journal.events is None:
            journal.events = self.events
        elif journal.events is not self.events:
            raise FleetConfigError(
                "the journal is bound to a different event log than the "
                "control plane's; its projected events would be lost")
        self.journal = journal
        # The tracer runs on the control plane's virtual clock: chaos
        # runs under a fixed seed produce bit-identical span streams.
        self.tracer = tracer if tracer is not None else Tracer(
            event_log=self.events, clock=lambda: self.now_s)
        fault_plans = dict(fault_plans or {})
        self.weights = weights
        self.backend = backend
        self.trace_mesh = trace_mesh
        self.prompt_len_hint = prompt_len_hint
        self.replicas = [
            Replica(name, weights, shape, backend=backend,
                    decode_batch=decode_batch,
                    fault_plan=fault_plans.get(i), costs=self.costs,
                    event_log=self.events, tracer=self.tracer,
                    trace_mesh=trace_mesh,
                    prompt_len_hint=prompt_len_hint,
                    kvstore_pages=self.policy.kvstore_pages)
            for i, (name, shape) in enumerate(zip(names, shapes))]
        self.breakers = {
            r.name: CircuitBreaker(
                r.name, failure_threshold=self.policy.breaker_failures,
                cooldown_s=self.policy.breaker_cooldown_s,
                event_log=self.events, tracer=self.tracer)
            for r in self.replicas}
        self.admission = AdmissionController(
            tuple(classes), event_log=self.events, tracer=self.tracer)
        self.admission.journal = self.journal
        self.decode_batch = decode_batch
        self._drains = dict(drains or {})
        self._group_counter = 0
        self.hedges = 0
        self.failovers = 0
        # Crash-recovery state: scheduled replica process deaths, an
        # optional control-plane crash point, and the completion ledgers
        # whose equality with journal replay proves the journal complete.
        known = {r.name for r in self.replicas}
        restarts = dict(restarts or {})
        unknown = sorted(set(restarts) - known)
        if unknown:
            raise FleetConfigError(
                f"restart specs for unknown replicas: {unknown}")
        self._restarts = restarts
        self.crash_at_s = crash_at_s
        self._crashed = False
        self.restarts = 0
        self.recoveries = 0
        self._ledger_admitted: set[int] = set()
        self._ledger_rejected: dict[int, str] = {}
        self._ledger_completed: dict[int, tuple[int, int, bool]] = {}
        self._ledger_failed: dict[int, str] = {}
        # Autoscaler hooks (see repro.cluster.autoscaler).  The control
        # plane only provides mechanism: the fleet roster, the brownout
        # levers below, and a tick call at every virtual-clock advance.
        # Lever state lives in backing fields; the properties journal
        # every change as a typed "lever" record.
        self.autoscaler = autoscaler
        self._hedging_enabled = True             # brownout rung 1
        self.output_caps = _JournaledCaps(self)  # brownout rung 2
        self._target_profile: str | None = None  # rung 3 / plan steering
        self.retiring: set[str] = set()
        self.retired: list[Replica] = []
        self.replica_added_s = {r.name: 0.0 for r in self.replicas}
        self.replica_removed_s: dict[str, float] = {}
        self._replica_seq = len(self.replicas)
        self._running: set[str] = set()        # replicas mid-group
        self.prefill_tokens = 0
        self.decode_tokens = 0
        # Shared-page accounting: every pinned prefix (a PageLease) is
        # journaled on acquisition and on release, so the auditor can
        # prove exactly-once page lifecycle — no double free, no lease
        # leaked by a failover/drain/hedge path.
        self.kv_page_leases = 0
        self.kv_page_releases = 0
        self.kv_pages_leased = 0
        self.kv_pages_released = 0

    # -- time ---------------------------------------------------------------

    def _set_now(self, t: float) -> None:
        self.now_s = max(self.now_s, t)

    # -- journal / crash recovery -------------------------------------------

    def _journal(self, kind: str, t_s: float | None = None, **data):
        self.journal.append(kind, self.now_s if t_s is None else t_s,
                            **data)

    @property
    def hedging_enabled(self) -> bool:
        return self._hedging_enabled

    @hedging_enabled.setter
    def hedging_enabled(self, value: bool) -> None:
        if value != self._hedging_enabled:
            self._journal("lever", lever="hedging", value=value)
        self._hedging_enabled = value

    @property
    def target_profile(self) -> str | None:
        return self._target_profile

    @target_profile.setter
    def target_profile(self, value: str | None) -> None:
        if value != self._target_profile:
            self._journal("lever", lever="target_profile", value=value)
        self._target_profile = value

    def control_state(self) -> ControlPlaneState:
        """The live control-plane state, in journal-comparable form.

        Journaling is proved complete by equality:
        ``replay_journal(self.journal) == self.control_state()`` after
        every run (the chaos harness asserts it; recovery relies on it).
        The disagg-only fields fall back to their defaults on the
        colocated plane via ``getattr``.
        """
        accepting = self.admission._accepting
        return ControlPlaneState(
            journal_seq=self.journal.next_seq,
            replicas=tuple(sorted(r.name for r in self.replicas)),
            pools=tuple(sorted(getattr(self, "pool_of", {}).items())),
            retiring=tuple(sorted(self.retiring)),
            removed=tuple(sorted(self.replica_removed_s)),
            pending_drains=tuple(sorted(self._drains.items())),
            group_counter=self._group_counter,
            admitted=tuple(sorted(self._ledger_admitted)),
            rejected=tuple(sorted(self._ledger_rejected.items())),
            completed=tuple(sorted(
                (rid, crc, n, capped)
                for rid, (crc, n, capped)
                in self._ledger_completed.items())),
            failed=tuple(sorted(self._ledger_failed.items())),
            failovers=self.failovers,
            hedges=self.hedges,
            restarts=self.restarts,
            recoveries=self.recoveries,
            kv_handoffs=getattr(self, "kv_handoffs", 0),
            handoff_retries=getattr(self, "handoff_retries", 0),
            handoff_aborts=getattr(self, "handoff_aborts", 0),
            handoff_dup_drops=getattr(self, "handoff_dups_dropped", 0),
            kv_page_leases=self.kv_page_leases,
            kv_page_releases=self.kv_page_releases,
            kv_pages_leased=self.kv_pages_leased,
            kv_pages_released=self.kv_pages_released,
            hedging_enabled=self._hedging_enabled,
            output_caps=tuple(sorted(self.output_caps.items())),
            target_profile=self._target_profile,
            shed_classes=tuple(sorted(
                c for c, ok in accepting.items() if not ok)),
            pools_collapsed=getattr(self, "pools_collapsed", False),
            quarantined=tuple(sorted(getattr(self, "quarantined", ()))),
        )

    def _crash_and_recover(self, t: float) -> None:
        """Control-plane process crash, recovered by journal replay.

        The in-memory scheduling state (pending drains, retirement
        intents, brownout levers, the group counter) is wiped and
        rebuilt from ``replay_journal``; the replicas themselves survive
        — they are the data plane.  Replay is first checked bit-identical
        against the live state, so a journaling gap fails loudly here
        instead of resuming from a silently wrong state.
        """
        live = self.control_state()
        replayed = replay_journal(self.journal)
        if replayed != live:
            raise JournalReplayMismatch(
                "journal replay diverged from live control-plane "
                "state:\n  " + "\n  ".join(diff_states(replayed, live)))
        self._drains = dict(replayed.pending_drains)
        self.retiring = set(replayed.retiring)
        self._group_counter = replayed.group_counter
        self._hedging_enabled = replayed.hedging_enabled
        self._target_profile = replayed.target_profile
        self.output_caps.replace_silently(dict(replayed.output_caps))
        self.recoveries += 1
        # ``journal_records`` counts the journal with this record in it.
        self._journal("control_recovered", t_s=t,
                      journal_records=len(self.journal) + 1,
                      pending_drains=len(self._drains))
        self.tracer.mark("control-plane-recovered",
                         records=len(self.journal))

    # -- replica selection --------------------------------------------------

    def _heartbeat_all(self, now_s: float) -> None:
        self._fire_idle_restarts(now_s)
        for replica in self.replicas:
            replica.heartbeat(now_s)

    def _fire_idle_restarts(self, now_s: float) -> None:
        """Fire scheduled process deaths on replicas with no group.

        A restart due on a replica that is mid-group fires inside the
        group loop instead (:meth:`_maybe_crash_running`) so the group
        takes the failover path; an idle replica just bounces.
        """
        due = [name for name, spec in self._restarts.items()
               if spec.at_s <= now_s and name not in self._running]
        for name in due:
            replica = next((r for r in self.replicas
                            if r.name == name), None)
            if replica is None:
                del self._restarts[name]
                continue
            spec = self._restarts.pop(name)
            self._journal("replica_crash", t_s=now_s, replica=name,
                          mode=spec.mode, group=None)
            self._restart_replica(replica, now_s, spec.mode)

    def _maybe_crash_running(self, run: GroupRun, t: float,
                             gid: int) -> None:
        """Raise :class:`ReplicaCrashed` if ``run``'s replica is due to
        die at ``t`` — caught by the group loop's failover handler."""
        spec = self._restarts.get(run.replica.name)
        if spec is not None and t >= spec.at_s:
            del self._restarts[run.replica.name]
            raise ReplicaCrashed(run.replica.name, spec.mode, gid)

    def _restart_replica(self, replica: Replica, t: float,
                         mode: str) -> None:
        replica.restart(mode)
        downtime = (self.policy.cold_restart_s if mode == "cold"
                    else self.policy.warm_rejoin_s)
        ready = max(replica.busy_until_s, t) + downtime
        replica.busy_until_s = ready
        self.restarts += 1
        self._journal("replica_rejoin", t_s=t, replica=replica.name,
                      mode=mode, ready_s=ready)
        self.tracer.mark(f"restart:{replica.name}", mode=mode)

    def _phase_candidates(self, phase: str) -> list[Replica]:
        """Replicas eligible to serve ``phase`` ("prefill"/"decode"/"any").

        The base plane is colocated — every replica runs both phases —
        so the phase is ignored here.  The disaggregated plane
        (:mod:`repro.cluster.disagg`) overrides this to route each phase
        to its pool.
        """
        return self.replicas

    def _pick_replica(self, now_s: float, request_id: int,
                      priority_class: str,
                      exclude: Replica | None = None,
                      phase: str = "any",
                      prompt=None) -> Replica:
        candidates = [r for r in self._phase_candidates(phase)
                      if r.dispatchable
                      and self.breakers[r.name].allow(now_s)]
        if exclude is not None and len(candidates) > 1:
            candidates = [r for r in candidates if r is not exclude]
        # A replica being scaled in takes no new groups while any other
        # candidate exists (capacity beats the scale-in intent otherwise).
        non_retiring = [r for r in candidates
                        if r.name not in self.retiring]
        if non_retiring:
            candidates = non_retiring
        if not candidates:
            raise NoHealthyReplica(
                f"no dispatchable replica at t={now_s:.4f}s "
                f"(health: {[(r.name, r.health.value) for r in self.replicas]})",
                request_id=request_id, priority_class=priority_class)
        # Prefix-affinity routing (the Mooncake recipe): among the
        # eligible replicas, prefer the ones whose paged KV store holds
        # the longest cached prefix of the group's prompt — trading
        # placement freedom for recompute savings.  ``peek`` is a pure
        # read (no pin, no LRU touch) so routing never perturbs cache
        # state; zero matches everywhere fall through to least-busy.
        if prompt is not None and self.policy.prefix_affinity and \
                len(candidates) > 1:
            matched = {r.name: (r.kvstore.peek(prompt)
                                if r.kvstore is not None else 0)
                       for r in candidates}
            best = max(matched.values())
            if best > 0:
                candidates = [r for r in candidates
                              if matched[r.name] == best]
        return min(candidates, key=lambda r: (r.busy_until_s, r.name))

    # -- fleet management (the autoscaler's levers) --------------------------

    def active_replicas(self) -> list[Replica]:
        """Dispatchable replicas not being scaled in."""
        return [r for r in self.replicas
                if r.dispatchable and r.name not in self.retiring]

    def add_replica(self, shape: Coord, now_s: float, *,
                    spinup_s: float = 0.0,
                    pool: str | None = None) -> Replica:
        """Scale out: provision one more replica on the same weights.

        The new replica becomes dispatchable after ``spinup_s`` of
        simulated provisioning (weight sharding, process start) — its
        ``busy_until_s`` models the warm-up, so the least-busy dispatch
        naturally avoids it until it is ready.  ``pool`` is recorded in
        the journal for the disaggregated plane's membership bookkeeping
        (the colocated base plane ignores it otherwise).
        """
        taken = {r.name for r in self.replicas} | \
            {r.name for r in self.retired} | set(self.replica_removed_s)
        name = f"r{self._replica_seq}"
        self._replica_seq += 1
        while name in taken:
            name = f"r{self._replica_seq}"
            self._replica_seq += 1
        replica = Replica(name, self.weights, shape,
                          backend=self.backend,
                          decode_batch=self.decode_batch,
                          costs=self.costs, event_log=self.events,
                          tracer=self.tracer, trace_mesh=self.trace_mesh,
                          prompt_len_hint=self.prompt_len_hint,
                          kvstore_pages=self.policy.kvstore_pages)
        replica.busy_until_s = now_s + spinup_s
        self.replicas.append(replica)
        self.breakers[name] = CircuitBreaker(
            name, failure_threshold=self.policy.breaker_failures,
            cooldown_s=self.policy.breaker_cooldown_s,
            event_log=self.events, tracer=self.tracer)
        self.replica_added_s[name] = now_s
        self._journal("replica_add", t_s=now_s, replica=name,
                      shape=tuple(shape), pool=pool, spinup_s=spinup_s)
        self.tracer.mark(f"scale-out:{name}", shape=tuple(shape))
        return replica

    def begin_scale_in(self, name: str, now_s: float) -> None:
        """Scale in: schedule a live drain of ``name`` and mark it
        retiring.  In-flight work migrates off via the normal drain path
        (:meth:`_maybe_drain` — KV caches move, nothing is dropped); the
        replica is actually removed by :meth:`reap_retiring` once idle.
        """
        if not any(r.name == name for r in self.replicas):
            raise ValueError(f"unknown replica {name!r}")
        self.retiring.add(name)
        self._drains[name] = now_s
        self._journal("scale_in", t_s=now_s, replica=name)

    def reap_retiring(self, now_s: float) -> list[str]:
        """Complete any scale-ins whose replicas have gone idle."""
        removed = []
        for replica in [r for r in self.replicas
                        if r.name in self.retiring]:
            name = replica.name
            if name in self._running or replica.busy_until_s > now_s:
                continue
            if name in self._drains:
                # Idle: no in-flight group will ever execute the drain,
                # so transition directly.
                del self._drains[name]
                self._journal("drain", t_s=now_s, replica=name,
                              mode="idle")
                replica.set_health(ReplicaHealth.DRAINING, now_s,
                                   "autoscale scale-in (idle)")
            if replica.health is not ReplicaHealth.DRAINING:
                # The drain was aborted (no migration target); give up
                # on this scale-in rather than wedge the replica.
                self.retiring.discard(name)
                self._journal("scale_in_abandoned", t_s=now_s,
                              replica=name)
                continue
            self.replicas.remove(replica)
            self.retired.append(replica)
            self.retiring.discard(name)
            self.replica_removed_s[name] = now_s
            self._journal("replica_remove", t_s=now_s, replica=name)
            self.tracer.mark(f"scale-in:{name}")
            removed.append(name)
        return removed

    def fleet_chip_seconds(self, end_s: float) -> float:
        """Chip-seconds provisioned over the run (the cost denominator)."""
        total = 0.0
        for replica in list(self.replicas) + self.retired:
            start = self.replica_added_s.get(replica.name, 0.0)
            end = self.replica_removed_s.get(replica.name, end_s)
            total += max(end - start, 0.0) * replica.full_chips
        return total

    def _autoscale(self, now_s: float) -> None:
        if self.autoscaler is not None:
            self.autoscaler.maybe_tick(self, now_s)

    def _apply_profile(self, replica: Replica, t: float) -> float:
        """Steer ``replica`` to the target decode profile at dispatch.

        Plan switches happen only at group boundaries (never mid-decode,
        the KV layout must stay put) and charge ``plan_switch_s``.
        """
        desired = self.target_profile or "balanced"
        if replica.profile != desired and \
                replica.switch_profile(desired, t):
            return self.policy.plan_switch_s
        return 0.0

    # -- serving ------------------------------------------------------------

    def serve(self, submissions: Sequence[ClusterSubmission]
              ) -> list[ClusterOutcome]:
        """Admit, dispatch and complete all submissions; one outcome each.

        Submissions are processed in arrival order.  Between arrivals the
        control plane dispatches any full group that a replica could have
        started by that time — so queue occupancy (and the bounded-queue
        backpressure it triggers) reflects actual fleet saturation, not
        an artifact of batch processing.
        """
        # Genesis snapshot: replay starts here, so construction-time
        # state (initial drains, pool membership) is captured once
        # instead of journaled piecemeal.  First call wins — a second
        # serve() continues the same journal.
        self.journal.set_genesis(self.control_state())
        ordered = sorted(enumerate(submissions),
                         key=lambda pair: (pair[1].arrival_s, pair[0]))
        by_id: dict[int, ClusterOutcome] = {}
        seen: set[int] = set()
        for _, sub in ordered:
            if sub.request.request_id in seen:
                raise ValueError(
                    f"duplicate request id {sub.request.request_id}")
            seen.add(sub.request.request_id)

        for _, sub in ordered:
            self._set_now(sub.arrival_s)
            if self.crash_at_s is not None and not self._crashed and \
                    self.now_s >= self.crash_at_s:
                self._crashed = True
                self._crash_and_recover(self.now_s)
            self._autoscale(sub.arrival_s)
            self._dispatch_ready(by_id, up_to_s=sub.arrival_s)
            rid = sub.request.request_id
            try:
                # The controller journals the admit / reject itself.
                self.admission.submit(sub, rid, sub.arrival_s,
                                      class_name=sub.priority_class)
                self._ledger_admitted.add(rid)
            except AdmissionError as exc:
                error = type(exc).__name__
                self._ledger_rejected[rid] = error
                by_id[rid] = ClusterOutcome(
                    rid, ClusterRequestStatus.REJECTED,
                    sub.priority_class, arrival_s=sub.arrival_s,
                    finish_s=sub.arrival_s,
                    rejection=error)
        self._dispatch_ready(by_id, up_to_s=None, flush=True)
        self._cooldown()
        return [by_id[sub.request.request_id] for sub in submissions]

    def _cooldown(self, max_ticks: int = 1000) -> None:
        """Idle the virtual clock until the autoscaler settles.

        The offered load is over but the control loop's recovery half is
        not: the brownout ladder releases only after sustained calm, and
        the surplus fleet drains back to ``min_replicas``.  Keep ticking
        over an empty backlog (pressure zero) until the autoscaler
        reports a fixed point — still purely virtual time, so the
        recovery trajectory is as deterministic as the loaded one.
        """
        self._autoscale(self.now_s)
        if self.autoscaler is None:
            return
        interval = self.autoscaler.policy.interval_s
        for _ in range(max_ticks):
            if self.autoscaler.settled(self):
                return
            self._set_now(self.now_s + interval)
            self._autoscale(self.now_s)

    def _dispatch_ready(self, by_id: dict[int, ClusterOutcome],
                        up_to_s: float | None,
                        flush: bool = False) -> None:
        """Dispatch queued groups a replica could start by ``up_to_s``."""
        while True:
            backlog = self.admission.backlog()
            if backlog == 0:
                return
            if backlog < self.decode_batch and not flush and \
                    not self._head_aged_out():
                return
            self._heartbeat_all(self.now_s)
            self._autoscale(self.now_s)
            # New groups start with prefill, so dispatch readiness is
            # judged against the replicas that could run one.
            free = [r.busy_until_s for r in self._phase_candidates("prefill")
                    if r.dispatchable]
            if up_to_s is not None and (not free or min(free) > up_to_s):
                return  # every replica still busy: backlog builds up
            # Groups are homogeneous in prompt length (the merged decode
            # batch shares one KV geometry); the head item — highest
            # priority, oldest — always defines the batch.
            subs = self.admission.next_batch(
                self.decode_batch, key=lambda s: len(s.request.prompt))
            self._run_group([s for s in subs], by_id)

    def _head_aged_out(self) -> bool:
        """Has some queue head waited past the partial-dispatch age?"""
        wait = self.policy.max_batch_wait_s
        if wait is None:
            return False
        heads = self.admission.heads()
        return bool(heads) and \
            self.now_s - min(h.arrival_s for h in heads) >= wait

    def _wrap(self, sub: ClusterSubmission
              ) -> tuple[ResilientRequest, bool]:
        """Wrap a submission, applying any brownout output cap."""
        request = sub.request
        cap = self.output_caps.get(sub.priority_class)
        capped = cap is not None and request.max_new_tokens > cap
        if capped:
            request = Request(request.request_id, request.prompt, cap)
        return ResilientRequest(request, deadline_s=sub.deadline_s), capped

    def _run_group(self, subs: list[ClusterSubmission],
                   by_id: dict[int, ClusterOutcome]) -> None:
        """Run one group to completion with failover/drain/hedge cover."""
        pairs = [self._wrap(s) for s in subs]
        wrapped = [w for w, _ in pairs]
        capped = [c for _, c in pairs]
        first_rid = subs[0].request.request_id
        first_class = subs[0].priority_class
        gid = self._group_counter
        self._group_counter += 1
        self._journal("group_start", group=gid,
                      requests=[s.request.request_id for s in subs])

        try:
            replica = self._pick_replica(self.now_s, first_rid, first_class,
                                         phase="prefill",
                                         prompt=subs[0].request.prompt)
        except NoHealthyReplica as exc:
            self._fail_group(subs, by_id, gid=gid,
                             error=type(exc).__name__, failovers=0)
            return

        attempt = 0
        hedged = False
        hedge_finish: float | None = None
        hedge_completions: list[Completion] | None = None
        hedge_replica: str | None = None
        first_token_s: float | None = None
        run = GroupRun(replica, wrapped)
        t = max(self.now_s, replica.busy_until_s)
        t += self._apply_profile(replica, t)
        self._running.add(replica.name)
        try:
            with self.tracer.region(f"group{gid}", kind="group",
                                    group=gid, replica=replica.name,
                                    requests=[s.request.request_id
                                              for s in subs]):
                while True:
                    try:
                        self._maybe_crash_running(run, t, gid)
                        if run.caches is None:
                            try:
                                run.run_prefill()
                            finally:
                                # A fault mid-prefill still pays for the
                                # prompts it finished.
                                t += run.prefill_s
                            self._set_now(t)
                            self._note_leases(run, t, gid)
                            self.prefill_tokens += sum(
                                len(r.prompt) for r in run.group)
                            if first_token_s is None:
                                first_token_s = t
                            # Phase boundary: the disaggregated plane's
                            # KV handoff happens here (may raise a
                            # MeshFault -> the failover path below).
                            prev_run = run
                            prev = run.replica.name
                            run, t = self._after_prefill(run, t, gid)
                            if run.replica.name != prev:
                                self._running.discard(prev)
                                self._running.add(run.replica.name)
                            if run is not prev_run:
                                # Handed off: the target holds its own
                                # copy (and adopted the shared pages);
                                # the prefill-side pins drop.
                                self._release_leases(prev_run, t, gid)
                        slow_steps = 0
                        while not run.done:
                            drained = self._maybe_drain(run, t)
                            if drained is not None:
                                self._running.discard(run.replica.name)
                                # The migrated caches carry their own
                                # prefix copy; the source's pins drop.
                                self._release_leases(run, t, gid)
                                run, t = drained
                                self._running.add(run.replica.name)
                                if run.caches is None:
                                    break  # drain fell back to re-prefill
                                continue
                            self._maybe_crash_running(run, t, gid)
                            dt = run.decode_step()
                            t += dt
                            self._set_now(t)
                            self.decode_tokens += len(run.group)
                            self._autoscale(t)
                            expected = self.costs.decode_cost_s(
                                run.replica.profile) * run.replica.scale
                            slow_steps = slow_steps + 1 \
                                if dt > self.policy.hedge_slowdown * expected \
                                else 0
                            if not hedged and self.hedging_enabled and \
                                    slow_steps >= self.policy.hedge_after_steps:
                                hedged = True
                                result = self._try_hedge(run, t, gid)
                                if result is not None:
                                    hedge_finish, hedge_completions, \
                                        hedge_replica = result
                        if not run.done:
                            continue  # re-prefill the group on the target
                        break
                    except MeshFault as exc:
                        t = self._on_group_fault(run.replica, exc, t)
                        attempt += 1
                        self.failovers += 1
                        self._journal("failover", t_s=t, group=gid,
                                      source=run.replica.name,
                                      error=type(exc).__name__,
                                      attempt=attempt)
                        if attempt > self.policy.max_retries:
                            self._fail_group(subs, by_id, gid=gid,
                                             error=type(exc).__name__,
                                             failovers=attempt, finish_s=t)
                            return
                        # The abandoned attempt's pins drop before the
                        # group re-prefills elsewhere (the source store
                        # may already be invalidated — stale no-ops).
                        self._release_leases(run, t, gid)
                        try:
                            target = self._pick_replica(
                                t, first_rid, first_class,
                                exclude=run.replica, phase="prefill",
                                prompt=subs[0].request.prompt)
                        except NoHealthyReplica as nhr_exc:
                            self._fail_group(subs, by_id, gid=gid,
                                             error=type(nhr_exc).__name__,
                                             failovers=attempt, finish_s=t)
                            return
                        self.events.record(
                            FAILOVER, group=gid, mode="re-prefill",
                            source=run.replica.name, target=target.name,
                            t_s=t, error=type(exc).__name__)
                        self.tracer.mark(
                            f"failover:{run.replica.name}->{target.name}",
                            group=gid, mode="re-prefill",
                            error=type(exc).__name__)
                        t = max(t + self.policy.failover_overhead_s,
                                target.busy_until_s)
                        self._running.discard(run.replica.name)
                        run = GroupRun(target, wrapped)
                        self._running.add(target.name)

                # Group decoded to completion on run.replica at time t.
                run.replica.busy_until_s = t
                self.breakers[run.replica.name].record_success(t)
                completions = run.completions()
                winner_replica = run.replica.name
                finish = t
                if hedge_finish is not None and hedge_finish < finish:
                    # The hedge won the race; streams must agree bit-for-bit.
                    self._assert_identical(completions, hedge_completions)
                    completions = hedge_completions
                    finish = hedge_finish
                    winner_replica = hedge_replica
                self._set_now(finish)
                self._complete_group(subs, completions, by_id, finish,
                                     winner_replica, gid=gid,
                                     hedged=hedged, failovers=attempt,
                                     first_token_s=first_token_s,
                                     capped=capped)
        finally:
            self._running.discard(run.replica.name)
            self._release_leases(run, t, gid)

    # -- fault / drain / hedge handling ------------------------------------

    def _after_prefill(self, run: GroupRun, t: float,
                       gid: int) -> tuple[GroupRun, float]:
        """Hook between a group's prefill and its decode loop.

        The colocated base plane decodes where it prefilled, so this is
        the identity.  The disaggregated plane overrides it to hand the
        finished KV caches to a decode-pool replica (and may raise a
        :class:`~repro.mesh.faults.MeshFault`, which the caller's
        failover handler turns into a re-prefill).
        """
        return run, t

    def _note_leases(self, run: GroupRun, t: float, gid: int) -> None:
        """Journal the page leases ``run``'s prefill just pinned.

        Called after every ``run_prefill`` site (main loop, hedges) so
        the write-ahead journal sees each lease exactly once; the
        auditor later checks each journaled lease has exactly one
        matching release record — the exactly-once ledger extended to
        shared pages.
        """
        for lease in run.leases:
            if lease.journaled:
                continue
            lease.journaled = True
            self.kv_page_leases += 1
            self.kv_pages_leased += lease.n_pages
            self._journal("page_lease", t_s=t, group=gid,
                          replica=run.replica.name,
                          lease_id=lease.lease_id,
                          pages=lease.n_pages, tokens=lease.n_tokens)

    def _release_leases(self, run: GroupRun, t: float, gid: int) -> None:
        """Unpin and journal every lease ``run`` still holds.

        Covers all terminal paths — completion, failover abandon, drain
        migration, hedge retirement, replica crash.  Release is
        idempotent and epoch-checked in the store, so a crash that
        already invalidated the store turns these into counted no-op
        (stale) releases; the journal record closes the lease either
        way, keeping the lease/release ledger balanced.
        """
        for lease in run.release_leases():
            if not lease.journaled:
                continue
            self.kv_page_releases += 1
            self.kv_pages_released += lease.n_pages
            self._journal("page_release", t_s=t, group=gid,
                          replica=run.replica.name,
                          lease_id=lease.lease_id,
                          pages=lease.n_pages)

    def _on_group_fault(self, replica: Replica, exc: MeshFault,
                        t: float) -> float:
        self.events.record(FAULT_DETECTED, replica=replica.name,
                           error=type(exc).__name__, detail=str(exc),
                           t_s=t)
        self.breakers[replica.name].record_failure(
            t, reason=type(exc).__name__)
        replica.busy_until_s = t  # partial work still occupied the slice
        if isinstance(exc, ReplicaCrashed):
            # Whole process died: no replan can save it — restart and
            # rejoin after the policy downtime.
            self._journal("replica_crash", t_s=t, replica=replica.name,
                          mode=exc.mode, group=exc.group)
            self._restart_replica(replica, t, exc.mode)
        else:
            replica.heartbeat(t)  # replan around dead chips, or go DEAD
        return t

    def _maybe_drain(self, run: GroupRun,
                     t: float) -> tuple[GroupRun, float] | None:
        """Execute a scheduled drain of the replica running ``run``.

        Marks the source ``DRAINING`` (out of rotation), migrates the
        live KV caches to a target replica, and falls back to re-prefill
        when the target's plan cannot host the migrated batch.
        """
        name = run.replica.name
        drain_at = self._drains.get(name)
        if drain_at is None or t < drain_at:
            return None
        del self._drains[name]
        source = run.replica
        source.set_health(ReplicaHealth.DRAINING, t,
                          "scheduled drain (planned maintenance)")
        source.busy_until_s = t
        rid = run.group[0].request_id
        try:
            target = self._pick_replica(t, rid, "default", exclude=source,
                                        phase="decode")
        except NoHealthyReplica:
            # Nowhere to go: cancel the drain and keep serving here.
            source.set_health(ReplicaHealth.DEGRADED, t,
                              "drain aborted: no target replica")
            self._journal("drain", t_s=t, replica=name, mode="aborted")
            return None
        try:
            new_run = run.migrate_to(target)
            mode = "cache-migration"
            t = max(t + self.policy.drain_migrate_s, target.busy_until_s)
        except ValueError as exc:
            new_run = GroupRun(target, run.wrapped)
            mode = "re-prefill"
            t = max(t + self.policy.failover_overhead_s,
                    target.busy_until_s)
            self.events.record(FAULT_DETECTED, replica=source.name,
                               error="CacheMigrationFailed",
                               detail=str(exc), t_s=t)
        self._journal("drain", t_s=t, replica=name, mode=mode)
        self.events.record(FAILOVER, mode=mode, source=source.name,
                           target=target.name, t_s=t, error="drain")
        self.tracer.mark(f"drain:{source.name}->{target.name}",
                         mode=mode)
        return new_run, t

    def _try_hedge(self, run: GroupRun, t: float, gid: int):
        """Dispatch a duplicate of the lagging group to a second replica.

        Returns ``(finish, completions, replica)``, or ``None`` when
        there is no backup or the hedge faults; the caller runs the
        original to completion and takes the earlier finish.  A hedge
        that faults is abandoned (the original is still running); the
        breaker records the failure either way.
        """
        rid = run.group[0].request_id
        try:
            backup = self._pick_replica(t, rid, "default",
                                        exclude=run.replica, phase="decode")
        except NoHealthyReplica:
            return None  # nobody to hedge to; don't retry the check
        if backup is run.replica:
            return None
        self.hedges += 1
        self._journal("hedge", t_s=t, group=gid,
                      source=run.replica.name, target=backup.name)
        self.tracer.mark(f"hedge:{run.replica.name}->{backup.name}",
                         group=gid)
        hedge_run = GroupRun(backup, run.wrapped)
        bt = max(t, backup.busy_until_s)
        self._running.add(backup.name)
        try:
            # The backup is mid-group too: a restart that comes due on it
            # abandons the hedge like any other backup fault.
            self._maybe_crash_running(hedge_run, bt, gid)
            try:
                hedge_run.run_prefill()
            finally:
                bt += hedge_run.prefill_s
            self._note_leases(hedge_run, bt, gid)
            while not hedge_run.done:
                self._maybe_crash_running(hedge_run, bt, gid)
                bt += hedge_run.decode_step()
        except MeshFault as exc:
            self._on_group_fault(backup, exc, bt)
            return None
        finally:
            self._running.discard(backup.name)
            self._release_leases(hedge_run, bt, gid)
        backup.busy_until_s = bt
        self.breakers[backup.name].record_success(bt)
        return bt, hedge_run.completions(), backup.name

    @staticmethod
    def _assert_identical(a: Sequence[Completion],
                          b: Sequence[Completion]) -> None:
        for left, right in zip(a, b):
            if left.request_id != right.request_id or \
                    not np.array_equal(left.tokens, right.tokens):
                raise AssertionError(
                    f"hedged streams diverged for request "
                    f"{left.request_id}: greedy decode must be "
                    f"replica-invariant")

    # -- outcome bookkeeping ------------------------------------------------

    def _complete_group(self, subs, completions, by_id, finish_s: float,
                        replica: str, *, gid: int, hedged: bool,
                        failovers: int,
                        first_token_s: float | None = None,
                        capped: Sequence[bool] | None = None) -> None:
        capped = capped or [False] * len(subs)
        entries = []
        for sub, completion, was_capped in zip(subs, completions, capped):
            rid = sub.request.request_id
            crc = token_crc(completion.tokens)
            stream_len = int(len(completion.tokens))
            self._ledger_completed[rid] = (crc, stream_len, was_capped)
            met = sub.deadline_s is None or finish_s <= sub.deadline_s
            status = (ClusterRequestStatus.COMPLETED if met
                      else ClusterRequestStatus.DEADLINE_MISSED)
            outcome = ClusterOutcome(
                rid, status, sub.priority_class, completion=completion,
                replica=replica, arrival_s=sub.arrival_s,
                finish_s=finish_s, hedged=hedged, failovers=failovers,
                first_token_s=first_token_s, output_capped=was_capped)
            by_id[rid] = outcome
            entries.append(dict(
                request_id=rid, token_crc=crc, stream_len=stream_len,
                output_capped=was_capped, met_deadline=met,
                priority_class=sub.priority_class, ttft_s=outcome.ttft_s,
                tpot_s=outcome.tpot_s, n_tokens=completion.n_generated))
        self._journal("group_complete", t_s=finish_s, group=gid,
                      replica=replica, hedged=hedged, failovers=failovers,
                      entries=entries)

    def _fail_group(self, subs, by_id, *, gid: int, error: str,
                    failovers: int,
                    finish_s: float | None = None) -> None:
        finish = self.now_s if finish_s is None else finish_s
        rids = [sub.request.request_id for sub in subs]
        self._journal("group_fail", t_s=finish, group=gid,
                      requests=rids, error=error, failovers=failovers)
        for sub in subs:
            rid = sub.request.request_id
            self._ledger_failed[rid] = error
            by_id[rid] = ClusterOutcome(
                rid, ClusterRequestStatus.FAILED, sub.priority_class,
                arrival_s=sub.arrival_s, finish_s=finish,
                failovers=failovers, rejection=error)
