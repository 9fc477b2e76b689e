"""Disaggregated prefill/decode serving: two pools, explicit KV handoff.

The paper's Section 3.2 Pareto analysis says prefill and decode want
*different* partitioning layouts — token-rich prefill the 2D
weight-stationary plan (Section 3.2.2), large-batch decode the
weight-gathered plan — and Section 4.4 already describes the
prefill-server -> decode-server cache transfer that makes running them
on separate machines possible.  DistServe and TPLA (see PAPERS.md) turn
that observation into an architecture: a **prefill pool** and a
**decode pool** of independently shaped, independently planned replicas
with an explicit KV-cache handoff between them.  This module is that
architecture on the simulated substrate:

* :class:`PoolSpec` — per-pool replica shapes plus the pool's
  partitioning profiles (prefill pool defaults to 2D weight-stationary
  prefill, decode pool to weight-gathered decode).
* :class:`DisaggControlPlane` — a phase-aware
  :class:`~repro.cluster.control_plane.ClusterControlPlane`: new groups
  prefill in the prefill pool, then the finished KV caches move to a
  decode replica over the existing live-migration path
  (:meth:`~repro.cluster.replica.GroupRun.migrate_to`), priced by the
  Appendix A.1 link model and journaled as a ``handoff_commit`` record
  (event view :data:`~repro.events.KV_HANDOFF`).  The transfer
  *overlaps* the decode pool's ongoing steps: decode starts at
  ``max(prefill_end + transfer, target_busy)``.
* :class:`DisaggAutoscaler` — pools scale independently (scale-out
  picks the pool the token mix says is the bottleneck) and the brownout
  ladder gains a ``collapse-pools`` rung that merges the pools back
  into a colocated fleet under pressure — and reverses cleanly.

Invariants, same as the rest of :mod:`repro.cluster`:

* **Virtual-clock purity** — every run is a pure function of
  ``(workload, backend, seed)``; the handoff charges simulated seconds
  from :func:`handoff_transfer_s`, never wall time.
* **Bit-identity** — greedy decode is plan-, mesh- and batch-
  composition-invariant, so disaggregated completions are bit-identical
  to a colocated fleet's (the disagg benchmark and chaos scenario
  assert it).
* **Typed records** — every handoff step, collapse and restore is a
  journal record, which the journal projects into the
  :class:`~repro.events.EventLog`; failures surface as
  :class:`HandoffAborted` (a :class:`~repro.mesh.faults.MeshFault`), so
  the control plane's failover machinery — re-prefill in the prefill
  pool — covers mid-handoff chip deaths with zero dropped requests.
* **Capture** — a handoff invalidates nothing: decode programs key on
  the *destination* replica's signature (each replica owns its
  :class:`~repro.mesh.capture.StepCompiler`), so the decode pool's
  warm programs keep replaying across handoffs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from repro.cluster.admission import NoHealthyReplica
from repro.cluster.autoscaler import (
    BROWNOUT_LADDER,
    Autoscaler,
    AutoscalerPolicy,
)
from repro.cluster.control_plane import (
    ClusterControlPlane,
    ClusterPolicy,
    FleetConfigError,
)
from repro.cluster.replica import GroupRun, Replica
from repro.collectives.cost import all_gather_time
from repro.events import AUTOSCALE_DECISION
from repro.mesh.faults import MeshFault
from repro.serving.backoff import jittered_backoff_s

Coord = tuple[int, int, int]

#: The disaggregated fleet's brownout ladder: the base rungs with
#: ``collapse-pools`` inserted before the final shed — merging the
#: pools is less harmful than refusing users, so it engages first.
DISAGG_BROWNOUT_LADDER = (BROWNOUT_LADDER[:-1] + ("collapse-pools",)
                          + BROWNOUT_LADDER[-1:])


class HandoffAborted(MeshFault):
    """The KV handoff transaction gave up after its retry budget.

    Raised out of :meth:`DisaggControlPlane._after_prefill` only once
    ``DisaggPolicy.handoff_retries`` seeded-backoff retries have all
    failed (a single transfer fault is retried, not aborted).  Caught by
    the control plane's standard failover handler — which re-prefills
    the group in the prefill pool, exactly like any other mid-group
    fault.
    """


@dataclass(frozen=True)
class PoolSpec:
    """One pool's replica shapes and partitioning profiles (pure data).

    ``name`` must be ``"prefill"`` or ``"decode"``.  The profiles name
    ends of the Section 3.2 frontier (``"balanced"`` /
    ``"weight-stationary"`` / ``"weight-gathered"``); each replica in
    the pool is steered to them at construction and re-steered at
    dispatch after any degraded replan.  ``names`` optionally pins the
    pool's replica names (one per shape, fleet-unique) — misconfigured
    rosters raise :class:`~repro.cluster.control_plane.FleetConfigError`
    at construction, mirroring ``FaultPlan``'s eager validation.
    """

    name: str
    shapes: tuple[Coord, ...]
    prefill_profile: str = "balanced"
    decode_profile: str = "balanced"
    names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.name not in ("prefill", "decode"):
            raise ValueError(f"pool name must be 'prefill' or 'decode', "
                             f"got {self.name!r}")
        if not self.shapes:
            raise FleetConfigError(f"pool {self.name!r} needs at least "
                                   f"one replica shape")
        for profile in (self.prefill_profile, self.decode_profile):
            if profile not in ("balanced", "weight-stationary",
                               "weight-gathered"):
                raise ValueError(f"unknown profile {profile!r}")
        if self.names:
            if len(self.names) != len(self.shapes):
                raise FleetConfigError(
                    f"pool {self.name!r} names {len(self.names)} "
                    f"replicas but has {len(self.shapes)} shapes")
            dupes = {n for n in self.names if self.names.count(n) > 1}
            if dupes:
                raise FleetConfigError(
                    f"pool {self.name!r} repeats replica names "
                    f"{sorted(dupes)}")


def default_pools(prefill_shapes: Sequence[Coord],
                  decode_shapes: Sequence[Coord]
                  ) -> tuple[PoolSpec, PoolSpec]:
    """The paper-faithful pool pair: 2D weight-stationary prefill
    replicas and weight-gathered decode replicas (Section 3.2)."""
    return (
        PoolSpec("prefill", tuple(prefill_shapes),
                 prefill_profile="weight-stationary"),
        PoolSpec("decode", tuple(decode_shapes),
                 decode_profile="weight-gathered"),
    )


@dataclass(frozen=True)
class DisaggPolicy(ClusterPolicy):
    """Cluster policy plus the cross-pool link and routing knobs."""

    #: The prefill->decode link the KV caches cross, priced by the
    #: Appendix A.1 beta model (one inter-replica hop): TPU v4 ICI
    #: bandwidth by default.
    link_bandwidth: float = 270e9
    link_alpha_s: float = 1e-6         # per-hop launch latency
    #: ``True`` refuses groups when a phase's pool has no dispatchable
    #: replica; the default degrades to colocated routing instead (the
    #: other pool can run both phases, just on its own plans).
    strict_pools: bool = False
    #: Transactional handoff: how many times a failed transfer is
    #: retried (with seeded jittered exponential backoff) before the
    #: transaction aborts to re-prefill.  0 restores the legacy
    #: abort-on-first-fault behavior.
    handoff_retries: int = 2
    handoff_backoff_base_s: float = 0.01
    handoff_backoff_jitter: float = 0.5
    handoff_backoff_seed: int = 0


@dataclass(frozen=True)
class PoolPartition:
    """Scheduled heartbeat loss of one whole pool (a chaos fault class).

    From ``at_s`` until ``until_s`` the control plane cannot reach any
    replica of ``pool``: the members are *quarantined* (no dispatch, no
    handoff target) and the transactional handoff keeps retrying into
    the partition with seeded backoff until it heals — or the retry
    budget aborts to re-prefill.  Recovery re-admits the survivors
    (:data:`~repro.events.POOL_REJOINED`).
    """

    pool: str
    at_s: float
    until_s: float

    def __post_init__(self) -> None:
        if self.pool not in ("prefill", "decode"):
            raise ValueError(f"pool must be 'prefill' or 'decode', "
                             f"got {self.pool!r}")
        if not 0.0 <= self.at_s < self.until_s:
            raise ValueError(
                f"partition window must satisfy 0 <= at_s < until_s, "
                f"got [{self.at_s}, {self.until_s})")


def handoff_transfer_s(n_bytes: int, policy: DisaggPolicy) -> float:
    """Virtual seconds to move ``n_bytes`` of KV cache across pools.

    One host-mediated hop of the Appendix A.1 link model:
    ``bytes / link_bandwidth + alpha`` (``all_gather_time`` with group
    size 2 and ``exact=False`` reduces to exactly that).
    """
    return all_gather_time(float(n_bytes), 2, policy.link_bandwidth,
                           exact=False, alpha=policy.link_alpha_s)


class DisaggControlPlane(ClusterControlPlane):
    """A control plane whose fleet is split into prefill/decode pools.

    Replica order is pools-in-order (prefill pool first), so
    ``fault_plans`` indices and replica names line up with the
    concatenated shape list.  All base-plane machinery — admission,
    failover, drains, hedging, autoscaler levers — works unchanged; the
    pool structure only changes *routing* (phase-aware
    :meth:`_phase_candidates`) and adds the post-prefill KV handoff
    (:meth:`_after_prefill`).
    """

    def __init__(self, weights, pools: Sequence[PoolSpec], *,
                 policy: ClusterPolicy | None = None,
                 partitions: Sequence[PoolPartition] = (),
                 **kwargs):
        pools = tuple(pools)
        pool_names = sorted(p.name for p in pools)
        if pool_names != ["decode", "prefill"]:
            raise ValueError(f"need exactly one 'prefill' and one "
                             f"'decode' pool, got {[p.name for p in pools]}")
        policy = policy if policy is not None else DisaggPolicy()
        if not isinstance(policy, DisaggPolicy):
            # Promote a plain ClusterPolicy (chaos scenarios pass one);
            # the link/routing knobs take their defaults.
            policy = DisaggPolicy(**{
                f.name: getattr(policy, f.name)
                for f in fields(ClusterPolicy)})
        named = [p for p in pools if p.names]
        if named and len(named) != len(pools):
            raise FleetConfigError(
                "either every pool names its replicas or none does; "
                f"only {[p.name for p in named]} did")
        if named:
            flat = [n for p in pools for n in p.names]
            overlap = {n for n in flat if flat.count(n) > 1}
            if overlap:
                raise FleetConfigError(
                    f"replicas {sorted(overlap)} belong to more than "
                    f"one pool")
            kwargs["names"] = flat
        shapes = [shape for spec in pools for shape in spec.shapes]
        super().__init__(weights, shapes, policy=policy, **kwargs)
        self.pool_specs = {p.name: p for p in pools}
        self.pool_of: dict[str, str] = {}
        i = 0
        for spec in pools:
            for _ in spec.shapes:
                self.pool_of[self.replicas[i].name] = spec.name
                i += 1
        self.pools_collapsed = False
        self.kv_handoffs = 0
        self.kv_handoff_bytes = 0
        self.kv_handoff_bytes_saved = 0  # prefix pages the target held
        self.kv_pages_adopted = 0     # source pages registered on targets
        self.handoffs_colocated = 0   # no decode target: decoded in place
        self.handoff_retries = 0
        self.handoff_aborts = 0
        self.handoff_dups_dropped = 0
        #: Groups whose KV pages reached the decode side even though the
        #: transfer ack was lost — the retransmit dedups against this.
        self._handoff_delivered: set[int] = set()
        self.partitions = tuple(partitions)
        self._partition_active = [False] * len(self.partitions)
        self.quarantined: set[str] = set()
        self._pool_fallback_noted = False
        for replica in self.replicas:
            self._apply_pool_profiles(replica, 0.0)

    # -- pool structure -----------------------------------------------------

    def active_replicas(self, pool: str | None = None) -> list[Replica]:
        """Dispatchable, non-retiring replicas, optionally one pool's."""
        replicas = super().active_replicas()
        if pool is None:
            return replicas
        return [r for r in replicas if self.pool_of.get(r.name) == pool]

    def add_replica(self, shape: Coord, now_s: float, *,
                    spinup_s: float = 0.0,
                    pool: str = "decode") -> Replica:
        """Scale out into ``pool`` (profiles applied at construction)."""
        if pool not in self.pool_specs:
            raise ValueError(f"unknown pool {pool!r}")
        replica = super().add_replica(shape, now_s, spinup_s=spinup_s,
                                      pool=pool)
        self.pool_of[replica.name] = pool
        self._apply_pool_profiles(replica, now_s)
        return replica

    # -- pool partitions (heartbeat loss) ------------------------------------

    def _heartbeat_all(self, now_s: float) -> None:
        self._update_partitions(now_s)
        super()._heartbeat_all(now_s)

    def _update_partitions(self, now_s: float) -> None:
        """Quarantine / re-admit pool members as partition windows move.

        A quarantined replica is unreachable, not dead: its process and
        caches are fine, the control plane just cannot dispatch to it
        (or hand KV pages to it) until heartbeats resume.  Both edges
        are journaled, so replay reconstructs the quarantine set.
        """
        for i, part in enumerate(self.partitions):
            active = part.at_s <= now_s < part.until_s
            if active and not self._partition_active[i]:
                self._partition_active[i] = True
                members = sorted(
                    r.name for r in self.replicas
                    if self.pool_of.get(r.name) == part.pool
                    and r.name not in self.quarantined)
                self.quarantined.update(members)
                self._journal("quarantine", t_s=now_s, pool=part.pool,
                              replicas=members, until_s=part.until_s)
                self.tracer.mark(f"pool-quarantined:{part.pool}",
                                 replicas=members)
            elif not active and self._partition_active[i] and \
                    now_s >= part.until_s:
                self._partition_active[i] = False
                held = sorted(n for n in self.quarantined
                              if self.pool_of.get(n) == part.pool)
                self.quarantined.difference_update(held)
                self._journal("pool_rejoin", t_s=now_s, pool=part.pool,
                              replicas=held)
                self.tracer.mark(f"pool-rejoined:{part.pool}",
                                 replicas=held)

    def _apply_pool_profiles(self, replica: Replica, t: float) -> None:
        """Steer a replica's prefill and decode plans to its pool's."""
        spec = self.pool_specs[self.pool_of[replica.name]]
        if replica.prefill_profile != spec.prefill_profile:
            replica.switch_prefill_profile(spec.prefill_profile, t)
        if replica.profile != spec.decode_profile:
            replica.switch_profile(spec.decode_profile, t)

    def _phase_candidates(self, phase: str) -> list[Replica]:
        # Quarantined replicas (pool partition) are unreachable for
        # dispatch regardless of pool routing, including the fallback.
        live = [r for r in self.replicas
                if r.name not in self.quarantined]
        if self.pools_collapsed or phase == "any":
            return live
        pool = "prefill" if phase == "prefill" else "decode"
        members = [r for r in live if self.pool_of.get(r.name) == pool]
        if not getattr(self.policy, "strict_pools", False) and \
                not any(r.dispatchable for r in members):
            # The pool is lost (dead / draining / not yet provisioned):
            # degrade to colocated routing rather than refuse service.
            if not self._pool_fallback_noted:
                self._pool_fallback_noted = True
                self.tracer.mark(f"pool-fallback:{pool}",
                                 pool=pool, phase=phase)
            return live
        return members

    def _apply_profile(self, replica: Replica, t: float) -> float:
        """At dispatch, steer to the pool's plans (collapsed: base rules).

        After a degraded replan reset a replica to ``balanced`` this is
        where its pool profiles come back; the switch charges one
        ``plan_switch_s`` like any other plan move.
        """
        if self.pools_collapsed or replica.name not in self.pool_of:
            return super()._apply_profile(replica, t)
        spec = self.pool_specs[self.pool_of[replica.name]]
        switched = False
        if replica.prefill_profile != spec.prefill_profile and \
                replica.switch_prefill_profile(spec.prefill_profile, t):
            switched = True
        if replica.profile != spec.decode_profile and \
                replica.switch_profile(spec.decode_profile, t):
            switched = True
        return self.policy.plan_switch_s if switched else 0.0

    # -- the KV handoff -----------------------------------------------------

    def _colocate(self, run: GroupRun, t: float, gid: int,
                  reason: str) -> tuple[GroupRun, float]:
        """Give up on handing off: decode in place on the prefill
        replica (a degrade path, not a fault)."""
        self.handoffs_colocated += 1
        self.tracer.mark(f"handoff-colocated:{run.replica.name}",
                         group=gid, reason=reason)
        return run, t

    def _uncached_bytes(self, run: GroupRun,
                        target: Replica) -> tuple[int, int]:
        """Split the handoff payload into (uncached, already-cached) bytes.

        The Mooncake-style pricing: prefix pages the *target's* store
        already holds need not cross the link — only the uncached
        remainder is transferred.  Matched tokens are measured by a pure
        ``peek`` per request against the target store.
        """
        total = run.kv_cache_bytes()
        if target.kvstore is None:
            return total, 0
        per_token = sum(
            2 * cache.global_shape[2] * cache.global_shape[3]
            * np.dtype(cache.dtype).itemsize
            for cache in run.caches)
        matched = sum(target.kvstore.peek(request.prompt)
                      for request in run.group)
        saved = min(matched * per_token, total)
        return total - saved, saved

    def _adopt_pages(self, run: GroupRun, source: Replica,
                     target: Replica, t: float, gid: int) -> None:
        """Register the source's prefix pages on the target store.

        Adoption is by reference (sealed pages are immutable), so later
        prompts sharing the prefix hit on the decode side too and the
        next handoff of the same prefix prices at zero.  No journal
        record: adoption only seeds a cache — losing it costs recompute,
        never correctness — unlike leases, which pin memory.
        """
        if source.kvstore is None or target.kvstore is None:
            return
        adopted = 0
        for request in run.group:
            pages = source.kvstore.lookup_pages(request.prompt)
            if pages:
                adopted += target.kvstore.adopt(request.prompt, pages)
        if adopted:
            self.kv_pages_adopted += adopted
            self.tracer.mark(
                f"page-adopt:{source.name}->{target.name}",
                group=gid, pages=adopted)

    def _handoff_target(self, t: float, run: GroupRun,
                        source: Replica) -> Replica | None:
        rid = run.group[0].request_id
        try:
            target = self._pick_replica(t, rid, "default",
                                        exclude=source, phase="decode")
        except NoHealthyReplica:
            return None
        return None if target is source else target

    def _after_prefill(self, run: GroupRun, t: float,
                       gid: int) -> tuple[GroupRun, float]:
        """Hand the group's finished KV caches to a decode replica —
        transactionally.

        The Section 4.4 prefill-server -> decode-server transfer as a
        prepare/commit transaction.  **Prepare** stages the merged
        caches host-side (:meth:`GroupRun.migrate_to` — Section 4.4's
        host-mediated path), so the staged pages stay valid however the
        source mesh changes afterwards.  **Commit** drives the transfer:
        the source's fault clock advances one ``"handoff"`` phase step,
        and any fault there — source chips lost, the transfer ack lost,
        the decode pool partitioned — is *retried* with seeded jittered
        exponential backoff (``jittered_backoff_s``, keyed by the group
        id) after a source heartbeat replans around whatever died.  The
        retransmit path dedups: if the pages already landed (ack lost
        after delivery), the duplicate is dropped on the decode side and
        the commit proceeds — the journal's prepare/retry/commit records
        are what the auditor replays to certify exactly-once delivery.
        Only an exhausted retry budget raises :class:`HandoffAborted`
        into the failover path (re-prefill in the prefill pool).

        Committed decode starts at ``max(prefill_end + transfer,
        target_busy)`` — the A.1-priced transfer overlaps whatever the
        decode replica is already running.  No decode target (or a plan
        that cannot host the batch) degrades to decoding in place,
        unless the pool is merely partitioned — then the transaction
        waits it out instead of wasting the prefill.
        """
        if self.pools_collapsed:
            return run, t
        source = run.replica
        if self.pool_of.get(source.name) != "prefill":
            return run, t  # already decode-capable (pool fallback path)
        policy = self.policy
        n_bytes = run.kv_cache_bytes()
        self._journal("handoff_prepare", t_s=t, group=gid,
                      source=source.name, bytes=n_bytes)
        budget = max(getattr(policy, "handoff_retries", 0), 0)
        attempts = budget + 1
        target: Replica | None = None
        new_run: GroupRun | None = None
        for attempt in range(1, attempts + 1):
            self._update_partitions(t)
            failure = None
            if target is not None and target.name in self.quarantined:
                target = None     # partition opened mid-backoff:
                new_run = None    # re-pick (and re-stage) after it heals
            if target is None:
                target = self._handoff_target(t, run, source)
                if target is None:
                    if self.quarantined:
                        # The decode pool is partitioned, not gone: the
                        # staged pages are fine, wait out the window.
                        failure = "decode-pool-partitioned"
                    else:
                        return self._colocate(run, t, gid,
                                              "no decode target")
            if failure is None and new_run is None:
                try:
                    new_run = run.migrate_to(target)
                except ValueError:
                    # The target's plan cannot host this batch (weight-
                    # gathered batch-group divisibility): not a fault,
                    # just decode here.
                    return self._colocate(run, t, gid,
                                          "migration refused")
            if failure is None:
                # Commit: the source drives the transfer — advance its
                # fault clock one "handoff" phase step so chaos can
                # fault exactly here.
                source.advance("handoff")
                state = source.fault_state
                if state is not None and state.dead_chips:
                    failure = "source-chips-lost"
                elif state is not None and \
                        state.take_transfer_fault("handoff") is not None:
                    # The pages landed but the ack was lost: the decode
                    # side holds them; the retransmit must dedup.
                    self._handoff_delivered.add(gid)
                    failure = "ack-lost"
            if failure is None:
                if gid in self._handoff_delivered:
                    self.handoff_dups_dropped += 1
                    self._journal("handoff_dup", t_s=t, group=gid,
                                  target=target.name)
                    self.tracer.mark(f"handoff-dedup:{target.name}",
                                     group=gid)
                # Prefix pages the target's store already holds stay
                # put — only the uncached remainder is priced on the
                # A.1 link (storage traded for transfer, the Mooncake
                # recipe applied to the handoff).
                uncached, saved = self._uncached_bytes(run, target)
                transfer_s = handoff_transfer_s(uncached, policy)
                # The source is occupied until the transfer completes
                # (a drain or scale-in of it waits at least that long);
                # the target keeps decoding its current work — overlap
                # comes from starting at whichever of transfer-done /
                # target-free is later.
                source.busy_until_s = t + transfer_s
                decode_start = max(t + transfer_s, target.busy_until_s)
                self.kv_handoffs += 1
                self.kv_handoff_bytes += uncached
                self.kv_handoff_bytes_saved += saved
                self._journal(
                    "handoff_commit", t_s=t, group=gid,
                    source=source.name, target=target.name,
                    attempt=attempt, bytes=uncached, bytes_saved=saved,
                    transfer_s=transfer_s, decode_start_s=decode_start,
                    overlapped_s=max(
                        target.busy_until_s - (t + transfer_s), 0.0))
                self.tracer.mark(
                    f"kv-handoff:{source.name}->{target.name}",
                    group=gid, bytes=uncached, transfer_s=transfer_s)
                # Post-commit: seed the decode side's store so the next
                # shared-prefix handoff prices (and routes) even better.
                self._adopt_pages(run, source, target, t, gid)
                return new_run, decode_start
            if attempt == attempts:
                self.handoff_aborts += 1
                self._journal("handoff_abort", t_s=t, group=gid,
                              source=source.name, reason=failure,
                              budget=budget)
                source.busy_until_s = t
                raise HandoffAborted(
                    f"KV handoff for group {gid} gave up after "
                    f"{budget} retries ({failure}); re-prefilling")
            self.handoff_retries += 1
            backoff = jittered_backoff_s(
                attempt,
                base_s=getattr(policy, "handoff_backoff_base_s", 0.01),
                jitter=getattr(policy, "handoff_backoff_jitter", 0.5),
                seed=getattr(policy, "handoff_backoff_seed", 0),
                key=gid)
            self._journal("handoff_retry", t_s=t, group=gid,
                          source=source.name, attempt=attempt,
                          reason=failure, backoff_s=backoff)
            self.tracer.mark(f"handoff-retry:{source.name}", group=gid,
                             attempt=attempt, reason=failure)
            t += backoff
            self._set_now(t)
            source.busy_until_s = t
            # Replan around whatever died before the retransmit; the
            # staged pages (prepare) stay valid across the replan.
            source.heartbeat(t)
        raise AssertionError("unreachable: handoff loop neither "
                             "committed nor aborted")

    # -- collapse-to-colocated ----------------------------------------------

    def collapse_pools(self, now_s: float) -> bool:
        """Merge the pools: any replica serves any phase (brownout rung).

        Routing reverts to the base plane's least-busy dispatch and the
        handoff is suspended; replicas keep their current plans until
        the base profile rules re-steer them at dispatch.  Reversible
        via :meth:`restore_pools`.
        """
        if self.pools_collapsed:
            return False
        self.pools_collapsed = True
        self._journal("pools", t_s=now_s, collapsed=True)
        self.tracer.mark("pools-collapsed")
        return True

    def restore_pools(self, now_s: float) -> bool:
        """Reverse :meth:`collapse_pools`: pool routing and handoffs
        resume; pool profiles re-apply at each replica's next dispatch."""
        if not self.pools_collapsed:
            return False
        self.pools_collapsed = False
        self._journal("pools", t_s=now_s, collapsed=False)
        self.tracer.mark("pools-restored")
        return True


@dataclass(frozen=True)
class DisaggAutoscalerPolicy(AutoscalerPolicy):
    """Autoscaler policy plus the per-pool knobs."""

    min_per_pool: int = 1              # scale-in floor per pool
    #: Shapes scale-out provisions per pool; ``None`` falls back to
    #: ``replica_shape``.
    prefill_shape: Coord | None = None
    decode_shape: Coord | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.min_per_pool < 1:
            raise ValueError("min_per_pool must be >= 1")


class DisaggAutoscaler(Autoscaler):
    """The pool-aware control loop for a :class:`DisaggControlPlane`.

    Pools scale *independently*: scale-out reads the token mix since
    the last decision and grows the pool doing the bottleneck phase;
    scale-in drains the newest replica of whichever pool is above its
    floor.  The brownout ladder is the base ladder plus a
    ``collapse-pools`` rung (engaged before shedding, released in
    reverse order) that merges the fleet back to colocated serving
    under pressure — :meth:`assert_reverted` additionally checks the
    pools were split again.
    """

    ladder = DISAGG_BROWNOUT_LADDER

    def __init__(self, policy: AutoscalerPolicy | None = None):
        super().__init__(policy or DisaggAutoscalerPolicy())
        self._scale_prefill_mark = 0
        self._scale_decode_mark = 0

    def _pool_shape(self, pool: str) -> Coord:
        shape = getattr(self.policy,
                        "prefill_shape" if pool == "prefill"
                        else "decode_shape", None)
        return shape if shape is not None else self.policy.replica_shape

    def _scale_out(self, plane, t: float, pressure: float,
                   slo_breach: bool, n_active: int) -> None:
        d_prefill = plane.prefill_tokens - self._scale_prefill_mark
        d_decode = plane.decode_tokens - self._scale_decode_mark
        self._scale_prefill_mark = plane.prefill_tokens
        self._scale_decode_mark = plane.decode_tokens
        total = d_prefill + d_decode
        if total:
            pool = "prefill" if d_prefill / total >= 0.5 else "decode"
        else:
            # No token evidence yet: grow the smaller pool (prefill on
            # ties — new groups enter the fleet there).
            n_p = len(plane.active_replicas(pool="prefill"))
            n_d = len(plane.active_replicas(pool="decode"))
            pool = "prefill" if n_p <= n_d else "decode"
        replica = plane.add_replica(self._pool_shape(pool), t,
                                    spinup_s=self.policy.spinup_s,
                                    pool=pool)
        plane.events.record(
            AUTOSCALE_DECISION, action="scale-out", t_s=t,
            replica=replica.name, pool=pool,
            pressure=round(pressure, 3), slo_breach=slo_breach,
            fleet=n_active + 1)

    def _scale_in(self, plane, t: float, pressure: float,
                  n_active: int) -> bool:
        floor = getattr(self.policy, "min_per_pool", 1)
        eligible = {}
        for pool in ("prefill", "decode"):
            members = plane.active_replicas(pool=pool)
            if len(members) > floor:
                eligible[pool] = members
        if not eligible:
            return False  # both pools at their floor: keep the fleet
        # Retire from the larger pool (decode on ties), newest first.
        pool = max(eligible, key=lambda p: (len(eligible[p]),
                                            p == "decode"))
        victim = eligible[pool][-1]
        plane.begin_scale_in(victim.name, t)
        plane.events.record(
            AUTOSCALE_DECISION, action="scale-in", t_s=t,
            replica=victim.name, pool=pool,
            pressure=round(pressure, 3), fleet=n_active - 1)
        return True

    def _engage_custom(self, plane, t: float, rung: str) -> None:
        if rung == "collapse-pools":
            plane.collapse_pools(t)
        else:
            super()._engage_custom(plane, t, rung)

    def _release_custom(self, plane, t: float, rung: str) -> None:
        if rung == "collapse-pools":
            plane.restore_pools(t)
        else:
            super()._release_custom(plane, t, rung)

    def settled(self, plane) -> bool:
        return super().settled(plane) and not plane.pools_collapsed

    def assert_reverted(self, plane) -> None:
        super().assert_reverted(plane)
        if plane.pools_collapsed:
            raise AssertionError("pools still collapsed after recovery")
