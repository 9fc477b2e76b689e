"""Resilient request lifecycle: detect -> replan -> retry -> shed.

The two-phase recipe in :mod:`repro.serving.sharded` assumes the mesh
stays healthy for the whole run.  This module adds the failure handling
a production deployment needs, as a lifecycle policy over one
:class:`~repro.cluster.replica.Replica` (the cluster's replica runtime,
which owns the deployment and runs each request group) and around the
continuous-batching engine:

* **Detection** — the collectives raise typed
  :class:`~repro.mesh.faults.MeshFault` errors instead of returning
  garbage; under SPMD the first collective after a chip dies surfaces it.
* **Replanning** — on a :class:`~repro.mesh.faults.ChipFailure` the
  replica rebuilds its prefill/decode models on the largest healthy
  sub-slice (:meth:`~repro.cluster.replica.Replica.replan_around`).  Stragglers
  are detected by deadline projection and evicted the same way, with live
  KV caches migrated to the new mesh where the old mesh's data is still
  readable.
* **Bounded retry** — requests whose batch died are retried with
  exponential backoff by re-prefilling from the prompt.  Decoding is
  greedy, so a retry is idempotent: completed requests' tokens are
  bit-identical to a fault-free run no matter where the failure landed.
* **Admission control** — once degraded, the server sheds requests whose
  deadline cannot be met at the reduced capacity instead of burning the
  shrunken mesh on work it will throw away.

Every decision is recorded in an :class:`~repro.events.EventLog`, so
tests (and operators) can assert the full
detect -> replan -> retry timeline.

Wall-clock is *simulated*: a :class:`CostModel` charges per model
invocation, scaled by ``full_chips / current_chips`` once degraded, plus
any straggler delay accumulated by the fault state.  This keeps the
lifecycle logic (deadlines, backoff, shedding) deterministic and testable
without timers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.events import (
    FAULT_DETECTED,
    FAULT_INJECTED,
    REPLANNED,
    REQUEST_COMPLETED,
    REQUEST_FAILED,
    REQUEST_RETRIED,
    REQUEST_SHED,
    EventLog,
)
from repro.mesh import VirtualMesh
from repro.mesh.faults import ChipFailure, FaultPlan, MeshFault
from repro.partitioning.degraded import (
    largest_healthy_subslice,
    migrate_caches,
)
from repro.serving.backoff import exponential_backoff_s
from repro.serving.continuous import ContinuousBatchingEngine
from repro.serving.engine import Completion, Request
from repro.serving.scheduler import group_requests

if TYPE_CHECKING:  # cluster.replica imports this module
    from repro.cluster.replica import GroupRun


class RequestStatus(str, Enum):
    """Terminal state of a request's lifecycle."""

    COMPLETED = "completed"            # finished within its deadline
    DEADLINE_MISSED = "deadline_missed"  # finished, but too late
    SHED = "shed"                      # refused: deadline unmeetable
    FAILED = "failed"                  # retry budget exhausted


@dataclass(frozen=True)
class ResilientRequest:
    """A request plus its lifecycle policy knobs."""

    request: Request
    deadline_s: float | None = None    # None = no deadline
    max_retries: int = 3


@dataclass
class RequestOutcome:
    """What ultimately happened to one request."""

    request_id: int
    status: RequestStatus
    completion: Completion | None = None
    retries: int = 0
    finish_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status is RequestStatus.COMPLETED


@dataclass(frozen=True)
class CostModel:
    """Simulated wall-clock charges for lifecycle accounting.

    Per-invocation costs are multiplied by ``full_chips / current_chips``
    once the mesh is degraded (fewer chips -> proportionally slower), and
    straggler delay from :attr:`FaultState.sim_delay_s` is added on top.

    The optional profile factor tables model the Section 3.2 Pareto gap
    between partitioning plans: a replica running the named profile pays
    ``base * factor`` per invocation.  Both default empty — every
    profile then costs the base rate, which keeps legacy scenarios and
    benchmark numbers exactly as they were.  Tuples (not dicts) keep the
    dataclass hashable and frozen-safe.
    """

    prefill_s: float = 0.02
    decode_step_s: float = 0.002
    replan_s: float = 0.25
    backoff_base_s: float = 0.05
    #: ``((profile, factor), ...)`` multipliers for prefill invocations,
    #: keyed by the replica's *prefill* profile (see
    #: :meth:`repro.cluster.replica.Replica.switch_prefill_profile`).
    prefill_profile_factors: tuple[tuple[str, float], ...] = ()
    #: Same, for decode steps, keyed by the decode profile.
    decode_profile_factors: tuple[tuple[str, float], ...] = ()

    def backoff_s(self, attempt: int) -> float:
        """Exponential backoff before retry ``attempt`` (1-based).

        Delegates to the shared schedule helper
        (:func:`repro.serving.backoff.exponential_backoff_s`) with this
        model's base — bit-identical to the historical inline
        ``base * 2 ** (attempt - 1)``.
        """
        return exponential_backoff_s(attempt, base_s=self.backoff_base_s)

    def prefill_cost_s(self, profile: str = "balanced") -> float:
        """Per-request prefill charge under the given prefill profile."""
        return self.prefill_s * dict(self.prefill_profile_factors).get(
            profile, 1.0)

    def decode_cost_s(self, profile: str = "balanced") -> float:
        """Per-step decode charge under the given decode profile."""
        return self.decode_step_s * dict(self.decode_profile_factors).get(
            profile, 1.0)


class CacheMigrationFailed(MeshFault):
    """Straggler eviction could not migrate live caches; re-prefill."""


def _split_failed(live: Sequence[ResilientRequest], retries: dict,
                  outcomes: dict, events: EventLog, now_s: float,
                  exc: MeshFault) -> list[ResilientRequest]:
    """Count one more retry per live request; returns the survivors.

    Requests past their retry budget end ``FAILED`` (with a
    ``REQUEST_FAILED`` event) instead.
    """
    survivors = []
    for wreq in live:
        rid = wreq.request.request_id
        retries[rid] += 1
        if retries[rid] > wreq.max_retries:
            outcomes[rid] = RequestOutcome(
                rid, RequestStatus.FAILED, retries=retries[rid] - 1,
                finish_s=now_s)
            events.record(REQUEST_FAILED, request_id=rid,
                          retries=retries[rid] - 1,
                          error=type(exc).__name__)
        else:
            survivors.append(wreq)
    return survivors


def _backoff(survivors: Sequence[ResilientRequest], retries: dict,
             costs: CostModel, events: EventLog, now_s: float,
             attempt: int) -> float:
    """Charge retry ``attempt``'s backoff and record one re-prefill
    ``REQUEST_RETRIED`` per survivor; returns the new clock."""
    backoff = costs.backoff_s(attempt)
    now_s += backoff
    for wreq in survivors:
        rid = wreq.request.request_id
        events.record(REQUEST_RETRIED, request_id=rid,
                      attempt=retries[rid], backoff_s=backoff,
                      mode="re-prefill", t_s=now_s)
    return now_s


def _complete(live: Sequence[ResilientRequest],
              completions: Sequence[Completion], retries: dict,
              outcomes: dict, events: EventLog, now_s: float) -> None:
    """Record each finished request as ``COMPLETED`` or, past its
    deadline, ``DEADLINE_MISSED``."""
    for wreq, completion in zip(live, completions):
        rid = wreq.request.request_id
        met = wreq.deadline_s is None or now_s <= wreq.deadline_s
        status = (RequestStatus.COMPLETED if met
                  else RequestStatus.DEADLINE_MISSED)
        outcomes[rid] = RequestOutcome(
            rid, status, completion=completion, retries=retries[rid],
            finish_s=now_s)
        events.record(REQUEST_COMPLETED, request_id=rid, t_s=now_s,
                      retries=retries[rid], met_deadline=met)


class ResilientTwoPhaseServer:
    """Two-phase serving with detect -> replan -> retry -> shed.

    A lifecycle policy over one :class:`~repro.cluster.replica.Replica`
    of ``mesh``'s shape and backend: the replica owns the deployment
    (shared-weight prefill/decode models, plans chosen by the
    degraded-mesh selector unless given), the fault state built from
    ``fault_plan``, and the step compiler; each attempt at a request
    group runs as a :class:`~repro.cluster.replica.GroupRun` (chunked
    prefill, padded batch merge, one fault-clock tick per model
    invocation).  This server adds shedding, bounded retry with
    backoff, replanning around dead chips and straggler eviction on
    the simulated clock :attr:`now_s`.
    """

    def __init__(self, weights, mesh: VirtualMesh, *,
                 decode_batch: int = 8,
                 prefill_plan=None, decode_plan=None,
                 fault_plan: FaultPlan | None = None,
                 costs: CostModel | None = None,
                 event_log: EventLog | None = None,
                 prompt_len_hint: int = 64):
        from repro.cluster.replica import Replica

        if decode_batch < 1:
            raise ValueError("decode_batch must be >= 1")
        self.replica = Replica(
            "server", weights, mesh.shape, backend=mesh.backend,
            decode_batch=decode_batch, fault_plan=fault_plan, costs=costs,
            event_log=event_log, prompt_len_hint=prompt_len_hint,
            kvstore_pages=0)
        if prefill_plan is not None or decode_plan is not None:
            self.replica.deploy(decode_plan=decode_plan,
                                prefill_plan=prefill_plan)
        self.decode_batch = decode_batch
        self.costs = self.replica.costs
        self.events = self.replica.events
        # Decode steps and prefill chunks run through the replica's
        # capture-and-replay compiler; replanning invalidates it and the
        # next healthy step re-captures on the new mesh.
        self.step_compiler = self.replica.step_compiler
        self.now_s = 0.0

    @property
    def mesh(self) -> VirtualMesh:
        """The replica's current (possibly replanned) mesh."""
        return self.replica.mesh

    def _estimate_s(self, wreq: ResilientRequest) -> float:
        """Service-time estimate for admission control, at current capacity."""
        c = self.costs
        return (c.prefill_s
                + wreq.request.max_new_tokens * c.decode_step_s) \
            * self.replica.scale

    # -- lifecycle ---------------------------------------------------------

    def serve(self, requests: Sequence[Request | ResilientRequest]
              ) -> list[RequestOutcome]:
        """Serve all requests; returns one outcome per request, in order."""
        wrapped = [r if isinstance(r, ResilientRequest)
                   else ResilientRequest(r) for r in requests]
        by_id = {w.request.request_id: w for w in wrapped}
        if len(by_id) != len(wrapped):
            raise ValueError("duplicate request ids")
        outcomes: dict[int, RequestOutcome] = {}
        for group in group_requests([w.request for w in wrapped],
                                    self.decode_batch):
            self._serve_group([by_id[r.request_id] for r in group],
                              outcomes)
        return [outcomes[w.request.request_id] for w in wrapped]

    def _serve_group(self, live: list[ResilientRequest],
                     outcomes: dict[int, RequestOutcome]) -> None:
        retries = {w.request.request_id: 0 for w in live}
        attempt = 0
        while live:
            # Admission control: shed anything the current (possibly
            # degraded) capacity cannot finish by its deadline.
            admitted = []
            for wreq in live:
                rid = wreq.request.request_id
                estimate = self._estimate_s(wreq)
                if wreq.deadline_s is not None and \
                        self.now_s + estimate > wreq.deadline_s:
                    outcomes[rid] = RequestOutcome(
                        rid, RequestStatus.SHED, retries=retries[rid],
                        finish_s=self.now_s)
                    self.events.record(
                        REQUEST_SHED, request_id=rid, t_s=self.now_s,
                        estimate_s=estimate, deadline_s=wreq.deadline_s)
                else:
                    admitted.append(wreq)
            live = admitted
            if not live:
                return
            try:
                completions = self._run_group(live)
            except MeshFault as exc:
                self.events.record(FAULT_DETECTED,
                                   error=type(exc).__name__,
                                   detail=str(exc), t_s=self.now_s)
                attempt += 1
                live = _split_failed(live, retries, outcomes, self.events,
                                     self.now_s, exc)
                # A ChipFailure is permanent: replan onto the largest
                # healthy sub-slice.  Timeouts and detected corruption
                # are one-shot transients (and CacheMigrationFailed
                # means we already replanned), so the deployment stays.
                if isinstance(exc, ChipFailure):
                    self.replica.replan_around([exc.chip])
                    self.now_s += self.costs.replan_s
                self.now_s = _backoff(live, retries, self.costs,
                                      self.events, self.now_s, attempt)
                continue
            _complete(live, completions, retries, outcomes, self.events,
                      self.now_s)
            return

    def _run_group(self, live: list[ResilientRequest]) -> list[Completion]:
        from repro.cluster.replica import GroupRun

        run = GroupRun(self.replica, live)
        try:
            run.run_prefill()
        finally:
            # A fault mid-prefill still pays for the prompts it finished.
            self.now_s += run.prefill_s
        deadlines = [w.deadline_s for w in live if w.deadline_s is not None]
        min_deadline = min(deadlines) if deadlines else None
        while not run.done:
            before = self.replica.delay_s()
            self.now_s += run.decode_step()
            self._maybe_evict_stragglers(
                run, min_deadline, step_delay=self.replica.delay_s() - before)
        return run.completions()

    def _maybe_evict_stragglers(self, run: GroupRun, min_deadline,
                                step_delay: float) -> None:
        """Evict straggler chips when they put the group's deadline at risk.

        Stragglers never raise — they only show up as latency — so the
        serving layer projects the group's finish time and, if a deadline
        would be blown, replans without the slow chips and *migrates* the
        live KV caches (the old mesh's data is intact, unlike a chip
        death, so no recompute is needed).
        """
        replica = self.replica
        remaining_steps = run.remaining_steps
        if replica.fault_state is None or min_deadline is None \
                or remaining_steps <= 0 or step_delay <= 0.0:
            return
        stragglers = sorted(replica.fault_state.straggler_chips())
        if not stragglers:
            return
        projected = self.now_s + remaining_steps * (
            self.costs.decode_step_s * replica.scale + step_delay)
        if projected <= min_deadline:
            return
        self.events.record(
            FAULT_DETECTED, error="StragglerFault",
            detail=f"straggler chips {stragglers} project finish "
                   f"{projected:.4f}s past deadline {min_deadline:.4f}s",
            t_s=self.now_s)
        old_decode = replica.decode_model
        replica.replan_around(stragglers)
        self.now_s += self.costs.replan_s
        try:
            run.caches = migrate_caches(run.caches, old_decode,
                                        replica.decode_model)
        except ValueError as exc:
            raise CacheMigrationFailed(
                f"could not migrate caches to mesh {self.mesh.shape}: "
                f"{exc}") from exc
        for wreq in run.wrapped:
            self.events.record(
                REQUEST_RETRIED, request_id=wreq.request.request_id,
                attempt=0, backoff_s=0.0, mode="cache-migration",
                t_s=self.now_s)


class ResilientContinuousServer:
    """Deadline/retry/shedding wrapper around the continuous engine.

    The reference-model engine has no mesh of its own, so scheduled
    failures can arrive two ways:

    * ``fail_at_steps`` lists global decode-step indices at which a chip
      failure fires through the engine's ``step_hook`` (each one-shot);
    * ``mesh`` + ``fault_plan`` attach a :class:`VirtualMesh` as the
      *health substrate*: every decode step runs one tiny heartbeat
      collective on it (through whichever execution backend the mesh
      uses), so kills and timeouts raise real :class:`MeshFault`\\ s and
      stragglers accumulate real simulated delay.  When that delay
      projects a deadline miss, the straggler chips are *evicted* — the
      mesh is replanned onto its largest healthy sub-slice (capacity
      drops to ``scale``; the delay stops).

    Recovery restarts the engine and re-serves every request the crashed
    run had not returned — idempotent because decoding is greedy, so
    completed tokens are bit-identical to a fault-free run.
    """

    def __init__(self, model, max_slots: int, max_len: int, *,
                 fail_at_steps: Sequence[int] = (),
                 mesh: VirtualMesh | None = None,
                 fault_plan: FaultPlan | None = None,
                 costs: CostModel | None = None,
                 event_log: EventLog | None = None, seed: int = 0):
        if fault_plan is not None and mesh is None:
            raise ValueError("fault_plan requires a mesh to install it on")
        self.model = model
        self.max_slots = max_slots
        self.max_len = max_len
        self.costs = costs or CostModel()
        self.events = event_log if event_log is not None else EventLog()
        self.seed = seed
        self._fail_at = sorted(set(int(s) for s in fail_at_steps))
        self._steps_done = 0
        self.now_s = 0.0
        self.mesh = mesh
        self.full_chips = mesh.num_chips if mesh is not None else 1
        self.fault_state = None
        if mesh is not None and fault_plan is not None:
            self.fault_state = mesh.install_faults(fault_plan, self.events)
        self._extra_s = 0.0            # delay/replan charges within a run
        self._min_deadline: float | None = None
        self._remaining_hint = 0       # conservative steps left in the run

    @property
    def scale(self) -> float:
        """Slowdown factor of the (possibly degraded) health mesh."""
        if self.mesh is None:
            return 1.0
        return self.full_chips / self.mesh.num_chips

    def _heartbeat(self) -> float:
        """One probe collective on the health mesh; returns its straggler
        delay.  Raises the same typed faults real model collectives do."""
        from repro.mesh.ops import all_gather
        from repro.mesh.sharded_tensor import ShardedTensor

        state = self.fault_state
        before = state.sim_delay_s
        state.advance("decode")
        probe = ShardedTensor.from_global(
            self.mesh, np.zeros(self.mesh.num_chips), "V_xyz")
        all_gather(probe, ("x", "y", "z"), "V")
        return state.sim_delay_s - before

    def _evict_stragglers(self, local_step: int, step_delay: float) -> None:
        """Replan the health mesh around stragglers that endanger the
        earliest deadline in the current run (mirrors the two-phase
        server's eviction, at whole-mesh granularity)."""
        stragglers = sorted(self.fault_state.straggler_chips())
        if not stragglers or self._min_deadline is None:
            return
        remaining = max(self._remaining_hint - local_step, 0)
        sim_now = self.now_s + self._extra_s \
            + (local_step + 1) * self.costs.decode_step_s * self.scale
        projected = sim_now + remaining * (
            self.costs.decode_step_s * self.scale + step_delay)
        if projected <= self._min_deadline:
            return
        self.events.record(
            FAULT_DETECTED, error="StragglerFault",
            detail=f"straggler chips {stragglers} project finish "
                   f"{projected:.4f}s past deadline "
                   f"{self._min_deadline:.4f}s", t_s=sim_now)
        self._shrink_mesh(stragglers)

    def _shrink_mesh(self, bad_chips) -> None:
        """Rebuild the health mesh on its largest sub-slice avoiding
        ``bad_chips``, carrying the fault clock (the engine's reference
        model needs no resharding — only capacity and delay change)."""
        old_shape = self.mesh.shape
        sub = largest_healthy_subslice(old_shape, bad_chips)
        self.mesh = VirtualMesh(sub.shape, backend=self.mesh.backend)
        self.fault_state = self.fault_state.carry_to(self.mesh, sub.origin)
        self._extra_s += self.costs.replan_s
        self.events.record(REPLANNED, dead_chips=[tuple(c) for c
                                                  in bad_chips],
                           old_shape=old_shape, new_shape=sub.shape,
                           origin=sub.origin, prefill_plan="(unchanged)",
                           decode_plan="(unchanged)")

    def _step_hook(self, local_step: int) -> None:
        global_step = self._steps_done + local_step
        if self._fail_at and global_step >= self._fail_at[0]:
            at_step = self._fail_at.pop(0)
            self.events.record(
                FAULT_INJECTED, op="slot_decode_step", step=global_step,
                fault={"type": "ChipKill", "chip": (0, 0, 0),
                       "at_step": at_step})
            raise ChipFailure((0, 0, 0), "slot_decode_step", global_step)
        if self.fault_state is not None:
            step_delay = self._heartbeat()
            # Surcharge beyond the base per-step cost the caller already
            # accounts: straggler delay plus the degraded-capacity factor.
            self._extra_s += step_delay \
                + (self.scale - 1.0) * self.costs.decode_step_s
            if step_delay > 0.0:
                self._evict_stragglers(local_step, step_delay)

    def serve(self, requests: Sequence[Request | ResilientRequest]
              ) -> list[RequestOutcome]:
        wrapped = [r if isinstance(r, ResilientRequest)
                   else ResilientRequest(r) for r in requests]
        outcomes: dict[int, RequestOutcome] = {}
        retries = {w.request.request_id: 0 for w in wrapped}
        if len(retries) != len(wrapped):
            raise ValueError("duplicate request ids")

        # Admission control up front; the engine has a fixed capacity, so
        # the estimate is the request's own service time.
        pending = []
        for wreq in wrapped:
            rid = wreq.request.request_id
            estimate = self.costs.prefill_s + \
                wreq.request.max_new_tokens * self.costs.decode_step_s
            if wreq.deadline_s is not None and \
                    self.now_s + estimate > wreq.deadline_s:
                outcomes[rid] = RequestOutcome(
                    rid, RequestStatus.SHED, finish_s=self.now_s)
                self.events.record(REQUEST_SHED, request_id=rid,
                                   t_s=self.now_s, estimate_s=estimate,
                                   deadline_s=wreq.deadline_s)
            else:
                pending.append(wreq)

        attempt = 0
        while pending:
            deadlines = [w.deadline_s for w in pending
                         if w.deadline_s is not None]
            self._min_deadline = min(deadlines) if deadlines else None
            self._remaining_hint = max(w.request.max_new_tokens
                                       for w in pending)
            self._extra_s = 0.0
            engine = ContinuousBatchingEngine(
                self.model, self.max_slots, self.max_len, seed=self.seed,
                step_hook=self._step_hook)
            try:
                completions = engine.serve([w.request for w in pending])
            except MeshFault as exc:
                self._steps_done += engine.steps
                self.now_s += engine.admissions * self.costs.prefill_s + \
                    engine.steps * self.costs.decode_step_s + self._extra_s
                self._extra_s = 0.0
                self.events.record(FAULT_DETECTED,
                                   error=type(exc).__name__,
                                   detail=str(exc), t_s=self.now_s)
                if self.fault_state is not None:
                    # Permanent mesh faults (chip kills) must be replanned
                    # around, or the next heartbeat re-raises forever.
                    dead = sorted(self.fault_state.dead_chips)
                    if dead:
                        self._shrink_mesh(dead)
                        self.now_s += self._extra_s
                        self._extra_s = 0.0
                attempt += 1
                pending = _split_failed(pending, retries, outcomes,
                                        self.events, self.now_s, exc)
                self.now_s = _backoff(pending, retries, self.costs,
                                      self.events, self.now_s, attempt)
                continue
            self._steps_done += engine.steps
            self.now_s += engine.admissions * self.costs.prefill_s + \
                engine.steps * self.costs.decode_step_s + self._extra_s
            _complete(pending, completions, retries, outcomes, self.events,
                      self.now_s)
            pending = []
        return [outcomes[w.request.request_id] for w in wrapped]
