"""SLO-aware autoscaling and the graceful-degradation (brownout) ladder.

The paper's Section 3.2 frontier means there is no single right serving
configuration: the latency-optimal fleet under light interactive load is
not the throughput-optimal fleet under a batch backlog.  The
:class:`Autoscaler` is the control loop that moves the cluster along
that frontier as the offered load (see :mod:`repro.cluster.workload`)
shifts.  It runs on the control plane's virtual clock — a *tick* fires
every ``interval_s`` of simulated time — and only uses machinery the
cluster already has:

* **Scale out** — sustained backlog pressure (queued requests per
  dispatchable replica) or a TTFT SLO breach provisions a new replica
  via :meth:`~repro.cluster.control_plane.ClusterControlPlane.
  add_replica`; it becomes dispatchable after a simulated spin-up.
* **Scale in** — sustained idleness drains the newest replica through
  the live KV-migration drain path (nothing in flight is dropped) and
  retires it once idle.
* **Plan steering** — a prefill-heavy token mix steers replicas'
  decode models to the weight-stationary plan, a decode-dominated mix
  to the weight-gathered (throughput-Pareto) plan; switches happen at
  group boundaries only, with hysteresis so the fleet never flaps.

Both directions carry hysteresis (``up_after`` / ``down_after``
consecutive ticks) — reacting to one bad tick is how autoscalers flap.

**The brownout ladder.**  When the fleet is already at
``max_replicas`` and pressure keeps building, scaling cannot help; the
ladder degrades service *explicitly, reversibly and in order*:

1. ``hedge-off`` — stop duplicating slow groups (hedges burn a second
   replica per laggard exactly when capacity is scarcest);
2. ``cap-output`` — cap the batch class's output lengths (long
   generations hold decode slots the interactive class needs);
3. ``throughput-plan`` — force the weight-gathered decode plan
   (throughput over per-token latency);
4. ``shed-lowest`` — stop admitting the lowest-priority class (typed
   :class:`~repro.cluster.admission.ClassShed` rejections, queued
   requests still drain).

Each engagement and release is a typed event
(:data:`~repro.events.BROWNOUT_STEP` /
:data:`~repro.events.BROWNOUT_RECOVERED`) carrying its explicit
recovery condition, and the whole ladder unwinds in reverse order once
pressure stays below the exit threshold — :meth:`Autoscaler.
assert_reverted` checks the plane is bit-identical in behavior to one
that never browned out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.events import (
    AUTOSCALE_DECISION,
    BROWNOUT_RECOVERED,
    BROWNOUT_STEP,
)

Coord = tuple[int, int, int]

#: The ordered degradation rungs (engaged first-to-last, released
#: last-to-first).
BROWNOUT_LADDER = ("hedge-off", "cap-output", "throughput-plan",
                   "shed-lowest")


@dataclass(frozen=True)
class AutoscalerPolicy:
    """All control-loop knobs (pure data, so scenarios stay frozen)."""

    interval_s: float = 0.05           # virtual seconds between ticks
    min_replicas: int = 1
    max_replicas: int = 4
    replica_shape: Coord = (2, 2, 2)   # shape scale-out provisions
    spinup_s: float = 0.1              # provisioning time for a new replica
    #: Backlog pressure = queued requests per dispatchable replica.
    scale_out_pressure: float = 8.0
    scale_in_pressure: float = 1.0
    up_after: int = 2                  # consecutive ticks over threshold
    down_after: int = 4                # consecutive ticks under threshold
    #: Optional TTFT SLO signal: a p99 above this (for ``slo_class``
    #: completions in the trailing ``slo_window_s``) counts as scale-out
    #: pressure even when the backlog alone does not.
    ttft_slo_s: float | None = None
    slo_class: str | None = None       # None = all classes
    slo_window_s: float = 1.0
    #: Plan steering thresholds on the prefill share of recent tokens.
    switch_plans: bool = True
    prefill_heavy_frac: float = 0.65   # above -> weight-stationary
    decode_heavy_frac: float = 0.35    # below -> weight-gathered
    plan_after: int = 3                # hysteresis ticks for a switch
    #: Brownout thresholds (same pressure metric) and shaping knobs.
    brownout: bool = True
    brownout_enter_pressure: float = 16.0
    brownout_exit_pressure: float = 2.0
    recover_after: int = 3             # calm ticks before releasing a rung
    batch_output_cap: int = 2          # rung 2's max_new_tokens cap
    #: Classes rungs 2 and 4 act on; ``None`` derives the lowest-priority
    #: class from the plane's admission controller at tick time.
    cap_classes: tuple[str, ...] | None = None
    shed_classes: tuple[str, ...] | None = None
    #: Prefix-cache capacity as a scheduling input: mean fleet page-store
    #: occupancy (0..1+) weighted into the pressure metric.  A full
    #: store means new shared prefixes evict old ones — recompute load
    #: the backlog alone does not see.  0 keeps the legacy metric.
    cache_pressure_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        if self.cache_pressure_weight < 0:
            raise ValueError("cache_pressure_weight must be >= 0")
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError("need 1 <= min_replicas <= max_replicas")
        if self.up_after < 1 or self.down_after < 1 or \
                self.plan_after < 1 or self.recover_after < 1:
            raise ValueError("hysteresis counts must be >= 1")
        if self.scale_in_pressure > self.scale_out_pressure:
            raise ValueError("scale_in_pressure must not exceed "
                             "scale_out_pressure")
        if self.brownout_exit_pressure > self.brownout_enter_pressure:
            raise ValueError("brownout_exit_pressure must not exceed "
                             "brownout_enter_pressure")
        if self.batch_output_cap < 1:
            raise ValueError("batch_output_cap must be >= 1")


@dataclass
class _BrownoutState:
    """What the ladder changed, so release restores it exactly."""

    level: int = 0                       # rungs currently engaged
    saved_profile: str | None = None     # target_profile before rung 3
    capped: tuple[str, ...] = ()         # classes rung 2 capped
    shed: tuple[str, ...] = ()           # classes rung 4 shed
    engaged: list[str] = field(default_factory=list)  # history, in order


class Autoscaler:
    """The control loop; one instance drives one control plane run.

    Attach via ``ClusterControlPlane(..., autoscaler=...)``; the plane
    calls :meth:`maybe_tick` at every virtual-clock advance (arrivals,
    dispatch rounds, each decode step).  Ticks fire at fixed multiples
    of ``interval_s``, with catch-up when the clock jumps — so the whole
    trajectory is a pure function of the workload, never of call sites'
    wall time.
    """

    #: The brownout rung sequence this controller walks.  Subclasses may
    #: extend it (the disaggregated fleet appends ``collapse-pools``);
    #: rungs the base :meth:`_engage`/:meth:`_release` do not recognize
    #: are routed to :meth:`_engage_custom`/:meth:`_release_custom`.
    ladder: tuple[str, ...] = BROWNOUT_LADDER

    def __init__(self, policy: AutoscalerPolicy | None = None):
        self.policy = policy or AutoscalerPolicy()
        self.ticks = 0
        self.scale_outs = 0
        self.scale_ins = 0
        self.plan_switches = 0
        self._next_tick_s = self.policy.interval_s
        self._up_streak = 0
        self._down_streak = 0
        self._calm_streak = 0
        self._ws_streak = 0
        self._wg_streak = 0
        self._last_prefill = 0
        self._last_decode = 0
        self._event_cursor = 0   # seq of the next event to read
        self._completions: list[tuple[float, str, float]] = []
        self._brownout = _BrownoutState()

    # -- ticking ------------------------------------------------------------

    def maybe_tick(self, plane, now_s: float) -> None:
        """Fire every tick whose scheduled time has passed (catch-up)."""
        while now_s >= self._next_tick_s:
            tick_s = self._next_tick_s
            self._next_tick_s += self.policy.interval_s
            self._tick(plane, tick_s)

    def _tick(self, plane, t: float) -> None:
        self.ticks += 1
        plane.reap_retiring(t)
        pressure = self._pressure(plane)
        slo_breach = self._slo_breach(plane, t)
        self._scale(plane, t, pressure, slo_breach)
        # Plan steering yields once the throughput-plan rung owns the
        # profile lever (engaging rung i leaves the ladder at level i+1).
        steer_cap = (self.ladder.index("throughput-plan")
                     if "throughput-plan" in self.ladder
                     else len(self.ladder))
        if self.policy.switch_plans and self._brownout.level <= steer_cap:
            self._steer_plans(plane, t)
        if self.policy.brownout:
            self._brownout_tick(plane, t, pressure)

    # -- signals ------------------------------------------------------------

    def _pressure(self, plane) -> float:
        """Queued requests per dispatchable (non-retiring) replica.

        With ``cache_pressure_weight > 0``, the fleet's mean prefix-
        cache occupancy adds in: a saturated page store is latent
        recompute load (shared prefixes start evicting each other), so
        it counts toward scaling out before the backlog shows it.
        """
        replicas = plane.active_replicas()
        active = max(len(replicas), 1)
        pressure = plane.admission.backlog() / active
        weight = self.policy.cache_pressure_weight
        if weight > 0 and replicas:
            occupancy = [r.kvstore.occupancy() for r in replicas
                         if r.kvstore is not None]
            if occupancy:
                pressure += weight * (sum(occupancy) / len(occupancy))
        return pressure

    def _slo_breach(self, plane, t: float) -> bool:
        """p99 TTFT of recent completions against the policy's SLO."""
        policy = self.policy
        events = plane.events.events
        # Keyed on ``Event.seq``, not list position: a bounded log stays
        # at ``max_events`` entries once full, but seq keeps counting.
        skip = self._event_cursor - (events[0].seq if events else 0)
        for event in events[max(skip, 0):]:
            self._event_cursor = event.seq + 1
            if event.kind == "request_completed" and \
                    event.get("ttft_s") is not None:
                self._completions.append((event.get("t_s", t),
                                          event.get("priority_class", ""),
                                          event["ttft_s"]))
        if policy.ttft_slo_s is None:
            return False
        cutoff = t - policy.slo_window_s
        self._completions = [c for c in self._completions
                             if c[0] >= cutoff]
        ttfts = sorted(ttft for (_, cls, ttft) in self._completions
                       if policy.slo_class is None
                       or cls == policy.slo_class)
        if not ttfts:
            return False
        p99 = ttfts[min(int(0.99 * len(ttfts)), len(ttfts) - 1)]
        return p99 > policy.ttft_slo_s

    # -- scaling ------------------------------------------------------------

    def _scale(self, plane, t: float, pressure: float,
               slo_breach: bool) -> None:
        policy = self.policy
        n_active = len(plane.active_replicas())
        if pressure >= policy.scale_out_pressure or slo_breach:
            self._up_streak += 1
            self._down_streak = 0
        elif pressure <= policy.scale_in_pressure:
            self._down_streak += 1
            self._up_streak = 0
        else:
            self._up_streak = 0
            self._down_streak = 0

        if self._up_streak >= policy.up_after and \
                n_active < policy.max_replicas:
            self._scale_out(plane, t, pressure, slo_breach, n_active)
            self.scale_outs += 1
            self._up_streak = 0
        elif self._down_streak >= policy.down_after and \
                n_active > policy.min_replicas and \
                self._brownout.level == 0:
            if self._scale_in(plane, t, pressure, n_active):
                self.scale_ins += 1
                self._down_streak = 0

    def _scale_out(self, plane, t: float, pressure: float,
                   slo_breach: bool, n_active: int) -> None:
        """Provision one replica (subclasses pick pool/shape)."""
        replica = plane.add_replica(self.policy.replica_shape, t,
                                    spinup_s=self.policy.spinup_s)
        plane.events.record(
            AUTOSCALE_DECISION, action="scale-out", t_s=t,
            replica=replica.name, pressure=round(pressure, 3),
            slo_breach=slo_breach, fleet=n_active + 1)

    def _scale_in(self, plane, t: float, pressure: float,
                  n_active: int) -> bool:
        """Begin draining one replica; ``False`` when none is eligible."""
        victims = plane.active_replicas()
        victim = victims[-1]  # LIFO: retire the newest first
        plane.begin_scale_in(victim.name, t)
        plane.events.record(
            AUTOSCALE_DECISION, action="scale-in", t_s=t,
            replica=victim.name, pressure=round(pressure, 3),
            fleet=n_active - 1)
        return True

    # -- plan steering ------------------------------------------------------

    def _steer_plans(self, plane, t: float) -> None:
        policy = self.policy
        d_prefill = plane.prefill_tokens - self._last_prefill
        d_decode = plane.decode_tokens - self._last_decode
        self._last_prefill = plane.prefill_tokens
        self._last_decode = plane.decode_tokens
        total = d_prefill + d_decode
        if total == 0:
            return  # idle window: no evidence, keep streaks
        frac = d_prefill / total
        if frac >= policy.prefill_heavy_frac:
            self._ws_streak += 1
            self._wg_streak = 0
        elif frac <= policy.decode_heavy_frac:
            self._wg_streak += 1
            self._ws_streak = 0
        else:
            self._ws_streak = 0
            self._wg_streak = 0
        target = None
        if self._ws_streak >= policy.plan_after:
            target = "weight-stationary"
        elif self._wg_streak >= policy.plan_after:
            target = "weight-gathered"
        if target is not None and plane.target_profile != target:
            plane.target_profile = target
            self.plan_switches += 1
            plane.events.record(
                AUTOSCALE_DECISION, action="profile", t_s=t,
                profile=target, prefill_frac=round(frac, 3))

    # -- brownout ladder ----------------------------------------------------

    def _lowest_priority_classes(self, plane) -> tuple[str, ...]:
        classes = list(plane.admission.classes.values())
        if len(classes) < 2:
            return ()  # a single class is never capped/shed
        worst = max(c.priority for c in classes)
        return tuple(sorted(c.name for c in classes
                            if c.priority == worst))

    def _recovery_condition(self) -> str:
        return (f"pressure <= {self.policy.brownout_exit_pressure:g} "
                f"for {self.policy.recover_after} ticks "
                f"({self.policy.interval_s:g}s each)")

    def _brownout_tick(self, plane, t: float, pressure: float) -> None:
        policy = self.policy
        state = self._brownout
        at_capacity = len(plane.active_replicas()) >= policy.max_replicas
        if pressure >= policy.brownout_enter_pressure and at_capacity:
            self._calm_streak = 0
            if state.level < len(self.ladder):
                self._engage(plane, t, pressure)
        elif pressure <= policy.brownout_exit_pressure:
            self._calm_streak += 1
            if state.level > 0 and \
                    self._calm_streak >= policy.recover_after:
                self._release(plane, t, pressure)
        else:
            self._calm_streak = 0

    def _engage_custom(self, plane, t: float, rung: str) -> None:
        """Engage a rung the base ladder does not define (subclasses)."""
        raise ValueError(f"unknown brownout rung {rung!r}")

    def _release_custom(self, plane, t: float, rung: str) -> None:
        """Release a rung the base ladder does not define (subclasses)."""
        raise ValueError(f"unknown brownout rung {rung!r}")

    def _engage(self, plane, t: float, pressure: float) -> None:
        state = self._brownout
        rung = self.ladder[state.level]
        if rung == "hedge-off":
            plane.hedging_enabled = False
        elif rung == "cap-output":
            classes = (self.policy.cap_classes
                       if self.policy.cap_classes is not None
                       else self._lowest_priority_classes(plane))
            state.capped = tuple(c for c in classes
                                 if c in plane.admission.classes)
            for name in state.capped:
                plane.output_caps[name] = self.policy.batch_output_cap
        elif rung == "throughput-plan":
            state.saved_profile = plane.target_profile
            plane.target_profile = "weight-gathered"
        elif rung == "shed-lowest":
            classes = (self.policy.shed_classes
                       if self.policy.shed_classes is not None
                       else self._lowest_priority_classes(plane))
            state.shed = tuple(c for c in classes
                               if c in plane.admission.classes)
            for name in state.shed:
                plane.admission.set_limits(name, accept=False, now_s=t,
                                           reason=f"brownout {rung}")
        else:
            self._engage_custom(plane, t, rung)
        state.level += 1
        state.engaged.append(rung)
        plane.events.record(
            BROWNOUT_STEP, step=rung, level=state.level, t_s=t,
            pressure=round(pressure, 3),
            recovery=self._recovery_condition())
        plane.tracer.mark(f"brownout:{rung}", level=state.level)

    def _release(self, plane, t: float, pressure: float) -> None:
        state = self._brownout
        state.level -= 1
        rung = self.ladder[state.level]
        if rung == "hedge-off":
            plane.hedging_enabled = True
        elif rung == "cap-output":
            for name in state.capped:
                plane.output_caps.pop(name, None)
            state.capped = ()
        elif rung == "throughput-plan":
            plane.target_profile = state.saved_profile
            state.saved_profile = None
        elif rung == "shed-lowest":
            for name in state.shed:
                plane.admission.set_limits(name, accept=True, now_s=t,
                                           reason=f"brownout {rung} "
                                                  f"released")
            state.shed = ()
        else:
            self._release_custom(plane, t, rung)
        plane.events.record(
            BROWNOUT_RECOVERED, step=rung, level=state.level, t_s=t,
            pressure=round(pressure, 3))
        plane.tracer.mark(f"brownout-recovered:{rung}",
                          level=state.level)

    # -- introspection ------------------------------------------------------

    @property
    def brownout_level(self) -> int:
        return self._brownout.level

    @property
    def brownout_steps(self) -> list[str]:
        """Every rung engagement, in order (repeats on re-entry)."""
        return list(self._brownout.engaged)

    def settled(self, plane) -> bool:
        """Is there nothing left for idle ticks to do?

        True once the brownout ladder is fully released, no replica is
        mid-retirement, and the fleet is back at ``min_replicas`` — the
        fixed point an empty backlog drives the controller to.  The
        control plane's post-run cooldown ticks until this holds.
        """
        return (self._brownout.level == 0
                and not plane.retiring
                and len(plane.active_replicas())
                <= self.policy.min_replicas)

    def assert_reverted(self, plane) -> None:
        """Every brownout lever must be back in its neutral position.

        Called by tests and the chaos checker after a run whose ladder
        engaged: hedging re-enabled, no output caps, every class
        accepting again, and the plan profile restored.  Raises
        ``AssertionError`` otherwise.
        """
        problems = []
        if self._brownout.level != 0:
            problems.append(f"ladder still at level "
                            f"{self._brownout.level}")
        if not plane.hedging_enabled:
            problems.append("hedging still disabled")
        if plane.output_caps:
            problems.append(f"output caps still set: "
                            f"{plane.output_caps}")
        shed = [name for name, ok in plane.admission._accepting.items()
                if not ok]
        if shed:
            problems.append(f"classes still shed: {shed}")
        if plane.target_profile == "weight-gathered" and \
                self._brownout.saved_profile is not None:
            problems.append("throughput plan not restored")
        if problems:
            raise AssertionError("brownout did not fully revert: "
                                 + "; ".join(problems))
