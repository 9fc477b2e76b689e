"""Unit tests for the autoscaler control loop and brownout ladder.

The loop only touches a narrow plane surface (admission, events, fleet
management, the hedging/caps/profile levers), so these tests drive it
against a fake plane — tick-level behavior without serving anything.
The end-to-end behavior on real traffic lives in
``tests/integration/test_autoscale.py``.
"""

import pytest

from repro.cluster.admission import AdmissionController, PriorityClass
from repro.cluster.autoscaler import (
    BROWNOUT_LADDER,
    Autoscaler,
    AutoscalerPolicy,
)
from repro.events import EventLog

CLASSES = (PriorityClass("interactive", priority=0, rate=1e9,
                         burst=10**6, queue_limit=256),
           PriorityClass("batch", priority=1, rate=1e9, burst=10**6,
                         queue_limit=256))


class FakeReplica:
    def __init__(self, name):
        self.name = name


class FakeTracer:
    def __init__(self):
        self.marks = []

    def mark(self, name, **kwargs):
        self.marks.append(name)


class FakePlane:
    """Just enough control-plane surface for the loop to steer."""

    def __init__(self, n_replicas=1, classes=CLASSES):
        self.events = EventLog()
        self.tracer = FakeTracer()
        self.admission = AdmissionController(classes, self.events)
        self._active = [FakeReplica(f"seed{i}")
                        for i in range(n_replicas)]
        self._counter = 0
        self.retiring = {}
        self.hedging_enabled = True
        self.output_caps = {}
        self.target_profile = "weight-stationary"
        self.prefill_tokens = 0
        self.decode_tokens = 0

    def active_replicas(self):
        return list(self._active)

    def reap_retiring(self, now_s):
        self.retiring.clear()

    def add_replica(self, shape, now_s, spinup_s=0.0):
        replica = FakeReplica(f"scale{self._counter}")
        self._counter += 1
        self._active.append(replica)
        return replica

    def begin_scale_in(self, name, now_s):
        victim, = [r for r in self._active if r.name == name]
        self._active.remove(victim)
        self.retiring[name] = victim

    # test helpers ----------------------------------------------------------

    def queue(self, n, class_name="interactive"):
        for i in range(n):
            self.admission.submit(("item", class_name, i),
                                  request_id=1000 + i, now_s=0.0,
                                  class_name=class_name)

    def drain(self):
        while self.admission.backlog():
            self.admission.next_batch(64)


def ticks(scaler, plane, n, start=1):
    """Fire exactly ``n`` ticks (one interval each)."""
    for i in range(start, start + n):
        scaler.maybe_tick(plane, i * scaler.policy.interval_s)


class TestPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(interval_s=0.0),
        dict(min_replicas=0),
        dict(min_replicas=3, max_replicas=2),
        dict(up_after=0),
        dict(down_after=0),
        dict(plan_after=0),
        dict(recover_after=0),
        dict(scale_in_pressure=9.0, scale_out_pressure=8.0),
        dict(brownout_exit_pressure=20.0, brownout_enter_pressure=16.0),
        dict(batch_output_cap=0),
    ])
    def test_bad_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AutoscalerPolicy(**kwargs)


class TestTicking:
    def test_catch_up_fires_every_missed_tick(self):
        scaler = Autoscaler(AutoscalerPolicy(interval_s=0.05))
        plane = FakePlane()
        scaler.maybe_tick(plane, 0.26)
        assert scaler.ticks == 5
        scaler.maybe_tick(plane, 0.26)  # same time: no extra tick
        assert scaler.ticks == 5
        scaler.maybe_tick(plane, 0.3001)
        assert scaler.ticks == 6


class TestScaling:
    POLICY = AutoscalerPolicy(min_replicas=1, max_replicas=3,
                              scale_out_pressure=4.0,
                              scale_in_pressure=1.0,
                              up_after=2, down_after=3,
                              brownout=False, switch_plans=False)

    def test_scale_out_needs_sustained_pressure(self):
        scaler = Autoscaler(self.POLICY)
        plane = FakePlane()
        plane.queue(8)  # pressure 8 on one replica
        ticks(scaler, plane, 1)
        assert len(plane.active_replicas()) == 1  # one hot tick: hold
        ticks(scaler, plane, 1, start=2)
        assert len(plane.active_replicas()) == 2
        assert scaler.scale_outs == 1
        decisions = plane.events.of_kind("autoscale_decision")
        assert decisions[-1]["action"] == "scale-out"
        assert decisions[-1]["pressure"] == 8.0

    def test_scale_out_capped_at_max_replicas(self):
        scaler = Autoscaler(self.POLICY)
        plane = FakePlane()
        plane.queue(64)
        ticks(scaler, plane, 20)
        assert len(plane.active_replicas()) == self.POLICY.max_replicas

    def test_one_hot_tick_resets_the_down_streak(self):
        scaler = Autoscaler(self.POLICY)
        plane = FakePlane(n_replicas=2)
        ticks(scaler, plane, 2)                 # calm, streak 2 of 3
        plane.queue(16)
        ticks(scaler, plane, 1, start=3)        # hot: streak resets
        plane.drain()
        ticks(scaler, plane, 2, start=4)        # calm again, 2 of 3
        assert len(plane.active_replicas()) == 2
        ticks(scaler, plane, 1, start=6)
        assert len(plane.active_replicas()) == 1

    def test_scale_in_is_lifo_and_floored_at_min(self):
        scaler = Autoscaler(self.POLICY)
        plane = FakePlane()
        plane.queue(64)
        ticks(scaler, plane, 20)   # grow to max
        plane.drain()
        ticks(scaler, plane, 40, start=21)
        # Newest first, never below min_replicas.
        assert [r.name for r in plane.active_replicas()] == ["seed0"]
        ins = [e for e in plane.events.of_kind("autoscale_decision")
               if e["action"] == "scale-in"]
        assert [e["replica"] for e in ins] == ["scale1", "scale0"]

    def test_ttft_slo_breach_scales_without_backlog(self):
        policy = AutoscalerPolicy(up_after=2, ttft_slo_s=0.2,
                                  slo_class="interactive",
                                  brownout=False, switch_plans=False)
        scaler = Autoscaler(policy)
        plane = FakePlane()
        for i in range(4):
            plane.events.record(
                "request_completed", request_id=i, t_s=0.01 * i,
                priority_class="interactive", ttft_s=0.5)
        ticks(scaler, plane, 2)
        assert len(plane.active_replicas()) == 2
        assert plane.events.of_kind(
            "autoscale_decision")[-1]["slo_breach"] is True

    def test_slo_ignores_other_classes_and_old_completions(self):
        policy = AutoscalerPolicy(ttft_slo_s=0.2,
                                  slo_class="interactive",
                                  slo_window_s=0.5,
                                  brownout=False, switch_plans=False)
        scaler = Autoscaler(policy)
        plane = FakePlane()
        plane.events.record("request_completed", request_id=0, t_s=0.01,
                            priority_class="batch", ttft_s=9.0)
        assert scaler._slo_breach(plane, 0.05) is False
        plane.events.record("request_completed", request_id=1, t_s=0.06,
                            priority_class="interactive", ttft_s=9.0)
        assert scaler._slo_breach(plane, 0.1) is True
        # The breach ages out of the trailing window.
        assert scaler._slo_breach(plane, 1.0) is False

    @pytest.mark.parametrize("max_events", [None, 2])
    def test_slo_breach_seen_through_a_bounded_log(self, max_events):
        # A full bounded log stays at max_events entries while Event.seq
        # keeps counting: the feed must see the breach either way.
        scaler = Autoscaler(AutoscalerPolicy(ttft_slo_s=0.2,
                                             brownout=False,
                                             switch_plans=False))
        plane = FakePlane()
        plane.events = EventLog(max_events=max_events)
        for i in range(3):
            plane.events.record("replica_health", replica=f"r{i}")
        assert scaler._slo_breach(plane, 0.05) is False
        plane.events.record("request_completed", request_id=0, t_s=0.06,
                            priority_class="interactive", ttft_s=9.0)
        assert scaler._slo_breach(plane, 0.1) is True


class TestPlanSteering:
    POLICY = AutoscalerPolicy(plan_after=2, brownout=False,
                              prefill_heavy_frac=0.65,
                              decode_heavy_frac=0.35)

    def test_decode_heavy_mix_forces_weight_gathered(self):
        scaler = Autoscaler(self.POLICY)
        plane = FakePlane()
        for i in range(2):
            plane.decode_tokens += 100
            plane.prefill_tokens += 10
            ticks(scaler, plane, 1, start=i + 1)
        assert plane.target_profile == "weight-gathered"
        assert scaler.plan_switches == 1
        event = plane.events.of_kind("autoscale_decision")[-1]
        assert event["action"] == "profile"
        # And back, once the mix turns prefill-heavy.
        for i in range(2):
            plane.prefill_tokens += 100
            plane.decode_tokens += 10
            ticks(scaler, plane, 1, start=i + 3)
        assert plane.target_profile == "weight-stationary"

    def test_mixed_traffic_never_flaps(self):
        scaler = Autoscaler(self.POLICY)
        plane = FakePlane()
        for i in range(6):
            plane.prefill_tokens += 50
            plane.decode_tokens += 50  # frac 0.5: between thresholds
            ticks(scaler, plane, 1, start=i + 1)
        assert plane.target_profile == "weight-stationary"
        assert scaler.plan_switches == 0

    def test_idle_window_keeps_streaks(self):
        scaler = Autoscaler(self.POLICY)
        plane = FakePlane()
        plane.decode_tokens += 100
        ticks(scaler, plane, 1)
        ticks(scaler, plane, 1, start=2)  # no new tokens: no evidence
        plane.decode_tokens += 100
        ticks(scaler, plane, 1, start=3)
        assert plane.target_profile == "weight-gathered"


class TestBrownoutLadder:
    POLICY = AutoscalerPolicy(min_replicas=1, max_replicas=1,
                              scale_out_pressure=1e9,
                              brownout_enter_pressure=8.0,
                              brownout_exit_pressure=2.0,
                              recover_after=2, batch_output_cap=2,
                              switch_plans=False)

    def engaged(self, scaler, plane, n_hot_ticks):
        plane.queue(16, class_name="batch")
        ticks(scaler, plane, n_hot_ticks)

    def test_rungs_engage_in_order_one_per_tick(self):
        scaler = Autoscaler(self.POLICY)
        plane = FakePlane()
        self.engaged(scaler, plane, 4)
        assert scaler.brownout_steps == list(BROWNOUT_LADDER)
        assert scaler.brownout_level == 4
        assert plane.hedging_enabled is False
        assert plane.output_caps == {"batch": 2}
        assert plane.target_profile == "weight-gathered"
        assert plane.admission._accepting["batch"] is False
        assert plane.admission._accepting["interactive"] is True
        steps = plane.events.of_kind("brownout_step")
        assert [e["step"] for e in steps] == list(BROWNOUT_LADDER)
        assert all("pressure <= 2" in e["recovery"] for e in steps)
        # Saturated: more hot ticks add no rungs.
        ticks(scaler, plane, 3, start=5)
        assert scaler.brownout_level == 4

    def test_needs_capacity_exhaustion_to_engage(self):
        scaler = Autoscaler(AutoscalerPolicy(
            min_replicas=1, max_replicas=4, scale_out_pressure=1e9,
            brownout_enter_pressure=8.0, switch_plans=False))
        plane = FakePlane()  # one replica, fleet can still grow
        plane.queue(64, class_name="batch")
        ticks(scaler, plane, 4)
        assert scaler.brownout_level == 0

    def test_release_reverses_and_restores_exactly(self):
        scaler = Autoscaler(self.POLICY)
        plane = FakePlane()
        self.engaged(scaler, plane, 4)
        with pytest.raises(AssertionError, match="level 4"):
            scaler.assert_reverted(plane)
        plane.drain()
        # recover_after calm ticks arm the release; then one rung per
        # tick unwinds, newest rung first.
        ticks(scaler, plane, self.POLICY.recover_after - 1, start=5)
        assert scaler.brownout_level == 4
        ticks(scaler, plane, 4, start=6)
        assert scaler.brownout_level == 0
        recovered = plane.events.of_kind("brownout_recovered")
        assert [e["step"] for e in recovered] == \
            list(reversed(BROWNOUT_LADDER))
        assert plane.hedging_enabled is True
        assert plane.output_caps == {}
        assert plane.target_profile == "weight-stationary"
        assert plane.admission._accepting["batch"] is True
        scaler.assert_reverted(plane)  # no raise
        assert scaler.settled(plane)

    def test_pressure_between_thresholds_holds_the_ladder(self):
        scaler = Autoscaler(self.POLICY)
        plane = FakePlane()
        self.engaged(scaler, plane, 1)
        assert scaler.brownout_level == 1
        plane.drain()
        plane.queue(4, class_name="batch")  # 2 < pressure 4 < 8
        ticks(scaler, plane, 10, start=2)
        assert scaler.brownout_level == 1  # neither grows nor releases

    def test_no_scale_in_while_browned_out(self):
        policy = AutoscalerPolicy(
            min_replicas=1, max_replicas=2, scale_out_pressure=1e9,
            down_after=1, brownout_enter_pressure=4.0,
            brownout_exit_pressure=2.0, recover_after=4,
            switch_plans=False)
        scaler = Autoscaler(policy)
        plane = FakePlane(n_replicas=2)
        plane.queue(16, class_name="batch")
        ticks(scaler, plane, 1)
        assert scaler.brownout_level == 1
        plane.drain()
        # Calm, down_after=1 — but the ladder is engaged, so the fleet
        # holds until the brownout fully releases.
        ticks(scaler, plane, 3, start=2)
        assert scaler.brownout_level == 1
        assert len(plane.active_replicas()) == 2
        ticks(scaler, plane, 3, start=5)
        assert scaler.brownout_level == 0
        assert len(plane.active_replicas()) == 1

    def test_single_class_is_never_capped_or_shed(self):
        scaler = Autoscaler(self.POLICY)
        plane = FakePlane(classes=(PriorityClass(
            "only", rate=1e9, burst=10**6, queue_limit=256),))
        plane.queue(32, class_name="only")
        ticks(scaler, plane, 4)
        assert scaler.brownout_level == 4
        assert plane.output_caps == {}
        assert plane.admission._accepting["only"] is True

    def test_explicit_cap_and_shed_classes_override(self):
        policy = AutoscalerPolicy(
            min_replicas=1, max_replicas=1, scale_out_pressure=1e9,
            brownout_enter_pressure=4.0, switch_plans=False,
            cap_classes=("interactive",), shed_classes=("interactive",),
            batch_output_cap=3)
        scaler = Autoscaler(policy)
        plane = FakePlane()
        plane.queue(16, class_name="batch")
        ticks(scaler, plane, 4)
        assert plane.output_caps == {"interactive": 3}
        assert plane.admission._accepting["interactive"] is False
        assert plane.admission._accepting["batch"] is True
