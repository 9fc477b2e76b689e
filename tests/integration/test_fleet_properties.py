"""Fleet-level differential property test for the cluster control plane.

Hypothesis builds whole :class:`~repro.cluster.chaos.ChaosScenario`\\ s:
replica shapes (colocated, or a prefill/decode pool pair with an
optional pool partition), straggler, chip-kill and collective faults
per replica, scheduled replica restarts and drains, an optional
autoscaler, an optional control-plane crash, the arrival pattern, the
decode batch and the workload seed.  Stragglers are drawn slow enough to trip
hedged decode, so hedges meet restarts, drains and autoscaler ticks.
Whatever the draw, one run must keep every promise the chaos matrix
checks on its hand-written scenarios:

* every finished token stream equals the fault-free oracle's;
* every admitted request has exactly one terminal outcome (none is
  dropped);
* journal replay reconstructs ``control_state()``, and the auditor
  certifies the run;
* page leases balance page releases;
* each journaled transition's event is exactly the journal's projection
  of its record;
* a brownout the autoscaler engaged is fully released;
* a second run gives the identical journal (virtual-clock purity).

Failing draws that hypothesis shrank are kept below as named
regression cases.
"""

import pytest
from hypothesis import HealthCheck, Phase, event, find, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    AutoscalerPolicy,
    ClusterPolicy,
    RestartSpec,
    run_scenario,
)
from repro.cluster.chaos import ChaosScenario
from repro.cluster.disagg import PoolPartition, default_pools
from repro.cluster.journal import (
    EVENT_PROJECTIONS,
    JournalRecord,
    project_record,
)
from repro.events import EventLog
from repro.mesh.faults import (
    ChipKill,
    CollectiveFault,
    FaultPlan,
    StragglerFault,
)
from repro.mesh.virtual_mesh import BACKENDS

SHAPES = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)]
#: Virtual times the restarts, drains and arrivals are drawn around: a
#: group of the workload runs for roughly 0.05-0.3 s.
TIMES = [0.0, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8]


@st.composite
def faults(draw, shape):
    chip = tuple(draw(st.integers(0, n - 1)) for n in shape)
    kind = draw(st.sampled_from(["straggler", "kill", "timeout",
                                 "corrupt"]))
    if kind == "straggler":
        # 10 ms per collective on a ~0.01 s decode step is far past the
        # hedge threshold, so a straggler mid-decode hedges its group.
        start = draw(st.integers(0, 1))
        return StragglerFault(
            chip=chip, slowdown=4.0, delay_s_per_op=1e-2, at_step=start,
            until_step=start + draw(st.integers(2, 40)),
            phase=draw(st.sampled_from(["decode", None])))
    at_step = draw(st.integers(0, 4))
    phase = draw(st.sampled_from(["prefill", "decode", "handoff", None]))
    if kind == "kill":
        return ChipKill(chip=chip, at_step=at_step, phase=phase)
    return CollectiveFault(kind=kind, at_step=at_step, phase=phase,
                           chip=chip)


@st.composite
def scenarios(draw):
    disagg = draw(st.booleans())
    if disagg:
        prefill = draw(st.lists(st.sampled_from(SHAPES), min_size=1,
                                max_size=2))
        decode = draw(st.lists(st.sampled_from(SHAPES), min_size=1,
                               max_size=2))
        pools = default_pools(prefill, decode)
        shapes = tuple(prefill + decode)
        partitions = ()
        if draw(st.booleans()):
            at_s = draw(st.sampled_from(TIMES))
            partitions = (PoolPartition(
                draw(st.sampled_from(["prefill", "decode"])), at_s,
                at_s + draw(st.sampled_from([0.05, 0.3]))),)
        fleet = dict(pools=pools, partitions=partitions)
    else:
        shapes = tuple(draw(st.lists(st.sampled_from(SHAPES), min_size=1,
                                     max_size=3)))
        fleet = dict(shapes=shapes)
    names = [f"r{i}" for i in range(len(shapes))]
    plans = []
    for i, shape in enumerate(shapes):
        picked, killed = [], set()
        for fault in draw(st.lists(faults(shape), max_size=2)):
            if isinstance(fault, ChipKill):
                if fault.chip in killed:
                    continue  # a chip dies once per plan
                killed.add(fault.chip)
            picked.append(fault)
        if picked:
            plans.append((i, FaultPlan(faults=tuple(picked))))
    restarts = tuple(
        (name, RestartSpec(at_s=draw(st.sampled_from(TIMES[1:])),
                           mode=draw(st.sampled_from(["cold", "warm"]))))
        for name in draw(st.lists(st.sampled_from(names), unique=True,
                                  max_size=2)))
    drains = tuple(
        (name, draw(st.sampled_from(TIMES[1:])))
        for name in draw(st.lists(st.sampled_from(names), unique=True,
                                  max_size=1)))
    autoscale = None
    if draw(st.booleans()):
        autoscale = AutoscalerPolicy(
            min_replicas=1, max_replicas=len(shapes) + 1,
            replica_shape=draw(st.sampled_from(SHAPES)), spinup_s=0.05,
            scale_out_pressure=draw(st.sampled_from([1.0, 4.0])),
            scale_in_pressure=0.5, up_after=1, down_after=2,
            brownout_enter_pressure=draw(st.sampled_from([2.0, 16.0])),
            brownout_exit_pressure=1.0, recover_after=1)
    return ChaosScenario(
        name="fleet-property", description="generated", **fleet,
        decode_batch=draw(st.sampled_from([1, 2, 4])),
        fault_plans=tuple(plans), drains=drains, restarts=restarts,
        autoscale=autoscale,
        policy=ClusterPolicy(
            max_batch_wait_s=draw(st.sampled_from([None, 0.05]))),
        n_requests=draw(st.integers(1, 10)),
        arrival_spacing_s=draw(st.sampled_from([0.001, 0.02, 0.1, 0.3])),
        deadline_s=draw(st.sampled_from([None, 0.5, 5.0])),
        crash_at_s=draw(st.sampled_from([None] + TIMES[1:])),
        allow_rejections=True)


def run(scenario, backend, seed):
    log = EventLog()
    return run_scenario(scenario, backend=backend, seed=seed,
                        event_log=log), log


def check(scenario, backend, seed):
    report, log = run(scenario, backend, seed)
    assert report.bit_identical, "token streams diverged from the oracle"
    assert report.admitted + sum(report.rejections.values()) \
        == report.submitted
    assert report.completed + report.failed + report.deadline_missed \
        == report.admitted
    assert report.dropped_in_flight == 0
    assert report.replay_matches, "journal replay != control_state()"
    assert report.audit_certified, report.audit_violations
    assert report.page_leases == report.page_releases
    assert report.brownout_reverted
    projected = {
        kind: [] for names in EVENT_PROJECTIONS.values()
        for kind in ((names,) if isinstance(names, str) else names)}
    for record in report.journal_dump:
        for kind, data in project_record(JournalRecord(**record)):
            projected[kind].append(data)
    for kind, want in sorted(projected.items()):
        assert [e.data for e in log.of_kind(kind)] == want, kind
    again, _ = run(scenario, backend, seed)
    assert again.journal_dump == report.journal_dump
    return report


def check_and_label(scenario, backend, seed):
    """:func:`check`, then label the draw for the statistics that
    ``--hypothesis-show-statistics`` prints."""
    report = check(scenario, backend, seed)
    if report.hedges:
        event("hedged")
        if scenario.restarts or scenario.autoscale is not None:
            event("hedged with restarts or an autoscaler")
    if report.restarts:
        event("replica restarted")
    if report.failovers:
        event("failed over")
    if report.recoveries:
        event("control plane recovered")


@pytest.mark.parametrize("backend", BACKENDS)
def test_regression_decode_target_dies_after_handoff(backend):
    # Shrunk draw: the decode replica that took the group's KV handoff
    # loses its only chip on its first decode step.  The group fails
    # over, re-prefills and hands off again to the other decode
    # replica: a second handoff transaction for the group, which the
    # auditor once counted as the first one's pages delivered twice.
    scenario = ChaosScenario(
        name="fleet-property", description="regression",
        pools=default_pools([(1, 1, 1)], [(1, 1, 1), (1, 1, 1)]),
        fault_plans=((1, FaultPlan(faults=(
            ChipKill(chip=(0, 0, 0), at_step=0, phase="decode"),))),),
        decode_batch=1, n_requests=1, arrival_spacing_s=0.001,
        allow_rejections=True)
    report = check(scenario, backend, seed=0)
    kinds = [r["kind"] for r in report.journal_dump]
    assert kinds.count("handoff_commit") == 2
    assert report.failovers == 1 and report.completed == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_regression_new_handoff_is_not_a_duplicate(backend):
    # The first handoff loses its ack and its retry is deduplicated;
    # then the decode target dies and the group hands off again.  The
    # second transaction delivers to a replica that never saw the
    # pages, so it is not a duplicate (it was once journaled as one).
    scenario = ChaosScenario(
        name="fleet-property", description="regression",
        pools=default_pools([(1, 1, 1)], [(1, 1, 1), (1, 1, 1)]),
        fault_plans=(
            (0, FaultPlan(faults=(CollectiveFault(
                kind="timeout", at_step=0, phase="handoff"),))),
            (1, FaultPlan(faults=(
                ChipKill(chip=(0, 0, 0), at_step=0, phase="decode"),)))),
        decode_batch=1, n_requests=1, arrival_spacing_s=0.001,
        allow_rejections=True)
    report = check(scenario, backend, seed=0)
    dups = [r["data"]["target"] for r in report.journal_dump
            if r["kind"] == "handoff_dup"]
    assert dups == ["r1"] and report.handoff_dup_drops == 1


SETTINGS = dict(deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def test_strategy_hedges_under_restarts_or_autoscaling():
    # The hedge path must meet the fault paths it once skipped: some
    # early draw hedges with a restart or an autoscaler in the fleet.
    def hedges_under_pressure(draw):
        scenario, seed = draw
        if not (scenario.restarts or scenario.autoscale is not None):
            return False
        return run(scenario, "loop", seed)[0].hedges > 0

    find(st.tuples(scenarios(), st.integers(0, 7)), hedges_under_pressure,
         settings=settings(max_examples=60, phases=[Phase.generate],
                           **SETTINGS))


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=15, **SETTINGS)
@given(scenario=scenarios(), seed=st.integers(0, 7))
def test_fleet_invariants(backend, scenario, seed):
    check_and_label(scenario, backend, seed)


@pytest.mark.slow
@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=500, **SETTINGS)
@given(scenario=scenarios(), seed=st.integers(0, 7))
def test_fleet_invariants_large_budget(backend, scenario, seed):
    check_and_label(scenario, backend, seed)
