"""Chaos-scenario acceptance: the cluster control plane under fire.

Every scenario in :data:`repro.cluster.chaos.SCENARIOS` runs on both
mesh execution backends; the CI chaos job additionally sweeps
``REPRO_CHAOS_SEED`` over a small matrix, which these tests honor so one
test file serves both roles.  The acceptance bar mirrors ISSUE 4:

* rolling kill of 1-of-3 replicas: every admitted request completes,
  tokens bit-identical to the fault-free reference, zero drops;
* overload: load is shed with *typed* errors (never timeouts) and the
  report carries per-class goodput;
* the whole run — events, spans, report — is a pure function of
  ``(scenario, backend, seed)``.
"""

import os

import numpy as np
import pytest

from repro.cluster import (
    SCENARIOS,
    build_workload,
    format_report,
    run_scenario,
)
from repro.cluster.journal import (
    EVENT_PROJECTIONS,
    JournalRecord,
    project_record,
)
from repro.events import EventLog
from repro.mesh.virtual_mesh import BACKENDS

#: CI sweeps this over a seed matrix; locally it defaults to 0.
SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def run(name, backend, seed=SEED, **kwargs):
    report = run_scenario(name, backend=backend, seed=seed, **kwargs)
    assert report.ok, format_report(report)
    return report


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
class TestScenarioSuite:
    def test_invariants_hold(self, name, backend):
        log = EventLog()
        report = run(name, backend, event_log=log)
        # Universal bookkeeping: every submission has exactly one fate.
        assert report.admitted + sum(report.rejections.values()) \
            == report.submitted
        assert report.completed + report.failed \
            + report.deadline_missed == report.admitted
        assert report.dropped_in_flight == 0
        assert report.bit_identical
        assert report.n_events > 0 and report.n_spans > 0
        # One emit per transition: every projected event is exactly the
        # journal's view of its records — a direct emit of one of these
        # names (or a missing projection) breaks count, order or data.
        projected = {
            kind: [] for names in EVENT_PROJECTIONS.values()
            for kind in ((names,) if isinstance(names, str) else names)}
        for record in report.journal_dump:
            for kind, data in project_record(JournalRecord(**record)):
                projected[kind].append(data)
        for kind, want in sorted(projected.items()):
            assert [e.data for e in log.of_kind(kind)] == want, kind


@pytest.mark.parametrize("backend", BACKENDS)
class TestRollingKillAcceptance:
    def test_zero_drops_bit_identical(self, backend):
        report = run("rolling-kill", backend)
        # The ISSUE acceptance bar, verbatim: all admitted requests
        # complete bit-identically, none dropped, none shed.
        assert report.admitted == report.submitted == 12
        assert report.completed == report.admitted
        assert report.availability == 1.0
        assert report.failovers >= 1
        assert not report.rejections
        assert report.bit_identical


@pytest.mark.parametrize("backend", BACKENDS)
class TestOverloadShedding:
    def test_typed_rejections_and_per_class_goodput(self, backend):
        report = run("overload-burst", backend)
        # Both admission mechanisms fired, each with its typed error —
        # rejections are never timeouts or dropped requests.
        assert report.rejections.get("QueueFull", 0) > 0
        assert report.rejections.get("RateLimited", 0) > 0
        assert set(report.rejections) <= {"QueueFull", "RateLimited"}
        assert report.failed == 0
        # The high-priority class kept more of its goodput than batch.
        goodput = report.goodput_per_class
        assert goodput["interactive"] > goodput["batch"] > 0.0


@pytest.mark.parametrize("backend", BACKENDS)
class TestHedgedDecode:
    def test_hedge_fires_and_streams_stay_identical(self, backend):
        report = run("correlated-stragglers", backend)
        assert report.hedges >= 1
        assert report.bit_identical
        assert report.completed == report.admitted


class TestDeterminism:
    def test_same_seed_same_run(self):
        # Token streams, events and spans are a pure function of
        # (scenario, backend, seed): replay and compare everything.
        logs, spans = [], []
        for _ in range(2):
            log = EventLog()
            report = run("rolling-kill", "loop", seed=3, event_log=log)
            logs.append([(e.kind, e.data) for e in log.events])
            spans.append([(s.name, s.kind, s.start_s, s.end_s)
                          for s in report.spans])
        assert logs[0] == logs[1]
        assert spans[0] == spans[1]

    def test_different_seed_different_workload(self):
        a = build_workload(SCENARIOS["rolling-kill"], seed=0)
        b = build_workload(SCENARIOS["rolling-kill"], seed=1)
        assert not all(
            np.array_equal(x.request.prompt, y.request.prompt)
            for x, y in zip(a, b))

    def test_report_fields_stable_across_replays(self):
        first = run("overload-burst", "loop", seed=7)
        second = run("overload-burst", "loop", seed=7)
        assert first.rejections == second.rejections
        assert first.goodput_per_class == second.goodput_per_class
        assert first.p99_latency_s == second.p99_latency_s


class TestScenarioRegistry:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos scenario"):
            run_scenario("does-not-exist")

    def test_all_scenarios_have_distinct_descriptions(self):
        descriptions = [s.description for s in SCENARIOS.values()]
        assert len(set(descriptions)) == len(descriptions)
