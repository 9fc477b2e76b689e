"""Tests of the benchmark's own machinery (not of the program).

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.spans import (  # noqa: E402
    Span,
    SpanRecorder,
    self_times,
    tail_percentile,
    timing_summary,
    union_length,
)
from perfbench.workloads import WORKLOADS, shared_prefix_tokens  # noqa: E402


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0
    assert union_length([(0, 4), (1, 2)]) == pytest.approx(4.0)


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),        # overlaps a: union 1..6
        Span("a.child", 2.0, 3.0, parent=1),
        Span("c", 9.0, 12.0, parent=0),       # runs past the root's end
    ]
    root, a, b, a_child, c = self_times(spans)
    assert root == pytest.approx(10.0 - 5.0 - 1.0)
    assert a == pytest.approx(3.0 - 1.0)
    assert b == pytest.approx(3.0)
    assert a_child == pytest.approx(1.0)
    assert c == pytest.approx(3.0)


@pytest.mark.parametrize("n, pct", [
    (19, 100.0), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    values = list(range(n, 0, -1))          # unsorted input
    got_pct, value = tail_percentile(values)
    assert got_pct == pct
    if pct < 100.0:
        beyond = sum(1 for v in values if v > value)
        assert beyond >= 10
    else:
        assert value == n


def test_timing_summary_reports_n_beside_the_tail():
    summary = timing_summary("x_ms", [float(v) for v in range(1, 101)])
    assert summary == {"x_ms.p50": 50.5, "x_ms.tail": 90.0,
                       "x_ms.tail_pct": 90.0, "x_ms.n": 100}


class _Thing:
    def work(self, x):
        return x + 1

    @classmethod
    def make(cls, x):
        return x * 2

    def boom(self):
        raise RuntimeError("boom")


def test_wrappers_record_spans_and_are_removed_afterwards():
    originals = {k: vars(_Thing)[k] for k in ("work", "make", "boom")}
    recorder = SpanRecorder()
    targets = [(_Thing, "work", "t.work", {}),
               (_Thing, "make", "t.make", {}),
               (_Thing, "boom", "t.boom", {})]
    with recorder.installed(targets):
        assert _Thing().work(1) == 2
        assert _Thing.make(3) == 6
        with pytest.raises(RuntimeError):
            _Thing().boom()
    assert [s.name for s in recorder.spans] == ["t.work", "t.make",
                                                 "t.boom"]
    assert recorder.spans[2].error
    for name, original in originals.items():
        assert vars(_Thing)[name] is original


def test_program_targets_are_restored_by_identity():
    from perfbench.layers import targets

    listed = targets()
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _, _ in listed]
    recorder = SpanRecorder()
    with pytest.raises(KeyError):
        with recorder.installed(listed):
            for owner, attr, raw in originals:
                assert vars(owner)[attr] is not raw
            raise KeyError("leave the block early")
    for owner, attr, raw in originals:
        assert vars(owner)[attr] is raw, f"{owner}.{attr} not restored"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_generation_is_a_pure_function_of_the_seed(name):
    workload = WORKLOADS[name]

    def flat(subs):
        return [(s.request.request_id, s.request.prompt.tolist(),
                 s.request.max_new_tokens, s.priority_class, s.arrival_s,
                 s.deadline_s) for s in subs]

    assert flat(workload.submissions(3)) == flat(workload.submissions(3))
    assert flat(workload.submissions(3)) != flat(workload.submissions(4))


def test_shared_prefix_tokens_counts_whole_pages_only():
    from repro.cluster.control_plane import ClusterSubmission
    from repro.serving.engine import Request

    def sub(rid, prompt, t):
        return ClusterSubmission(Request(rid, np.array(prompt), 2),
                                 arrival_s=t)

    subs = [sub(0, [1, 2, 3, 4, 5, 6], 0.0),
            sub(1, [1, 2, 3, 4, 5, 9], 1.0),   # 5 shared -> one page
            sub(2, [1, 2, 7], 2.0)]            # 2 shared -> no page
    assert shared_prefix_tokens(subs) == 4


def test_traced_run_yields_every_listed_per_layer_metric():
    """A short traced serve: every per-layer name in BENCHMARK.json has a
    value, and the modeled results equal the untraced run's."""
    from perfbench.bench import serve_once
    from perfbench.layers import layer_metrics, modeled_metrics
    from repro.model import init_weights

    base = WORKLOADS["longgen-disagg"]
    workload = dataclasses.replace(
        base, spec=dataclasses.replace(base.spec, duration_s=1.0))
    weights = init_weights(workload.config, seed=0)
    submissions = workload.submissions(0)
    plane, outcomes, _ = serve_once(workload, weights, submissions)
    plain = modeled_metrics(plane, outcomes)
    recorder = SpanRecorder()
    plane, outcomes, _ = serve_once(workload, weights, submissions,
                                    recorder)
    traced = modeled_metrics(plane, outcomes)
    assert traced == plain
    metrics = {**layer_metrics(recorder.spans, plane, audit_s=0.0),
               **traced, "trace.overhead_frac": 0.0,
               "machine.kernel_ms": 5.0}
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in contract["per_layer"]}
    assert listed == set(metrics)
    assert metrics["replica.prefill_calls"] >= 1
    assert metrics["disagg.handoffs"] >= 1
    assert 0.0 < metrics["trace.covered_frac"] <= 1.0
