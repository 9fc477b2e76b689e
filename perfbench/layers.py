"""Which calls the traced run wraps, and the per-layer metrics they give.

:func:`targets` lists every wrapped attribute with its span name; the
prefix before the first dot names the layer (the module the call lives
in).  :func:`layer_metrics` folds one traced ``serve()`` into the
per-layer metrics of ``BENCHMARK.json``; :func:`modeled_metrics` reads
the virtual-clock results off the outcomes, which no host-path change
may move.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Sequence

import repro.cluster.replica as replica_module
import repro.mesh.capture as capture_module
from repro.cluster.admission import AdmissionController
from repro.cluster.autoscaler import Autoscaler
from repro.cluster.control_plane import (
    ClusterControlPlane,
    ClusterRequestStatus,
)
from repro.cluster.journal import Journal
from repro.cluster.replica import GroupRun, Replica
from repro.kvstore import KVStore
from repro.layouts.model import ShardedTransformer
from repro.mesh.capture import CapturedProgram, StepCompiler
from repro.mesh.sharded_tensor import ShardedTensor

from perfbench.spans import Span, children_of, covered, self_times, \
    timing_summary


def _run_requests(run, *args, **kwargs):
    return [r.request_id for r in run.group]


def targets() -> list[tuple]:
    """``(owner, attr, span name, wrap options)`` for every wrapped call."""
    group = {"requests_of": _run_requests}
    return [
        (ClusterControlPlane, "serve", "control_plane.serve", {}),
        (ClusterControlPlane, "add_replica", "control_plane.add_replica",
         {}),
        (ClusterControlPlane, "begin_scale_in",
         "control_plane.begin_scale_in", {}),
        (ClusterControlPlane, "reap_retiring",
         "control_plane.reap_retiring", {"note": len}),
        (AdmissionController, "submit", "admission.submit", {}),
        (AdmissionController, "next_batch", "admission.next_batch", {}),
        (Autoscaler, "maybe_tick", "autoscaler.maybe_tick", {}),
        (Replica, "__init__", "replica.construct", {}),
        (GroupRun, "run_prefill", "replica.prefill", group),
        (GroupRun, "decode_step", "replica.decode", group),
        (GroupRun, "begin_decode_step", "replica.begin_decode", group),
        (GroupRun, "finish_decode_step", "replica.finish_decode", group),
        (GroupRun, "migrate_to", "replica.migrate", group),
        (Journal, "append", "journal.append", {}),
        (KVStore, "peek", "kvstore.peek", {}),
        (KVStore, "match", "kvstore.match",
         {"note": lambda lease: lease is not None}),
        (KVStore, "install", "kvstore.install", {}),
        (KVStore, "commit", "kvstore.commit", {}),
        (KVStore, "release", "kvstore.release", {}),
        (KVStore, "adopt", "kvstore.adopt", {}),
        (replica_module, "chunked_prefill", "chunked.prefill", {}),
        (replica_module, "merge_sharded_caches", "merge.caches", {}),
        (StepCompiler, "prefill_chunk", "capture.compiler_prefill_chunk",
         {}),
        (StepCompiler, "decode_step", "capture.compiler_decode_step", {}),
        (StepCompiler, "decode_window", "capture.compiler_decode_window",
         {}),
        (StepCompiler, "decode_thunk", "capture.compiler_decode_thunk",
         {}),
        (CapturedProgram, "replay", "capture.replay", {}),
        (capture_module, "capture_decode_step", "capture.capture", {}),
        (capture_module, "capture_prefill_chunk", "capture.capture", {}),
        (capture_module, "capture_fused_decode", "capture.capture", {}),
        (ShardedTensor, "to_global", "layout.to_global", {}),
        (ShardedTensor, "from_global", "layout.from_global", {}),
        (ShardedTransformer, "forward", "model.forward", {}),
        (ShardedTransformer, "decode_step", "model.decode_step", {}),
    ]


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class _Index:
    """Span lookups the metrics need: by name, outermost, self time."""

    def __init__(self, spans: Sequence[Span]):
        self.spans = spans
        self.self_s = self_times(spans)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, span in enumerate(spans):
            self.by_name[span.name].append(i)

    def _has_ancestor(self, i: int, pred) -> bool:
        parent = self.spans[i].parent
        while parent >= 0:
            if pred(self.spans[parent].name):
                return True
            parent = self.spans[parent].parent
        return False

    def outer(self, name: str) -> list[int]:
        """Spans called ``name`` not nested in another of that name."""
        return [i for i in self.by_name.get(name, ())
                if not self._has_ancestor(i, lambda n: n == name)]

    def outer_layer(self, layer: str) -> list[int]:
        """Spans of ``layer`` not nested in another span of it."""
        return [i for i, s in enumerate(self.spans)
                if _layer(s.name) == layer
                and not self._has_ancestor(i, lambda n: _layer(n) == layer)]

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def seconds(self, name: str) -> float:
        return sum(self.spans[i].duration for i in self.outer(name))

    def durations_ms(self, name: str) -> list[float]:
        return [self.spans[i].duration * 1e3 for i in self.outer(name)]

    def layer_self_s(self, layer: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_s)
                   if _layer(s.name) == layer)


def _fleet(plane) -> list:
    return list(plane.replicas) + list(plane.retired)


def _kvstore_metrics(ix: _Index, plane) -> dict:
    stores = [r.kvstore for r in _fleet(plane) if r.kvstore is not None]
    live = [r.kvstore for r in plane.replicas if r.kvstore is not None]
    pages_hit = sum(s.pages_hit for s in stores)
    cacheable = pages_hit + sum(s.pages_missed for s in stores)
    tokens_total = sum(s.tokens_total for s in stores)
    capacity = sum(s.capacity_pages for s in live)
    matches = ix.by_name.get("kvstore.match", [])
    hits = sum(1 for i in matches if ix.spans[i].note)
    return {
        "kvstore.peeks": ix.count("kvstore.peek"),
        "kvstore.peek_s": ix.seconds("kvstore.peek"),
        "kvstore.match_s": ix.seconds("kvstore.match"),
        "kvstore.match_hit_frac": hits / len(matches) if matches else 0.0,
        "kvstore.install_s": ix.seconds("kvstore.install"),
        "kvstore.commit_s": ix.seconds("kvstore.commit"),
        "kvstore.page_hit_rate": pages_hit / cacheable if cacheable
        else 0.0,
        "kvstore.prefill_tokens_computed_frac":
            sum(s.tokens_computed for s in stores) / tokens_total
            if tokens_total else 0.0,
        "kvstore.evictions": sum(s.evictions for s in stores),
        "kvstore.occupancy": sum(s.index.n_pages for s in live) / capacity
        if capacity else 0.0,
    }


def layer_metrics(spans: Sequence[Span], plane, *,
                  audit_s: float) -> dict:
    """Per-layer metrics of one traced build + ``serve()``."""
    ix = _Index(spans)
    prefill_groups: dict[int, int] = {}
    for i in ix.by_name.get("replica.prefill", ()):
        prefill_groups[spans[i].group] = len(spans[i].requests)
    submits = ix.by_name.get("admission.submit", [])
    compilers = [r.step_compiler for r in _fleet(plane)]
    lookups = sum(c.hits + c.misses for c in compilers)
    autoscaler = plane.autoscaler
    model_outer = ix.outer_layer("model")
    serve = ix.outer("control_plane.serve")
    serve_s = sum(spans[i].duration for i in serve)
    children = children_of(spans)
    metrics = {
        "control_plane.self_s": ix.layer_self_s("control_plane"),
        "control_plane.groups": len(prefill_groups),
        "control_plane.requests_per_group":
            statistics.mean(prefill_groups.values()) if prefill_groups
            else 0.0,
        "admission.self_s": ix.layer_self_s("admission"),
        "admission.calls": len(submits)
        + ix.count("admission.next_batch"),
        "admission.rejected_frac":
            sum(1 for i in submits if spans[i].error) / len(submits)
            if submits else 0.0,
        "autoscaler.self_s": ix.layer_self_s("autoscaler"),
        "autoscaler.ticks": autoscaler.ticks if autoscaler else 0,
        "autoscaler.replicas_added": ix.count("control_plane.add_replica"),
        "autoscaler.replicas_removed": sum(
            spans[i].note for i in
            ix.by_name.get("control_plane.reap_retiring", ())),
        "replica.constructs": len(ix.outer("replica.construct")),
        "replica.construct_s": ix.seconds("replica.construct"),
        "replica.prefill_calls": len(ix.outer("replica.prefill")),
        "replica.prefill_s": ix.seconds("replica.prefill"),
        **timing_summary("replica.prefill_ms",
                         ix.durations_ms("replica.prefill")),
        "replica.decode_steps": len(ix.outer("replica.decode")),
        "replica.decode_s": ix.seconds("replica.decode"),
        **timing_summary("replica.decode_ms",
                         ix.durations_ms("replica.decode")),
        "replica.migrations": len(ix.outer("replica.migrate")),
        "replica.migrate_s": ix.seconds("replica.migrate"),
        "disagg.handoffs": getattr(plane, "kv_handoffs", 0),
        "disagg.handoff_bytes": getattr(plane, "kv_handoff_bytes", 0),
        "journal.appends": ix.count("journal.append"),
        "journal.self_s": ix.layer_self_s("journal"),
        "audit.wall_s": audit_s,
        **_kvstore_metrics(ix, plane),
        "chunked.self_s": ix.layer_self_s("chunked"),
        "chunked.chunks": ix.count("capture.compiler_prefill_chunk"),
        "merge.calls": ix.count("merge.caches"),
        "merge.wall_s": ix.seconds("merge.caches"),
        "capture.captures": ix.count("capture.capture"),
        "capture.capture_s": ix.seconds("capture.capture"),
        "capture.replays": ix.count("capture.replay"),
        "capture.replay_s": ix.seconds("capture.replay"),
        "capture.hit_rate": sum(c.hits for c in compilers) / lookups
        if lookups else 0.0,
        "layout.to_global_calls": ix.count("layout.to_global"),
        "layout.to_global_s": ix.seconds("layout.to_global"),
        "layout.from_global_calls": ix.count("layout.from_global"),
        "layout.from_global_s": ix.seconds("layout.from_global"),
        "model.eager_calls": len(model_outer),
        "model.eager_s": sum(spans[i].duration for i in model_outer),
        "trace.covered_frac":
            sum(covered(spans, i, children) for i in serve) / serve_s
            if serve_s else 0.0,
    }
    return metrics


def modeled_metrics(plane, outcomes) -> dict:
    """Virtual-clock results (``serving.resilient.CostModel`` outputs)."""
    finished = [o for o in outcomes if o.completion is not None]
    completed = [o for o in finished
                 if o.status is ClusterRequestStatus.COMPLETED]
    tokens = sum(o.completion.n_generated for o in completed)
    makespan = max((o.finish_s for o in finished), default=0.0)
    ttft = [o.ttft_s for o in finished if o.ttft_s is not None]
    tpot = [o.tpot_s for o in finished
            if o.tpot_s is not None and o.completion.n_generated > 1]
    missed = sum(1 for o in outcomes
                 if o.status is ClusterRequestStatus.DEADLINE_MISSED)
    return {
        **timing_summary("modeled.ttft_s", ttft),
        **timing_summary("modeled.tpot_s", tpot),
        "modeled.goodput_tok_s": tokens / makespan if makespan else 0.0,
        "modeled.chip_s_per_token":
            plane.fleet_chip_seconds(plane.now_s) / tokens if tokens
            else 0.0,
        "modeled.makespan_s": makespan,
        "modeled.deadline_miss_frac": missed / len(outcomes)
        if outcomes else 0.0,
    }
