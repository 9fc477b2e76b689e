"""The benchmark's three workloads: traces, fleets and descriptors.

Each workload is an open-loop arrival schedule on the virtual clock
(a :class:`~repro.cluster.workload.TraceSpec` expanded at the run's
seed) plus the fleet that serves it.  ``serve()`` runs the whole trace
as one offline batch, so the host-clock cost of a run is the cost of
that batch.  The program only ever sees the generated submissions.

The three shapes stress different layers (see ``README.md``):

* ``chat-prefix`` — prefill-heavy, most prompt pages come from the
  paged prefix cache; two stacked 4x4x4 replicas with prefix-affinity
  routing.
* ``diurnal-autoscale`` — the autoscaler scales 1..3 loop-backend
  2x2x2 replicas out and back in, so replica construction and fresh
  captures are a large share; no shared prefixes (zero page hits).
* ``longgen-disagg`` — long generations on a disaggregated prefill /
  decode pair, every group crossing a KV handoff; the kvstore only
  writes (evictions, no hits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cluster.autoscaler import Autoscaler, AutoscalerPolicy
from repro.cluster.control_plane import ClusterControlPlane, ClusterPolicy
from repro.cluster.disagg import DisaggControlPlane, DisaggPolicy, PoolSpec
from repro.cluster.workload import TraceSpec, generate_trace
from repro.model import tiny_test_config
from repro.serving.chunked import DEFAULT_PREFILL_CHUNK

#: Groups of up to four requests share one decode batch on every fleet.
DECODE_BATCH = 4

#: Big enough to shard over all 64 chips of a 4x4x4 torus.
WIDE_CONFIG = tiny_test_config(n_layers=2, d_model=64, d_ff=128,
                               n_heads=16, d_head=4, vocab_size=32)
#: The 2x2x2 fleets' model: cheap numerics, so control-plane and
#: replica-lifecycle costs stay visible next to the math.
NARROW_CONFIG = tiny_test_config(n_layers=2, d_model=16, d_ff=32,
                                 n_heads=8, d_head=8, vocab_size=32)

#: Partial groups dispatch after this much virtual queueing.
_POLICY = dict(max_batch_wait_s=0.05)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a trace, a model and a fleet builder."""

    name: str
    spec: TraceSpec
    config: object
    backend: str
    mesh: str
    build: Callable[["Workload", object], ClusterControlPlane]

    def submissions(self, seed: int):
        """The seeded arrival schedule: a pure function of the seed."""
        return generate_trace(self.spec, seed,
                              vocab_size=self.config.vocab_size)

    def plane(self, weights) -> ClusterControlPlane:
        """A freshly built control plane for this workload's fleet."""
        return self.build(self, weights)


def _chat_fleet(w: Workload, weights) -> ClusterControlPlane:
    return ClusterControlPlane(
        weights, [(4, 4, 4)] * 2, backend=w.backend,
        decode_batch=DECODE_BATCH, classes=w.spec.priority_classes(),
        policy=ClusterPolicy(**_POLICY), step_threads=0)


#: 1..3 replicas on a 4 s diurnal period: the fleet scales out at each
#: peak and drains back in each trough, about two dozen times a run.
AUTOSCALE_POLICY = AutoscalerPolicy(
    min_replicas=1, max_replicas=3, scale_out_pressure=1.0,
    scale_in_pressure=0.5, up_after=2, down_after=4, spinup_s=0.1)


def _autoscale_fleet(w: Workload, weights) -> ClusterControlPlane:
    return ClusterControlPlane(
        weights, [(2, 2, 2)], backend=w.backend,
        decode_batch=DECODE_BATCH, classes=w.spec.priority_classes(),
        policy=ClusterPolicy(**_POLICY), step_threads=0,
        autoscaler=Autoscaler(AUTOSCALE_POLICY))


def _disagg_fleet(w: Workload, weights) -> ClusterControlPlane:
    # The decode pool keeps the balanced plan: a weight-gathered decode
    # plan refuses partial batches, which would then decode in place
    # and skip the handoff this workload exists to measure.
    pools = (PoolSpec("prefill", ((2, 2, 2),),
                      prefill_profile="weight-stationary"),
             PoolSpec("decode", ((2, 2, 2),)))
    return DisaggControlPlane(
        weights, pools, backend=w.backend, decode_batch=DECODE_BATCH,
        classes=w.spec.priority_classes(),
        policy=DisaggPolicy(**_POLICY), step_threads=0)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="chat-prefix",
        spec=TraceSpec(
            name="chat-prefix", duration_s=12.0, base_rate_rps=14.0,
            prompt_len_buckets=(4, 8), system_prompt_pool=12,
            system_prompt_len=12, shared_prefix_fraction=0.8,
            prefix_zipf_a=0.8, session_fraction=0.4, output_max=6),
        config=WIDE_CONFIG, backend="stacked", mesh="2x(4x4x4)",
        build=_chat_fleet),
    Workload(
        name="diurnal-autoscale",
        spec=TraceSpec(
            name="diurnal-autoscale", duration_s=16.0,
            base_rate_rps=12.0, diurnal_amplitude=0.6,
            diurnal_period_s=4.0),
        config=NARROW_CONFIG, backend="loop", mesh="1..3x(2x2x2)",
        build=_autoscale_fleet),
    Workload(
        name="longgen-disagg",
        spec=TraceSpec(
            name="longgen-disagg", duration_s=16.0, base_rate_rps=10.0,
            prompt_len_mu=1.9, prompt_len_sigma=0.7,
            prompt_len_buckets=(4, 8, 12, 16, 24), output_min=8,
            output_max=32, output_zipf_a=1.5),
        config=NARROW_CONFIG, backend="stacked",
        mesh="prefill 2x2x2 + decode 2x2x2", build=_disagg_fleet),
)}


def shared_prefix_tokens(submissions) -> int:
    """Prompt tokens in whole pages of a prefix an earlier prompt had.

    Walks a token trie in arrival order: a prompt's leading tokens that
    retrace a path some earlier prompt laid down are shared.  Each
    prompt's shared run is rounded down to whole kvstore pages (one
    prefill chunk each), the granularity at which the prefix cache can
    serve it, so chance matches of a token or two do not count.
    """
    root: dict = {}
    shared = 0
    for sub in sorted(submissions, key=lambda s: s.arrival_s):
        node, matched, on_path = root, 0, True
        for token in sub.request.prompt.tolist():
            child = node.get(token)
            if child is None:
                on_path = False
                child = node[token] = {}
            elif on_path:
                matched += 1
            node = child
        shared += matched - matched % DEFAULT_PREFILL_CHUNK
    return shared
