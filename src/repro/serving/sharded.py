"""Two-phase serving on the partitioned model (Section 4.4, end to end).

The reference ``TwoPhaseServer`` demonstrates the scheduling; this module
runs the same recipe on ``ShardedTransformer`` backends: a batch-1
prefill model (head-sharded attention — a single sequence cannot be split
over batch) feeds a batch-N decode model (batch-sharded multiquery), with
host-mediated cache merging in between.  Weights are shared between the
two models via :meth:`ShardedTransformer.with_plan` whenever their
storage layouts match, exactly as deployed in the paper.

When a tracer is installed on the shared mesh
(:meth:`VirtualMesh.install_tracer`), the server wraps each prefill in a
per-request span tree and each decode batch in a region tagged with the
participating request ids; a tracer built with an
:class:`~repro.events.EventLog` then joins the span timeline to the
serving/fault event timeline via ``request_span`` events.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Sequence

import numpy as np

from repro.layouts.kv_cache import ShardedKVCache, same_layout
from repro.layouts.model import ShardedTransformer
from repro.model.sampling import greedy
from repro.serving.engine import Completion, Request
from repro.serving.scheduler import group_requests
from repro.sharding.spec import parse


def merge_sharded_caches(per_request: Sequence[Sequence[ShardedKVCache]],
                         decode_model: ShardedTransformer
                         ) -> list[ShardedKVCache]:
    """Concatenate per-request caches and reshard for the decode model.

    The merge is host-mediated (one KV-sized copy per request), matching
    the prefill-server -> decode-server hand-off the paper describes.
    All caches must have equal length (the scheduler groups by prompt
    length).  When every cache already has the decode layout
    (:func:`same_layout`), a single request's caches on the decode
    model's own mesh are adopted as they are, and several requests
    copy shard to shard into batch rows (batch must be unsharded);
    otherwise the history goes through global form.  Every path checks
    that replicas agree.
    """
    if not per_request:
        raise ValueError("cannot merge an empty list of request caches")
    lengths = {caches[0].length for caches in per_request}
    if len(lengths) != 1:
        raise ValueError(f"cannot merge caches of different lengths "
                         f"{sorted(lengths)}; group requests by length")
    batch = sum(caches[0].global_shape[0] for caches in per_request)
    cfg = decode_model.config
    mesh = decode_model.mesh
    spec = parse(decode_model.cache_spec())
    arena = getattr(decode_model, "kv_arena", None)
    direct = all(same_layout(cache, mesh, spec)
                 for caches in per_request for cache in caches)
    if direct and len(per_request) == 1 \
            and all(cache.mesh is mesh for cache in per_request[0]):
        for cache in per_request[0]:
            cache.check_replicas()
        return list(per_request[0])
    # The cache records its element dtype; probing a shard would depend
    # on the backend's storage layout (object array vs dense stack).
    dtype = per_request[0][0].dtype
    rows = direct and (len(per_request) == 1 or not spec.axes_for("B"))
    checked: set[int] = set()  # padding repeats a request's caches
    merged = []
    for layer in range(len(per_request[0])):
        sources = [caches[layer] for caches in per_request]
        cache = ShardedKVCache(mesh, spec, batch, sources[-1].max_len,
                               cfg.n_kv_heads, cfg.d_head, dtype=dtype,
                               arena=arena)
        if rows:
            row = 0
            for src in sources:
                if id(src) not in checked:
                    src.check_replicas()
                    checked.add(id(src))
                cache.copy_from(src, row)
                row += src.global_shape[0]
        else:
            parts = [src.global_prefix() for src in sources]
            cache.load_global(np.concatenate([k for k, _ in parts]),
                              np.concatenate([v for _, v in parts]))
        merged.append(cache)
    return merged


class ShardedTwoPhaseServer:
    """Batch-1 prefill -> batch-N decode on partitioned models."""

    def __init__(self, prefill_model: ShardedTransformer,
                 decode_model: ShardedTransformer,
                 decode_batch: int = 64, sampler=None, seed: int = 0):
        if prefill_model.weights is not decode_model.weights:
            raise ValueError(
                "prefill and decode models must share weights")
        self.prefill_model = prefill_model
        self.decode_model = decode_model
        self.decode_batch = decode_batch
        self.sampler = sampler or (lambda logits, rng: greedy(logits))
        self.rng = np.random.default_rng(seed)

    def _tracer(self):
        return getattr(self.prefill_model.mesh, "tracer", None)

    def _serve_group(self, group: list[Request]) -> list[Completion]:
        tracer = self._tracer()
        n_steps = max(r.max_new_tokens for r in group)
        max_len = len(group[0].prompt) + n_steps
        caches_per_request, first_logits = [], []
        for request in group:
            with (tracer.request(request.request_id) if tracer is not None
                  else nullcontext()):
                logits, caches = self.prefill_model.prefill(
                    request.prompt[None, :], max_len)
            caches_per_request.append(caches)
            first_logits.append(logits)
        caches = merge_sharded_caches(caches_per_request,
                                      self.decode_model)
        current = self.sampler(np.concatenate(first_logits, axis=0),
                               self.rng)
        generated = [current[:, None]]
        decode_region = (tracer.region(
            "decode_batch", request_ids=[r.request_id for r in group])
            if tracer is not None else nullcontext())
        with decode_region:
            for _ in range(n_steps - 1):
                logits = self.decode_model.decode_step(current, caches)
                current = self.sampler(logits, self.rng)
                generated.append(current[:, None])
        all_generated = np.concatenate(generated, axis=1)
        completions = []
        for i, request in enumerate(group):
            n = request.max_new_tokens
            tokens = np.concatenate([request.prompt,
                                     all_generated[i, :n]])
            completions.append(Completion(request.request_id, tokens, n))
        return completions

    def serve(self, requests: Sequence[Request]) -> list[Completion]:
        completions: dict[int, Completion] = {}
        for group in group_requests(requests, self.decode_batch):
            for completion in self._serve_group(group):
                completions[completion.request_id] = completion
        return [completions[r.request_id] for r in requests]
