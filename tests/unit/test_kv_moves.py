"""Same-layout KV moves: shard to shard, still guarded, bit-equal.

A KV move that keeps spec, mesh shape and backend
(:func:`repro.layouts.kv_cache.same_layout`) copies each device's shard
straight across — group merges, migrations and handoffs
(``reshard_cache``), page commits and installs — instead of going
through global form.  On both backends these tests pin down that:

* a corrupted replica is still caught on every path that used to run
  ``to_global``'s replica check (``ShardingError("replicas disagree")``);
* committed pages own their bytes, so a later cache leasing the same
  arena buffers cannot change what a prefix hit installs;
* the direct move and the global-form move produce equal buffers;
* migrated caches lease from the target model's arena and return there.
"""

import gc

import numpy as np
import pytest

from repro.kvstore import KVBufferArena, KVStore
from repro.layouts import ShardedTransformer
from repro.layouts.kv_cache import GLOBAL_SPEC, ShardedKVCache, same_layout
from repro.mesh import ShardedTensor, VirtualMesh
from repro.model import init_weights, tiny_test_config
from repro.partitioning import (
    AttentionLayoutKind,
    FfnLayoutKind,
    LayoutPlan,
)
from repro.serving.sharded import merge_sharded_caches
from repro.sharding.spec import ShardingError

CFG = tiny_test_config(n_layers=2, d_model=16, d_ff=32, n_heads=8,
                       d_head=8, vocab_size=32)
WEIGHTS = init_weights(CFG, seed=0)
HEAD = LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.HEAD)  # BMKD
BATCH = LayoutPlan(FfnLayoutKind.WG_X, AttentionLayoutKind.BATCH)  # B_x
PROMPTS = np.random.default_rng(6).integers(0, CFG.vocab_size,
                                            size=(3, 8))

pytestmark = pytest.mark.parametrize("backend", ["loop", "stacked"])


def model_on(backend, plan=HEAD, arena=None, shape=(2, 2, 2)):
    model = ShardedTransformer(WEIGHTS, VirtualMesh(shape, backend=backend),
                               plan)
    model.kv_arena = arena
    return model


def other_layout(backend, arena=None):
    """A target the batch-1 caches can only reach through global form."""
    return model_on(backend, arena=arena, shape=(2, 2, 1))


def prefilled(model, row=0, max_len=12):
    _, caches = model.prefill(PROMPTS[row:row + 1], max_len)
    return caches


def device_buffers(cache):
    """Every device's (k, v) buffer of a cache, either backend."""
    return [buf[c] for buf in (cache.k, cache.v)
            for c in cache.mesh.devices()]


def buffers_equal(a, b):
    return a.length == b.length and all(
        np.array_equal(x, y)
        for x, y in zip(device_buffers(a), device_buffers(b)))


def corrupt(cache):
    """Flip one history value on one non-origin replica."""
    cache.k[1, 1, 0][0, 0, 0, 0] += 1.0


def global_path(cache, target):
    """The cross-layout move: global form, then ``from_global``."""
    new = ShardedKVCache(target.mesh, target.cache_spec(),
                         cache.global_shape[0], cache.max_len,
                         cache.global_shape[2], cache.global_shape[3],
                         dtype=cache.dtype)
    k_sh, v_sh = cache.as_sharded()
    spec = new.spec.with_dim_axes("M", ())
    new.load_prefix(
        ShardedTensor.from_global(target.mesh, k_sh.to_global(), spec),
        ShardedTensor.from_global(target.mesh, v_sh.to_global(), spec),
        cache.length)
    return new


class TestLayoutDecision:
    def test_same_layout(self, backend):
        model = model_on(backend)
        cache = prefilled(model)[0]
        assert same_layout(cache, model.mesh, model.cache_spec())
        assert same_layout(cache, model.mesh, GLOBAL_SPEC)
        assert not same_layout(cache, model.mesh, "B_xMKD")
        other = "stacked" if backend == "loop" else "loop"
        assert not same_layout(cache, VirtualMesh((2, 2, 2),
                                                  backend=other), "BMKD")
        assert not same_layout(cache, VirtualMesh((2, 2, 1),
                                                  backend=backend), "BMKD")


class TestReplicaGuard:
    """A corrupted replica raises wherever ``to_global`` used to run."""

    def test_merge_adopt_concat_and_reshard(self, backend):
        model = model_on(backend)
        bad = prefilled(model)
        corrupt(bad[0])
        good = prefilled(model, row=1)
        for per_request, decode in (
                ([bad], model),                   # adopted as is
                ([good, bad], model),             # shard-to-shard rows
                ([bad, bad], model_on(backend, BATCH))):  # global form
            with pytest.raises(ShardingError, match="replicas disagree"):
                merge_sharded_caches(per_request, decode)

    def test_reshard_direct_and_global(self, backend):
        model = model_on(backend)
        bad = prefilled(model)
        corrupt(bad[0])
        for target in (model_on(backend), other_layout(backend)):
            with pytest.raises(ShardingError, match="replicas disagree"):
                model.reshard_cache(bad, target)

    def test_commit(self, backend):
        model = model_on(backend)
        bad = prefilled(model)
        corrupt(bad[1])
        store = KVStore(page_tokens=4, capacity_pages=8)
        with pytest.raises(ShardingError, match="replicas disagree"):
            store.commit(PROMPTS[0], bad)


class TestPagesOwnTheirBytes:
    def test_hit_after_arena_recycles_the_source(self, backend):
        arena = KVBufferArena()
        model = model_on(backend, arena=arena)
        store = KVStore(page_tokens=4, capacity_pages=8)
        caches = prefilled(model)
        assert store.commit(PROMPTS[0], caches) == 2
        pages = store.lookup_pages(PROMPTS[0])
        buffers = [buf for cache in caches for buf in device_buffers(cache)]
        for page in pages:
            for arr in (*page.k, *page.v):
                assert arr.flags.owndata
                assert not any(np.shares_memory(arr, buf)
                               for buf in buffers)
        expected = [np.array(c.global_prefix()[0][:, :4]) for c in caches]
        del caches, buffers
        gc.collect()
        assert arena.stats()["arena_reclaims"] > 0
        # The next request leases the recycled buffers and overwrites
        # them with a different history.
        other = prefilled(model, row=2)
        assert arena.stats()["arena_reuses"] > 0
        lease = store.match(np.concatenate([PROMPTS[0][:4], [0, 1]]))
        fresh = model.new_cache(1, 12)
        assert store.install(lease, fresh) == 4
        for cache, want in zip(fresh, expected):
            k_g, _ = cache.global_prefix()
            assert np.array_equal(k_g, want)
        del other


class TestDirectEqualsGlobal:
    def test_reshard(self, backend):
        model = model_on(backend)
        caches = prefilled(model)
        target = model_on(backend)
        for direct, cache in zip(model.reshard_cache(caches, target),
                                 caches):
            assert buffers_equal(direct, global_path(cache, target))

    def test_merge(self, backend):
        model = model_on(backend)
        per_request = [prefilled(model, row=i) for i in range(3)]
        merged = merge_sharded_caches(per_request, model)
        for layer, cache in enumerate(merged):
            parts = [caches[layer].global_prefix() for caches in
                     per_request]
            want = ShardedKVCache(model.mesh, model.cache_spec(), 3,
                                  cache.max_len, CFG.n_kv_heads,
                                  CFG.d_head)
            want.load_prefix(*(ShardedTensor.from_global(
                model.mesh, np.concatenate([p[i] for p in parts]),
                want.spec) for i in (0, 1)), cache.length)
            assert buffers_equal(cache, want)

    def test_adopted_single_request(self, backend):
        model = model_on(backend)
        caches = prefilled(model)
        assert merge_sharded_caches([caches], model) == caches

    def test_install(self, backend):
        model = model_on(backend)
        store = KVStore(page_tokens=4, capacity_pages=8)
        store.commit(PROMPTS[0], prefilled(model))
        lease = store.match(PROMPTS[0])
        direct = model.new_cache(1, 12)
        store.install(lease, direct)
        for layer, cache in enumerate(direct):
            k_g = np.concatenate([p.k[layer] for p in lease.pages], axis=1)
            v_g = np.concatenate([p.v[layer] for p in lease.pages], axis=1)
            want = ShardedKVCache(model.mesh, model.cache_spec(), 1, 12,
                                  CFG.n_kv_heads, CFG.d_head)
            want.load_prefix(
                ShardedTensor.from_global(model.mesh, k_g, want.spec),
                ShardedTensor.from_global(model.mesh, v_g, want.spec),
                k_g.shape[1])
            assert buffers_equal(cache, want)


class TestMigrationArena:
    def test_migrated_caches_lease_from_target_arena(self, backend):
        source = model_on(backend, arena=KVBufferArena())
        caches = prefilled(source)
        for direct in (True, False):
            arena = KVBufferArena()
            target = model_on(backend, arena=arena) if direct \
                else other_layout(backend, arena=arena)
            moved = source.reshard_cache(caches, target)
            assert arena.stats()["arena_leases"] == len(caches)
            assert arena.stats()["arena_reclaims"] == 0
            del moved
            gc.collect()
            assert arena.stats()["arena_reclaims"] == len(caches)
            assert arena.stats()["arena_pooled_buffers"] == len(caches)
