"""Tests for the paged KV prefix-sharing layer (``repro.kvstore``).

Three layers of guarantees:

* **Radix index properties** (hypothesis) — longest-prefix lookup
  matches a brute-force oracle over every inserted prefix; eviction is
  LRU over unpinned leaves only and never frees a page with a live
  lease, under randomized insert/pin/evict interleavings.
* **Differential prefix caching** — a prefill served from cached pages
  is *bit-identical* (logits, KV contents, and the decode steps that
  follow) to the cold recompute path, on the reference model and on
  both mesh backends.
* **Memory accounting** — ``ShardedKVCache.per_chip_bytes`` agrees with
  the actual per-device buffer bytes on 1D/2D/3D meshes (degenerate
  torus axes) under replicated, batch-sharded and head-sharded specs,
  and the buffer arena recycles zeroed slabs without touching numerics.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import KVBufferArena, KVStore, Page, RadixIndex
from repro.layouts import ShardedTransformer
from repro.layouts.kv_cache import ShardedKVCache
from repro.mesh import VirtualMesh
from repro.model import ReferenceTransformer, init_weights, tiny_test_config
from repro.partitioning import (
    AttentionLayoutKind,
    FfnLayoutKind,
    LayoutPlan,
)
from repro.serving.chunked import chunked_prefill

CFG = tiny_test_config(n_layers=2, d_model=16, d_ff=32, n_heads=8,
                       d_head=8, vocab_size=32)
WEIGHTS = init_weights(CFG, seed=0)
PAGE = 2  # page_tokens used throughout (a multiple of the chunk below)


def make_page(page_id: int, span) -> Page:
    """A distinguishable fake page: contents encode the page id."""
    span = tuple(int(t) for t in span)
    k = (np.full((1, len(span), 1, 2), float(page_id)),)
    v = (np.full((1, len(span), 1, 2), float(-page_id)),)
    return Page(page_id, span, k, v)


def fresh_pages(counter, tokens, page_tokens=PAGE):
    """One fake page per whole page of ``tokens``."""
    pages = []
    for start in range(0, (len(tokens) // page_tokens) * page_tokens,
                       page_tokens):
        counter[0] += 1
        pages.append(make_page(counter[0],
                               tokens[start:start + page_tokens]))
    return pages


# Small alphabet so random sequences actually share prefixes.
token_seqs = st.lists(st.integers(min_value=0, max_value=2), min_size=0,
                      max_size=10)


class TestRadixProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(token_seqs, max_size=8), token_seqs)
    def test_lookup_is_longest_prefix_brute_force(self, inserted, query):
        idx = RadixIndex(PAGE)
        counter = [0]
        prefixes: set[tuple] = set()
        for seq in inserted:
            idx.insert(seq, fresh_pages(counter, seq))
            for n in range(1, len(seq) // PAGE + 1):
                prefixes.add(tuple(seq[:n * PAGE]))
        chain = idx.lookup(query)
        best = 0
        for n in range(len(query) // PAGE, 0, -1):
            if tuple(query[:n * PAGE]) in prefixes:
                best = n
                break
        assert len(chain) == best
        spelled = [t for page in chain for t in page.tokens]
        assert spelled == list(query[:best * PAGE])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(token_seqs, min_size=1, max_size=6),
           st.data())
    def test_evict_skips_pinned_and_interior_pages(self, inserted, data):
        idx = RadixIndex(PAGE)
        counter = [0]
        for seq in inserted:
            idx.insert(seq, fresh_pages(counter, seq))
        pages = idx.pages()
        assert idx.n_pages == len(pages)
        pinned = []
        if pages:
            for i in data.draw(st.lists(
                    st.integers(0, len(pages) - 1), max_size=4,
                    unique=True)):
                pages[i].refcount += 1
                pinned.append(pages[i])
        evicted = idx.evict(data.draw(st.integers(0, len(pages) + 2)))
        for page in evicted:
            assert page.refcount == 0, "evicted a pinned page"
        assert not (set(id(p) for p in evicted)
                    & set(id(p) for p in pinned))
        remaining = idx.pages()
        assert idx.n_pages == len(remaining)
        # Every pinned page survived and is still reachable.
        assert set(id(p) for p in pinned) <= set(id(p) for p in remaining)

    def test_evict_is_lru_over_leaves(self):
        idx = RadixIndex(PAGE)
        counter = [0]
        idx.insert([0, 0, 1, 1], fresh_pages(counter, [0, 0, 1, 1]))
        idx.insert([2, 2], fresh_pages(counter, [2, 2]))
        # Touch the [2, 2] leaf so the [0, 0, 1, 1] leaf is LRU.
        idx.lookup([2, 2], clock=5.0)
        evicted = idx.evict(1)
        assert [p.tokens for p in evicted] == [(1, 1)]
        # The interior (0, 0) page only becomes evictable once its
        # child is gone.
        assert {p.tokens for p in idx.pages()} == {(0, 0), (2, 2)}

    @settings(max_examples=80, deadline=None)
    @given(st.lists(token_seqs, min_size=1, max_size=8), st.data())
    def test_evict_order_matches_brute_force(self, inserted, data):
        """Eviction order equals re-scanning every prefix per eviction."""
        idx = RadixIndex(PAGE)
        counter = [0]
        paths: dict[tuple, Page] = {}  # cached prefix -> its page
        for seq in inserted:
            pages = fresh_pages(counter, seq)
            idx.insert(seq, pages)
            for n, page in enumerate(pages, 1):
                paths.setdefault(tuple(seq[:n * PAGE]), page)
        for page in paths.values():
            page.last_use = float(data.draw(st.integers(0, 3)))  # ties
            page.refcount = data.draw(st.sampled_from([0, 0, 0, 1]))
        n_pages = data.draw(st.integers(0, len(paths) + 2))

        expected = []
        remaining = dict(paths)
        while len(expected) < n_pages:
            leaves = [path for path in remaining
                      if remaining[path].refcount == 0
                      and not any(len(other) > len(path)
                                  and other[:len(path)] == path
                                  for other in remaining)]
            if not leaves:
                break
            victim = min(leaves, key=lambda path: (
                remaining[path].last_use, remaining[path].page_id))
            expected.append(remaining.pop(victim))

        evicted = idx.evict(n_pages)
        assert [p.page_id for p in evicted] == \
            [p.page_id for p in expected]
        assert idx.n_pages == len(remaining)
        assert {p.page_id for p in idx.pages()} == \
            {p.page_id for p in remaining.values()}


# One interleaving step: adopt a chain, take a lease, or release one.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("adopt"), token_seqs),
        st.tuples(st.just("match"), token_seqs),
        st.tuples(st.just("release"), st.integers(0, 10**6)),
    ),
    max_size=40)


class TestStoreLeaseProperties:
    @settings(max_examples=60, deadline=None)
    @given(_ops)
    def test_interleavings_never_free_a_pinned_page(self, ops):
        store = KVStore(page_tokens=PAGE, capacity_pages=3)
        counter = [0]
        active: list[tuple] = []
        for kind, payload in ops:
            if kind == "adopt":
                pages = fresh_pages(counter, payload)
                if pages:
                    store.adopt(payload, pages)
            elif kind == "match":
                lease = store.match(payload)
                if lease is not None:
                    active.append((lease, list(payload)))
            elif active:
                lease, _ = active.pop(payload % len(active))
                assert lease.release() is True
                assert lease.release() is False  # idempotent
            for lease, tokens in active:
                assert all(p.refcount >= 1 for p in lease.pages)
                chain = store.lookup_pages(tokens)
                got = [p.page_id for p in chain[:lease.n_pages]]
                assert got == [p.page_id for p in lease.pages], \
                    "a live lease's pages left the index"
            assert store.pinned_pages == len(
                {id(p) for lease, _ in active for p in lease.pages})
        stats = store.stats()
        assert stats["releases"] + len(active) == stats["leases"]


class TestStoreSemantics:
    def test_match_caps_at_last_token(self):
        store = KVStore(page_tokens=PAGE, capacity_pages=8)
        counter = [0]
        store.adopt([1, 2, 3, 4], fresh_pages(counter, [1, 2, 3, 4]))
        # A 4-token prompt fully covered by pages still recomputes its
        # final token: only (4 - 1) // 2 == 1 page is usable.
        assert store.peek([1, 2, 3, 4]) == 2
        lease = store.match([1, 2, 3, 4])
        assert lease.n_tokens == 2
        lease.release()
        # lookup_pages (adoption path) has no cap: both pages.
        assert len(store.lookup_pages([1, 2, 3, 4])) == 2

    def test_invalidate_bumps_epoch_and_counts_stale_release(self):
        store = KVStore(page_tokens=PAGE, capacity_pages=8)
        counter = [0]
        store.adopt([1, 2, 3, 4, 5], fresh_pages(counter, [1, 2, 3, 4, 5]))
        lease = store.match([1, 2, 3, 4, 5])
        assert lease is not None
        store.invalidate("replan")
        assert store.peek([1, 2, 3, 4, 5]) == 0
        assert lease.release() is True  # first release still reports
        stats = store.stats()
        assert stats["stale_releases"] == 1
        assert stats["invalidation_reasons"] == {"replan": 1}

    def test_capacity_eviction_spares_pinned(self):
        store = KVStore(page_tokens=PAGE, capacity_pages=2)
        counter = [0]
        store.adopt([0, 0, 0, 0], fresh_pages(counter, [0, 0, 0, 0]))
        lease = store.match([0, 0, 0, 0, 9])  # pins both pages
        assert lease.n_pages == 2
        store.adopt([1, 1, 2, 2], fresh_pages(counter, [1, 1, 2, 2]))
        # Over capacity (4 > 2): both unpinned pages of the new chain
        # are evicted (the parent becomes a leaf once its child goes),
        # but the pinned chain survives even though we stay at capacity.
        assert store.stats()["pages"] == 2
        assert store.stats()["evictions"] == 2
        assert store.lookup_pages([1, 1, 2, 2]) == []
        assert [p.page_id for p in store.lookup_pages([0, 0, 0, 0])] \
            == [p.page_id for p in lease.pages]
        lease.release()


def _ref_prefill(prompt, chunk, max_len, store=None):
    model = ReferenceTransformer(WEIGHTS)
    return chunked_prefill(model, prompt, chunk, max_len, kvstore=store)


class TestDifferentialReference:
    def test_cache_hit_bit_identical_to_recompute(self):
        rng = np.random.default_rng(0)
        shared = rng.integers(0, CFG.vocab_size, size=6)
        p1 = np.concatenate([shared, rng.integers(0, CFG.vocab_size,
                                                  size=4)])[None, :]
        p2 = np.concatenate([shared, rng.integers(0, CFG.vocab_size,
                                                  size=4)])[None, :]
        store = KVStore(page_tokens=PAGE, capacity_pages=32)
        warm1, _ = _ref_prefill(p1, PAGE, 12, store)
        reuse1 = store.take_last_reuse()
        assert reuse1.lease is None and reuse1.matched_tokens == 0
        warm2, warm_caches = _ref_prefill(p2, PAGE, 12, store)
        reuse2 = store.take_last_reuse()
        assert reuse2.matched_tokens == len(shared)
        cold2, cold_caches = _ref_prefill(p2, PAGE, 12)
        assert np.array_equal(warm2, cold2), \
            "cached prefill logits diverged from recompute"
        for warm_c, cold_c in zip(warm_caches, cold_caches):
            assert warm_c.length == cold_c.length
            assert np.array_equal(warm_c.k[:, :warm_c.length],
                                  cold_c.k[:, :cold_c.length])
            assert np.array_equal(warm_c.v[:, :warm_c.length],
                                  cold_c.v[:, :cold_c.length])
        reuse2.lease.release()
        cold1, _ = _ref_prefill(p1, PAGE, 12)
        assert np.array_equal(warm1, cold1)

    def test_decode_continues_bit_identical_from_cached_prefill(self):
        rng = np.random.default_rng(1)
        shared = rng.integers(0, CFG.vocab_size, size=6)
        prompt = np.concatenate([shared, rng.integers(
            0, CFG.vocab_size, size=2)])[None, :]
        store = KVStore(page_tokens=PAGE, capacity_pages=32)
        _ref_prefill(np.concatenate([shared, rng.integers(
            0, CFG.vocab_size, size=2)])[None, :], PAGE, 12, store)
        warm_logits, warm_caches = _ref_prefill(prompt, PAGE, 12, store)
        assert store.take_last_reuse().matched_tokens == len(shared)
        cold_logits, cold_caches = _ref_prefill(prompt, PAGE, 12)
        model = ReferenceTransformer(WEIGHTS)
        token = np.argmax(warm_logits, -1)
        for _ in range(3):
            warm = model.decode_step(token, warm_caches)
            cold = model.decode_step(token, cold_caches)
            assert np.array_equal(warm, cold)
            token = np.argmax(warm, -1)

    def test_validation(self):
        store = KVStore(page_tokens=3, capacity_pages=8)
        model = ReferenceTransformer(WEIGHTS)
        prompt = np.zeros((1, 6), dtype=np.int64)
        with pytest.raises(ValueError, match="multiple"):
            chunked_prefill(model, prompt, 2, 8, kvstore=store)
        batch2 = np.zeros((2, 6), dtype=np.int64)
        with pytest.raises(ValueError, match="batch"):
            chunked_prefill(model, batch2, 3, 8,
                            kvstore=KVStore(page_tokens=3))


@pytest.mark.parametrize("backend", ["loop", "stacked"])
class TestDifferentialSharded:
    PLAN = LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.HEAD)

    def test_cache_hit_bit_identical_across_backend(self, backend):
        mesh = VirtualMesh((2, 2, 2), backend=backend)
        model = ShardedTransformer(WEIGHTS, mesh, self.PLAN)
        rng = np.random.default_rng(2)
        shared = rng.integers(0, CFG.vocab_size, size=6)
        p1 = np.concatenate([shared, rng.integers(0, CFG.vocab_size,
                                                  size=4)])[None, :]
        p2 = np.concatenate([shared, rng.integers(0, CFG.vocab_size,
                                                  size=4)])[None, :]
        store = KVStore(page_tokens=PAGE, capacity_pages=32)
        chunked_prefill(model, p1, PAGE, 12, kvstore=store)
        warm, warm_caches = chunked_prefill(model, p2, PAGE, 12,
                                            kvstore=store)
        reuse = store.take_last_reuse()
        assert reuse.matched_tokens == len(shared)
        cold, cold_caches = chunked_prefill(model, p2, PAGE, 12)
        assert np.array_equal(warm, cold)
        for warm_c, cold_c in zip(warm_caches, cold_caches):
            wk, wv = warm_c.as_sharded()
            ck, cv = cold_c.as_sharded()
            assert np.array_equal(wk.to_global(), ck.to_global())
            assert np.array_equal(wv.to_global(), cv.to_global())
        if reuse.lease is not None:
            reuse.lease.release()

    def test_pages_install_across_meshes(self, backend):
        """A page extracted on one mesh shape installs on another.

        Bit-identity holds within a mesh shape (the replica-local serving
        path, asserted above); across shapes the page bytes reflect the
        source mesh's reduction order, so the contract is last-ulp
        closeness with identical greedy tokens — what the disaggregated
        adoption path (Section 4.4 handoff) needs."""
        rng = np.random.default_rng(3)
        prompt = rng.integers(0, CFG.vocab_size, size=(1, 8))
        store = KVStore(page_tokens=PAGE, capacity_pages=32)
        src = ShardedTransformer(WEIGHTS, VirtualMesh((2, 2, 2),
                                                      backend=backend),
                                 self.PLAN)
        chunked_prefill(src, prompt, PAGE, 12, kvstore=store)
        dst = ShardedTransformer(WEIGHTS, VirtualMesh((2, 1, 1),
                                                      backend=backend),
                                 self.PLAN)
        warm, _ = chunked_prefill(dst, prompt, PAGE, 12, kvstore=store)
        reuse = store.take_last_reuse()
        assert reuse.matched_tokens > 0
        cold, _ = chunked_prefill(dst, prompt, PAGE, 12)
        np.testing.assert_allclose(warm, cold, rtol=0, atol=1e-15)
        assert np.array_equal(warm.argmax(-1), cold.argmax(-1))
        reuse.lease.release()


@pytest.mark.parametrize("backend", ["loop", "stacked"])
@pytest.mark.parametrize("shape", [(4, 1, 1), (2, 2, 1), (2, 2, 2)])
class TestPerChipBytes:
    SPECS = ("BMKD", "B_xMKD", "BMK_xD")

    def test_matches_actual_buffer_bytes(self, backend, shape):
        mesh = VirtualMesh(shape, backend=backend)
        n_devices = int(np.prod(shape))
        for spec in self.SPECS:
            cache = ShardedKVCache(mesh, spec, batch=4, max_len=8,
                                   n_kv_heads=4, d_head=2)
            if backend == "stacked":
                actual = (cache.k.nbytes + cache.v.nbytes) // n_devices
            else:
                coord = next(iter(mesh.devices()))
                actual = cache.k[coord].nbytes + cache.v[coord].nbytes
            assert cache.per_chip_bytes() == actual, \
                f"per_chip_bytes wrong for {spec} on {shape} {backend}"

    def test_sharded_dims_divide_bytes(self, backend, shape):
        mesh = VirtualMesh(shape, backend=backend)
        replicated = ShardedKVCache(mesh, "BMKD", batch=4, max_len=8,
                                    n_kv_heads=4, d_head=2)
        sharded = ShardedKVCache(mesh, "B_xMKD", batch=4, max_len=8,
                                 n_kv_heads=4, d_head=2)
        assert replicated.per_chip_bytes() \
            == sharded.per_chip_bytes() * shape[0]


@pytest.mark.parametrize("backend", ["loop", "stacked"])
class TestBufferArena:
    def test_reclaimed_buffers_are_reused_and_zeroed(self, backend):
        mesh = VirtualMesh((2, 1, 1), backend=backend)
        arena = KVBufferArena()
        cache = ShardedKVCache(mesh, "BMKD", batch=2, max_len=4,
                               n_kv_heads=2, d_head=2, arena=arena)
        if backend == "stacked":
            cache.k[...] = 7.0
        else:
            for coord in mesh.devices():
                cache.k[coord][...] = 7.0
        del cache
        gc.collect()
        assert arena.stats()["arena_reclaims"] == 1
        again = ShardedKVCache(mesh, "BMKD", batch=2, max_len=4,
                               n_kv_heads=2, d_head=2, arena=arena)
        stats = arena.stats()
        assert stats["arena_reuses"] == 1 and stats["arena_allocs"] == 1
        if backend == "stacked":
            assert not again.k.any()
        else:
            assert all(not again.k[c].any() for c in mesh.devices())

    def test_arena_backed_model_is_bit_identical(self, backend):
        mesh = VirtualMesh((2, 2, 2), backend=backend)
        plan = LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.HEAD)
        prompt = np.random.default_rng(4).integers(
            0, CFG.vocab_size, size=(1, 6))
        plain = ShardedTransformer(WEIGHTS, mesh, plan)
        base, _ = plain.prefill(prompt, max_len=8)
        pooled = ShardedTransformer(WEIGHTS, mesh, plan)
        pooled.kv_arena = KVBufferArena()
        logits, caches = pooled.prefill(prompt, max_len=8)
        assert np.array_equal(base, logits)
        del caches
        gc.collect()
        assert pooled.kv_arena.stats()["arena_reclaims"] > 0
