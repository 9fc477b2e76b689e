"""Capture v2: prefill programs, bucketed replay, fused windows.

The v2 contract on top of ``test_step_capture.py``'s single-step replay:

* :meth:`StepCompiler.prefill_chunk` replays every chunk-length bucket
  of :func:`~repro.serving.chunked.chunked_prefill` bit-identically —
  logits *and* KV contents — on both backends, across prompts;
* the bucketed program cache pads shrinking batches onto one warm
  program (live rows bit-identical), bounds itself by LRU eviction, and
  counts hits/misses/evictions/explicit invalidations;
* :meth:`StepCompiler.decode_window` fuses a window of greedy decode
  steps, matches the eager loop token-for-token, clamps at the cache
  boundary, and falls back to single-step whenever a scheduled fault
  could fire inside the window;
* threaded replica stepping is gone: the control plane rejects any
  non-zero ``step_threads``.
"""

import numpy as np
import pytest

from repro.cluster import ClusterControlPlane
from repro.layouts import ShardedTransformer
from repro.mesh import BACKENDS, ShardedTensor, VirtualMesh
from repro.layouts.kv_cache import layout_signature
from repro.mesh.capture import (
    StepCompiler,
    capture_decode_step,
    capture_prefill_chunk,
    capturing,
)
from repro.mesh.faults import CollectiveFault, CollectiveTimeout, FaultPlan
from repro.model import init_weights, tiny_test_config
from repro.model.sampling import greedy
from repro.observability import format_capture_stats
from repro.partitioning import (
    AttentionLayoutKind,
    FfnLayoutKind,
    LayoutPlan,
)
from repro.partitioning.degraded import migrate_caches
from repro.serving.chunked import chunked_prefill

CFG = tiny_test_config(n_layers=2, d_model=16, d_ff=32, n_heads=8,
                       d_head=8, vocab_size=32)
WEIGHTS = init_weights(CFG, seed=0)
PROMPT = np.random.default_rng(5).integers(0, CFG.vocab_size, size=(8, 4))

WG_BATCH = LayoutPlan(FfnLayoutKind.WG_XY, AttentionLayoutKind.BATCH)


def fresh_model(backend="stacked", mesh_shape=(2, 2, 2)):
    mesh = VirtualMesh(mesh_shape, backend=backend)
    return ShardedTransformer(WEIGHTS, mesh, WG_BATCH)


def build(backend="stacked", steps=6):
    """A fresh (model, caches, next-token) triple after an eager prefill."""
    model = fresh_model(backend)
    logits, caches = model.prefill(PROMPT, PROMPT.shape[1] + steps)
    return model, caches, np.argmax(logits, -1)


def caches_equal(mesh, a_caches, b_caches):
    """KV fill and contents bit-identical, shard by shard."""
    for a, b in zip(a_caches, b_caches):
        if a.length != b.length:
            return False
        for x, y in ((a.k, b.k), (a.v, b.v)):
            if x.dtype == object or y.dtype == object:
                if not all(np.array_equal(x[c], y[c])
                           for c in mesh.devices()):
                    return False
            elif not np.array_equal(x, y):
                return False
    return True


class TestPrefillReplay:
    """Differential prefill replay, every chunk-length bucket."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_bucket_bit_identical(self, backend):
        # 10 tokens in chunks of 4 -> lengths (4, 4, 2): two buckets,
        # and the second length-4 chunk replays within the prompt.
        prompt = np.random.default_rng(11).integers(
            0, CFG.vocab_size, size=(4, 10))
        compiler = StepCompiler()
        eager_logits, eager_caches = chunked_prefill(
            fresh_model(backend), prompt, 4, 16)
        model = fresh_model(backend)
        logits, caches = chunked_prefill(model, prompt, 4, 16,
                                         compiler=compiler)
        assert logits.dtype == eager_logits.dtype
        assert np.array_equal(logits, eager_logits)
        assert caches_equal(model.mesh, eager_caches, caches)
        assert compiler.misses == 2 and compiler.captures == 2
        assert compiler.hits == 1 and compiler.replays == 1

    def test_second_prompt_replays_every_chunk(self):
        first = np.random.default_rng(3).integers(
            0, CFG.vocab_size, size=(4, 8))
        second = np.random.default_rng(4).integers(
            0, CFG.vocab_size, size=(4, 8))
        model = fresh_model()
        compiler = StepCompiler()
        chunked_prefill(model, first, 4, 12, compiler=compiler)
        assert compiler.captures == 1  # one length bucket
        hits_before = compiler.hits

        eager_logits, eager_caches = chunked_prefill(
            fresh_model(), second, 4, 12)
        logits, caches = chunked_prefill(model, second, 4, 12,
                                         compiler=compiler)
        # Both chunks of the new prompt hit the warm program: programs
        # survive across prompts on the same deployment.
        assert compiler.hits - hits_before == 2
        assert compiler.captures == 1
        assert np.array_equal(logits, eager_logits)
        assert caches_equal(model.mesh, eager_caches, caches)


class TestBucketedProgramCache:
    """Shape-bucketed signatures: hits, misses, eviction, padding."""

    def test_lru_eviction_bounds_the_cache(self):
        model = fresh_model()
        caches = model.new_cache(4, 16)
        compiler = StepCompiler(max_programs=2)
        rng = np.random.default_rng(9)
        for length in (2, 3, 4):  # three distinct chunk-length buckets
            chunk = rng.integers(0, CFG.vocab_size, size=(4, length))
            compiler.prefill_chunk(model, chunk, caches)
        assert compiler.captures == 3
        assert compiler.n_programs == 2
        assert compiler.evictions == 1
        # The evicted length-2 bucket is cold again: miss + re-capture.
        chunk = rng.integers(0, CFG.vocab_size, size=(4, 2))
        compiler.prefill_chunk(model, chunk, caches)
        assert compiler.misses == 4
        assert compiler.evictions == 2
        assert compiler.n_programs == 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_padding_bit_identical(self, backend):
        """A shrunk batch pads up to the cache capacity and slices back."""
        eager_model, eager_caches, eager_tok = build(backend)
        model, caches, tok = build(backend)
        compiler = StepCompiler(warmup_steps=0, batch_bucket=8)
        live = 5
        # The compiler pads by repeating the last live row; the eager
        # twin decodes the full batch with the same repetition, so the
        # live rows see identical inputs and KV history.
        full = eager_tok.copy()
        full[live:] = full[live - 1]
        for _ in range(3):
            eager = eager_model.decode_step(full, eager_caches)
            got = compiler.decode_step(model, full[:live], caches)
            assert got.shape[0] == live
            assert np.array_equal(got, eager[:live])
            full = np.argmax(eager, -1)
            full[live:] = full[live - 1]
        # One program serves every step of the shrunk batch.
        assert compiler.captures == 1
        assert compiler.hits >= 1
        assert caches_equal(model.mesh, eager_caches, caches)

    def test_explicit_invalidate_counts(self):
        model, caches, tok = build()
        compiler = StepCompiler(warmup_steps=0)
        compiler.decode_step(model, tok, caches)
        assert compiler.n_programs == 1
        compiler.invalidate()
        assert compiler.n_programs == 0
        assert compiler.invalidations == 1
        assert compiler.stats()["invalidations"] == 1


# Decode plans the cluster runs at 2x2x2 with batches of up to four:
# the selector's balanced pick, the weight-gathered throughput profile
# (refuses batches its batch group does not divide) and the 2D
# weight-stationary layout.
DECODE_PLANS = {
    "balanced": (LayoutPlan(FfnLayoutKind.WS_1D, AttentionLayoutKind.HEAD),
                 (1, 2, 3, 4)),
    "weight-gathered": (LayoutPlan(FfnLayoutKind.WG_X,
                                   AttentionLayoutKind.BATCH), (2, 4)),
    "ws-2d": (LayoutPlan(FfnLayoutKind.WS_2D, AttentionLayoutKind.HEAD),
              (1, 2, 3, 4)),
}


def twin(plan, batch, backend="stacked", steps=6):
    """A (model, caches, next-token) triple on a fresh 2x2x2 mesh."""
    mesh = VirtualMesh((2, 2, 2), backend=backend)
    model = ShardedTransformer(WEIGHTS, mesh, plan)
    logits, caches = model.prefill(PROMPT[:batch],
                                   PROMPT.shape[1] + steps)
    return model, caches, np.argmax(logits, -1)


def assert_replays_like_eager(eager_model, eager_caches, model, caches,
                              tok, steps=4):
    """Capture one step, replay ``steps`` more: logits bit-identical."""
    eager = eager_model.decode_step(tok, eager_caches)
    captured, program = capture_decode_step(model, tok, caches)
    assert np.array_equal(captured, eager)
    tok = np.argmax(eager, -1)
    for _ in range(steps):
        eager = eager_model.decode_step(tok, eager_caches)
        assert program.matches(model, tok, caches)
        replayed = program.replay(tok, caches)
        assert replayed.dtype == eager.dtype
        assert np.array_equal(replayed, eager)
        tok = np.argmax(eager, -1)
    assert caches_equal(model.mesh, eager_caches, caches)
    return program


class TestOptimizedSingleStep:
    """Single-step decode programs run the tape optimizer (stacked)."""

    @pytest.mark.parametrize("profile", sorted(DECODE_PLANS))
    def test_every_plan_and_batch_bit_identical(self, profile):
        plan, batches = DECODE_PLANS[profile]
        for batch in batches:
            eager_model, eager_caches, tok = twin(plan, batch, steps=5)
            model, caches, _ = twin(plan, batch, steps=5)
            program = assert_replays_like_eager(
                eager_model, eager_caches, model, caches, tok)
            assert program.optimized

    def test_loop_backend_stays_unoptimized(self):
        plan, _ = DECODE_PLANS["balanced"]
        eager_model, eager_caches, tok = twin(plan, 4, backend="loop")
        model, caches, _ = twin(plan, 4, backend="loop")
        program = assert_replays_like_eager(eager_model, eager_caches,
                                            model, caches, tok)
        assert not program.optimized
        compiler = StepCompiler(warmup_steps=0)
        compiler.decode_step(model, tok, caches)
        assert compiler.stats()["optimized_programs"] == 0

    def test_v1_tape_on_request(self):
        model, caches, tok = twin(DECODE_PLANS["balanced"][0], 4)
        _, program = capture_decode_step(model, tok, caches,
                                         optimize=False)
        assert not program.optimized

    def test_after_reshard_cache(self):
        """Caches moved into another plan's layout replay bit-identically
        on the target plan, and a program of the source layout misses."""
        src_plan, _ = DECODE_PLANS["balanced"]
        dst_plan, _ = DECODE_PLANS["weight-gathered"]
        twins = []
        for _ in range(2):
            model, caches, tok = twin(src_plan, 4, steps=8)
            _, program = capture_decode_step(model, tok, caches)
            tok = np.argmax(model.decode_step(tok, caches), -1)
            target = ShardedTransformer(WEIGHTS, model.mesh, dst_plan)
            moved = model.reshard_cache(caches, target)
            twins.append((target, moved, tok, (model, program)))
        (eager_model, eager_caches, tok, _), \
            (model, caches, _, (source, old)) = twins
        assert [c.layout_sig for c in caches] == \
            [layout_signature(c) for c in caches]
        # Same mesh, plan and tokens: only the cache layout changed.
        assert old.mismatch(source, tok, caches) == "caches"
        program = assert_replays_like_eager(eager_model, eager_caches,
                                            model, caches, tok)
        assert program.optimized

    def test_after_migration_to_another_mesh(self):
        """The cluster's migrate_to moves KV onto a fresh replica mesh."""
        plan, _ = DECODE_PLANS["ws-2d"]
        twins = []
        for _ in range(2):
            model, caches, tok = twin(plan, 3)
            tok = np.argmax(model.decode_step(tok, caches), -1)
            target = ShardedTransformer(
                WEIGHTS, VirtualMesh((2, 2, 2), backend="stacked"), plan)
            twins.append((target, migrate_caches(caches, model, target),
                          tok))
        (eager_model, eager_caches, tok), (model, caches, _) = twins
        program = assert_replays_like_eager(eager_model, eager_caches,
                                            model, caches, tok)
        assert program.optimized

    def test_compiler_misses_on_resharded_cache(self):
        src_plan, _ = DECODE_PLANS["balanced"]
        model, caches, tok = twin(src_plan, 4)
        compiler = StepCompiler(warmup_steps=0)
        tok = np.argmax(compiler.decode_step(model, tok, caches), -1)
        target = ShardedTransformer(WEIGHTS, model.mesh,
                                    DECODE_PLANS["weight-gathered"][0])
        moved = model.reshard_cache(caches, target)
        compiler.decode_step(target, tok, moved)
        assert compiler.hits == 0 and compiler.captures == 2

    def test_constants_pooled_across_programs(self):
        """Two batch sizes' programs share one copy of every equal
        constant (the folded weight gathers) and replay unchanged."""
        plan, _ = DECODE_PLANS["weight-gathered"]
        compiler = StepCompiler(warmup_steps=0)
        runs = []
        for batch in (2, 4):
            eager_model, eager_caches, tok = twin(plan, batch)
            model, caches, _ = twin(plan, batch)
            runs.append([eager_model, eager_caches, model, caches, tok])
        # The second batch size shares the first one's model, so its
        # folded gathers are recomputed copies of the same values.
        model = runs[0][2]
        runs[1][2] = model
        runs[1][3] = model.new_cache(4, PROMPT.shape[1] + 6)
        model.forward(PROMPT[:4], runs[1][3])
        for _ in range(4):
            for run in runs:
                eager_model, eager_caches, model, caches, tok = run
                eager = eager_model.decode_step(tok, eager_caches)
                got = compiler.decode_step(model, tok, caches)
                assert np.array_equal(got, eager)
                run[4] = np.argmax(eager, -1)
        assert compiler.captures == 2 and compiler.replays == 6
        first, second = compiler._programs.values()
        shared = 0
        for a in first.constants():
            for b in second.constants():
                if (a.shape == b.shape and a.dtype == b.dtype
                        and np.array_equal(a, b)):
                    assert a is b
                    shared += 1
        assert shared > 0
        stats = compiler.stats()
        assert stats["optimized_programs"] == 2
        assert 0 < stats["const_unique_bytes"] < stats["const_bytes"]
        table = format_capture_stats(stats)
        for row in ("optimized_programs", "const_bytes",
                    "const_unique_bytes"):
            assert row in table


WIDE_CFG = tiny_test_config(n_layers=2, d_model=64, d_ff=128, n_heads=16,
                            d_head=4, vocab_size=32)
WIDE_WEIGHTS = init_weights(WIDE_CFG, seed=0)

# (mesh shape, weights, plan, batch) for every plan the cluster runs on
# the meshes the benchmark fleets use.  On 4x4x4 the selector's balanced
# pick is WS-2D/head (16 heads do not split 64 ways for WS-1D).
DEDUP_CASES = {
    "2x2x2-balanced": ((2, 2, 2), WEIGHTS, DECODE_PLANS["balanced"][0], 3),
    "2x2x2-weight-gathered": ((2, 2, 2), WEIGHTS,
                              DECODE_PLANS["weight-gathered"][0], 4),
    "2x2x2-ws-2d": ((2, 2, 2), WEIGHTS, DECODE_PLANS["ws-2d"][0], 2),
    "4x4x4-weight-gathered": ((4, 4, 4), WIDE_WEIGHTS,
                              DECODE_PLANS["weight-gathered"][0], 4),
    "4x4x4-ws-2d": ((4, 4, 4), WIDE_WEIGHTS, DECODE_PLANS["ws-2d"][0], 1),
}


def dedup_twin(case, backend="stacked", prompt=None):
    """(model, caches) after an eager first chunk of ``prompt``."""
    shape, weights, plan, batch = DEDUP_CASES[case]
    model = ShardedTransformer(weights, VirtualMesh(shape, backend=backend),
                               plan)
    if prompt is None:
        prompt = np.random.default_rng(9).integers(
            0, weights.config.vocab_size, size=(batch, 16))
    caches = model.new_cache(prompt.shape[0], 24)
    model.forward(prompt[:, :4], caches)
    return model, caches, prompt


def broadcast_axes(program) -> set:
    """Device axes the program's deduped kernels are broadcast along."""
    return {ins.replicated for ins in program._instrs
            if ins.label == "replica_broadcast"}


class TestReplicaDedup:
    """Stacked programs run chip-replicated kernels on one replica."""

    @pytest.mark.parametrize("case", sorted(DEDUP_CASES))
    def test_prefill_chunks_bit_identical(self, case):
        eager_model, eager_caches, prompt = dedup_twin(case)
        model, caches, _ = dedup_twin(case)
        chunk = prompt[:, 4:8]
        expect = eager_model.forward(chunk, eager_caches)
        got, program = capture_prefill_chunk(model, chunk, caches)
        assert np.array_equal(got, expect)
        assert program.optimized and program.deduped > 0
        for start in (8, 12):
            chunk = prompt[:, start:start + 4]
            expect = eager_model.forward(chunk, eager_caches)
            assert np.array_equal(program.replay(chunk, caches), expect)
        assert caches_equal(model.mesh, eager_caches, caches)

    @pytest.mark.parametrize("case", sorted(DEDUP_CASES))
    def test_decode_steps_bit_identical(self, case):
        eager_model, eager_caches, prompt = dedup_twin(case)
        model, caches, _ = dedup_twin(case)
        program = assert_replays_like_eager(
            eager_model, eager_caches, model, caches, prompt[:, 4])
        assert program.optimized and program.deduped > 0

    def test_counts_on_ws2d_and_loop(self):
        model, caches, prompt = dedup_twin("4x4x4-ws-2d")
        compiler = StepCompiler(warmup_steps=0)
        compiler.decode_step(model, prompt[:, 4], caches)
        stats = compiler.stats()
        # Attention (replicated along x) in both layers, and the LM head
        # (replicated on all 64 chips).
        assert stats["deduped_instructions"] == 3
        assert broadcast_axes(compiler.program) == {(0,), (0, 1, 2)}
        assert "deduped_instructions" in format_capture_stats(stats)

        model, caches, prompt = dedup_twin("2x2x2-ws-2d", backend="loop")
        compiler = StepCompiler(warmup_steps=0)
        compiler.decode_step(model, prompt[:, 4], caches)
        assert compiler.program.deduped == 0
        assert compiler.stats()["deduped_instructions"] == 0

    def test_padded_duplicate_rows_not_deduped_on_batch_axes(self):
        """Captured while every batch row is the same sequence (how a
        group is padded to its batch divisor), the rows' shards are
        equal along the batch axis; only the sharding spec may decide
        replication, so that axis is never deduped and the program
        stays exact once the rows diverge."""
        row = np.random.default_rng(4).integers(0, CFG.vocab_size,
                                                size=(1, 8))
        padded = np.repeat(row, 4, axis=0)
        eager_model, eager_caches, _ = dedup_twin(
            "2x2x2-weight-gathered", prompt=padded)
        model, caches, _ = dedup_twin("2x2x2-weight-gathered",
                                      prompt=padded)
        assert model.cache_spec() == "B_xMKD"
        tok = padded[:, 4]
        expect = eager_model.decode_step(tok, eager_caches)
        got, program = capture_decode_step(model, tok, caches)
        assert np.array_equal(got, expect)
        assert program.deduped > 0
        assert all(0 not in axes for axes in broadcast_axes(program))
        diverged = np.arange(4) % CFG.vocab_size
        for _ in range(3):
            expect = eager_model.decode_step(diverged, eager_caches)
            assert np.array_equal(program.replay(diverged, caches), expect)
            assert len({tuple(r) for r in expect}) > 1
            diverged = np.argmax(expect, -1)
        assert caches_equal(model.mesh, eager_caches, caches)

    def test_every_kernel_kind(self):
        """Einsum, RMSNorm, RoPE, Swish and the gate product on a tensor
        replicated along y and z each run on one replica."""
        from repro.layouts.helpers import (
            sharded_rmsnorm,
            sharded_rope,
            zip_shards,
        )
        from repro.mesh.ops import sharded_einsum
        from repro.model.functional import swish

        mesh = VirtualMesh((2, 2, 2), backend="stacked")
        rng = np.random.default_rng(11)
        scale = ShardedTensor.from_global(mesh, rng.normal(size=8), "E")
        w = ShardedTensor.from_global(mesh, rng.normal(size=(8, 6)), "EF")
        wq = ShardedTensor.from_global(mesh, rng.normal(size=(8, 2, 4)),
                                       "EHD")
        positions = np.arange(3) + 5

        def step(x):
            y = sharded_rmsnorm(x, scale)
            h = sharded_einsum("ble,ef->blf", y, w)
            g = h.map_shards(swish, elementwise=True)
            h = zip_shards(h.spec, h.global_shape, np.multiply, g, h,
                           elementwise=True)
            q = sharded_rope(sharded_einsum("ble,ehd->blhd", y, wq),
                             positions, 10_000.0)
            return h, q

        def activations():
            return ShardedTensor.from_global(
                mesh, rng.normal(size=(2, 3, 8)), "B_xLE")

        x = activations()
        with capturing(mesh) as recorder:
            recorder.record(lambda ctx: ctx.tokens, (recorder.CTX,),
                            x.shards, "input")
            h, q = step(x)
            program = recorder.finalize([h.shards, q.shards],
                                        optimize=True)
        assert program.deduped == 6  # norm, 2 einsums, swish, mul, rope
        assert broadcast_axes(program) == {(1, 2)}
        for _ in range(2):
            x = activations()
            h, q = step(x)
            got_h, got_q = program.replay(tokens=x.shards)
            assert np.array_equal(got_h, h.shards)
            assert np.array_equal(got_q, q.shards)


class TestFusedWindow:
    """Fused multi-step decode: boundary, fault gate."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_window_matches_eager_greedy_loop(self, backend):
        eager_model, eager_caches, tok = build(backend, steps=6)
        model, caches, tok2 = build(backend, steps=6)
        assert np.array_equal(tok, tok2)
        compiler = StepCompiler(warmup_steps=0)

        expect, cur = [], tok
        for _ in range(6):
            cur = greedy(eager_model.decode_step(cur, eager_caches))
            expect.append(cur)

        first = compiler.decode_window(model, tok, caches, window=4)
        assert first.shape == (4, tok.shape[0])
        # Window boundary: only 2 positions of room remain, so the
        # window clamps rather than overflowing the cache.
        second = compiler.decode_window(model, first[-1], caches, window=4)
        assert second.shape == (2, tok.shape[0])
        for got, want in zip(list(first) + list(second), expect):
            assert np.array_equal(got, want)
        assert caches_equal(model.mesh, eager_caches, caches)
        assert compiler.captures == 2  # one program per window length

    def test_window_replay_hits_after_fill_reset(self):
        model, caches, tok = build(steps=8)
        compiler = StepCompiler(warmup_steps=0)
        base = caches[0].length
        first = compiler.decode_window(model, tok, caches, window=4)  # capture
        for cache in caches:
            cache.length = base
        again = compiler.decode_window(model, tok, caches, window=4)  # replay
        assert compiler.hits == 1 and compiler.replays == 1
        assert np.array_equal(first, again)

    def test_fault_inside_window_falls_to_single_step(self):
        model, caches, tok = build(steps=8)
        state = model.mesh.install_faults(FaultPlan((
            CollectiveFault(kind="timeout", at_step=2, phase="decode"),)))
        compiler = StepCompiler(warmup_steps=0)

        # The fault lands inside the first window: exactly one single
        # step runs (the caller loops), with the clock advanced once.
        out = compiler.decode_window(model, tok, caches, window=4,
                                     advance=lambda: state.advance("decode"))
        assert out.shape[0] == 1
        # The next single step hits the scheduled clock: the timeout
        # fires on the eager path exactly as without the compiler.
        with pytest.raises(CollectiveTimeout):
            compiler.decode_window(model, out[-1], caches, window=4,
                                   advance=lambda: state.advance("decode"))
        # The one-shot fault is spent; the fused path resumes whole.
        fused = compiler.decode_window(model, out[-1], caches, window=4,
                                       advance=lambda: state.advance("decode"))
        assert fused.shape[0] == 4
        assert state.quiescent()


class TestParallelReplicaStepping:
    """Hedges run serially; the threaded path was removed."""

    def test_negative_step_threads_rejected(self):
        for threads in (-1, 1, 2):
            with pytest.raises(ValueError, match="step_threads"):
                ClusterControlPlane(WEIGHTS, [(1, 1, 1)],
                                    step_threads=threads)
