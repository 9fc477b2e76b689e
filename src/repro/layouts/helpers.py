"""Small building blocks shared by the partitioned layer implementations."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.mesh import (
    ShardedTensor,
    VirtualMesh,
    all_reduce,
    sharded_einsum,
)
from repro.model.functional import causal_mask, masked_softmax, softmax
from repro.model.rope import apply_rope
from repro.sharding.spec import ShardSpec


def _record(mesh, fn, inputs, output, label, meta=None,
            spec: ShardSpec | None = None) -> None:
    """Capture-recorder hook (duck-typed; see :mod:`repro.mesh.capture`).

    A per-device kernel passes its output ``spec``: the instruction then
    carries the device axes its output is replicated on."""
    recorder = getattr(mesh, "capture", None)
    if recorder is not None:
        recorder.record(fn, inputs, output, label, meta=meta,
                        replicated=mesh.replicated_axes(spec)
                        if spec is not None else ())


def zip_shards(out_spec: ShardSpec, out_shape: Sequence[int],
               fn: Callable[..., np.ndarray], *tensors: ShardedTensor,
               elementwise: bool = False) -> ShardedTensor:
    """Combine several sharded tensors device-wise with ``fn``.

    The caller asserts (by providing ``out_spec``) that ``fn`` is local —
    i.e. its output at each device depends only on that device's shards and
    is sharded as described.  Used for broadcast arithmetic like the
    normalization step, where specs differ in rank.

    With ``elementwise=True`` the caller additionally promises that ``fn``
    broadcasts over arbitrary leading axes; on the stacked backend it is
    then applied once to the dense shard arrays instead of per device.
    """
    mesh = tensors[0].mesh
    inputs = tuple(t.shards for t in tensors)
    if elementwise and all(t.is_stacked for t in tensors):
        shards = fn(*inputs)
        _record(mesh, fn, inputs, shards, "zip_shards", spec=out_spec)
        return ShardedTensor(mesh, out_spec, tuple(out_shape), shards)
    shards = mesh.map_devices(
        lambda c: fn(*(t.shards[c] for t in tensors)))
    _record(mesh,
            lambda *arrs: mesh.map_devices(
                lambda c: fn(*(a[c] for a in arrs))),
            inputs, shards, "zip_shards")
    return ShardedTensor(mesh, out_spec, tuple(out_shape), shards)


def sharded_rmsnorm(x: ShardedTensor, scale: ShardedTensor,
                    eps: float = 1e-6) -> ShardedTensor:
    """RMSNorm of a ``BLE`` activation whose E dim may be sharded.

    The mean-square over E requires a (tiny, per-token scalar) all-reduce
    over the axes E is sharded on — this is the layernorm communication the
    paper accepts by choosing to reduce-scatter into the hidden dimension
    (Section 3.5).
    """
    if x.spec.partial_sum:
        raise ValueError("cannot normalize a partial-sum tensor")
    e_axes = x.spec.axes_for("E")
    if scale.spec.axes_for("E") != e_axes:
        raise ValueError(
            f"norm scale sharding {scale.spec} does not match activations "
            f"{x.spec}")
    sumsq = sharded_einsum("ble,ble->bl", x, x)
    if e_axes:
        sumsq = all_reduce(sumsq, e_axes)
    e_size = x.dim_size("E")

    if x.is_stacked and sumsq.is_stacked and scale.is_stacked:
        # One whole-mesh broadcast: scale is a per-device [E_loc] vector, so
        # it needs explicit singleton B/L axes against the dense
        # [mesh..., B, L, E_loc] activations.
        def stacked_norm(xs, ss, sc):
            rms = np.sqrt(ss[..., None] / e_size + eps)
            return xs * sc[:, :, :, None, None, :] / rms

        shards = stacked_norm(x.shards, sumsq.shards, scale.shards)
        _record(x.mesh, stacked_norm,
                (x.shards, sumsq.shards, scale.shards), shards, "rmsnorm",
                meta=("rmsnorm", e_size, eps), spec=x.spec)
        return ShardedTensor(x.mesh, x.spec, x.global_shape, shards)

    def normalize(x_shard, ss_shard, scale_shard):
        rms = np.sqrt(ss_shard[..., None] / e_size + eps)
        return x_shard * scale_shard / rms

    return zip_shards(x.spec, x.global_shape, normalize, x, sumsq, scale)


def sharded_rope(x: ShardedTensor, positions: np.ndarray,
                 theta: float) -> ShardedTensor:
    """Apply RoPE to a ``[B, L, heads, D]`` sharded tensor.

    RoPE is elementwise per (position, head, dim-pair), so it is local for
    any sharding that keeps L and D unsharded (all layouts here do).
    """
    for dim in ("L", "D"):
        if x.spec.axes_for(dim):
            raise ValueError(f"RoPE requires unsharded {dim}, got {x.spec}")
    # apply_rope broadcasts over arbitrary leading axes, so on the stacked
    # backend one call covers the whole mesh.
    recorder = getattr(x.mesh, "capture", None)
    if recorder is None or not recorder.recording:
        return x.map_shards(lambda s: apply_rope(s, positions, theta),
                            elementwise=True)
    # Under capture, the generic map_shards hook would bake this step's
    # positions into the program as a constant.  Suppress it and record
    # one instruction with the positions array as a tracked input (the
    # model's position instruction recomputes it per replay).
    mesh = x.mesh
    with recorder.suppress():
        out = x.map_shards(lambda s: apply_rope(s, positions, theta),
                           elementwise=True)
    if x.is_stacked:
        replay = lambda p, s: apply_rope(s, p, theta)  # noqa: E731
        meta = ("rope", theta)
    else:
        replay = lambda p, s: mesh.map_devices(  # noqa: E731
            lambda c: apply_rope(s[c], p, theta))
        meta = None
    recorder.record(replay, (positions, x.shards), out.shards, "rope",
                    meta=meta, replicated=mesh.replicated_axes(x.spec))
    return out


def local_attention(mesh: VirtualMesh, out_spec: ShardSpec,
                    out_shape: Sequence[int],
                    q: ShardedTensor,
                    k_shards: np.ndarray, v_shards: np.ndarray,
                    q_offset: int) -> ShardedTensor:
    """Per-device causal attention over already co-located Q/K/V shards.

    ``k_shards``/``v_shards`` hold per-device ``[B, M, K, D]`` buffers (a
    view of the sharded KV cache) — object arrays on the loop backend,
    dense ``mesh.shape + local`` arrays on the stacked one.  The softmax
    and the attention matmuls are strictly local; correctness of the layout
    is therefore exactly the claim that Q and KV are sharded compatibly,
    which the calling layout establishes and the equivalence tests verify.
    """
    from repro.model.reference import attention

    if (q.is_stacked and k_shards.dtype != object
            and v_shards.dtype != object):
        # attention() is batched over its leading B axis, so folding the
        # three device axes into the batch runs the whole mesh in one call.
        def fold(dense):
            return dense.reshape((-1,) + dense.shape[4:])

        out = attention(fold(q.shards), fold(k_shards), fold(v_shards),
                        q_offset)
        b_loc = q.shards.shape[3]
        shards = out.reshape(mesh.shape + (b_loc,) + out.shape[1:])

        def replay_stacked(qs, ks, vs):
            # The decode position is step-varying: rederive it from the
            # KV view length (M - L), exactly what the model passes in.
            # The device axes come from the operands, not the mesh: the
            # replica-dedup pass replays this on a one-replica slice.
            folded = _attention_fast(
                qs.reshape((-1,) + qs.shape[4:]),
                ks.reshape((-1,) + ks.shape[4:]),
                vs.reshape((-1,) + vs.shape[4:]),
                ks.shape[4] - qs.shape[4])
            return folded.reshape(qs.shape[:3] + (b_loc,)
                                  + folded.shape[1:])

        _record(mesh, replay_stacked, (q.shards, k_shards, v_shards),
                shards, "attention", meta=("attention", b_loc),
                spec=out_spec)
        return ShardedTensor(mesh, out_spec, tuple(out_shape), shards)

    shards = mesh.map_devices(
        lambda c: attention(q.shards[c], k_shards[c], v_shards[c], q_offset))
    _record(mesh,
            lambda qs, ks, vs: mesh.map_devices(
                lambda c: attention(qs[c], ks[c], vs[c],
                                    ks[c].shape[1] - qs[c].shape[1])),
            (q.shards, k_shards, v_shards), shards, "attention")
    return ShardedTensor(mesh, out_spec, tuple(out_shape), shards)


def _attention_fast(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                    q_offset: int) -> np.ndarray:
    """Replay-path attention, bit-identical to ``reference.attention``.

    Identical computation, except the single-query decode case
    (``L == 1`` attending to its full history) skips building the causal
    mask: the mask is provably all-True there, and ``np.where`` with an
    all-True mask returns a fresh array with the same values and layout
    as ``scores`` — so the softmax bits cannot change.
    """
    h, kv = q.shape[2], k.shape[2]
    if kv != h:  # broadcast shared KV heads across the query-head groups
        b, m, d = k.shape[0], k.shape[1], k.shape[3]
        k = np.broadcast_to(k[:, :, :, None, :],
                            (b, m, kv, h // kv, d)).reshape(b, m, h, d)
        v = np.broadcast_to(v[:, :, :, None, :],
                            (b, m, kv, h // kv, d)).reshape(b, m, h, d)
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = np.einsum("blhd,bmhd->bhlm", q, k) * scale
    if q.shape[1] == 1 and q_offset + 1 == k.shape[1]:
        probs = softmax(scores, axis=-1)
    else:
        probs = masked_softmax(
            scores, causal_mask(q.shape[1], k.shape[1], q_offset))
    return np.einsum("bhlm,bmhd->blhd", probs, v)
