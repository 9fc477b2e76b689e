"""Sharded tensors on a :class:`~repro.mesh.virtual_mesh.VirtualMesh`.

A :class:`ShardedTensor` pairs a sharding spec (Section 3.1 notation) with
per-device numpy shards.  ``from_global``/``to_global`` define the
authoritative layout semantics; ``to_global`` additionally *verifies* that
replicated copies are identical, which catches layout-algebra bugs in the
partitioned model implementations.

Two shard representations are supported, chosen by the mesh backend:

* **loop** — an object array of one numpy array per device;
* **stacked** — one dense array of shape ``mesh.shape + local_shape``.

Indexing ``t.shards[coord]`` yields that device's shard in either case, so
per-device code works on both; the stacked form additionally lets the
collectives and einsums in :mod:`repro.mesh.stacked` run as single
whole-mesh numpy ops.  Mixed-representation arithmetic falls back to the
per-device path.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.mesh import stacked as stacked_kernels
from repro.mesh.virtual_mesh import VirtualMesh
from repro.sharding.spec import ShardingError, ShardSpec, parse


def _record(mesh, fn, inputs, output, label, *, arena: bool = False,
            spec: ShardSpec | None = None) -> None:
    """Capture-recorder hook (duck-typed; see :mod:`repro.mesh.capture`).

    A per-device kernel passes its output ``spec``: the instruction then
    carries the device axes its output is replicated on."""
    recorder = getattr(mesh, "capture", None)
    if recorder is not None:
        recorder.record(fn, inputs, output, label, arena=arena,
                        replicated=mesh.replicated_axes(spec)
                        if spec is not None else ())


def check_replicas(mesh: VirtualMesh, spec: ShardSpec,
                   shards: np.ndarray) -> None:
    """Raise ``ShardingError`` unless every replica matches its first copy.

    Devices that differ only along axes ``spec`` neither shards nor
    partial-sums must hold identical shards (NaNs compare equal) — the
    key consistency invariant of SPMD layouts.  This is the one check
    :meth:`ShardedTensor.to_global` and the same-layout KV-cache moves
    (:mod:`repro.layouts.kv_cache`) run, on either shard
    representation.
    """
    if shards.dtype != object:
        axes = mesh.replicated_axes(spec)
        if not axes:
            return
        reference = shards[tuple(slice(0, 1) if i in axes
                                 else slice(None) for i in range(3))]
        equal = shards == reference
        if equal.all():
            return
        if shards.dtype.kind in "fc":
            equal |= np.isnan(shards) & np.isnan(reference)
        if not equal.all():
            raise ShardingError(
                f"replicas disagree for spec {spec} on mesh {mesh.shape}")
        return
    seen: dict[tuple, np.ndarray] = {}
    for coord in mesh.devices():
        pos = tuple(mesh.rank_in_group(coord, axes) for axes in spec.axes)
        psum_rank = mesh.rank_in_group(coord, spec.partial_sum)
        key = pos + (psum_rank,)
        first = seen.setdefault(key, shards[coord])
        if first is not shards[coord] and not np.array_equal(
                first, shards[coord], equal_nan=True):
            raise ShardingError(
                f"replicas disagree at shard position {pos} "
                f"(partial-sum rank {psum_rank}) for spec {spec}")


def _loop_to_global(mesh: VirtualMesh, spec: ShardSpec,
                    global_shape: tuple[int, ...],
                    shards_in: np.ndarray) -> np.ndarray:
    """Loop-backend global reassembly (see :meth:`ShardedTensor.to_global`)."""
    local = spec.local_shape(global_shape, mesh.topology)
    # Representative shard (or running partial sum) per shard position.
    accum: dict[tuple, np.ndarray] = {}
    seen: set[tuple] = set()
    for coord in mesh.devices():
        pos = tuple(mesh.rank_in_group(coord, axes) for axes in spec.axes)
        psum_rank = mesh.rank_in_group(coord, spec.partial_sum)
        key = pos + (psum_rank,)
        shard = shards_in[coord]
        if key in seen:
            continue
        seen.add(key)
        if pos in accum:
            accum[pos] = accum[pos] + shard
        else:
            accum[pos] = shard.copy()

    out = np.zeros(global_shape, dtype=next(iter(accum.values())).dtype)
    for pos, shard in accum.items():
        slices = tuple(slice(r * s, (r + 1) * s)
                       for r, s in zip(pos, local))
        out[slices] = shard
    return out


class ShardedTensor:
    """A logically global tensor stored as per-device shards."""

    def __init__(self, mesh: VirtualMesh, spec: ShardSpec,
                 global_shape: Sequence[int], shards: np.ndarray):
        spec.validate(mesh.topology)
        self.mesh = mesh
        self.spec = spec
        self.global_shape = tuple(global_shape)
        self.shards = shards
        expected = spec.local_shape(self.global_shape, mesh.topology)
        if shards.dtype != object:
            if shards.shape != mesh.shape + expected:
                raise ShardingError(
                    f"stacked shards have shape {shards.shape}, spec "
                    f"{spec} with global {self.global_shape} expects "
                    f"{mesh.shape + expected}")
            return
        for coord in mesh.devices():
            shard = shards[coord]
            if shard.shape != expected:
                raise ShardingError(
                    f"device {coord} shard has shape {shard.shape}, "
                    f"spec {spec} with global {self.global_shape} "
                    f"expects {expected}")

    @property
    def is_stacked(self) -> bool:
        """True if shards live in one dense array (device axes leading)."""
        return self.shards.dtype != object

    # -- construction -----------------------------------------------------

    @classmethod
    def from_global(cls, mesh: VirtualMesh, array: np.ndarray,
                    spec: ShardSpec | str) -> "ShardedTensor":
        """Shard a global array according to ``spec`` (no partial sums)."""
        if isinstance(spec, str):
            spec = parse(spec)
        if spec.partial_sum:
            raise ShardingError(
                "cannot construct a partial-sum tensor from a global array")
        local = spec.local_shape(array.shape, mesh.topology)

        if mesh.backend == "stacked":
            shards = stacked_kernels.from_global(mesh, array, spec, local)
            _record(mesh,
                    lambda g: stacked_kernels.from_global(mesh, g, spec,
                                                          local),
                    (array,), shards, f"from_global:{spec}")
            return cls(mesh, spec, array.shape, shards)

        def make_shards(global_array):
            def make(coord):
                slices = []
                for dim_idx, axes in enumerate(spec.axes):
                    rank = mesh.rank_in_group(coord, axes)
                    size = local[dim_idx]
                    slices.append(slice(rank * size, (rank + 1) * size))
                return np.ascontiguousarray(global_array[tuple(slices)])
            return mesh.map_devices(make)

        shards = make_shards(array)
        _record(mesh, make_shards, (array,), shards, f"from_global:{spec}")
        return cls(mesh, spec, array.shape, shards)

    @classmethod
    def replicated(cls, mesh: VirtualMesh, array: np.ndarray,
                   dims: str) -> "ShardedTensor":
        """Replicate a global array on every device."""
        return cls.from_global(mesh, array, ShardSpec.replicated(dims))

    # -- reassembly ---------------------------------------------------------

    def to_global(self, check_replication: bool = True) -> np.ndarray:
        """Reassemble the global array (summing partial sums).

        With ``check_replication=True`` (the default), raises if devices
        that should hold identical replicas disagree — the key consistency
        invariant of SPMD layouts.
        """
        mesh, spec = self.mesh, self.spec
        gshape = self.global_shape
        if check_replication:
            check_replicas(mesh, spec, self.shards)
        kernel = stacked_kernels.to_global if self.is_stacked \
            else _loop_to_global
        out = kernel(mesh, spec, gshape, self.shards)
        # Replay skips the replication check: the captured step already
        # verified it, and replay reproduces the same bits by contract.
        _record(mesh, lambda s: kernel(mesh, spec, gshape, s),
                (self.shards,), out, f"to_global:{spec}")
        return out

    # -- elementwise / structural helpers ----------------------------------

    def map_shards(self, fn: Callable[[np.ndarray], np.ndarray],
                   spec: ShardSpec | None = None,
                   global_shape: Sequence[int] | None = None,
                   *, elementwise: bool = False) -> "ShardedTensor":
        """Apply a per-device function to every shard.

        ``fn`` must be shape-preserving unless a new ``spec``/
        ``global_shape`` describing the result is given.  Elementwise
        functions commute with sharding but not with partial sums; callers
        must not apply nonlinear ``fn`` to partial-sum tensors (asserted).

        With ``elementwise=True`` the caller additionally promises that
        ``fn`` broadcasts over arbitrary leading axes (true for anything
        acting pointwise or over trailing dims only); on the stacked
        backend this applies ``fn`` once to the whole dense array instead
        of once per device.
        """
        mesh = self.mesh
        if self.is_stacked:
            if elementwise:
                shards = fn(self.shards)
                replay = fn
            else:
                def replay(dense):
                    results = [fn(dense[coord]) for coord in mesh.devices()]
                    return np.stack(results).reshape(
                        mesh.shape + results[0].shape)
                shards = replay(self.shards)
        else:
            shards = mesh.map_devices(lambda c: fn(self.shards[c]))
            replay = lambda s: mesh.map_devices(  # noqa: E731
                lambda c: fn(s[c]))
        out_spec = spec or self.spec
        _record(mesh, replay, (self.shards,), shards, "map_shards",
                spec=out_spec)
        return ShardedTensor(mesh, out_spec,
                             global_shape or self.global_shape, shards)

    def astype(self, dtype) -> "ShardedTensor":
        return self.map_shards(lambda s: s.astype(dtype), elementwise=True)

    def __add__(self, other: "ShardedTensor") -> "ShardedTensor":
        if not isinstance(other, ShardedTensor):
            return NotImplemented
        if self.spec != other.spec or self.global_shape != other.global_shape:
            raise ShardingError(
                f"cannot add tensors with specs {self.spec} vs {other.spec}")
        mesh = self.mesh
        if self.is_stacked and other.is_stacked:
            shards = self.shards + other.shards
            _record(mesh, lambda x, y, out=None: np.add(x, y, out=out),
                    (self.shards, other.shards), shards, "add", arena=True,
                    spec=self.spec)
        else:
            shards = mesh.map_devices(
                lambda c: self.shards[c] + other.shards[c])
            _record(mesh,
                    lambda x, y: mesh.map_devices(lambda c: x[c] + y[c]),
                    (self.shards, other.shards), shards, "add")
        return ShardedTensor(mesh, self.spec, self.global_shape, shards)

    @property
    def local_shape(self) -> tuple[int, ...]:
        return self.spec.local_shape(self.global_shape, self.mesh.topology)

    @property
    def per_chip_bytes(self) -> int:
        """Bytes of one device's shard (used by cost accounting)."""
        first = self.shards[0, 0, 0]
        return int(first.nbytes)

    def dim_size(self, dim: str) -> int:
        return self.global_shape[self.spec.dim_index(dim)]

    def __repr__(self) -> str:
        return (f"ShardedTensor({self.spec}, global={self.global_shape}, "
                f"local={self.local_shape}, mesh={self.mesh.shape})")
