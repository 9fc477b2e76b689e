"""The paged arena: sealed KV pages + the device-buffer pool.

Two kinds of memory live here.

**Pages** are the unit of sharing: a fixed span of ``page_tokens``
token ids plus the per-layer K/V those tokens produced, stored in
*global* (unsharded) form — for the replicated multiquery layout that
is one replica's bytes, copied out so the page owns them.  KV contents
are layout-independent — the same bytes regardless of mesh shape or
backend (the repo's core bit-identity invariant) — so a page extracted
on one replica installs into any cache spec on any mesh: broadcast
into every device of a replicated layout, resharded into a sharded
one.  Pages are sealed read-only at
creation (``setflags(write=False)``): sharing is copy-on-write by
construction, because a request that diverges from a cached prefix
never mutates the shared page — it computes fresh K/V into its own
cache and seals *new* pages for the divergent span.

**The buffer arena** recycles the dense device buffers behind
:class:`~repro.layouts.kv_cache.ShardedKVCache`: instead of a fresh
``np.zeros`` per request, a cache leases a (k, v) buffer pair keyed by
its exact device geometry and returns it when garbage collected (a
``weakref.finalize`` hook), so steady-state serving reuses a small set
of slabs instead of churning allocations.  Leased buffers are zeroed,
keeping pooled caches bit-identical to freshly allocated ones.  A lease
that has to allocate drops the longest-pooled pair of another geometry,
so the arena never holds more pairs than were ever live at once.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np


class Page:
    """One sealed span of KV history: ``page_tokens`` tokens x layers.

    ``k``/``v`` hold one global ``[1, page_tokens, n_kv_heads, d_head]``
    array per layer, marked read-only.  ``refcount`` counts live leases
    (decode slots pinning the page); ``last_use`` is the LRU clock.
    """

    __slots__ = ("k", "last_use", "page_id", "refcount", "tokens", "v")

    def __init__(self, page_id: int, tokens: tuple[int, ...],
                 k: tuple[np.ndarray, ...], v: tuple[np.ndarray, ...]):
        if len(k) != len(v) or not k:
            raise ValueError("need matching per-layer k/v arrays")
        for arr in (*k, *v):
            if arr.shape[1] != len(tokens):
                raise ValueError(
                    f"page arrays must span {len(tokens)} tokens, got "
                    f"{arr.shape}")
            arr.setflags(write=False)
        self.page_id = page_id
        self.tokens = tokens
        self.k = k
        self.v = v
        self.refcount = 0
        self.last_use = 0.0

    @property
    def page_tokens(self) -> int:
        return len(self.tokens)

    @property
    def nbytes(self) -> int:
        """Host bytes held by this page (both K and V, all layers)."""
        return sum(a.nbytes for a in self.k) + sum(a.nbytes for a in self.v)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Page(id={self.page_id}, tokens={self.tokens}, "
                f"refcount={self.refcount})")


def _zero(buffer: np.ndarray) -> None:
    """Zero a cache buffer in place, dense or per-device object array."""
    if buffer.dtype == object:
        for shard in buffer.flat:
            shard.fill(0)
    else:
        buffer.fill(0)


class KVBufferArena:
    """Free-list pool of (k, v) device buffer pairs, keyed by geometry.

    ``lease`` pops a matching pair (zeroed) or allocates a fresh one —
    dropping the longest-pooled pair, whatever its geometry, so pooled
    plus live pairs never exceed the most ever live at once; ``reclaim``
    — normally reached via the cache's ``weakref.finalize`` — pushes
    the pair back.  A reused buffer is indistinguishable from a fresh
    allocation, so pooling cannot affect numerics.
    """

    def __init__(self):
        # Pooled pairs in reclaim order, and each geometry's pool tickets
        # oldest first (tickets only grow, so a key's first ticket is its
        # oldest pair).
        self._pool: OrderedDict[int, tuple[tuple, np.ndarray,
                                           np.ndarray]] = OrderedDict()
        self._free: dict[tuple, list[int]] = {}
        self._ticket = 0
        self.leases = 0
        self.reuses = 0
        self.allocs = 0
        self.reclaims = 0
        self.drops = 0

    @staticmethod
    def _key(mesh, local: tuple[int, ...], dtype) -> tuple:
        return (mesh.backend, tuple(mesh.shape), tuple(local),
                np.dtype(dtype).str)

    def lease(self, mesh, local: tuple[int, ...], dtype
              ) -> tuple[tuple, np.ndarray, np.ndarray]:
        """A zeroed (k, v) pair for ``mesh``'s geometry; returns
        ``(key, k, v)`` — pass ``key`` back to :meth:`reclaim`."""
        key = self._key(mesh, local, dtype)
        free = self._free.get(key)
        if free:
            _, k, v = self._pool.pop(free.pop())
            _zero(k)
            _zero(v)
            self.reuses += 1
        else:
            if self._pool:
                ticket, (old, _, _) = self._pool.popitem(last=False)
                self._free[old].remove(ticket)  # that key's oldest
                self.drops += 1
            if mesh.backend == "stacked":
                k = np.zeros(mesh.shape + tuple(local), dtype=dtype)
                v = np.zeros(mesh.shape + tuple(local), dtype=dtype)
            else:
                k = mesh.map_devices(
                    lambda c: np.zeros(local, dtype=dtype))
                v = mesh.map_devices(
                    lambda c: np.zeros(local, dtype=dtype))
            self.allocs += 1
        self.leases += 1
        return key, k, v

    def reclaim(self, key: tuple, k: np.ndarray, v: np.ndarray) -> None:
        """Return a leased pair to the free list."""
        self._ticket += 1
        self._pool[self._ticket] = (key, k, v)
        self._free.setdefault(key, []).append(self._ticket)
        self.reclaims += 1

    def clear(self) -> None:
        """Drop all pooled buffers (mesh geometry changed / restart)."""
        self._pool.clear()
        self._free.clear()

    def stats(self) -> dict:
        return {
            "arena_leases": self.leases,
            "arena_reuses": self.reuses,
            "arena_allocs": self.allocs,
            "arena_reclaims": self.reclaims,
            "arena_drops": self.drops,
            "arena_pooled_buffers": len(self._pool),
        }
