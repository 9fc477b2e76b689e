"""Token-id radix index: prompt prefixes -> KV page chains.

The index is page-granular: every edge is a fixed-size tuple of
``page_tokens`` token ids, so a path from the root spells out a prompt
prefix in whole pages and each node on the path owns the page holding
that span's K/V.  Lookup is longest-prefix by construction — walk edges
until one is missing — which makes the brute-force oracle in the
property tests trivial to state: the chain returned for ``tokens`` must
equal the longest inserted chain that prefixes ``tokens``.

Eviction is LRU by ``last_use`` over *leaf* pages only (an interior page
is, by definition, the prefix of a longer cached prompt — freeing it
would orphan its suffix pages) and never touches a page with a live
lease (``refcount > 0``), the pinned-page invariant the decode slots
rely on.
"""

from __future__ import annotations

import heapq


class _Node:
    """One radix node: the page for its edge plus child edges."""

    __slots__ = ("children", "page")

    def __init__(self, page=None):
        self.page = page
        self.children: dict[tuple, _Node] = {}


class RadixIndex:
    """Radix tree over whole-page token spans.

    Pages are any objects exposing ``refcount``, ``last_use`` and a
    stable ``page_id`` (see :class:`repro.kvstore.arena.Page`); the
    index never mutates page contents, only the LRU clock.
    """

    def __init__(self, page_tokens: int):
        if page_tokens < 1:
            raise ValueError(f"page_tokens must be >= 1, got {page_tokens}")
        self.page_tokens = page_tokens
        self._root = _Node()
        self.n_pages = 0

    def _edges(self, tokens):
        """Whole-page token tuples of ``tokens``, in order."""
        pt = self.page_tokens
        for start in range(0, (len(tokens) // pt) * pt, pt):
            yield tuple(int(t) for t in tokens[start:start + pt])

    def lookup(self, tokens, *, max_pages: int | None = None,
               clock: float | None = None) -> list:
        """Longest whole-page prefix of ``tokens`` as a page chain.

        With ``clock`` the matched pages' ``last_use`` is refreshed (a
        cache hit); without it the walk is a pure read (routing peeks
        must not perturb eviction order).
        """
        node = self._root
        chain: list = []
        for edge in self._edges(tokens):
            if max_pages is not None and len(chain) >= max_pages:
                break
            child = node.children.get(edge)
            if child is None:
                break
            chain.append(child.page)
            node = child
        if clock is not None:
            for page in chain:
                page.last_use = clock
        return chain

    def insert(self, tokens, pages, *, clock: float = 0.0) -> int:
        """Index ``pages`` (one per whole page of ``tokens``); returns
        the number of *new* pages attached (shared prefixes dedup)."""
        pages = list(pages)
        n_whole = len(tokens) // self.page_tokens
        if len(pages) != n_whole:
            raise ValueError(
                f"need {n_whole} pages for {len(tokens)} tokens at "
                f"page_tokens={self.page_tokens}, got {len(pages)}")
        node = self._root
        added = 0
        for edge, page in zip(self._edges(tokens), pages):
            child = node.children.get(edge)
            if child is None:
                child = _Node(page)
                node.children[edge] = child
                page.last_use = clock
                added += 1
                self.n_pages += 1
            node = child
        return added

    def pages(self) -> list:
        """Every indexed page (walk order, for stats and tests)."""
        out: list = []

        def walk(node: _Node) -> None:
            for child in node.children.values():
                out.append(child.page)
                walk(child)

        walk(self._root)
        return out

    def evict(self, n_pages: int) -> list:
        """Drop up to ``n_pages`` unpinned leaf pages, LRU-first.

        Returns the evicted pages.  Stops early when every remaining
        leaf is pinned — a page with a live lease is never freed, no
        matter the memory pressure (the caller runs over capacity
        instead).  One walk collects the unpinned leaves into a heap
        ordered by ``(last_use, page_id)``; a parent whose last child
        goes becomes a leaf and joins the heap, so the order is the one
        a fresh scan before every single eviction would give.
        """
        evicted: list = []
        if n_pages <= 0:
            return evicted
        # Heap entries: (last_use, page_id, id, node) — the id only
        # keeps tuple comparison away from the nodes themselves.
        up: dict[int, tuple[_Node, tuple]] = {}
        heap: list = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            for edge, child in node.children.items():
                up[id(child)] = (node, edge)
                if child.children:
                    stack.append(child)
                elif child.page.refcount == 0:
                    heap.append((child.page.last_use, child.page.page_id,
                                 id(child), child))
        heapq.heapify(heap)
        while heap and len(evicted) < n_pages:
            leaf = heapq.heappop(heap)[-1]
            parent, edge = up[id(leaf)]
            del parent.children[edge]
            self.n_pages -= 1
            evicted.append(leaf.page)
            if (parent is not self._root and not parent.children
                    and parent.page.refcount == 0):
                heapq.heappush(heap, (parent.page.last_use,
                                      parent.page.page_id, id(parent),
                                      parent))
        return evicted

    def clear(self) -> None:
        """Drop the whole index (store invalidation)."""
        self._root = _Node()
        self.n_pages = 0
