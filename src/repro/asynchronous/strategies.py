"""Strategies for the asynchronous engine.

* :class:`AsyncHypercube` — the paper's suggestion: each node walks its
  hypercube links round-robin at its own pace, offering the
  highest-index block the link partner lacks (skipping links with
  nothing useful or a busy partner downlink);
* :class:`AsyncRandom` — the asynchronous analogue of the randomized
  cooperative algorithm: a uniformly random interested neighbor with a
  free downlink, block chosen uniformly among the useful ones;
* :class:`AsyncRarest` — as above with (global) rarest-first selection.

All strategies only ever propose feasible transfers (receiver lacks the
block, nothing identical already in flight, downlink slot free), which
the engine enforces. ``engine`` is the live
:class:`~repro.asynchronous.policy.AsyncTickPolicy` — the query surface
of the kernel-hosted event loop.
"""

from __future__ import annotations

import numpy as np

from ..core.blocks import random_set_bit, rarest_set_bit
from ..core.model import SERVER
from ..overlays.graph import CompleteGraph, Graph
from ..overlays.hypercube import HypercubeLayout

__all__ = ["AsyncHypercube", "AsyncRandom", "AsyncRarest"]


class AsyncHypercube:
    """Round-robin hypercube links at each node's own pace (Sec. 2.3.4).

    Mirrors the synchronous rules exactly: links are ordered by dimension
    (most significant bit first, the paper's indexing), and a node's
    current link is its dimension rotation evaluated *at its own pace* —
    ``floor(now * upload_rate) mod degree``. The server introduces blocks
    in ascending index order; clients relay the highest-index useful
    block. With homogeneous rates every node is on the same dimension at
    the same time and the run reproduces the optimal binomial pipeline;
    with drifting rates nodes fall gracefully out of phase.

    A maintained per-send cursor would desynchronise as soon as any node
    idles one round (empty nodes during the opening, busy partners), which
    empirically collapses throughput to ~``k * log2(n)``; phasing by local
    time is what keeps the pipeline structure intact.
    """

    def __init__(self, n: int) -> None:
        self.layout = HypercubeLayout.assign(n)
        layout = self.layout
        links: list[tuple[int, ...]] = []
        for node in range(n):
            vertex = layout.vertex_of[node]
            occ = layout.occupants[vertex]
            index = occ.index(node)
            per_dim: list[int] = []
            for bit in range(layout.h - 1, -1, -1):  # MSB first, as in sync
                partner_occ = layout.occupants[vertex ^ (1 << bit)]
                per_dim.append(partner_occ[min(index, len(partner_occ) - 1)])
            links.append(tuple(per_dim))
        self._links = links
        self._twin = [layout.twin(node) for node in range(n)]
        self._server_next = 0  # index of the next block the server introduces

    def next_transfer(self, engine, src: int) -> tuple[int, int] | None:
        links = self._links[src]
        if not links:
            return None
        phase = int(engine.now * engine.up[src] + 1e-9) % len(links)
        dst = links[phase]
        if src != SERVER and (
            not engine.downlink_free(dst) or not engine.useful_mask(src, dst)
        ):
            # Dimension link has nothing to do this phase: donate to the
            # twin instead (the sync algorithm's intra-pair catch-up).
            twin = self._twin[src]
            if twin is not None and engine.downlink_free(twin):
                useful = engine.useful_mask(src, twin)
                if useful:
                    return twin, useful.bit_length() - 1
            return None
        if not engine.downlink_free(dst):
            return None
        if src == SERVER:
            # The server *introduces* blocks in order: its t-th upload is
            # block t (capped at the last block) — it never back-fills old
            # blocks, which is what keeps the pipeline full (sync rule:
            # "the server transmits b_t").
            block = min(self._server_next, engine.k - 1)
            if engine.has_block(dst, block) or engine.incoming(dst, block):
                return None
            self._server_next += 1
            return dst, block
        useful = engine.useful_mask(src, dst)
        if not useful:
            return None
        return dst, useful.bit_length() - 1  # highest-index block

    # -- checkpoint --------------------------------------------------------

    def capture_state(self) -> dict[str, object]:
        """Only the server's introduction cursor mutates after
        construction (layout and link tables are pure functions of n)."""
        return {"server_next": self._server_next}

    def restore_state(self, state: dict[str, object]) -> None:
        self._server_next = int(state["server_next"])


class _AsyncRandomBase:
    """Shared neighbor selection for the randomized async strategies."""

    def __init__(self, overlay: Graph | None = None) -> None:
        self.overlay = overlay

    def _pick(self, engine, src: int) -> tuple[int, int] | None:
        # ``downlink_free`` and ``useful_mask`` inlined over the engine's
        # live arrays: this scan runs once per start attempt.
        if self.overlay is None or isinstance(self.overlay, CompleteGraph):
            # Incomplete clients are the only possible receivers.
            pool = engine.incomplete_nodes
        else:
            pool = self.overlay.neighbors(src)
        masks = engine.masks
        inbound = engine.inbound
        busy = engine.downlink_busy
        slots = engine.parallel_downloads
        absent = engine.kernel.absent
        have = masks[src]
        candidates = []
        for dst in pool:
            if dst == src or dst == SERVER or busy[dst] >= slots or dst in absent:
                continue
            useful = have & ~(masks[dst] | inbound[dst])
            if useful:
                candidates.append((dst, useful))
        if not candidates:
            return None
        dst, useful = candidates[engine.rng.randrange(len(candidates))]
        return dst, self._block(engine, useful)

    def reaches(self, src: int, dst: int) -> bool:
        """Whether :meth:`_pick`'s pool for ``src`` may hold ``dst``.

        Over a complete overlay the pool is the incomplete clients, and
        any client ``src`` could usefully serve is one, so only a sparse
        overlay's adjacency is checked.
        """
        overlay = self.overlay
        return (
            overlay is None
            or isinstance(overlay, CompleteGraph)
            or dst in overlay.neighbors(src)
        )

    def _block(self, engine, useful: int) -> int:
        raise NotImplementedError

    def next_transfer(self, engine, src: int) -> tuple[int, int] | None:
        return self._pick(engine, src)


class AsyncRandom(_AsyncRandomBase):
    """Random interested neighbor, random useful block."""

    def _block(self, engine, useful: int) -> int:
        return random_set_bit(useful, engine.rng)


class AsyncRarest(_AsyncRandomBase):
    """Random interested neighbor, globally rarest useful block.

    Holder counts are maintained incrementally from the engine's transfer
    log (each completed transfer adds one holder), so each decision is
    O(useful blocks), not O(n * k).
    """

    def __init__(self, overlay: Graph | None = None) -> None:
        super().__init__(overlay)
        self._freq: np.ndarray | None = None
        self._seen = 0

    def _block(self, engine, useful: int) -> int:
        if self._freq is None:
            self._freq = np.ones(engine.k, dtype=np.int64)  # server's copies
        for transfer in engine.transfers[self._seen :]:
            self._freq[transfer.block] += 1
        self._seen = len(engine.transfers)
        return rarest_set_bit(useful, self._freq, engine.rng)

    # -- checkpoint --------------------------------------------------------

    def capture_state(self) -> dict[str, object]:
        """Nothing to carry: the tracker is a pure fold over the engine's
        (checkpointed) transfer list, so resetting to the lazy initial
        state replays it exactly on the next decision."""
        return {}

    def restore_state(self, state: dict[str, object]) -> None:
        self._freq = None
        self._seen = 0
