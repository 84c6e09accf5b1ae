"""Mutable swarm state shared by the simulation engines.

Tracks, for every node, which blocks it holds (as raw bitmasks — see
:mod:`repro.core.blocks` for why), plus the derived structures the
randomized algorithms need each tick:

* ``freq``: global per-block holder counts, for Rarest-First selection
  ("perfect statistics about block frequencies", Section 3.2.4);
* the set of *incomplete* nodes, so complete-graph sampling can skip nodes
  that can no longer be interested in anything.

Synchronous semantics: blocks received during tick ``t`` may only be
forwarded from tick ``t + 1`` on. Engines achieve this by reading sender
masks from the *start-of-tick snapshot* while applying receipts to the
live state; :meth:`SwarmState.begin_tick` hands out that snapshot cheaply.
"""

from __future__ import annotations

import numpy as np

from .blocks import full_mask
from .errors import ConfigError
from .model import SERVER

__all__ = ["SwarmState"]


class SwarmState:
    """Holdings of every node in a swarm of ``n`` nodes and ``k`` blocks.

    Node 0 is the server and starts with the complete file; clients
    ``1 .. n-1`` start empty.
    """

    __slots__ = (
        "n", "k", "masks", "_snapshot", "freq", "_incomplete", "_full",
        "mirror", "epoch",
    )

    def __init__(self, n: int, k: int) -> None:
        if n < 2:
            raise ConfigError(f"need a server and at least one client, got n={n}")
        if k < 1:
            raise ConfigError(f"file must have at least one block, got k={k}")
        self.n = n
        self.k = k
        self._full = full_mask(k)
        self.masks: list[int] = [0] * n
        self.masks[SERVER] = self._full
        self._snapshot: list[int] = list(self.masks)
        # Every block starts held by the server alone. Kept as a numpy
        # array so Rarest-First selection can fancy-index it directly.
        self.freq: np.ndarray = np.ones(k, dtype=np.int64)
        self._incomplete: set[int] = set(range(1, n))
        #: Optional ownership mirror (:class:`repro.sim.array.ArrayState`)
        #: notified on every mutation so a packed ndarray view of the
        #: holdings stays in sync with the bigint masks.
        self.mirror = None
        #: Bumped by every mutation that is not a plain receipt (seed,
        #: retire, enroll, restore); nodes leave and rejoin the swarm
        #: only through these. Between bumps masks only grow, so a cache
        #: keyed on the epoch (the randomized engine's dead-end memo)
        #: knows when it must forget what it proved.
        self.epoch = 0

    # -- tick protocol -----------------------------------------------------

    def begin_tick(self) -> list[int]:
        """Snapshot masks at tick start; returns the snapshot list.

        Senders must consult the snapshot (what they held *before* the
        tick) and receivers mutate the live ``masks`` via :meth:`receive`.
        """
        self._snapshot = list(self.masks)
        return self._snapshot

    @property
    def snapshot(self) -> list[int]:
        """Masks as of the start of the current tick."""
        return self._snapshot

    # -- queries -----------------------------------------------------------

    def has(self, node: int, block: int) -> bool:
        """Whether ``node`` currently holds ``block``."""
        return bool(self.masks[node] >> block & 1)

    def is_complete(self, node: int) -> bool:
        """Whether ``node`` currently holds the whole file."""
        return self.masks[node] == self._full

    @property
    def all_complete(self) -> bool:
        """True when every client holds the whole file."""
        return not self._incomplete

    @property
    def incomplete_nodes(self) -> set[int]:
        """Clients still missing at least one block (live view; do not mutate)."""
        return self._incomplete

    def holdings_count(self, node: int) -> int:
        """Number of blocks ``node`` currently holds."""
        return self.masks[node].bit_count()

    def total_blocks_held(self) -> int:
        """Total block copies across all nodes (server included)."""
        return sum(m.bit_count() for m in self.masks)

    # -- mutation ----------------------------------------------------------

    def receive(self, node: int, block: int) -> bool:
        """Deliver ``block`` to ``node``; returns False if it was redundant."""
        bit = 1 << block
        if self.masks[node] & bit:
            return False
        self.masks[node] |= bit
        self.freq[block] += 1
        if node != SERVER and self.masks[node] == self._full:
            self._incomplete.discard(node)
        if self.mirror is not None:
            self.mirror.on_receive(node, block)
        return True

    def seed(self, node: int, blocks: int) -> None:
        """Pre-load ``node`` with a raw mask (failure-injection and tests)."""
        if blocks < 0 or blocks >> self.k:
            raise ConfigError(f"mask {blocks:#x} outside range(k={self.k})")
        self.epoch += 1
        for b in range(self.k):
            if blocks >> b & 1 and not self.has(node, b):
                self.receive(node, b)

    def retire(self, node: int) -> None:
        """Remove a departed client: its copies leave the swarm.

        Holder counts are decremented (Rarest-First sees the loss) and the
        node no longer counts toward completion. The server cannot retire.
        """
        if node == SERVER:
            raise ConfigError("the server cannot leave the swarm")
        self.epoch += 1
        mask = self.masks[node]
        b = 0
        while mask:
            if mask & 1:
                self.freq[b] -= 1
            mask >>= 1
            b += 1
        self.masks[node] = 0
        self._incomplete.discard(node)
        if self.mirror is not None:
            self.mirror.on_retire(node)

    def restore_masks(self, masks, incomplete) -> None:
        """Reset holdings wholesale from a checkpoint (tick boundary).

        ``incomplete`` is authoritative and is *not* derivable from the
        masks: an absent node and a fresh arrival both hold nothing, but
        only the latter is in the goal set. Holder counts are derived
        (``freq[b]`` = nodes whose mask has bit ``b``) and recomputed;
        the snapshot is reset to the live masks, exactly its state at a
        tick boundary. The array mirror, when any, is re-synced by its
        owner (``ArrayState.attach``) after this returns.
        """
        self.epoch += 1
        self.masks[:] = [int(mask) for mask in masks]
        self._snapshot = list(self.masks)
        self._incomplete = set(incomplete)
        self.freq[:] = 0
        for mask in self.masks:
            block = 0
            while mask:
                if mask & 1:
                    self.freq[block] += 1
                mask >>= 1
                block += 1

    def enroll(self, node: int) -> None:
        """Add a (previously absent) client with no blocks to the goal set."""
        if node == SERVER:
            raise ConfigError("the server is always present")
        self.epoch += 1
        if self.masks[node] != self._full:
            self._incomplete.add(node)
