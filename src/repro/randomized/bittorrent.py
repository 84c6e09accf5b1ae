"""A BitTorrent-style tit-for-tat engine (paper Section 4, ongoing work).

The paper's related-work discussion reports that, in its ongoing
simulations, "even with perfect tuning of protocol parameters, the
completion time with BitTorrent is more than 30% worse than the optimal
time", and that BitTorrent's fixed unchoke slots give selfish clients
little incentive to conform. This module implements a faithful-but-minimal
BitTorrent within the same tick model so both claims can be measured:

* every client maintains ``unchoke_slots`` reciprocation slots, re-chosen
  every ``rechoke_period`` ticks by blocks received from each neighbor in
  the last window (tit-for-tat), plus ``optimistic_slots`` random
  optimistic unchokes;
* each tick a client uploads one block (Rarest-First by default) to a
  random *interested* peer among those it currently unchokes;
* the seed (server) has no reciprocation to rank, so it unchokes random
  interested neighbors each window;
* ``selfish`` clients never upload; they ride optimistic unchokes only —
  the loophole the paper calls out. Since :mod:`repro.adversary` landed,
  ``selfish=`` is a compatibility shim lowered onto
  ``AdversaryPlan(free_riders=...)`` (bit-identically); new code should
  pass ``adversary=`` directly, which also generalises free-riding to
  the other five engines.

Running on the :mod:`repro.sim` kernel gives this engine the full fault
model: transfer loss, link/server outages, stall abort, progress
callbacks, and node crash/rejoin. A crash evicts the node from every
unchoke set and voids its receipt history — the next rechoke re-ranks
without ghosts — and a rejoining node is re-seeded through the server's
optimistic-unchoke path until it earns reciprocation slots again.
Workload arrivals ride the same rejoin bootstrap and departures the
crash eviction.
"""

from __future__ import annotations

import dataclasses
import random
from collections import defaultdict
from typing import Callable

from ..core.errors import ConfigError
from ..core.log import RunResult
from ..core.model import SERVER, BandwidthModel
from ..faults.plan import FaultPlan
from ..faults.recovery import RecoveryPolicy
from ..overlays.graph import CompleteGraph, Graph
from ..sim.kernel import TickKernel
from ..sim.policy import TickPolicy
from .policies import BlockPolicy, RarestFirstPolicy

__all__ = ["BitTorrentEngine", "BitTorrentTickPolicy", "bittorrent_run"]


class BitTorrentTickPolicy(TickPolicy):
    """Tit-for-tat choking as a kernel policy; see module docstring."""

    name = "bittorrent"
    adversary_support = "full"
    bandwidth_support = "full"

    def __init__(
        self,
        block_policy: BlockPolicy,
        graph: Graph,
        *,
        unchoke_slots: int,
        optimistic_slots: int,
        rechoke_period: int,
        selfish: frozenset[int],
        per_node_unchoke: dict[int, int],
        tier_weighted_unchoke: bool = False,
    ) -> None:
        self.block_policy = block_policy
        self._graph = graph
        self.unchoke_slots = unchoke_slots
        self.optimistic_slots = optimistic_slots
        self.rechoke_period = rechoke_period
        self.selfish = selfish
        self.per_node_unchoke = per_node_unchoke
        self.tier_weighted_unchoke = tier_weighted_unchoke
        # received_window[v][u]: blocks v got from u in the current window.
        self._received_window: dict[int, dict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self._unchoked: dict[int, tuple[int, ...]] = {}
        self._silent_windows = 0

    def bind(self, kernel: TickKernel) -> None:
        super().bind(kernel)
        kernel.graph = self._graph

    # -- choking -----------------------------------------------------------

    def _rechoke(self) -> None:
        """Recompute every node's unchoke set from last window's receipts."""
        kernel = self.kernel
        rng = kernel.rng
        masks = kernel.state.masks
        graph = kernel.graph
        for node in range(kernel.n):
            if node != SERVER and not masks[node]:
                self._unchoked[node] = ()
                continue
            neighbors = [
                v
                for v in graph.neighbors(node)
                if v != node and v not in kernel.absent
            ]
            if not neighbors:
                self._unchoked[node] = ()
                continue
            slots = self.per_node_unchoke.get(node, self.unchoke_slots)
            if node == SERVER:
                chosen = self._sample(neighbors, slots + self.optimistic_slots)
            else:
                window = self._received_window[node]
                if self.tier_weighted_unchoke:
                    # Differentiated service: receipts are weighted by
                    # the sender's upload capacity, so a fast-tier peer
                    # outranks a slow one with equal receipts — its
                    # future reciprocation is worth more blocks/tick.
                    # (Same rng.random() tiebreak draw per candidate, so
                    # the uniform-model ranking — all weights 1 — makes
                    # identical draws to the default path.)
                    up = kernel.model.upload_capacity
                    ranked = sorted(
                        (v for v in neighbors if window.get(v, 0) > 0),
                        key=lambda v: (-window[v] * up(v), rng.random()),
                    )
                else:
                    ranked = sorted(
                        (v for v in neighbors if window.get(v, 0) > 0),
                        key=lambda v: (-window[v], rng.random()),
                    )
                chosen = list(ranked[:slots])
                others = [v for v in neighbors if v not in chosen]
                chosen.extend(self._sample(others, self.optimistic_slots))
            self._unchoked[node] = tuple(chosen)
        self._received_window.clear()

    def _sample(self, pool: list[int], count: int) -> list[int]:
        if count <= 0 or not pool:
            return []
        if len(pool) <= count:
            return list(pool)
        return self.kernel.rng.sample(pool, count)

    # -- ticks -------------------------------------------------------------

    def pre_tick(self, tick: int) -> None:
        if (tick - 1) % self.rechoke_period == 0:
            self._rechoke()

    def run_tick(self, snapshot: list[int]) -> None:
        kernel = self.kernel
        masks = kernel.state.masks
        rng = kernel.rng
        dl_left = kernel.download_ledger
        selfish = self.selfish
        if kernel.adversary is not None:
            riders = kernel.adversary.free_riders_at(kernel.tick)
            if riders:
                selfish = selfish | riders
        attempt = kernel.attempt
        choose = self.block_policy.choose
        server_ok = kernel.server_available()

        uploaders = [
            v
            for v in range(kernel.n)
            if snapshot[v] and v not in selfish and (v != SERVER or server_ok)
        ]
        rng.shuffle(uploaders)
        model = kernel.model
        server_rounds = model.server_upload
        up_rounds = (
            None
            if getattr(model, "is_uniform", True)
            else [model.upload_capacity(v) for v in range(kernel.n)]
        )
        for src in uploaders:
            if src == SERVER:
                rounds = server_rounds
            else:
                rounds = 1 if up_rounds is None else up_rounds[src]
            have = snapshot[src]
            for _ in range(rounds):
                candidates = [
                    v
                    for v in self._unchoked.get(src, ())
                    if (dl_left is None or dl_left[v] > 0) and have & ~masks[v]
                ]
                if not candidates:
                    break
                dst = candidates[rng.randrange(len(candidates))]
                useful = have & ~masks[dst]
                block = choose(useful, kernel, src, dst)
                if attempt(src, dst, block):
                    # Only *delivered* blocks count toward reciprocation —
                    # a transfer lost to fault injection earns no credit,
                    # and neither does a polluted or phantom one. This is
                    # the receipt-weighted partner-selection defense: an
                    # adversary that never delivers real blocks never
                    # ranks for a reciprocation slot at the next rechoke.
                    self._received_window[dst][src] += 1

    def post_tick(self, delivered: int, failed: int) -> str | None:
        """Stalls cannot be proven permanent here (rechoking
        re-randomizes), so there is no deadlock verdict — but an
        all-windows-silent swarm aborts as a stall. A silent wait for
        scheduled workload arrivals or downtime returns is a lull, not
        a stall, so the window count holds off while events are pending."""
        if delivered == 0 and self.kernel.tick % self.rechoke_period == 0:
            if self.kernel.membership_events_pending():
                self._silent_windows = 0
                return None
            self._silent_windows += 1
            if self._silent_windows >= 20:
                return "stall"
        elif delivered:
            self._silent_windows = 0
        return None

    def zero_tick_conclusive(self) -> bool:
        return False

    # -- crash/rejoin ------------------------------------------------------

    def after_crash(self, node: int) -> None:
        """Evict a crashed peer from all choking state.

        Its receipt history is voided both ways (credit earned from a
        dead peer must not buy reciprocation at the next rechoke), and it
        is stripped from every live unchoke set so no upload slot is
        wasted on it mid-window.
        """
        self._received_window.pop(node, None)
        for window in self._received_window.values():
            window.pop(node, None)
        self._unchoked.pop(node, None)
        for holder, unchoked in list(self._unchoked.items()):
            if node in unchoked:
                self._unchoked[holder] = tuple(
                    v for v in unchoked if v != node
                )

    def after_rejoin(self, node: int) -> None:
        """Re-seed a rejoined peer through the server's unchoke set.

        A returning node has no receipt history, so until the next
        rechoke nobody would rank it; granting it an immediate
        server-side optimistic unchoke mirrors BitTorrent's bootstrap
        path for fresh arrivals.
        """
        server_set = self._unchoked.get(SERVER, ())
        if node not in server_set:
            self._unchoked[SERVER] = server_set + (node,)

    # -- checkpoint --------------------------------------------------------

    def capture_state(self) -> dict[str, object]:
        """Choking state: the live unchoke sets (tuple order feeds the
        uniform receiver draw, so it is captured verbatim), the current
        window's receipt counts, and the silent-window stall counter."""
        return {
            "received_window": [
                [node, [[src, count] for src, count in sorted(window.items())]]
                for node, window in sorted(self._received_window.items())
            ],
            "unchoked": [
                [node, list(unchoked)]
                for node, unchoked in sorted(self._unchoked.items())
            ],
            "silent_windows": self._silent_windows,
        }

    def restore_state(self, state: dict[str, object]) -> None:
        window = defaultdict(lambda: defaultdict(int))
        for node, rows in state["received_window"]:
            inner = window[node]
            for src, count in rows:
                inner[src] = count
        self._received_window = window
        self._unchoked = {
            node: tuple(unchoked) for node, unchoked in state["unchoked"]
        }
        self._silent_windows = state["silent_windows"]

    def result_meta(self) -> dict[str, object]:
        kernel = self.kernel
        return {
            "algorithm": self.name,
            "policy": self.block_policy.name,
            "unchoke_slots": self.unchoke_slots,
            "optimistic_slots": self.optimistic_slots,
            "rechoke_period": self.rechoke_period,
            "uploads_per_tick": kernel.uploads_per_tick,
            "final_holdings": [m.bit_count() for m in kernel.state.masks],
            "selfish": sorted(self.selfish),
            **(
                {"tier_weighted_unchoke": True}
                if self.tier_weighted_unchoke
                else {}
            ),
        }


class BitTorrentEngine:
    """Tick-synchronous BitTorrent-like swarm; see module docstring."""

    def __init__(
        self,
        n: int,
        k: int,
        overlay: Graph | None = None,
        unchoke_slots: int = 4,
        optimistic_slots: int = 1,
        rechoke_period: int = 10,
        policy: BlockPolicy | None = None,
        model: BandwidthModel | None = None,
        rng: random.Random | int | None = None,
        max_ticks: int | None = None,
        keep_log: bool = True,
        selfish: frozenset[int] | set[int] = frozenset(),
        per_node_unchoke: dict[int, int] | None = None,
        faults: FaultPlan | None = None,
        recovery: RecoveryPolicy | None = None,
        workload=None,
        adversary=None,
        bandwidth=None,
        telemetry=None,
        tier_weighted_unchoke: bool = False,
    ) -> None:
        if unchoke_slots < 1:
            raise ConfigError(f"need at least one unchoke slot, got {unchoke_slots}")
        if optimistic_slots < 0:
            raise ConfigError(f"optimistic slots must be >= 0, got {optimistic_slots}")
        if rechoke_period < 1:
            raise ConfigError(f"rechoke period must be >= 1, got {rechoke_period}")
        self.n, self.k = n, k
        graph = overlay if overlay is not None else CompleteGraph(n)
        if graph.n != n:
            raise ConfigError(f"overlay has {graph.n} nodes, swarm has {n}")
        self.policy = policy or RarestFirstPolicy()
        self.selfish = frozenset(selfish)
        if SERVER in self.selfish:
            raise ConfigError("the seed cannot be selfish")
        # Deprecation shim: ``selfish=`` predates :mod:`repro.adversary`
        # and is kept working by lowering it onto the free-rider axis of
        # an :class:`~repro.adversary.plan.AdversaryPlan` (merged into
        # any plan passed explicitly). An explicit rider tuple costs the
        # adversary stream zero RNG draws, so lowered runs stay
        # bit-identical to the historical policy-level exclusion
        # (golden-tested in ``tests/adversary``).
        if self.selfish:
            from ..adversary.plan import AdversaryPlan

            if adversary is None or adversary.is_null:
                adversary = AdversaryPlan(
                    free_riders=tuple(sorted(self.selfish))
                )
            else:
                adversary = dataclasses.replace(
                    adversary,
                    free_riders=tuple(
                        sorted(set(adversary.free_riders) | self.selfish)
                    ),
                )
        # A strategic client may run fewer (or more) reciprocation slots
        # than the protocol default; everyone else keeps `unchoke_slots`.
        per_node_unchoke = dict(per_node_unchoke or {})
        for node, slots in per_node_unchoke.items():
            if not 0 <= node < n:
                raise ConfigError(f"unchoke override for unknown node {node}")
            if slots < 0:
                raise ConfigError(f"unchoke slots must be >= 0, got {slots}")
        self.tick_policy = BitTorrentTickPolicy(
            self.policy,
            graph,
            unchoke_slots=unchoke_slots,
            optimistic_slots=optimistic_slots,
            rechoke_period=rechoke_period,
            selfish=self.selfish,
            per_node_unchoke=per_node_unchoke,
            tier_weighted_unchoke=tier_weighted_unchoke,
        )
        self.kernel = TickKernel(
            n,
            k,
            self.tick_policy,
            model=model,
            rng=rng,
            max_ticks=max_ticks,
            keep_log=keep_log,
            faults=faults,
            recovery=recovery,
            workload=workload,
            adversary=adversary,
            bandwidth=bandwidth,
            telemetry=telemetry,
        )

    @property
    def state(self):
        return self.kernel.state

    @property
    def log(self):
        return self.kernel.log

    @property
    def tick(self) -> int:
        return self.kernel.tick

    @property
    def graph(self) -> Graph:
        assert self.kernel.graph is not None
        return self.kernel.graph

    def run(self, progress: Callable[[int, int], None] | None = None) -> RunResult:
        return self.kernel.run(progress)


def bittorrent_run(
    n: int,
    k: int,
    overlay: Graph | None = None,
    rng: random.Random | int | None = None,
    **kwargs,
) -> RunResult:
    """One BitTorrent-style run; see :class:`BitTorrentEngine`."""
    return BitTorrentEngine(n, k, overlay=overlay, rng=rng, **kwargs).run()
