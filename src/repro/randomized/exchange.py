"""Randomized strict-barter exchange matching (library extension).

The paper analyses strict barter only through the deterministic riffle
pipeline; this module adds the natural randomized counterpart, so the
price of barter can also be measured for unstructured swarms: each tick a
random matching of *mutually interested* adjacent client pairs is formed,
and every matched pair swaps one block in each direction simultaneously —
each tick satisfies :class:`~repro.core.mechanisms.StrictBarter` exactly.
The server seeds one interested client per tick for free (the paper's one
exception to barter).

This directly exposes the start-up bottleneck of Theorem 2: only clients
already holding data can be matched, so the swarm warms up linearly.

Fault injection (:mod:`repro.faults`) applies per *direction* of a swap:
a lost direction consumes its bandwidth — and keeps the tick's pairing
symmetric, so the strict-barter constraint still holds over the tick's
attempts — but delivers nothing. Crashed clients leave the swarm (their
copies vanish) and may rejoin with retained blocks; the server sits out
its outage windows.

On the :mod:`repro.sim` kernel the matching logic is
:class:`ExchangeTickPolicy`; :class:`ExchangeEngine` is the construction
facade and :func:`randomized_exchange_run` the one-call entry point.
"""

from __future__ import annotations

import random
from typing import Callable

from ..core.errors import ConfigError
from ..core.log import RunResult
from ..core.model import SERVER, BandwidthModel
from ..faults.plan import FaultPlan
from ..faults.recovery import RecoveryPolicy
from ..overlays.graph import CompleteGraph, Graph
from ..sim.kernel import TickKernel
from ..sim.policy import TickPolicy
from .policies import BlockPolicy, RandomPolicy

__all__ = ["ExchangeEngine", "ExchangeTickPolicy", "randomized_exchange_run"]


class ExchangeTickPolicy(TickPolicy):
    """Per-tick random matching of mutually interested client pairs.

    Per tick: the server sends one block to a random interested client;
    clients are scanned in random order, each unmatched client picking a
    random unmatched neighbor with which a mutually useful swap exists,
    and the pair exchanges blocks chosen by the block policy in both
    directions. Download capacity is enforced structurally (one swap per
    client, plus the seeded client needing a second unit), so the
    kernel's per-node download ledger is switched off.
    """

    name = "randomized-exchange"
    fault_support = "full"
    uses_download_ledger = False
    # Matching decisions feed back on live masks (a delivered swap
    # changes later partners' mutual interest), so exchange keeps the
    # per-attempt path on the array backend and gains its mirrored
    # ownership words.
    supports_array = True
    membership_support = True
    adversary_support = "full"
    # One swap per client per tick is structural here — a fast tier's
    # extra upload capacity cannot be spent — so only the download axis
    # is honored (which is exactly the strict regime's asymmetry the
    # heterogeneity experiment measures).
    bandwidth_support = "download"

    def __init__(self, block_policy: BlockPolicy, graph: Graph) -> None:
        self.block_policy = block_policy
        self._graph = graph

    def bind(self, kernel: TickKernel) -> None:
        super().bind(kernel)
        kernel.graph = self._graph

    def run_tick(self, snapshot: list[int]) -> None:
        kernel = self.kernel
        state = kernel.state
        masks = state.masks
        rng = kernel.rng
        graph = kernel.graph
        absent = kernel.absent
        policy = self.block_policy
        attempt = kernel.attempt
        tick = kernel.tick
        matched: set[int] = set()

        # Server seeding: one free block per tick to a random client that
        # is interested in the server's content (i.e. incomplete).
        seeded = None
        if kernel.server_available():
            candidates = [
                v
                for v in graph.neighbors(SERVER)
                if v != SERVER
                and v not in absent
                and snapshot[SERVER] & ~masks[v]
            ]
            if candidates:
                seeded = candidates[rng.randrange(len(candidates))]
                block = policy.choose(
                    snapshot[SERVER] & ~masks[seeded], kernel, SERVER, seeded
                )
                attempt(SERVER, seeded, block)

        # Pairwise matching of mutually interested clients. A node the
        # server seeded this tick (even if the seed was lost in transit —
        # the slot is spent) may only also barter with a second unit of
        # download capacity.
        model = kernel.model
        seed_cap = None if seeded is None else model.download_capacity(seeded)
        seed_can_barter = seeded is None or seed_cap is None or seed_cap >= 2
        # Free-riders refuse to upload, and a barter swap *is* an upload
        # in each direction — so they can neither initiate nor accept a
        # match. They stay eligible for the free server seed above (the
        # paper's one exception to barter), which is exactly the strict
        # regime's point: that seed is all a free-rider ever gets.
        riders = (
            kernel.adversary.free_riders_at(tick)
            if kernel.adversary is not None
            else frozenset()
        )
        order = [
            v
            for v in range(1, kernel.n)
            if snapshot[v] and v not in absent and v not in riders
        ]
        rng.shuffle(order)
        for a in order:
            if a in matched or (a == seeded and not seed_can_barter):
                continue
            partners = [
                b
                for b in graph.neighbors(a)
                if b != SERVER
                and b not in matched
                and b not in absent
                and b not in riders
                and (b != seeded or seed_can_barter)
                and snapshot[a] & ~masks[b]
                and snapshot[b] & ~masks[a]
            ]
            if not partners:
                continue
            b = partners[rng.randrange(len(partners))]
            block_ab = policy.choose(snapshot[a] & ~masks[b], kernel, a, b)
            block_ba = policy.choose(snapshot[b] & ~masks[a], kernel, b, a)
            # Each direction is judged independently; the *attempts* stay
            # paired, which is what strict barter constrains.
            attempt(a, b, block_ab)
            attempt(b, a, block_ba)
            matched.add(a)
            matched.add(b)

    def zero_tick_conclusive(self) -> bool:
        """The partner scan is exhaustive, so a tick without a single
        attempt proves no legal move exists; the state can never change
        again (the kernel separately rules out fault-side revivals)."""
        return True

    def completions(self) -> dict[int, int]:
        kernel = self.kernel
        if not kernel.keep_log:
            return {}
        absent = kernel.absent
        return {
            c: t
            for c, t in kernel.log.completion_ticks(kernel.n, kernel.k).items()
            if c not in absent
        }

    def result_meta(self) -> dict[str, object]:
        return {
            "algorithm": self.name,
            "policy": self.block_policy.name,
            "mechanism": "strict-barter",
            "max_ticks": self.kernel.max_ticks,
            # Per-tick delivered counts survive log-less results (cache
            # hits, replica summaries) — the resilience readers' fallback
            # for delivered-transfer totals, like every other engine.
            "uploads_per_tick": self.kernel.uploads_per_tick,
        }


class ExchangeEngine:
    """Randomized strict-barter exchange swarm; see module docstring.

    A strict-barter swarm can deadlock short of completion (no pair has
    mutual interest and the server cannot help); a zero-transfer tick
    proves it and the run aborts with ``meta["deadlocked"] = True``.
    Under fault injection the proof needs the injector's say-so (a rejoin
    or outage end could revive the swarm), and a stall window aborts runs
    that merely stop progressing.
    """

    def __init__(
        self,
        n: int,
        k: int,
        overlay: Graph | None = None,
        policy: BlockPolicy | None = None,
        model: BandwidthModel | None = None,
        rng: random.Random | int | None = None,
        max_ticks: int | None = None,
        keep_log: bool = True,
        faults: FaultPlan | None = None,
        recovery: RecoveryPolicy | None = None,
        backend: object | None = None,
        workload=None,
        adversary=None,
        bandwidth=None,
        telemetry=None,
    ) -> None:
        self.n, self.k = n, k
        self.policy = policy or RandomPolicy()
        graph = overlay if overlay is not None else CompleteGraph(n)
        if graph.n != n:
            raise ConfigError(
                f"overlay has {graph.n} nodes but the swarm has {n}"
            )
        self.tick_policy = ExchangeTickPolicy(self.policy, graph)
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
            backend=backend,
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


def randomized_exchange_run(
    n: int,
    k: int,
    overlay: Graph | None = None,
    policy: BlockPolicy | None = None,
    model: BandwidthModel | None = None,
    rng: random.Random | int | None = None,
    max_ticks: int | None = None,
    keep_log: bool = True,
    faults: FaultPlan | None = None,
    recovery: RecoveryPolicy | None = None,
    backend: object | None = None,
    adversary=None,
    bandwidth=None,
    telemetry=None,
) -> RunResult:
    """Run randomized strict-barter exchange until completion or timeout;
    see :class:`ExchangeEngine`."""
    return ExchangeEngine(
        n,
        k,
        overlay=overlay,
        policy=policy,
        model=model,
        rng=rng,
        max_ticks=max_ticks,
        keep_log=keep_log,
        faults=faults,
        recovery=recovery,
        backend=backend,
        adversary=adversary,
        bandwidth=bandwidth,
        telemetry=telemetry,
    ).run()
