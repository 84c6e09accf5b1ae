"""Randomized content distribution with network coding.

The paper's related work cites network coding [Gkantsidis &
Rodriguez-Rodriguez, INFOCOM 2005] as an alternative tailored to
"locality, robustness, and rapid peer arrivals/departures". This engine
implements it inside the same tick model so it can be compared head-on
with the paper's block-based algorithms:

* every node accumulates *coded blocks* — GF(2) linear combinations of
  the file's ``k`` blocks, tracked by their coefficient vectors in a
  :class:`~repro.coding.gf2.Gf2Basis`;
* per tick, each node with any data picks a uniformly random neighbor for
  which it holds something *innovative* (its span is not contained in the
  receiver's) and with download capacity left, and sends one random
  member of its span;
* a client completes when its basis reaches rank ``k`` (it can decode).

Why it is interesting here: block selection is the paper's Achilles heel
under barter (Figure 7's rarest-first dependence) and in the endgame
(coupon collector). Coding removes the choice entirely — any random
combination is innovative with probability ``>= 1/2`` over GF(2), and
higher fields push that toward 1. The ``ext-coding`` experiment measures
what that buys on low-degree overlays.

On the :mod:`repro.sim` kernel, delivery means inserting the coded
vector into the receiver's basis (the policy overrides the kernel's
delivery hook), and the engine gains the full fault model: transfer
loss, link/server outages, stall abort, progress callbacks, and node
crash/rejoin. Retained state across
a crash is *rows of the GF(2) basis*, not block bits: each basis row
survives independently with probability ``rejoin_retention``, and the
rejoining node's basis is rebuilt (rank recomputed) from the surviving
rows — a strict subspace of what it held at crash time.

The destination scan is incremental and exact. Basis rows are
append-only, so a node's start-of-tick span is its basis object plus its
rank, and each (sender, receiver) pair keeps an innovation cursor: how
many sender rows are proven to lie in the receiver's span, and the
receiver's rank when the next row failed to reduce. Spans only grow, so
a proven row stays proven and a failing row keeps failing until the
receiver's rank changes; replacing a basis (crash, rejoin, arrival,
checkpoint restore) resets that node's cursors. The scan draws nothing
before its final pick, so the decision stream is the full scan's
(``docs/THEORY.md`` §8).
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
from .gf2 import Gf2Basis

__all__ = ["CodingTickPolicy", "NetworkCodingEngine", "network_coding_run"]


class CodingTickPolicy(TickPolicy):
    """Random GF(2) combinations as a kernel policy.

    Swarm content lives in per-node bases, not block masks, so this
    policy overrides the kernel's delivery hook (:meth:`deliver`) and the
    completion predicate; the logged "block" of a delivery is the pivot
    of the received coefficient vector (logged even when the combination
    turns out redundant — bandwidth was spent either way).
    """

    name = "network-coding"
    # Free-riders only: a polluted coded vector would desynchronise the
    # coding_vectors streams from the kernel log (verify_coding_log
    # replays spans row-for-row), so pollution/lie plans are refused
    # rather than half-honored.
    adversary_support = "free-riders"
    # Coded uploads are one combination per node per tick structurally
    # (each round sends from the start-of-tick span and re-broadcast
    # rules are causal); only per-node download capacities are honored.
    bandwidth_support = "download"

    def __init__(self, k: int, n: int, graph: Graph, field: str) -> None:
        self.field = field
        self._graph = graph
        self.bases: list[Gf2Basis] = [Gf2Basis(k) for _ in range(n)]
        self.bases[SERVER] = Gf2Basis.full(k)
        self.redundant = 0
        self._incomplete = set(range(1, n))
        self._completions: dict[int, int] = {}
        self._vector = 0  # coefficient vector of the in-flight attempt
        # Coefficient vectors of logged attempts, parallel to the
        # kernel log's delivery / failure streams (keep_log-gated), so
        # :func:`repro.coding.verify.verify_coding_log` can replay spans.
        self.coding_vectors: list[int] = []
        self.coding_failed_vectors: list[int] = []

    def bind(self, kernel: TickKernel) -> None:
        super().bind(kernel)
        kernel.graph = self._graph
        self._reset_all_cursors()

    def run_tick(self, snapshot: list[int]) -> None:
        # ``snapshot`` (block masks) is meaningless here; senders use
        # their start-of-tick *span*: a row received this tick must not
        # be re-broadcast until next tick (causality). Rows are
        # append-only, so that span is the first ``ranks[v]`` rows of
        # node v's basis in insertion order.
        kernel = self.kernel
        rng = kernel.rng
        k = kernel.k
        dl_left = kernel.download_ledger
        attempt = kernel.attempt
        bases = self.bases
        ranks = [basis.rank for basis in bases]

        server_ok = kernel.server_available()
        riders = (
            kernel.adversary.free_riders_at(kernel.tick)
            if kernel.adversary is not None
            else frozenset()
        )
        uploaders = [
            v
            for v in range(kernel.n)
            if ranks[v]
            and (v != SERVER or server_ok)
            and v not in riders
        ]
        rng.shuffle(uploaders)
        server_rounds = kernel.model.server_upload
        for src in uploaders:
            rounds = server_rounds if src == SERVER else 1
            rows = bases[src].ordered_rows(ranks[src])
            src_basis = None
            for _ in range(rounds):
                dst = self._pick_destination(src, rows, dl_left)
                if dst is None:
                    break
                if src_basis is None:
                    # Pivot-descending, the order random_member draws in.
                    src_basis = Gf2Basis.from_rows(k, rows)
                vector = src_basis.random_member(rng)
                if self.field == "ideal":
                    # Large-field limit: a random combination is innovative
                    # with probability -> 1 whenever the spans differ.
                    # Model it by re-drawing random combinations until one
                    # is innovative (one exists since eligibility required
                    # span(src) ⊄ span(dst); each draw succeeds w.p. >= 1/2
                    # even over GF(2), so this terminates fast) — keeping
                    # the *random mixing* that coding's benefit rests on.
                    while bases[dst].contains(vector):
                        vector = src_basis.random_member(rng)
                self._vector = vector
                delivered = attempt(src, dst, vector.bit_length() - 1)
                if kernel.keep_log:
                    if delivered:
                        self.coding_vectors.append(vector)
                    else:
                        self.coding_failed_vectors.append(vector)

    def deliver(self, src: int, dst: int, block: int) -> None:
        """Kernel delivery hook: insert the coded vector (not a block)."""
        innovative = self.bases[dst].insert(self._vector)
        if not innovative:
            # Random combination happened to lie in the receiver's span
            # (probability <= 1/2 per try over GF(2)).
            self.redundant += 1
        elif dst != SERVER and self.bases[dst].is_full():
            self._incomplete.discard(dst)
            self._completions[dst] = self.kernel.tick

    def _pick_destination(
        self, src: int, rows: list[int], dl_left: list[int] | None
    ) -> int | None:
        """A uniformly random eligible receiver for ``src``'s start-of-tick
        span ``rows`` (insertion order), or ``None``.

        Eligible: a present neighbor (any node on the complete graph)
        with download capacity left, not yet decodable, whose span does
        not contain all of ``rows``. A sender of higher rank than the
        receiver is eligible outright (a larger span cannot lie inside a
        smaller one); otherwise the containment test resumes from the
        pair's innovation cursor (see :meth:`_reset_cursors`): rows
        already proven to lie in the receiver's span are never reduced
        again, and a row that failed to reduce still fails while the
        receiver's rank is unchanged.
        """
        kernel = self.kernel
        bases = self.bases
        n = kernel.n
        k = kernel.k
        if isinstance(kernel.graph, CompleteGraph):
            pool = range(n)
        else:
            pool = kernel.graph.neighbors(src)
        absent = kernel.absent
        proven = self._proven
        failed_at = self._failed_at
        rank = len(rows)
        row_base = src * n
        candidates = []
        for v in pool:
            if (
                v == src
                or v in absent
                or (dl_left is not None and dl_left[v] <= 0)
            ):
                continue
            basis = bases[v]
            dst_rank = basis.rank
            if dst_rank == k:
                continue
            cursor = row_base + v
            if rank > dst_rank or failed_at[cursor] == dst_rank:
                candidates.append(v)
                continue
            residue = basis.residue
            p = proven[cursor]
            while p < rank and not residue(rows[p]):
                p += 1
            proven[cursor] = p
            if p < rank:
                failed_at[cursor] = dst_rank
                candidates.append(v)
            else:
                # Not a failure: the cursor must re-scan once src gains
                # rows, whatever the receiver's rank is then.
                failed_at[cursor] = -1
        if not candidates:
            return None
        return candidates[kernel.rng.randrange(len(candidates))]

    def _reset_all_cursors(self) -> None:
        n = self.kernel.n
        self._proven = [0] * (n * n)
        self._failed_at = [-1] * (n * n)

    def _reset_cursors(self, node: int) -> None:
        """Forget every innovation cursor involving ``node`` (its basis
        object was just replaced).

        The cursor of pair (src, dst) lives at ``src * n + dst``:
        ``_proven`` counts src's leading rows (insertion order) proven to
        lie in span(dst) — spans only grow, so a proven row stays proven —
        and ``_failed_at`` is dst's rank when the next row failed to
        reduce, or -1 when the last scan ran out of rows. A failing row
        keeps failing until dst's rank changes. Both facts hold only for
        the same two basis objects, hence the reset.
        """
        n = self.kernel.n
        start = node * n
        self._proven[start : start + n] = [0] * n
        self._failed_at[start : start + n] = [-1] * n
        self._proven[node::n] = [0] * n
        self._failed_at[node::n] = [-1] * n

    def all_complete(self) -> bool:
        return not self._incomplete

    def zero_tick_conclusive(self) -> bool:
        """The destination search is an exhaustive scan, so a tick with
        zero attempts proves no node holds anything innovative for any
        reachable incomplete receiver — permanent on a static overlay."""
        return True

    def completions(self) -> dict[int, int]:
        # Completion is tracked from basis ranks directly, so it survives
        # ``keep_log=False`` (unlike mask engines, which recover it from
        # the transfer log).
        return dict(self._completions)

    # -- crash/rejoin ------------------------------------------------------

    def crash_retention_sampler(self, node: int):
        """Sample retained *basis rows* instead of block bits.

        Each row of the node's crash-time basis (pivot-descending, the
        canonical :meth:`~repro.coding.gf2.Gf2Basis.basis_rows` order)
        survives independently with probability ``rejoin_retention`` —
        one RNG draw per row, on the injector's stream, even at
        retention 1, so telemetry draws stay aligned across retention
        settings. The surviving rows span a subspace of the crash-time
        span; rank is recomputed on rejoin.
        """
        rows = self.bases[node].basis_rows()

        def sample(rng, retention) -> tuple[int, ...]:
            if retention <= 0.0 or not rows:
                return ()
            return tuple(r for r in rows if rng.random() < retention)

        return sample

    def after_crash(self, node: int) -> None:
        """Void the crashed node's basis; it is out of the goal set."""
        self.bases[node] = Gf2Basis(self.kernel.k)
        self._reset_cursors(node)
        self._incomplete.discard(node)
        self._completions.pop(node, None)

    def restore_retained(self, node: int, retained) -> None:
        """Rebuild the rejoined node's basis from its surviving rows."""
        basis = Gf2Basis(self.kernel.k, retained or ())
        self.bases[node] = basis
        self._reset_cursors(node)
        if node != SERVER:
            if basis.is_full():
                self._completions[node] = self.kernel.tick
            else:
                self._incomplete.add(node)

    # -- membership (open-system workloads) --------------------------------

    def node_complete(self, node: int) -> bool:
        """Completion is basis rank, not a block mask."""
        return self.bases[node].is_full()

    def capture_retained(self, node: int):
        """A nap keeps the whole basis (rows in canonical order), unlike
        a crash's sampled subset; :meth:`restore_retained` rebuilds it
        verbatim on return."""
        return tuple(self.bases[node].basis_rows())

    def after_arrival(self, node: int) -> None:
        """A fresh arrival starts with an empty basis and belongs in the
        goal set (it may have been purged if this id was re-planned)."""
        self.bases[node] = Gf2Basis(self.kernel.k)
        self._reset_cursors(node)
        self._incomplete.add(node)

    # -- checkpoint --------------------------------------------------------

    def capture_state(self) -> dict[str, object]:
        """Per-node bases are captured in exact ``_rows`` insertion order
        (see :meth:`~repro.coding.gf2.Gf2Basis.capture_rows` — the order
        feeds ``random_member``'s coefficient draw), alongside the
        completion bookkeeping and the keep_log-gated vector streams."""
        return {
            "bases": [basis.capture_rows() for basis in self.bases],
            "redundant": self.redundant,
            "incomplete": sorted(self._incomplete),
            "completions": [list(p) for p in sorted(self._completions.items())],
            "coding_vectors": list(self.coding_vectors),
            "coding_failed_vectors": list(self.coding_failed_vectors),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        k = self.kernel.k
        self.bases = [Gf2Basis.restore_rows(k, rows) for rows in state["bases"]]
        # Cursors are not checkpointed: they rebuild lazily on the next
        # scans, which re-derive the same answers.
        self._reset_all_cursors()
        self.redundant = state["redundant"]
        self._incomplete = set(state["incomplete"])
        self._completions = {node: tick for node, tick in state["completions"]}
        self.coding_vectors = [int(v) for v in state["coding_vectors"]]
        self.coding_failed_vectors = [
            int(v) for v in state["coding_failed_vectors"]
        ]

    def result_meta(self) -> dict[str, object]:
        kernel = self.kernel
        meta: dict[str, object] = {
            "algorithm": self.name,
            "field": self.field,
            "mechanism": "cooperative",
            "redundant_combinations": self.redundant,
            "uploads_per_tick": kernel.uploads_per_tick,
            "final_holdings": [b.rank for b in self.bases],
        }
        if kernel.keep_log:
            # Parallel to the log's delivery/failure streams; lets
            # verify_coding_log replay the run at the vector level.
            meta["coding_vectors"] = list(self.coding_vectors)
            meta["coding_failed_vectors"] = list(self.coding_failed_vectors)
        return meta


class NetworkCodingEngine:
    """Tick-synchronous swarm exchanging random GF(2) combinations."""

    _tick_policy_cls = CodingTickPolicy

    def __init__(
        self,
        n: int,
        k: int,
        overlay: Graph | None = None,
        model: BandwidthModel | None = None,
        rng: random.Random | int | None = None,
        max_ticks: int | None = None,
        field: str = "binary",
        keep_log: bool = True,
        faults: FaultPlan | None = None,
        recovery: RecoveryPolicy | None = None,
        workload=None,
        adversary=None,
        bandwidth=None,
        telemetry=None,
    ) -> None:
        if n < 2:
            raise ConfigError(f"need a server and at least one client, got n={n}")
        if k < 1:
            raise ConfigError(f"file must have at least one block, got k={k}")
        if field not in ("binary", "ideal"):
            raise ConfigError(
                f"field must be 'binary' (GF(2)) or 'ideal' (large-field "
                f"limit: every combination innovative), got {field!r}"
            )
        self.n, self.k = n, k
        self.field = field
        graph = overlay if overlay is not None else CompleteGraph(n)
        if graph.n != n:
            raise ConfigError(f"overlay has {graph.n} nodes, swarm has {n}")
        self.tick_policy = self._tick_policy_cls(k, n, graph, field)
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
    def bases(self) -> list[Gf2Basis]:
        return self.tick_policy.bases

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
        """Run until every client can decode, or the tick guard trips."""
        return self.kernel.run(progress)


def network_coding_run(
    n: int,
    k: int,
    overlay: Graph | None = None,
    rng: random.Random | int | None = None,
    **kwargs,
) -> RunResult:
    """One network-coded run; see :class:`NetworkCodingEngine`."""
    return NetworkCodingEngine(n, k, overlay=overlay, rng=rng, **kwargs).run()
