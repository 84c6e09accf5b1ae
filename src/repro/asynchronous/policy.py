"""The continuous-time strategies as a :class:`~repro.sim.kernel.TickKernel` policy.

Section 2.3.4's asynchronous setting used to run on a private event loop
(``asynchronous/engine.py`` pre-kernel) behind a result adapter. This
module hosts the same event-driven dynamics *inside* the shared kernel:
one kernel tick is the unit-time window ``(t - 1, t]``, and
:meth:`AsyncTickPolicy.run_tick` drains exactly the heap events that end
inside the current window, advancing the continuous clock ``now`` event
by event (and phase boundary by phase boundary when every link idles)
exactly as the standalone loop did. Decisions are unchanged — the same
strategies see the same ``now``/phase/retry sequence — but the run now
flows through ``kernel.attempt``, which is what buys the asynchronous
engine the full fault model (loss, outages, server windows, node
crash/rejoin), stall abort, ``--progress`` callbacks and golden-log
coverage for free.

Quantization contract: a transfer ending at continuous time ``T`` is
logged in the tick ``ceil(T)`` of the window it ends in, matching the
retired adapter's ``_quantize``. With the default homogeneous unit
rates, transfers end on integer times and the quantization is exact.
Transfer loss and link outages are judged at the integer tick of the
window (the continuous end time rounds to it), and a server outage
window benches the server at transfer *start* time; a server transfer
already in flight when a window opens is delivered (start-time judging,
consistent with the tick engines).

A node crash aborts its in-flight transfers — both endpoints' links
free immediately, nothing is logged for the aborted flight
(``aborted_in_flight`` counts them in run metadata) — and a rejoining
node re-enters with whatever block mask it retained. Workload arrivals
become idle-eligible like rejoiners and departures abort in-flight
transfers like crashes; both land on window starts.

Blocks in flight toward each node are kept as one bitmask per node
(:attr:`AsyncTickPolicy.inbound`), set when a transfer starts and
cleared when it ends or is aborted, so the useful blocks for a pair are
one mask expression and the randomized strategies' destination scan
reads the live busy counts and masks directly. Checkpoints list the
masks as sorted ``[dst, block]`` pairs.

Idle retries are event-driven for the built-in randomized strategies
(:class:`~repro.asynchronous.strategies.AsyncRandom`,
:class:`~repro.asynchronous.strategies.AsyncRarest`): a retry that finds
no destination draws nothing and leaves the node *proven fruitless*.
Between :attr:`~repro.core.state.SwarmState.epoch` bumps holdings and
in-flight state only grow, so such a node stays fruitless until it is
an endpoint of a finished transfer (its uplink freed, or it gained a
block) or that transfer's receiver becomes a destination it can serve.
Retries skip it until then, in the same ascending order as a full
rescan, so every draw is unchanged. The memo is derived state: never
checkpointed, dropped on bind, restore and every epoch bump. Other
strategies (the clock-driven hypercube walk, user strategies) are
rescanned at every retry point.
"""

from __future__ import annotations

import heapq
from math import ceil, floor as math_floor
from typing import NamedTuple, Sequence

from ..core.errors import ConfigError
from ..core.model import SERVER
from ..sim.kernel import TickKernel
from ..sim.policy import TickPolicy
from .strategies import AsyncRandom, AsyncRarest

__all__ = ["AsyncTransfer", "AsyncTickPolicy", "validate_rates"]


class AsyncTransfer(NamedTuple):
    """One completed block transfer in continuous time."""

    start: float
    end: float
    src: int
    dst: int
    block: int


def validate_rates(rates: Sequence[float] | None, n: int, kind: str) -> list[float]:
    """Normalise per-node rates (default 1.0 everywhere); see AsyncEngine."""
    if rates is None:
        return [1.0] * n
    if len(rates) != n:
        raise ConfigError(f"need {n} {kind} rates, got {len(rates)}")
    values = [float(r) for r in rates]
    if any(r <= 0 for r in values):
        raise ConfigError(f"{kind} rates must be positive")
    return values


class AsyncTickPolicy(TickPolicy):
    """Event-window asynchronous dynamics on the kernel; see module
    docstring.

    The policy *is* the "engine" object handed to strategies: it exposes
    the exact query surface of the retired standalone loop (``now``,
    ``up``, ``rng``, ``k``, ``transfers``, ``downlink_free``,
    ``useful_mask``, ``has_block``, ``incoming``, ``incomplete_nodes``),
    plus the live arrays behind them (``masks``, ``inbound``,
    ``downlink_busy``, ``parallel_downloads``) for scans that inline
    those queries.
    """

    name = "async"
    # Downlink slots are continuous-time state (``parallel_downloads``
    # concurrent in-flight transfers), managed here, not per-tick.
    uses_download_ledger = False
    adversary_support = "full"
    # Continuous time honors both axes natively: per-node float rates
    # already exist, and the engine builder maps a realized tier model
    # onto them (upload -> ``up``, download -> ``down``, unbounded ->
    # ``inf``) after kernel construction.
    bandwidth_support = "full"

    def __init__(
        self,
        strategy,
        up: list[float],
        down: list[float],
        parallel_downloads: int,
    ) -> None:
        if parallel_downloads < 1:
            raise ConfigError("need at least one download slot")
        self.strategy = strategy
        # Exact types: a subclass may override the scan, so only the
        # built-in pick is known to depend on state alone (not the clock).
        self._memoise = type(strategy) in (AsyncRandom, AsyncRarest)
        self.up = up
        self.down = down
        self.parallel_downloads = parallel_downloads
        self.now = 0.0
        #: Completed transfers in continuous time (always kept — the
        #: rarest-first strategy reads them for its frequency tracker).
        self.transfers: list[AsyncTransfer] = []
        self.failed: list[AsyncTransfer] = []
        self.float_completions: dict[int, float] = {}
        self.aborted_in_flight = 0

    def bind(self, kernel: TickKernel) -> None:
        super().bind(kernel)
        n = kernel.n
        self.k = kernel.k
        self.rng = kernel.rng
        self._full = (1 << kernel.k) - 1
        self._downlink_busy = [0] * n
        self._uplink_busy = [False] * n
        # Per node, the mask of blocks currently in flight toward it.
        self._inbound = [0] * n
        self._events: list[tuple[float, int, AsyncTransfer]] = []
        self._event_seq = 0
        self._idle: set[int] = set()
        # Idle nodes whose last start attempt proved them fruitless (see
        # module docstring), valid for swarm epoch ``_memo_epoch``.
        self._fruitless: set[int] = set()
        self._memo_epoch = -1
        self._silent_hops = 0
        # Phase boundaries are dense (roughly one per node per link
        # period), so the fruitless-hop budget covers several full link
        # cycles of the slowest node before the run reads as stalled.
        self._hop_budget = 64 * n + 256
        self._hops_exhausted = False
        self._started = False

    # -- queries for strategies --------------------------------------------

    @property
    def masks(self) -> list[int]:
        """Live holdings (the kernel's swarm state)."""
        return self.kernel.state.masks

    def has_block(self, node: int, block: int) -> bool:
        """Whether ``node`` holds (fully received) ``block``."""
        return bool(self.kernel.state.masks[node] >> block & 1)

    @property
    def downlink_busy(self) -> list[int]:
        """Per node, transfers in flight toward it (live; do not mutate)."""
        return self._downlink_busy

    @property
    def inbound(self) -> list[int]:
        """Per node, the mask of blocks in flight toward it (live; do
        not mutate)."""
        return self._inbound

    def downlink_free(self, node: int) -> bool:
        """Whether ``node`` can accept one more incoming transfer now."""
        return (
            self._downlink_busy[node] < self.parallel_downloads
            and node not in self.kernel.absent
        )

    def incoming(self, node: int, block: int) -> bool:
        """Whether ``block`` is already in flight toward ``node``."""
        return bool(self._inbound[node] >> block & 1)

    def useful_mask(self, src: int, dst: int) -> int:
        """Blocks ``src`` holds that ``dst`` neither holds nor is receiving."""
        masks = self.kernel.state.masks
        return masks[src] & ~(masks[dst] | self._inbound[dst])

    @property
    def incomplete_nodes(self):
        """Clients still missing blocks (live view; do not mutate)."""
        return self.kernel.incomplete_pool

    # -- event loop ---------------------------------------------------------

    def _try_start(self, src: int) -> bool:
        if self._uplink_busy[src] or self.kernel.state.masks[src] == 0:
            if self._memoise:
                self._fruitless.add(src)
            return False
        faults = self.kernel.faults
        if src == SERVER and faults is not None and faults.server_down(self.now):
            return False
        adversary = self.kernel.adversary
        if adversary is not None and src in adversary.free_riders_at(
            self.kernel.tick
        ):
            # A free-riding source declines to start uploads; it stays
            # idle-eligible, so it resumes serving if the plan's
            # activation window closes.
            return False
        choice = self.strategy.next_transfer(self, src)
        if choice is None:
            if self._memoise:
                self._fruitless.add(src)
            return False
        dst, block = choice
        if not self.kernel.state.masks[src] >> block & 1:
            raise ConfigError(
                f"strategy proposed sending block {block} not held by {src}"
            )
        if not self.downlink_free(dst) or self.has_block(dst, block):
            raise ConfigError("strategy proposed an infeasible transfer")
        duration = 1.0 / min(self.up[src], self.down[dst])
        transfer = AsyncTransfer(self.now, self.now + duration, src, dst, block)
        self._uplink_busy[src] = True
        self._downlink_busy[dst] += 1
        self._inbound[dst] |= 1 << block
        self._event_seq += 1
        heapq.heappush(self._events, (transfer.end, self._event_seq, transfer))
        return True

    def _next_phase_boundary(self) -> float:
        """Earliest *strictly future* time at which any node's link phase
        can change (see the retired standalone loop: a candidate that
        does not strictly advance the clock is pushed one full period
        ahead, floating point being what it is)."""
        best = None
        for rate in self.up:
            candidate = (math_floor(self.now * rate + 1e-9) + 1) / rate
            if candidate <= self.now + 1e-12:
                candidate += 1.0 / rate
            if best is None or candidate < best:
                best = candidate
        assert best is not None
        return best

    def _open_blocks(self, dst: int) -> int:
        """Mask of the blocks ``dst`` neither holds nor is receiving (a
        negative int: the complement) if it is a present client with a
        free download slot, else 0. ``have & _open_blocks(dst)`` is then
        what a holder of ``have`` could start toward ``dst``."""
        if dst == SERVER or not self.downlink_free(dst):
            return 0
        return ~(self.kernel.state.masks[dst] | self._inbound[dst])

    def _retry_idle(self, receiver: int | None = None) -> bool:
        """Retry every idle node not proven fruitless.

        ``receiver`` is the node a transfer just finished toward: the
        one destination that may have opened up for a fruitless node
        (itself already cleared from the memo by the caller).
        """
        # Sorted: small-int sets happen to iterate ascending (every value
        # sits in its home slot), but that is an implementation accident;
        # the retry order feeds strategy RNG draws, so it must be a
        # function of the set's *content* for checkpoint restore to
        # continue bit-identically.
        fruitless = self._fruitless
        masks = self.kernel.state.masks
        uplink_busy = self._uplink_busy
        lack = 0
        if receiver is not None and fruitless:
            lack = self._open_blocks(receiver)
        started = False
        for node in sorted(self._idle):
            if node in fruitless:
                if (
                    not masks[node] & lack
                    or uplink_busy[node]
                    or not self.strategy.reaches(node, receiver)
                ):
                    continue
                fruitless.discard(node)
            if self._try_start(node):
                self._idle.discard(node)
                started = True
                if lack:
                    # Starts only shrink what the receiver can take.
                    lack = self._open_blocks(receiver)
        return started

    def _finish(self, transfer: AsyncTransfer) -> None:
        src, dst, block = transfer.src, transfer.dst, transfer.block
        self._uplink_busy[src] = False
        self._downlink_busy[dst] -= 1
        self._inbound[dst] &= ~(1 << block)
        if self.kernel.attempt(src, dst, block):
            self.transfers.append(transfer)
            if dst != SERVER and self.kernel.state.masks[dst] == self._full:
                self.float_completions[dst] = transfer.end
        else:
            # The links were tied up for the whole duration; nothing
            # arrived. Both endpoints are free to try again.
            self.failed.append(transfer)
        self._idle.add(src)
        self._idle.add(dst)
        self._fruitless.discard(src)
        self._fruitless.discard(dst)
        self._retry_idle(dst)

    def run_tick(self, snapshot: list[int]) -> None:
        # ``snapshot`` (start-of-tick masks) is unused: asynchrony has no
        # synchronous forwarding rule — a block is forwardable the
        # continuous instant its transfer ends, which the event order
        # already guarantees.
        epoch = self.kernel.state.epoch
        if epoch != self._memo_epoch:
            # Crash, rejoin, arrival, departure or restore: presence and
            # holdings changed outside the transfer stream (always at a
            # window boundary), so nothing proven before still holds.
            self._fruitless.clear()
            self._memo_epoch = epoch
        if not self._started:
            self._started = True
            for v in range(self.kernel.n):
                if not self._try_start(v):
                    self._idle.add(v)
        window_end = float(self.kernel.tick)
        events = self._events
        if not events and self.now < window_end - 1.0:
            # ``now`` only advances with events and phase hops, so it
            # stalls across all-complete waits (everyone done, a crashed
            # node still scheduled to rejoin). Snap it to the window
            # start so resumed activity is stamped — and per-window
            # capacity-accounted — in the tick it actually happens in.
            self.now = window_end - 1.0
        while True:
            if events and events[0][0] <= window_end + 1e-9:
                self._silent_hops = 0
                end, _, transfer = heapq.heappop(events)
                self.now = end
                self._finish(transfer)
                continue
            if events:
                break  # next event ends in a later window
            if self.all_complete():
                break  # nothing left to schedule (or waiting on rejoins)
            candidate = self._next_phase_boundary()
            if candidate > window_end + 1e-9:
                break
            self._silent_hops += 1
            if self._silent_hops > self._hop_budget:
                self._hops_exhausted = True
                break
            self.now = candidate
            if self._retry_idle():
                self._silent_hops = 0

    def post_tick(self, delivered: int, failed: int) -> str | None:
        """A long run of fruitless phase hops is a genuine stall — unless
        a crashed node is still scheduled to return (or the workload has
        arrivals, downtime returns or departures pending), in which case
        the budget resets and the kernel's own guards govern."""
        if self._hops_exhausted:
            faults = self.kernel.faults
            if (faults is not None and faults.pending_rejoins()) or (
                self.kernel.membership_events_pending()
            ):
                self._hops_exhausted = False
                self._silent_hops = 0
                return None
            return "stall"
        return None

    def zero_tick_conclusive(self) -> bool:
        """Phase-based strategies can idle a whole window yet have work
        at the next phase; a zero-attempt tick proves nothing."""
        return False

    # -- checkpoint --------------------------------------------------------

    def capture_state(self) -> dict[str, object]:
        """Everything mutable across windows, including the event heap
        *in array order*: ties on ``(end, seq)`` cannot occur (``seq`` is
        unique) but the heap's internal layout still determines nothing
        observable only because pops are total-ordered — capturing the
        list verbatim and restoring it without re-heapifying is the one
        representation that is correct without that argument."""
        state: dict[str, object] = {
            "now": self.now,
            "transfers": [list(t) for t in self.transfers],
            "failed": [list(t) for t in self.failed],
            "float_completions": sorted(self.float_completions.items()),
            "aborted_in_flight": self.aborted_in_flight,
            "downlink_busy": list(self._downlink_busy),
            "uplink_busy": list(self._uplink_busy),
            "inbound": [
                [dst, block]
                for dst, mask in enumerate(self._inbound)
                for block in range(mask.bit_length())
                if mask >> block & 1
            ],
            "events": [
                [end, seq, list(transfer)]
                for end, seq, transfer in self._events
            ],
            "event_seq": self._event_seq,
            "idle": sorted(self._idle),
            "silent_hops": self._silent_hops,
            "hops_exhausted": self._hops_exhausted,
            "started": self._started,
        }
        capture = getattr(self.strategy, "capture_state", None)
        if capture is not None:
            state["strategy"] = capture()
        return state

    def restore_state(self, state: dict[str, object]) -> None:
        self.now = state["now"]
        self.transfers = [AsyncTransfer._make(t) for t in state["transfers"]]
        self.failed = [AsyncTransfer._make(t) for t in state["failed"]]
        self.float_completions = {
            int(node): t for node, t in state["float_completions"]
        }
        self.aborted_in_flight = state["aborted_in_flight"]
        self._downlink_busy = [int(v) for v in state["downlink_busy"]]
        self._uplink_busy = [bool(v) for v in state["uplink_busy"]]
        self._inbound = [0] * self.kernel.n
        for dst, block in state["inbound"]:
            self._inbound[int(dst)] |= 1 << int(block)
        # Verbatim — already a valid heap; re-heapifying could reorder
        # equal-priority entries (none exist today, but the invariant is
        # cheap to keep exact).
        self._events = [
            (end, seq, AsyncTransfer._make(transfer))
            for end, seq, transfer in state["events"]
        ]
        self._event_seq = state["event_seq"]
        self._idle = set(state["idle"])
        self._silent_hops = state["silent_hops"]
        self._hops_exhausted = state["hops_exhausted"]
        self._started = state["started"]
        self._fruitless = set()
        self._memo_epoch = -1
        restore = getattr(self.strategy, "restore_state", None)
        if restore is not None:
            restore(state.get("strategy", {}))

    # -- crash/rejoin ------------------------------------------------------

    def after_crash(self, node: int) -> None:
        """Abort the crashed node's in-flight transfers and free links.

        Nothing is logged for an aborted flight — the bits never fully
        arrived and the sender's slot frees mid-transfer — but the count
        is kept (``aborted_in_flight`` in run metadata).
        """
        events = self._events
        kept = []
        for item in events:
            t = item[2]
            if t.src != node and t.dst != node:
                kept.append(item)
                continue
            self.aborted_in_flight += 1
            if t.src == node:
                self._downlink_busy[t.dst] -= 1
                self._inbound[t.dst] &= ~(1 << t.block)
                self._idle.add(t.dst)
            else:
                self._uplink_busy[t.src] = False
                self._idle.add(t.src)
        if len(kept) != len(events):
            heapq.heapify(kept)
            self._events = kept
        self._uplink_busy[node] = False
        self._downlink_busy[node] = 0
        self._inbound[node] = 0
        self._idle.discard(node)
        self.float_completions.pop(node, None)

    def after_rejoin(self, node: int) -> None:
        """The returning node is idle-eligible from the next retry point."""
        self._idle.add(node)

    # -- result assembly ---------------------------------------------------

    def all_complete(self) -> bool:
        return self.kernel.state.all_complete

    def completions(self) -> dict[int, int]:
        # Quantized from continuous completion times, so they survive
        # ``keep_log=False`` (the adapter's ``_quantize`` contract).
        return {
            c: max(1, ceil(t - 1e-9)) for c, t in self.float_completions.items()
        }

    def result_meta(self) -> dict[str, object]:
        kernel = self.kernel
        done = self.all_complete() and (
            kernel.faults is None or not kernel.faults.pending_rejoins()
        )
        return {
            "algorithm": self.name,
            "mechanism": "cooperative",
            "strategy": type(self.strategy).__name__,
            "heterogeneous": len(set(self.up)) > 1 or len(set(self.down)) > 1,
            "max_ticks": kernel.max_ticks,
            "completion_time_continuous": (
                max(self.float_completions.values())
                if done and self.float_completions
                else None
            ),
            "uploads_per_tick": kernel.uploads_per_tick,
            "aborted_in_flight": self.aborted_in_flight,
        }

