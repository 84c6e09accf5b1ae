"""Independent verification of transfer logs.

Every algorithm in this library produces a :class:`~repro.core.log.TransferLog`.
This module re-executes a log from scratch against the bandwidth model and a
mechanism, checking every rule of the paper's data-transfer model
(Section 2.1) plus the mechanism's constraints (Section 3). It shares no
code with the engines that *produced* the log, so a bug in an engine cannot
hide itself.

The replay reads the log's int32 columns directly: one slice of each
stream per active tick (:meth:`~repro.core.log.TransferLog.runs`), plain
dict tallies, and per-node capacities asked of the model once. No
:class:`~repro.core.log.Transfer` record is built unless a violation is
reported or the mechanism overrides ``check_tick``.

Checked rules:

* **causality** — a sender must have held the block at the *start* of the
  tick (a block received during tick ``t`` is only forwardable at ``t+1``);
* **usefulness** — the receiver must not already hold the block (the paper's
  transfers are always of needed blocks; redundant sends can optionally be
  tolerated and counted instead);
* **upload capacity** — at most ``u = 1`` block per node per tick
  (``server_upload`` for the server);
* **download capacity** — at most ``d`` blocks per node per tick;
* **no self-transfers**, and optionally **overlay confinement** — transfers
  only along edges of a given overlay network;
* the **mechanism** per-tick constraints (strict / credit-limited /
  triangular barter).

Failed attempts (:mod:`repro.faults`) are replayed under the same rules:
a failed send must still have been *legal* when attempted — the sender
held the block at tick start, the receiver lacked it, the link is an
overlay edge — and it consumes upload capacity, download capacity and
barter credit exactly like a delivery. Only the delivery itself is
skipped: a failed transfer never updates the receiver's holdings.

Adversarial rows (:mod:`repro.adversary`) replay the same way: a
``polluted`` row (a corrupted block, caught by integrity verification)
obeys every static rule and consumes capacity and credit but never sets
a mask bit — so a log tampered to count pollution as progress surfaces
as a usefulness or completion violation; a ``phantom`` row (a liar
serving a block it never held) is additionally exempt from the
causality and usefulness checks, since the advertisement itself was the
lie. With ``strike_threshold=`` the verifier independently replays the
strike-based blacklist: each polluted/phantom row is a strike against
its ``(src, dst)`` pair, the threshold-th strike bans the pair from that
tick on, and *any* row on a banned pair at a strictly later tick is a
``blacklist`` violation (same-tick rows are tolerated — within a tick
the log carries no ordering).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .blocks import full_mask
from .errors import ScheduleViolation
from .log import STREAMS, Transfer, TransferLog
from .mechanisms import Cooperative, Mechanism
from .model import SERVER, BandwidthModel

__all__ = ["VerificationReport", "verify_log"]


@dataclass(slots=True)
class VerificationReport:
    """Statistics gathered during a successful verification pass."""

    n: int
    k: int
    ticks: int
    transfers: int
    redundant_transfers: int
    server_uploads: int
    client_uploads: int
    peak_downloads_per_tick: int
    all_complete: bool
    busy_ticks: int = 0
    upload_efficiency: float = 0.0
    failed_transfers: int = 0
    polluted_transfers: int = 0
    phantom_transfers: int = 0
    extras: dict[str, object] = field(default_factory=dict)

    @property
    def attempted_transfers(self) -> int:
        """Deliveries plus failed, polluted and phantom attempts."""
        return (
            self.transfers
            + self.failed_transfers
            + self.polluted_transfers
            + self.phantom_transfers
        )

    @property
    def wasted_upload_fraction(self) -> float:
        """Fraction of attempted uploads that delivered nothing."""
        attempts = self.attempted_transfers
        wasted = attempts - self.transfers
        return wasted / attempts if attempts else 0.0


def verify_log(
    log: TransferLog,
    n: int,
    k: int,
    model: BandwidthModel | None = None,
    mechanism: Mechanism | None = None,
    *,
    overlay=None,
    require_completion: bool = True,
    allow_redundant: bool = False,
    crash_events=None,
    rejoin_events=None,
    strike_threshold: int | None = None,
) -> VerificationReport:
    """Replay ``log`` and check every model rule; see module docstring.

    Parameters
    ----------
    overlay:
        Optional object with a ``has_edge(a, b)`` method (any
        :class:`repro.overlays.Graph`); when given, every transfer must run
        along one of its edges.
    require_completion:
        When True (default), every client must hold all ``k`` blocks after
        the log; partial logs can be verified with False.
    allow_redundant:
        When True, a transfer of a block the receiver already holds is
        counted (``redundant_transfers``) rather than fatal.
    crash_events, rejoin_events:
        Fault-injection event histories (``meta["crash_events"]`` /
        ``meta["rejoin_events"]`` of a faulted run): ``(tick, node)``
        crashes zero the node's holdings at the start of that tick, and
        ``(tick, node, retained)`` rejoins restore exactly the retained
        mask (an int; a list of retained GF(2) basis rows is reduced to
        its pivot-block mask). Without them, a crash run's re-deliveries
        would
        read as usefulness violations (the verifier would believe the
        receiver still held the lost blocks).
    strike_threshold:
        When set (a positive int, the plan's ``strike_threshold``), the
        strike-based blacklist is replayed independently: polluted and
        phantom rows accrue strikes per ``(src, dst)`` pair, the
        threshold-th strike bans the pair, and any later-tick row on a
        banned pair raises a ``blacklist`` violation.

    Raises
    ------
    ScheduleViolation
        On the first rule breach encountered, in tick order.
    """
    model = model or BandwidthModel.symmetric()
    mechanism = mechanism or Cooperative()
    mechanism.reset()

    masks = [0] * n
    masks[SERVER] = full_mask(k)

    # Crash/rejoin events, merged in application order: within a tick the
    # engines apply rejoins before drawing crashes.
    events: list[tuple[int, int, int, int]] = [
        (int(e[0]), 0, int(e[1]), _retained_mask(e[2]))
        for e in (rejoin_events or ())
    ] + [(int(e[0]), 1, int(e[1]), 0) for e in (crash_events or ())]
    events.sort()
    next_event = 0

    redundant = 0
    server_uploads = 0
    peak_downloads = 0
    busy_ticks = 0

    # Per-node capacities, asked of the model once.
    up_cap = [model.upload_capacity(v) for v in range(n)]
    down_cap = (
        None
        if model.unbounded_download
        else [model.download_capacity(v) for v in range(n)]
    )
    # The base Mechanism.check_tick accepts any tick; only an override
    # needs the tick's rows as Transfer records.
    check_mechanism = type(mechanism).check_tick is not Mechanism.check_tick

    # Every stream as (src, dst, block) int lists plus, per active tick,
    # the (start, stop) slice holding that tick's rows.
    streams = []
    for name in STREAMS:
        _, src, dst, block = log.columns(name)
        spans = {tick: (a, b) for tick, a, b in log.runs(name)}
        streams.append((src.tolist(), dst.tolist(), block.tolist(), spans))
    # Independent blacklist replay (strike_threshold): strikes accrued
    # from adversarial rows in tick order; a banned pair must never
    # appear again at a strictly later tick, in any stream.
    strikes: dict[tuple[int, int], int] = {}
    banned: dict[tuple[int, int], int] = {}
    for tick in sorted(set().union(*(spans for *_, spans in streams))):
        while next_event < len(events) and events[next_event][0] <= tick:
            _, kind, node, mask = events[next_event]
            masks[node] = mask if kind == 0 else 0
            next_event += 1
        rows = []
        for src, dst, block, spans in streams:
            a, b = spans.get(tick, (0, 0))
            rows.append((src[a:b], dst[a:b], block[a:b]))
        peak = _check_tick(
            tick,
            rows,
            masks,
            n=n,
            k=k,
            up_cap=up_cap,
            down_cap=down_cap,
            overlay=overlay,
            allow_redundant=allow_redundant,
        )
        if strike_threshold:
            for src, dst, _ in rows:
                for pair in zip(src, dst):
                    ban_tick = banned.get(pair)
                    if ban_tick is not None and tick > ban_tick:
                        raise ScheduleViolation(
                            f"node {pair[0]} serves {pair[1]} at tick {tick} "
                            f"despite being blacklisted at tick {ban_tick}",
                            tick=tick,
                            rule="blacklist",
                        )
            for src, dst, _ in rows[2:]:
                for pair in zip(src, dst):
                    strikes[pair] = count = strikes.get(pair, 0) + 1
                    if count == strike_threshold and pair not in banned:
                        banned[pair] = tick
        # A failed send consumed barter credit like any other — and so do
        # polluted and phantom ones: mechanisms judge the tick's
        # *attempts* (the exchange engine's paired swaps stay symmetric
        # even when one direction is lost or spoiled in transit).
        if check_mechanism:
            mechanism.check_tick(
                tick,
                [
                    Transfer(tick, s, d, b)
                    for src, dst, block in rows
                    for s, d, b in zip(src, dst, block)
                    if s != SERVER and d != SERVER
                ],
            )
        # Apply receipts only after the whole tick is validated (synchrony);
        # failed, polluted and phantom attempts deliver nothing — polluted
        # blocks never count toward completion.
        src, dst, block = rows[0]
        for d, b in zip(dst, block):
            if masks[d] >> b & 1:
                redundant += 1
            else:
                masks[d] |= 1 << b
        server_uploads += src.count(SERVER)
        peak_downloads = max(peak_downloads, peak)
        busy_ticks += 1

    # Events after the last active tick still count (a late fail-stop
    # crash zeroes its node), and a node whose *last* event is a crash is
    # out of the swarm — it is excused from the completion requirement.
    for _, kind, node, mask in events[next_event:]:
        masks[node] = mask if kind == 0 else 0
    gone: set[int] = set()
    for _, kind, node, _ in events:
        if kind == 1:
            gone.add(node)
        else:
            gone.discard(node)

    full = full_mask(k)
    all_complete = all(masks[c] == full for c in range(1, n) if c not in gone)
    if require_completion and not all_complete:
        unfinished = [c for c in range(1, n) if masks[c] != full and c not in gone]
        raise ScheduleViolation(
            f"{len(unfinished)} client(s) never completed "
            f"(first few: {unfinished[:5]})",
            rule="completion",
        )

    total = len(log)
    ticks = log.last_attempt_tick
    # Upload efficiency: achieved transfers relative to the ceiling of each
    # node's upload capacity per tick over the run (the paper's "fraction of
    # nodes that upload data in each step"; per-node capacities generalise
    # the uniform n - 1 + server_upload ceiling).
    capacity = ticks * (sum(up_cap[1:]) + model.server_upload)
    efficiency = total / capacity if capacity else 0.0

    return VerificationReport(
        n=n,
        k=k,
        ticks=ticks,
        transfers=total,
        redundant_transfers=redundant,
        server_uploads=server_uploads,
        client_uploads=total - server_uploads,
        peak_downloads_per_tick=peak_downloads,
        all_complete=all_complete,
        busy_ticks=busy_ticks,
        upload_efficiency=efficiency,
        failed_transfers=log.failed_count,
        polluted_transfers=log.polluted_count,
        phantom_transfers=log.phantom_count,
        extras={"bans_replayed": len(banned)} if strike_threshold else {},
    )


def _retained_mask(retained) -> int:
    """Block mask a rejoin event's retained payload amounts to.

    Mask engines record an int and it passes through unchanged. The
    coding engine records its retained GF(2) basis rows (a list/tuple of
    int-coded vectors); block-level replay conservatively credits the
    rejoined node with the *pivot* blocks of those rows — the blocks its
    truncated basis can still express alone — which is exactly the mask
    :class:`repro.coding.gf2.Gf2Basis` rebuilt from the rows reports.
    Full row-level replay of coding logs lives in
    :func:`repro.coding.verify.verify_coding_log`.
    """
    if isinstance(retained, (list, tuple)):
        mask = 0
        for row in retained:
            row = int(row)
            if row:
                mask |= 1 << (row.bit_length() - 1)
        return mask
    return int(retained)


#: Per stream, in :data:`~repro.core.log.STREAMS` order: whether its rows
#: are attempts that delivered nothing, and whether they are phantoms.
_FAILED = (False, True, True, True)
_PHANTOM = (False, False, False, True)


def _check_tick(
    tick: int,
    rows: list[tuple[list[int], list[int], list[int]]],
    masks: list[int],
    *,
    n: int,
    k: int,
    up_cap: list[int],
    down_cap: list[int | None] | None,
    overlay,
    allow_redundant: bool,
) -> int:
    """Check one tick's rows (``(src, dst, block)`` slices of each stream);
    returns the tick's peak per-node download count."""
    uploads: dict[int, int] = {}
    downloads: dict[int, int] = {}
    incoming: set[int] = set()
    has_edge = overlay.has_edge if overlay is not None else None

    # Failed attempts obey every static rule and consume capacity, but are
    # exempt from the duplicate-delivery check: a failed send followed by a
    # successful (or another failed) send of the same block to the same
    # receiver within one tick is legal — nothing arrived the first time.
    # Polluted rows replay like failures (the polluter genuinely held the
    # block and the receiver genuinely lacked it; the *content* was bad);
    # phantom rows are additionally exempt from causality and usefulness —
    # the advertisement itself was the lie, so no holding is implied.
    for (srcs, dsts, blocks), failed, phantom in zip(rows, _FAILED, _PHANTOM):
        for s, d, b in zip(srcs, dsts, blocks):
            if not (0 <= s < n and 0 <= d < n):
                raise ScheduleViolation(
                    f"transfer {Transfer(tick, s, d, b)} references a node "
                    f"outside 0..{n - 1}",
                    tick=tick,
                    rule="node-range",
                )
            if s == d:
                raise ScheduleViolation(
                    f"node {s} transfers to itself", tick=tick, rule="self-transfer"
                )
            if not 0 <= b < k:
                raise ScheduleViolation(
                    f"block {b} outside 0..{k - 1}", tick=tick, rule="block-range"
                )
            if has_edge is not None and not has_edge(s, d):
                raise ScheduleViolation(
                    f"transfer {s} -> {d} is not an overlay edge",
                    tick=tick,
                    rule="overlay",
                )
            if not phantom:
                if not masks[s] >> b & 1:
                    raise ScheduleViolation(
                        f"node {s} sends block {b} it does not hold at "
                        f"tick start",
                        tick=tick,
                        rule="causality",
                    )
                if masks[d] >> b & 1 and not allow_redundant:
                    raise ScheduleViolation(
                        f"node {d} already holds block {b} sent by {s}",
                        tick=tick,
                        rule="usefulness",
                    )
            if not failed:
                key = d * k + b
                if key in incoming and not allow_redundant:
                    raise ScheduleViolation(
                        f"node {d} receives block {b} twice in one tick",
                        tick=tick,
                        rule="usefulness",
                    )
                incoming.add(key)
            uploads[s] = uploads.get(s, 0) + 1
            downloads[d] = downloads.get(d, 0) + 1

    for node, count in uploads.items():
        cap = up_cap[node]
        if count > cap:
            raise ScheduleViolation(
                f"node {node} uploads {count} blocks in one tick (capacity {cap})",
                tick=tick,
                rule="upload-capacity",
            )
    if down_cap is not None:
        for node, count in downloads.items():
            cap = down_cap[node]
            if cap is not None and count > cap:
                raise ScheduleViolation(
                    f"node {node} downloads {count} blocks in one tick "
                    f"(capacity {cap})",
                    tick=tick,
                    rule="download-capacity",
                )
    return max(downloads.values())
