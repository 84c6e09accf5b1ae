"""Row-wise reference verifier: the differential oracle for ``verify_log``.

This is the transfer-log verifier as it was written before the log
became columnar: it groups every stream into per-tick lists of
:class:`~repro.core.log.Transfer` records and replays them one
namedtuple at a time, with ``Counter`` tallies. It is kept here, beside
the tests, and not in the library, so that
:func:`repro.core.verify.verify_log` — which walks per-tick column
slices instead — can be held to it: on any log both must raise the same
rule, tick and message, or return equal reports
(``tests/core/test_verify_differential.py``).
"""

from __future__ import annotations

from collections import Counter

from repro.core.blocks import full_mask
from repro.core.errors import ScheduleViolation
from repro.core.log import Transfer, TransferLog
from repro.core.mechanisms import Cooperative, Mechanism
from repro.core.model import SERVER, BandwidthModel
from repro.core.verify import VerificationReport

__all__ = ["reference_verify_log"]


def reference_verify_log(
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
    """Replay ``log`` row by row and check every model rule.

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

    by_tick = log.by_tick()
    fails_by_tick = log.failures_by_tick()
    polluted_by_tick = log.polluted_by_tick()
    phantoms_by_tick = log.phantoms_by_tick()
    # Independent blacklist replay (strike_threshold): strikes accrued
    # from adversarial rows in tick order; a banned pair must never
    # appear again at a strictly later tick, in any stream.
    strikes: Counter[tuple[int, int]] = Counter()
    banned: dict[tuple[int, int], int] = {}
    for tick in sorted(
        by_tick.keys()
        | fails_by_tick.keys()
        | polluted_by_tick.keys()
        | phantoms_by_tick.keys()
    ):
        while next_event < len(events) and events[next_event][0] <= tick:
            _, kind, node, mask = events[next_event]
            masks[node] = mask if kind == 0 else 0
            next_event += 1
        transfers = by_tick.get(tick, [])
        failures = fails_by_tick.get(tick, [])
        polluted = polluted_by_tick.get(tick, [])
        phantoms = phantoms_by_tick.get(tick, [])
        _check_tick(
            tick,
            transfers,
            failures,
            polluted,
            phantoms,
            masks,
            n=n,
            k=k,
            model=model,
            overlay=overlay,
            allow_redundant=allow_redundant,
        )
        if strike_threshold:
            for t in (*transfers, *failures, *polluted, *phantoms):
                ban_tick = banned.get((t.src, t.dst))
                if ban_tick is not None and tick > ban_tick:
                    raise ScheduleViolation(
                        f"node {t.src} serves {t.dst} at tick {tick} "
                        f"despite being blacklisted at tick {ban_tick}",
                        tick=tick,
                        rule="blacklist",
                    )
            for t in (*polluted, *phantoms):
                pair = (t.src, t.dst)
                strikes[pair] += 1
                if strikes[pair] == strike_threshold and pair not in banned:
                    banned[pair] = tick
        # A failed send consumed barter credit like any other — and so do
        # polluted and phantom ones: mechanisms judge the tick's
        # *attempts* (the exchange engine's paired swaps stay symmetric
        # even when one direction is lost or spoiled in transit).
        mechanism.check_tick(
            tick,
            [
                t
                for t in (*transfers, *failures, *polluted, *phantoms)
                if t.src != SERVER and t.dst != SERVER
            ],
        )
        # Apply receipts only after the whole tick is validated (synchrony);
        # failed, polluted and phantom attempts deliver nothing — polluted
        # blocks never count toward completion.
        for t in transfers:
            if masks[t.dst] >> t.block & 1:
                redundant += 1
            masks[t.dst] |= 1 << t.block
            if t.src == SERVER:
                server_uploads += 1
        downloads = Counter(t.dst for t in transfers)
        downloads.update(t.dst for t in (*failures, *polluted, *phantoms))
        if downloads:
            peak_downloads = max(peak_downloads, max(downloads.values()))
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
    capacity = ticks * (
        sum(model.upload_capacity(v) for v in range(1, n)) + model.server_upload
    )
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


def _check_tick(
    tick: int,
    transfers: list[Transfer],
    failures: list[Transfer],
    polluted: list[Transfer],
    phantoms: list[Transfer],
    masks: list[int],
    *,
    n: int,
    k: int,
    model: BandwidthModel,
    overlay,
    allow_redundant: bool,
) -> None:
    uploads: Counter[int] = Counter()
    downloads: Counter[int] = Counter()
    incoming_blocks: set[tuple[int, int]] = set()

    # Failed attempts obey every static rule and consume capacity, but are
    # exempt from the duplicate-delivery check: a failed send followed by a
    # successful (or another failed) send of the same block to the same
    # receiver within one tick is legal — nothing arrived the first time.
    # Polluted rows replay like failures (the polluter genuinely held the
    # block and the receiver genuinely lacked it; the *content* was bad);
    # phantom rows are additionally exempt from causality and usefulness —
    # the advertisement itself was the lie, so no holding is implied.
    for attempt_failed, phantom, t in (
        [(False, False, t) for t in transfers]
        + [(True, False, t) for t in failures]
        + [(True, False, t) for t in polluted]
        + [(True, True, t) for t in phantoms]
    ):
        if not (0 <= t.src < n and 0 <= t.dst < n):
            raise ScheduleViolation(
                f"transfer {t} references a node outside 0..{n - 1}",
                tick=tick,
                rule="node-range",
            )
        if t.src == t.dst:
            raise ScheduleViolation(
                f"node {t.src} transfers to itself", tick=tick, rule="self-transfer"
            )
        if not 0 <= t.block < k:
            raise ScheduleViolation(
                f"block {t.block} outside 0..{k - 1}", tick=tick, rule="block-range"
            )
        if overlay is not None and not overlay.has_edge(t.src, t.dst):
            raise ScheduleViolation(
                f"transfer {t.src} -> {t.dst} is not an overlay edge",
                tick=tick,
                rule="overlay",
            )
        if not phantom and not masks[t.src] >> t.block & 1:
            raise ScheduleViolation(
                f"node {t.src} sends block {t.block} it does not hold at "
                f"tick start",
                tick=tick,
                rule="causality",
            )
        if (
            not phantom
            and masks[t.dst] >> t.block & 1
            and not allow_redundant
        ):
            raise ScheduleViolation(
                f"node {t.dst} already holds block {t.block} sent by {t.src}",
                tick=tick,
                rule="usefulness",
            )
        if not attempt_failed:
            if (t.dst, t.block) in incoming_blocks and not allow_redundant:
                raise ScheduleViolation(
                    f"node {t.dst} receives block {t.block} twice in one tick",
                    tick=tick,
                    rule="usefulness",
                )
            incoming_blocks.add((t.dst, t.block))
        uploads[t.src] += 1
        downloads[t.dst] += 1

    for node, count in uploads.items():
        cap = model.upload_capacity(node)
        if count > cap:
            raise ScheduleViolation(
                f"node {node} uploads {count} blocks in one tick (capacity {cap})",
                tick=tick,
                rule="upload-capacity",
            )
    if not model.unbounded_download:
        for node, count in downloads.items():
            cap = model.download_capacity(node)
            if cap is not None and count > cap:
                raise ScheduleViolation(
                    f"node {node} downloads {count} blocks in one tick "
                    f"(capacity {cap})",
                    tick=tick,
                    rule="download-capacity",
                )
