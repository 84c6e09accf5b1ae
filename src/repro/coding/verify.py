"""Independent vector-level verification of network-coding runs.

:func:`repro.core.verify.verify_log` replays *block* transfers, but a
coding log's ``block`` column only records the pivot of the coded
coefficient vector that actually moved — block-level causality does not
hold for it (a node can emit a combination whose pivot block it never
held "in the clear"). This module replays a coding run at the level the
engine actually operates on: the GF(2) coefficient vectors that
:class:`~repro.coding.engine.CodingTickPolicy` records in run metadata
(``coding_vectors`` / ``coding_failed_vectors``), parallel to the log's
delivery and failure streams.

Checked rules:

* **causality** — every attempted vector (delivered or failed) lies in
  the sender's span at the *start* of the tick (rows received during a
  tick are not re-broadcastable until the next);
* **pivot consistency** — the logged block equals the vector's pivot,
  and no vector is zero;
* **upload/download capacity** and **no self-transfers**, optionally
  **overlay confinement**, exactly as in the block-level verifier;
* **crash/rejoin** — a crash zeroes the node's basis; a rejoin's
  retained rows must be linearly independent and lie inside the span
  the node held *at crash time* (the truncated-basis contract);
* **completion** — every client not currently crashed decodes
  (rank ``k``) by the end of the log.

Redundant combinations (vector already in the receiver's span) are
legal — bandwidth was spent either way — and are counted, mirroring the
engine's ``redundant_combinations`` telemetry.
"""

from __future__ import annotations

from collections import Counter

from ..core.errors import ScheduleViolation
from ..core.log import RunResult
from ..core.model import SERVER, BandwidthModel
from .gf2 import Gf2Basis

__all__ = ["verify_coding_log"]


def verify_coding_log(
    result: RunResult,
    n: int,
    k: int,
    model: BandwidthModel | None = None,
    *,
    overlay=None,
    require_completion: bool = True,
) -> dict[str, int]:
    """Replay a coding run's coefficient vectors; see module docstring.

    ``result`` must carry a log and the ``coding_vectors`` /
    ``coding_failed_vectors`` metadata (present whenever the engine ran
    with ``keep_log=True``). Returns summary counters
    (``transfers``, ``failed_transfers``, ``redundant``, ``ticks``).

    Raises
    ------
    ScheduleViolation
        On the first rule breach encountered, in tick order.
    """
    log = result.log
    if log is None:
        raise ScheduleViolation(
            "cannot verify a run without a log (keep_log=False)",
            rule="missing-log",
        )
    model = model or BandwidthModel.symmetric()
    meta = result.meta
    vectors = list(meta.get("coding_vectors", ()))
    failed_vectors = list(meta.get("coding_failed_vectors", ()))
    transfers = list(log)
    failures = list(log.failures)
    if len(vectors) != len(transfers) or len(failed_vectors) != len(failures):
        raise ScheduleViolation(
            f"vector streams do not match the log: {len(vectors)} vectors "
            f"for {len(transfers)} deliveries, {len(failed_vectors)} for "
            f"{len(failures)} failures",
            rule="vector-alignment",
        )

    # (tick, kind, node, payload): rejoins (kind 0) apply before the
    # tick's uploads, crashes (kind 1) likewise — engines apply rejoins
    # first within a tick, and the sort preserves that.
    events: list[tuple[int, int, int, object]] = [
        (int(e[0]), 0, int(e[1]), e[2])
        for e in meta.get("rejoin_events", ())
    ] + [(int(e[0]), 1, int(e[1]), None) for e in meta.get("crash_events", ())]
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    next_event = 0

    bases = [Gf2Basis(k) for _ in range(n)]
    bases[SERVER] = Gf2Basis.full(k)
    # Node -> span held at its most recent crash (rejoin contract).
    crash_span: dict[int, Gf2Basis] = {}
    gone: set[int] = set()
    redundant = 0

    def apply_event(kind: int, node: int, payload: object) -> None:
        nonlocal next_event
        if kind == 1:
            crash_span[node] = bases[node]
            bases[node] = Gf2Basis(k)
            gone.add(node)
            return
        rows = [int(r) for r in (payload if isinstance(payload, (list, tuple)) else ())]
        rebuilt = Gf2Basis(k, rows)
        if rebuilt.rank != len(rows):
            raise ScheduleViolation(
                f"node {node} rejoins with {len(rows)} retained rows of "
                f"rank {rebuilt.rank} (rows must be independent)",
                rule="rejoin-rows",
            )
        span = crash_span.get(node)
        if span is None:
            if rows:
                raise ScheduleViolation(
                    f"node {node} rejoins with retained rows but never "
                    f"crashed",
                    rule="rejoin-rows",
                )
        elif not rebuilt.is_subspace_of(span):
            raise ScheduleViolation(
                f"node {node} rejoins with rows outside its crash-time "
                f"span",
                rule="rejoin-rows",
            )
        bases[node] = rebuilt
        gone.discard(node)

    # Pair each tick's attempts with their vectors (both streams are
    # recorded in order, so per-tick slices are contiguous).
    by_tick: dict[int, list[tuple[object, int]]] = {}
    fails_by_tick: dict[int, list[tuple[object, int]]] = {}
    for t, vec in zip(transfers, vectors):
        by_tick.setdefault(t.tick, []).append((t, int(vec)))
    for t, vec in zip(failures, failed_vectors):
        fails_by_tick.setdefault(t.tick, []).append((t, int(vec)))

    ticks = sorted(by_tick.keys() | fails_by_tick.keys())
    for tick in ticks:
        while next_event < len(events) and events[next_event][0] <= tick:
            _, kind, node, payload = events[next_event]
            apply_event(kind, node, payload)
            next_event += 1
        snapshots = [Gf2Basis(k, b.basis_rows()) for b in bases]
        uploads: Counter[int] = Counter()
        downloads: Counter[int] = Counter()
        delivered_now: list[tuple[int, int]] = []
        for failed, (t, vec) in [
            (False, pair) for pair in by_tick.get(tick, [])
        ] + [(True, pair) for pair in fails_by_tick.get(tick, [])]:
            if not (0 <= t.src < n and 0 <= t.dst < n):
                raise ScheduleViolation(
                    f"transfer {t} references a node outside 0..{n - 1}",
                    tick=tick,
                    rule="node-range",
                )
            if t.src == t.dst:
                raise ScheduleViolation(
                    f"node {t.src} transfers to itself",
                    tick=tick,
                    rule="self-transfer",
                )
            if vec == 0:
                raise ScheduleViolation(
                    f"node {t.src} sends the zero vector",
                    tick=tick,
                    rule="zero-vector",
                )
            if vec.bit_length() - 1 != t.block:
                raise ScheduleViolation(
                    f"logged block {t.block} is not the pivot of vector "
                    f"{vec:#x}",
                    tick=tick,
                    rule="pivot-consistency",
                )
            if overlay is not None and not overlay.has_edge(t.src, t.dst):
                raise ScheduleViolation(
                    f"transfer {t.src} -> {t.dst} is not an overlay edge",
                    tick=tick,
                    rule="overlay",
                )
            if not snapshots[t.src].contains(vec):
                raise ScheduleViolation(
                    f"node {t.src} sends a vector outside its span at "
                    f"tick start",
                    tick=tick,
                    rule="causality",
                )
            uploads[t.src] += 1
            downloads[t.dst] += 1
            if not failed:
                delivered_now.append((t.dst, vec))
        for node, count in uploads.items():
            cap = model.upload_capacity(node)
            if count > cap:
                raise ScheduleViolation(
                    f"node {node} uploads {count} vectors in one tick "
                    f"(capacity {cap})",
                    tick=tick,
                    rule="upload-capacity",
                )
        for node, count in downloads.items():
            cap = model.download_capacity(node)
            if cap is not None and count > cap:
                raise ScheduleViolation(
                    f"node {node} downloads {count} vectors in one "
                    f"tick (capacity {cap})",
                    tick=tick,
                    rule="download-capacity",
                )
        for dst, vec in delivered_now:
            if not bases[dst].insert(vec):
                redundant += 1

    for _, kind, node, payload in events[next_event:]:
        apply_event(kind, node, payload)

    if require_completion:
        unfinished = [
            c for c in range(1, n) if c not in gone and not bases[c].is_full()
        ]
        if unfinished:
            raise ScheduleViolation(
                f"{len(unfinished)} client(s) never reached rank {k} "
                f"(first few: {unfinished[:5]})",
                rule="completion",
            )

    return {
        "transfers": len(transfers),
        "failed_transfers": len(failures),
        "redundant": redundant,
        "ticks": ticks[-1] if ticks else 0,
    }
