"""Content-addressed, on-disk cache of campaign task results.

Every completed task is stored as one JSON line keyed by a stable hash of
``(experiment name, run-factory fingerprint, point params, seed,
code-version salt)``. The factory fingerprint matters: sweep points are
often only *partial* coordinates (figure 3's point is ``n`` alone — the
block count ``k`` lives inside the factory), and scales reuse the same
points with different factory parameters, so a key without the factory's
parameters would serve one scale's results to another. Because the key
captures every input that determines a run's outcome, re-running a
campaign against a warm cache is a pure lookup — completed tasks are
skipped and an interrupted campaign resumes where it stopped.

Invalidation is by salt: :data:`CODE_VERSION` is baked into every key, so
bumping it (done whenever simulation semantics change) orphans old
entries; the ``REPRO_CACHE_SALT`` environment variable or a per-cache
``salt`` argument layers extra, user-controlled invalidation on top.

The store is a single append-only ``results.jsonl`` (one writer — the
executor's coordinating process — so no locking is needed). Each record
is appended as one complete line and flushed before the in-memory index
is updated, so a crash can only ever tear the *final* line. Loading
detects that torn tail, warns (the affected task simply re-executes) and
keeps everything before it; garbage on any earlier line is warned about
with its line number, since that is corruption, not a crash artifact.

The in-memory index is **lazy**: opening a cache scans the file once but
keeps only ``key -> byte offset``, and :meth:`ResultCache.get` seeks and
decodes a single line on demand — a multi-gigabyte Monte Carlo cache
costs the coordinator one small dict, not every payload. (Offsets stay
valid forever because the file is append-only.) The format on disk is
unchanged, so existing tooling that reads ``results.jsonl`` line-wise
keeps working.

Two record kinds share the file: ``"result"`` rows (one scalar task's
:class:`~repro.core.log.RunResult`) and ``"summary"`` rows (one *batch
replica*'s :class:`~repro.campaign.summaries.ReplicaSummary`, keyed per
replicate so an interrupted batched sweep resumes at replica
granularity). Cached results carry completion statistics and metadata
but an **empty transfer log** — logs are the one thing deliberately not
persisted (they dwarf everything else and no sweep aggregate needs
them); summaries never had one.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path

from ..core.log import RunResult, TransferLog
from .model import BatchJob, Job
from .summaries import ReplicaSummary

__all__ = [
    "CODE_VERSION",
    "ResultCache",
    "cache_key",
    "default_salt",
    "fn_fingerprint",
]

# Bump whenever simulation semantics change in a way that invalidates old
# results (new engine behavior, changed RunResult fields, ...).
CODE_VERSION = "3"


def default_salt() -> str:
    """Library-wide cache salt: code version plus optional env override."""
    extra = os.environ.get("REPRO_CACHE_SALT", "")
    return f"v{CODE_VERSION}|{extra}" if extra else f"v{CODE_VERSION}"


def fn_fingerprint(fn: object) -> str:
    """Stable textual identity of a run factory, parameters included.

    Run factories are module-level functions or instances of frozen
    dataclasses (they must be, to be picklable for the process pool), so
    either the qualified name or ``repr`` — which for a dataclass spells
    out every field, e.g. ``_CooperativeVsN(k=1000)`` — is stable across
    processes. A default object ``repr`` embeds a memory address and is
    *not* content-stable, so it falls back to the type's qualified name.
    """
    if fn is None:
        return ""
    qualname = getattr(fn, "__qualname__", None)
    if qualname is not None:  # plain function, method, or class
        return f"{getattr(fn, '__module__', '')}.{qualname}"
    cls = type(fn)
    rep = repr(fn)
    if " at 0x" in rep or " object at " in rep:
        return f"{cls.__module__}.{cls.__qualname__}"
    return f"{cls.__module__}.{rep}"


def cache_key(
    experiment: str,
    point: object,
    seed: int,
    *,
    replicate: int = 0,
    salt: str = "",
    fn: object = None,
) -> str:
    """Stable content hash identifying one task's inputs.

    Point params are keyed by ``repr``, which is stable across processes
    for the plain values used as sweep labels (ints, floats, strings,
    tuples thereof). ``fn`` is the run factory; its fingerprint carries
    the parameters that are baked into the factory rather than the point
    (e.g. the fixed ``k`` of a ``T`` vs ``n`` sweep), which is what keeps
    the same sweep at different ``--scale`` values from colliding.
    """
    payload = json.dumps(
        {
            "experiment": experiment,
            "fn": fn_fingerprint(fn),
            "point": repr(point),
            "replicate": replicate,
            "seed": seed,
            "salt": salt or default_salt(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _jsonable(value: object) -> object:
    """Round-trip a value through JSON, stringifying what doesn't fit."""
    return json.loads(json.dumps(value, default=repr))


class ResultCache:
    """JSONL-backed result store with a lazy ``key -> offset`` index."""

    def __init__(self, root: str | Path, *, salt: str = "") -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / "results.jsonl"
        self.salt = salt or default_salt()
        #: Byte offset of each key's (latest) record; payloads load on
        #: demand in :meth:`_fetch`, never wholesale.
        self._index: dict[str, int] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        offsets: list[tuple[int, int, str | None]] = []
        with self.path.open("rb") as handle:
            offset = handle.tell()
            number = 0
            for raw in handle:
                number += 1
                line_offset = offset
                offset += len(raw)
                stripped = raw.strip()
                if not stripped:
                    continue
                try:
                    record = json.loads(stripped)
                except json.JSONDecodeError:
                    offsets.append((number, line_offset, None))
                    continue
                if isinstance(record, dict) and "key" in record:
                    offsets.append((number, line_offset, record["key"]))
        total = number
        for number, line_offset, key in offsets:
            if key is None:
                if number == total:
                    # The torn tail a crash-interrupted appender leaves
                    # behind (put() flushes after every full line, so
                    # only the final line can be partial). The entry is
                    # lost — that task simply re-executes — but say so
                    # instead of silently shrinking the cache.
                    warnings.warn(
                        f"result cache {self.path} ends in a truncated "
                        f"record (interrupted run?); dropping it — the "
                        f"affected task will re-execute",
                        stacklevel=3,
                    )
                else:
                    # Garbage *before* the tail is not a crash artifact;
                    # name the line so the corruption is investigable.
                    warnings.warn(
                        f"result cache {self.path} line {number} is not "
                        f"valid JSON; skipping it",
                        stacklevel=3,
                    )
                continue
            self._index[key] = line_offset

    def _fetch(self, key: str) -> dict[str, object] | None:
        """Load one record by key (a seek and a single-line read)."""
        offset = self._index.get(key)
        if offset is None:
            return None
        with self.path.open("rb") as handle:
            handle.seek(offset)
            record = json.loads(handle.readline())
        return record if isinstance(record, dict) else None

    def _append(self, key: str, record: dict[str, object]) -> None:
        """Append one record, flushed, and index its offset."""
        line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        with self.path.open("ab") as handle:
            offset = handle.seek(0, os.SEEK_END)
            handle.write(line)
            handle.flush()
        self._index[key] = offset

    def __len__(self) -> int:
        return len(self._index)

    def key_for(self, job: Job, salt: str = "") -> str:
        """Cache key of one job under this cache's salt."""
        return cache_key(
            job.experiment,
            job.point,
            job.seed,
            replicate=job.replicate,
            salt=salt or self.salt,
            fn=job.fn,
        )

    def replica_key(
        self, job: BatchJob, replicate: int, seed: int, salt: str = ""
    ) -> str:
        """Cache key of one *replica* of a batch job.

        Keyed exactly like a scalar job — per (point, replicate, seed) —
        so batch results resume at replica granularity: re-chunking the
        same sweep with a different ``replicas_per_batch`` still hits
        every replica that ever completed.
        """
        return cache_key(
            job.experiment,
            job.point,
            seed,
            replicate=replicate,
            salt=salt or self.salt,
            fn=job.fn,
        )

    def get(self, job: Job, salt: str = "") -> RunResult | None:
        """Cached result for ``job``, or ``None`` on a miss."""
        record = self._fetch(self.key_for(job, salt))
        if record is None or "result" not in record:
            return None
        return self._decode_result(record["result"])

    def put(self, job: Job, result: RunResult, salt: str = "") -> None:
        """Persist one result; flushed immediately so interrupts lose at
        most the task in flight."""
        key = self.key_for(job, salt)
        self._append(
            key,
            {
                "key": key,
                "experiment": job.experiment,
                "fn": fn_fingerprint(job.fn),
                "point": repr(job.point),
                "replicate": job.replicate,
                "seed": job.seed,
                "result": self._encode_result(result),
            },
        )

    def get_summary(
        self, job: BatchJob, replicate: int, seed: int, salt: str = ""
    ) -> ReplicaSummary | None:
        """Cached summary of one batch replica, or ``None`` on a miss."""
        record = self._fetch(self.replica_key(job, replicate, seed, salt))
        if record is None or "summary" not in record:
            return None
        return ReplicaSummary.from_row(record["summary"])  # type: ignore[arg-type]

    def put_summary(
        self, job: BatchJob, summary: ReplicaSummary, salt: str = ""
    ) -> None:
        """Persist one batch replica's summary (keyed per replicate)."""
        key = self.replica_key(job, summary.replicate, summary.seed, salt)
        self._append(
            key,
            {
                "key": key,
                "experiment": job.experiment,
                "fn": fn_fingerprint(job.fn),
                "point": repr(job.point),
                "replicate": summary.replicate,
                "seed": summary.seed,
                "summary": summary.to_row(),
            },
        )

    @staticmethod
    def _encode_result(result: RunResult) -> dict[str, object]:
        return {
            "n": result.n,
            "k": result.k,
            "completion_time": result.completion_time,
            "client_completions": {
                str(c): t for c, t in result.client_completions.items()
            },
            "meta": _jsonable(result.meta),
        }

    @staticmethod
    def _decode_result(payload: dict[str, object]) -> RunResult:
        completions = {
            int(c): int(t)
            for c, t in payload.get("client_completions", {}).items()  # type: ignore[union-attr]
        }
        completion_time = payload.get("completion_time")
        return RunResult(
            n=int(payload["n"]),  # type: ignore[arg-type]
            k=int(payload["k"]),  # type: ignore[arg-type]
            completion_time=int(completion_time) if completion_time is not None else None,
            client_completions=completions,
            log=TransferLog(),
            meta=dict(payload.get("meta") or {}),  # type: ignore[arg-type]
        )
