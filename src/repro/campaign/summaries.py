"""Compact per-replica run summaries and their columnar batch container.

The batched campaign path (:class:`~repro.campaign.factories.BatchEngineRun`
executing a :class:`~repro.sim.array.montecarlo.BatchRunner` inside one
worker) must ship results back to the coordinator without pickling
:class:`~repro.core.log.TransferLog` objects — at Monte Carlo scale the
logs dwarf everything else and no sweep aggregate needs them. A
:class:`ReplicaSummary` is the per-replica record that *is* needed:
completion tick, per-client completion ticks, the abort verdict, the run
metadata (which carries every open-system/resilience series the analysis
readers consume), and a ``holdings_digest`` — a canonical SHA-256 over
the per-node ownership bitmasks that lets tests prove a batched replica
ends bit-identical to the scalar run on the same seed without shipping
the ownership tensor anywhere.

:class:`SummaryBatch` holds one batch's summaries column-wise (numeric
columns as numpy arrays, ragged columns as lists) and serialises to a
single JSON document — the on-disk **columnar format** batch checkpoints
use (see ``JobCheckpoint.progress``), and the compact payload workers
return through the process pool.

Summaries deliberately retain ``client_completions`` and the full
``meta`` dict: :func:`repro.analysis.opensys.sojourn_times` reads both,
and :mod:`repro.analysis.resilience` reads per-tick series out of
``meta`` — the only thing a summary drops relative to a
:class:`~repro.core.log.RunResult` is the transfer log, mirroring what
the JSONL result cache already persists.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..core.log import RunResult, TransferLog

__all__ = [
    "ReplicaSummary",
    "SummaryBatch",
    "holdings_digest",
    "masks_from_words",
    "summarize_result",
]

#: Format tag of the serialised columnar document.
FORMAT = "repro/summary-batch/v1"


def masks_from_words(words: np.ndarray) -> list[int]:
    """Per-node ownership bitmasks from an ``(n, w)`` packed word array.

    Produces exactly the integers :class:`~repro.core.state.SwarmState`
    keeps in ``state.masks``, so digests computed from either side agree.
    """
    src = words if sys.byteorder == "little" else words.astype("<u8")
    raw = np.ascontiguousarray(src)
    return [int.from_bytes(row.tobytes(), "little") for row in raw]


def holdings_digest(masks: Iterable[int]) -> str:
    """Canonical SHA-256 of per-node ownership bitmasks.

    The digest is over the decimal masks joined by commas, node-major —
    a representation both the scalar and array backends can produce
    without knowing about each other's memory layout.
    """
    payload = ",".join(str(int(m)) for m in masks)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


@dataclass(slots=True)
class ReplicaSummary:
    """One replica's compact result: everything but the transfer log.

    ``replicate`` is positional within the producing batch; the executor
    relabels it to the campaign-global replicate index when it merges
    batches (see ``Executor``). ``holdings_digest`` is ``None`` when the
    producing factory has no access to final per-node holdings (e.g. the
    generic :class:`~repro.campaign.factories.BatchedRuns` adapter).
    """

    replicate: int
    seed: int
    n: int
    k: int
    completion_time: int | None
    client_completions: dict[int, int]
    abort: str | None = None
    holdings_digest: str | None = None
    resumed_from_tick: int | None = None
    meta: dict[str, object] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        """True when every client finished."""
        return self.completion_time is not None

    @property
    def mean_completion(self) -> float | None:
        """Mean individual completion tick, or ``None`` if any client is
        unfinished — same contract as :class:`RunResult`."""
        if len(self.client_completions) != self.n - 1:
            return None
        return sum(self.client_completions.values()) / (self.n - 1)

    def as_result(self) -> RunResult:
        """Rehydrate a :class:`RunResult` (with an empty transfer log).

        The meta dict rides along unchanged, so every analysis reader
        that works on cached results — sojourn times, swarm-size series,
        failed-transfer counts — works on summaries too.
        """
        return RunResult(
            n=self.n,
            k=self.k,
            completion_time=self.completion_time,
            client_completions=dict(self.client_completions),
            log=TransferLog(),
            meta=dict(self.meta),
        )

    def to_row(self) -> dict[str, object]:
        """JSON-ready row (the result cache's summary payload)."""
        return {
            "replicate": self.replicate,
            "seed": self.seed,
            "n": self.n,
            "k": self.k,
            "completion_time": self.completion_time,
            "client_completions": {
                str(c): t for c, t in self.client_completions.items()
            },
            "abort": self.abort,
            "holdings_digest": self.holdings_digest,
            "resumed_from_tick": self.resumed_from_tick,
            "meta": _jsonable(self.meta),
        }

    @classmethod
    def from_row(cls, row: dict[str, object]) -> "ReplicaSummary":
        completion_time = row.get("completion_time")
        resumed = row.get("resumed_from_tick")
        abort = row.get("abort")
        digest = row.get("holdings_digest")
        return cls(
            replicate=int(row["replicate"]),  # type: ignore[arg-type]
            seed=int(row["seed"]),  # type: ignore[arg-type]
            n=int(row["n"]),  # type: ignore[arg-type]
            k=int(row["k"]),  # type: ignore[arg-type]
            completion_time=(
                int(completion_time) if completion_time is not None else None  # type: ignore[arg-type]
            ),
            client_completions={
                int(c): int(t)  # type: ignore[arg-type]
                for c, t in (row.get("client_completions") or {}).items()  # type: ignore[union-attr]
            },
            abort=str(abort) if abort is not None else None,
            holdings_digest=str(digest) if digest is not None else None,
            resumed_from_tick=int(resumed) if resumed is not None else None,  # type: ignore[arg-type]
            meta=dict(row.get("meta") or {}),  # type: ignore[arg-type]
        )


def summarize_result(
    result: RunResult,
    *,
    replicate: int,
    seed: int,
    masks: Iterable[int] | None = None,
) -> ReplicaSummary:
    """Summarise one :class:`RunResult` (optionally with final holdings)."""
    resumed = result.meta.get("resumed_from_tick")
    return ReplicaSummary(
        replicate=replicate,
        seed=seed,
        n=result.n,
        k=result.k,
        completion_time=result.completion_time,
        client_completions=dict(result.client_completions),
        abort=result.abort,
        holdings_digest=holdings_digest(masks) if masks is not None else None,
        resumed_from_tick=int(resumed) if resumed is not None else None,
        meta=dict(result.meta),
    )


class SummaryBatch:
    """Column-wise container for one batch's replica summaries.

    Numeric per-replica columns (``replicates``, ``seeds``,
    ``completion_times``) are numpy arrays; ragged columns (client
    completions, aborts, digests, meta) are per-replica lists. ``meta``
    on the batch itself carries batch-level bookkeeping — how many
    replicas were recovered from a batch checkpoint
    (``resumed_replicas``) and the kernel tick an in-flight replica
    resumed from (``resumed_from_tick``).
    """

    __slots__ = (
        "n",
        "k",
        "replicates",
        "seeds",
        "completion_times",
        "_client_completions",
        "_aborts",
        "_digests",
        "_resumed",
        "_metas",
        "meta",
    )

    def __init__(
        self,
        n: int,
        k: int,
        *,
        replicates: Sequence[int],
        seeds: Sequence[int],
        completion_times: Sequence[int | None],
        client_completions: Sequence[dict[int, int]],
        aborts: Sequence[str | None],
        digests: Sequence[str | None],
        resumed: Sequence[int | None],
        metas: Sequence[dict[str, object]],
        meta: dict[str, object] | None = None,
    ) -> None:
        size = len(replicates)
        for name, col in (
            ("seeds", seeds),
            ("completion_times", completion_times),
            ("client_completions", client_completions),
            ("aborts", aborts),
            ("digests", digests),
            ("resumed", resumed),
            ("metas", metas),
        ):
            if len(col) != size:
                raise ValueError(
                    f"column {name!r} has {len(col)} entries, expected {size}"
                )
        self.n = n
        self.k = k
        self.replicates = np.asarray(replicates, dtype=np.int64)
        self.seeds = np.asarray(seeds, dtype=np.int64)
        self.completion_times = np.asarray(
            [np.nan if t is None else float(t) for t in completion_times],
            dtype=np.float64,
        )
        self._client_completions = [dict(c) for c in client_completions]
        self._aborts = list(aborts)
        self._digests = list(digests)
        self._resumed = list(resumed)
        self._metas = [dict(m) for m in metas]
        self.meta: dict[str, object] = dict(meta or {})

    @classmethod
    def from_summaries(
        cls,
        summaries: Sequence[ReplicaSummary],
        *,
        n: int | None = None,
        k: int | None = None,
        meta: dict[str, object] | None = None,
    ) -> "SummaryBatch":
        """Stack summaries column-wise (``n``/``k`` required when empty)."""
        if summaries:
            n = summaries[0].n if n is None else n
            k = summaries[0].k if k is None else k
        if n is None or k is None:
            raise ValueError("an empty SummaryBatch needs explicit n and k")
        return cls(
            n,
            k,
            replicates=[s.replicate for s in summaries],
            seeds=[s.seed for s in summaries],
            completion_times=[s.completion_time for s in summaries],
            client_completions=[s.client_completions for s in summaries],
            aborts=[s.abort for s in summaries],
            digests=[s.holdings_digest for s in summaries],
            resumed=[s.resumed_from_tick for s in summaries],
            metas=[s.meta for s in summaries],
            meta=meta,
        )

    def __len__(self) -> int:
        return int(self.replicates.size)

    def __getitem__(self, i: int) -> ReplicaSummary:
        t = self.completion_times[i]
        return ReplicaSummary(
            replicate=int(self.replicates[i]),
            seed=int(self.seeds[i]),
            n=self.n,
            k=self.k,
            completion_time=None if np.isnan(t) else int(t),
            client_completions=dict(self._client_completions[i]),
            abort=self._aborts[i],
            holdings_digest=self._digests[i],
            resumed_from_tick=self._resumed[i],
            meta=dict(self._metas[i]),
        )

    def __iter__(self) -> Iterator[ReplicaSummary]:
        for i in range(len(self)):
            yield self[i]

    @property
    def completed(self) -> np.ndarray:
        """Per-replica completion mask, ``(S,)`` bool."""
        return ~np.isnan(self.completion_times)

    def summaries(self) -> list[ReplicaSummary]:
        """Materialise the rows (row-wise view of the columns)."""
        return list(self)

    def to_doc(self) -> dict[str, object]:
        """The columnar JSON document (one object, columns as arrays)."""
        times = [
            None if np.isnan(t) else int(t) for t in self.completion_times
        ]
        return {
            "format": FORMAT,
            "n": self.n,
            "k": self.k,
            "columns": {
                "replicates": [int(r) for r in self.replicates],
                "seeds": [int(s) for s in self.seeds],
                "completion_times": times,
                "client_completions": [
                    {str(c): t for c, t in d.items()}
                    for d in self._client_completions
                ],
                "aborts": list(self._aborts),
                "holdings_digests": list(self._digests),
                "resumed_from_ticks": list(self._resumed),
                "metas": [_jsonable(m) for m in self._metas],
            },
            "meta": _jsonable(self.meta),
        }

    @classmethod
    def from_doc(cls, doc: dict[str, object]) -> "SummaryBatch":
        if doc.get("format") != FORMAT:
            raise ValueError(
                f"not a {FORMAT} document (format={doc.get('format')!r})"
            )
        cols: dict[str, list] = doc["columns"]  # type: ignore[assignment]
        return cls(
            int(doc["n"]),  # type: ignore[arg-type]
            int(doc["k"]),  # type: ignore[arg-type]
            replicates=[int(r) for r in cols["replicates"]],
            seeds=[int(s) for s in cols["seeds"]],
            completion_times=[
                None if t is None else int(t)
                for t in cols["completion_times"]
            ],
            client_completions=[
                {int(c): int(t) for c, t in d.items()}
                for d in cols["client_completions"]
            ],
            aborts=[None if a is None else str(a) for a in cols["aborts"]],
            digests=[
                None if d is None else str(d)
                for d in cols["holdings_digests"]
            ],
            resumed=[
                None if r is None else int(r)
                for r in cols["resumed_from_ticks"]
            ],
            metas=[dict(m) for m in cols["metas"]],
            meta=dict(doc.get("meta") or {}),  # type: ignore[arg-type]
        )

    def save(self, path: str) -> None:
        """Atomically write the columnar document to ``path``."""
        # Encoded in one ``dumps`` (the C encoder; ``json.dump`` streams
        # through the pure-Python one) and written at once.
        text = json.dumps(self.to_doc(), sort_keys=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "SummaryBatch":
        with open(path, encoding="utf-8") as handle:
            return cls.from_doc(json.load(handle))


def _jsonable(value: object) -> object:
    """Round-trip a value through JSON, stringifying what doesn't fit."""
    return json.loads(json.dumps(value, default=repr))
