"""Transfer logs: the ground-truth record of what a run did.

Every engine in this library — deterministic schedule executors and the
randomized simulators alike — emits a :class:`TransferLog`: the list of
``(tick, src, dst, block)`` transfers that actually happened. The log is
what the independent verifier checks, what completion times are computed
from, and what the efficiency analysis ("amortization") consumes.

Storage is columnar. Each stream keeps four ``array('i')`` columns —
tick, src, dst and block, 16 bytes a row — plus a run index of
``(tick, start)`` pairs, so the rows of one tick are one contiguous
slice. Tick order (ticks >= 1, non-decreasing) is checked once per new
tick, not once per row, and every value must fit a signed 32-bit int
(a row that does not raises :class:`~repro.core.errors.ConfigError`
naming the stream and the row). Iteration, indexing and the stream
properties build :class:`Transfer` records on demand; readers that walk
a whole log (the verifier, serde, checkpoints, the telemetry digest)
read :meth:`TransferLog.columns` and :meth:`TransferLog.runs` directly
and never build one.

Failed transfers (:mod:`repro.faults`) are first-class records: a failed
send consumed the tick's upload and download bandwidth — and, under a
barter mechanism, credit — but delivered nothing. They are kept in a
separate stream (``failures``) so every historical accessor
(``by_tick``, ``uploads_per_tick``, ``completion_ticks`` ...) still
describes *delivered* blocks only and fault-free logs are bit-identical
to what they always were.

Adversarial deliveries (:mod:`repro.adversary`) follow the same design
with two more streams: ``polluted`` records corrupted blocks the
receiver's integrity check rejected, ``phantoms`` records advertised
blocks a liar never actually sent. Both consumed the attempt's bandwidth
(and credit) like a failure, both deliver nothing, and neither ever
counts toward completion — which the independent verifier re-checks.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, NoReturn

import numpy as np

from .errors import ConfigError
from .model import SERVER

__all__ = ["Transfer", "TransferLog", "RunResult", "STREAMS"]

#: Stream names, in the order the verifier replays them.
STREAMS = ("transfers", "failures", "polluted", "phantoms")

_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1
assert array("i").itemsize == 4, "array('i') must hold 32-bit ints"


class Transfer(NamedTuple):
    """One block moving from ``src`` to ``dst`` during ``tick`` (1-based)."""

    tick: int
    src: int
    dst: int
    block: int


#: Row tuple -> Transfer, entirely in C (``Transfer._make`` runs Python).
_make = partial(tuple.__new__, Transfer)


class _Stream:
    """One append-only stream of rows: int32 columns plus a run index.

    ``run_tick[i]`` is the i-th distinct tick and ``run_start[i]`` the
    row where it begins; ``now`` is the tick of the last run (``None``
    while the stream is empty, so that no tick — 0 included — ever
    passes as "the current tick" unchecked). Each :class:`TransferLog`
    starts on a shared, frozen empty stream per kind; the first write
    returns a fresh stream that the log keeps, which is why the writers
    return the stream they wrote to.
    """

    __slots__ = (
        "name", "noun", "frozen",
        "tick", "src", "dst", "block", "run_tick", "run_start", "now",
    )

    def __init__(self, name: str, noun: str, frozen: bool = False) -> None:
        self.name = name
        self.noun = noun
        self.frozen = frozen
        self.tick = array("i")
        self.src = array("i")
        self.dst = array("i")
        self.block = array("i")
        self.run_tick = array("i")
        self.run_start = array("i")
        self.now: int | None = None

    def tuples(self) -> Iterator[tuple[int, int, int, int]]:
        return zip(self.tick, self.src, self.dst, self.block)

    def runs(self) -> list[tuple[int, int, int]]:
        stops = [*self.run_start[1:], len(self.block)]
        return list(zip(self.run_tick, self.run_start, stops))

    # -- writers (each returns the stream that now holds the rows) --------

    def add(self, tick: int, src: int, dst: int, block: int) -> "_Stream":
        if tick != self.now:
            return self._open(tick, src, dst, block)
        try:
            self.tick.append(tick)
            self.src.append(src)
            self.dst.append(dst)
            self.block.append(block)
        except (OverflowError, TypeError):
            # ``block`` is appended last, so its length is the row count
            # before this row: cut the other columns back to it.
            n = len(self.block)
            del self.tick[n:], self.src[n:], self.dst[n:]
            raise self._not_int32(n, (tick, src, dst, block)) from None
        return self

    def _open(self, tick: int, src: int, dst: int, block: int) -> "_Stream":
        """Add the first row of a new tick: the once-per-tick order check."""
        self._check_next(tick, self.now)
        stream = _Stream(self.name, self.noun) if self.frozen else self
        start = len(stream.block)
        previous = stream.now
        stream.now = tick
        try:
            stream.add(tick, src, dst, block)
        except ConfigError:
            stream.now = previous
            raise
        stream.run_tick.append(tick)
        stream.run_start.append(start)
        return stream

    def extend(self, rows) -> "_Stream":
        """Bulk-append rows — ``(tick, src, dst, block)`` sequences, or an
        ``(m, 4)`` integer ndarray — with the checks and errors appending
        them one by one would give."""
        new = self._columns(rows)
        if new is None:
            return self
        ticks = new[0]
        t = np.frombuffer(ticks, dtype=np.int32)
        if t[0] == t[-1] and (t == t[0]).all():  # one tick: a per-tick flush
            first = ticks[0]
            self._check_next(first, self.now)
            starts = [] if first == self.now else [0]
        else:
            starts = self._run_starts(t)
        del t
        stream = _Stream(self.name, self.noun) if self.frozen else self
        base = len(stream.block)
        for col, part in zip((stream.tick, stream.src, stream.dst, stream.block), new):
            col.extend(part)
        stream.run_tick.extend([ticks[i] for i in starts])
        stream.run_start.extend([base + i for i in starts])
        stream.now = ticks[-1]
        return stream

    def _columns(self, rows) -> list[array] | None:
        """``rows`` as four int32 columns (None when there are none)."""
        if isinstance(rows, np.ndarray):
            if rows.ndim != 2 or rows.shape[1] != 4 or rows.dtype.kind not in "iu":
                raise ConfigError(
                    f"{self.name} rows must be an (m, 4) integer array, got "
                    f"shape {rows.shape} of {rows.dtype}"
                )
            if not len(rows):
                return None
            if rows.min() < _INT32_MIN or rows.max() > _INT32_MAX:
                self._reject_first_bad(rows.tolist())
            cols = []
            for values in np.ascontiguousarray(rows.T, dtype=np.int32):
                col = array("i")
                col.frombytes(values.tobytes())
                cols.append(col)
            return cols
        rows = rows if isinstance(rows, list) else list(rows)
        if not rows:
            return None
        if set(map(len, rows)) != {4}:
            raise ConfigError(f"{self.name} rows must be (tick, src, dst, block)")
        try:
            return [array("i", values) for values in zip(*rows)]
        except (OverflowError, TypeError):
            self._reject_first_bad(rows)

    def _run_starts(self, t: np.ndarray) -> list[int]:
        """Offsets in the batch's tick column ``t`` where a new tick
        begins, after checking it exactly as row-by-row appends would."""
        prev = np.empty_like(t)
        prev[0] = t[0] if self.now is None else self.now
        prev[1:] = t[:-1]
        bad = np.flatnonzero((t < 1) | (t < prev))
        if bad.size:
            i = int(bad[0])
            self._check_next(int(t[i]), int(prev[i]))
        starts = np.flatnonzero(t != prev).tolist()
        return [0, *starts] if self.now is None else starts

    def _reject_first_bad(self, rows: list) -> NoReturn:
        """Raise the error of the first row of a batch that cannot be
        stored: append row by row until one fails, then undo the rest."""
        stream = _Stream(self.name, self.noun) if self.frozen else self
        n, runs, now = len(stream.block), len(stream.run_tick), stream.now
        try:
            for row in rows:
                stream = stream.add(*row)
        finally:
            for col in (stream.tick, stream.src, stream.dst, stream.block):
                del col[n:]
            del stream.run_tick[runs:], stream.run_start[runs:]
            stream.now = now
        raise AssertionError("a rejected batch had no bad row")  # pragma: no cover

    def _check_next(self, tick: int, last: int | None) -> None:
        if tick < 1:
            raise ConfigError(f"ticks are 1-based, got {tick}")
        if last is not None and tick < last:
            raise ConfigError(
                f"{self.noun} must be appended in tick order ({tick} after {last})"
            )

    def _not_int32(self, index: int, row: tuple) -> ConfigError:
        return ConfigError(
            f"{self.name} row {index} {list(row)}: every value must be an "
            f"integer in the int32 range {_INT32_MIN}..{_INT32_MAX}"
        )


_NO_TRANSFERS = _Stream("transfers", "transfers", frozen=True)
_NO_FAILURES = _Stream("failures", "failures", frozen=True)
_NO_POLLUTED = _Stream("polluted", "polluted rows", frozen=True)
_NO_PHANTOMS = _Stream("phantoms", "phantom rows", frozen=True)


class TransferLog:
    """An append-only, tick-ordered record of transfers.

    Transfers must be appended in non-decreasing tick order; engines are
    tick-synchronous so this is natural, and it lets each tick's rows be
    one slice of the columns. Successful deliveries, failed attempts,
    polluted deliveries and phantom deliveries form four streams with
    independent tick-order invariants, so a log can be rebuilt stream by
    stream (serde) as well as interleaved (engines).
    """

    __slots__ = ("_transfers", "_failures", "_polluted", "_phantoms")

    def __init__(
        self,
        transfers: Iterable[Transfer] = (),
        failures: Iterable[Transfer] = (),
        polluted: Iterable[Transfer] = (),
        phantoms: Iterable[Transfer] = (),
    ) -> None:
        # An empty log shares the frozen empty streams (cheap to build:
        # the result cache makes one per result it serves).
        self._transfers = _NO_TRANSFERS.extend(transfers) if transfers else _NO_TRANSFERS
        self._failures = _NO_FAILURES.extend(failures) if failures else _NO_FAILURES
        self._polluted = _NO_POLLUTED.extend(polluted) if polluted else _NO_POLLUTED
        self._phantoms = _NO_PHANTOMS.extend(phantoms) if phantoms else _NO_PHANTOMS

    # -- writers -------------------------------------------------------------

    def record(self, tick: int, src: int, dst: int, block: int) -> None:
        """Record one transfer; ticks must be non-decreasing and >= 1."""
        self._transfers = self._transfers.add(tick, src, dst, block)

    def append(self, transfer: Transfer) -> None:
        """Record one :class:`Transfer` (see :meth:`record`)."""
        self._transfers = self._transfers.add(*transfer)

    def record_failure(self, tick: int, src: int, dst: int, block: int) -> None:
        """Record one *failed* attempt; ticks must be non-decreasing.

        A failed attempt consumed upload/download bandwidth (and, under
        barter, credit) but delivered nothing; it never appears in
        delivery-side accessors such as :meth:`by_tick`.
        """
        self._failures = self._failures.add(tick, src, dst, block)

    def append_failure(self, transfer: Transfer) -> None:
        """Record one failed :class:`Transfer` (see :meth:`record_failure`)."""
        self._failures = self._failures.add(*transfer)

    def record_polluted(self, tick: int, src: int, dst: int, block: int) -> None:
        """Record one *polluted* delivery; ticks must be non-decreasing.

        A polluted delivery consumed upload/download bandwidth (and,
        under barter, credit) but the receiver's integrity check rejected
        the block; it never appears in delivery-side accessors and never
        counts toward completion.
        """
        self._polluted = self._polluted.add(tick, src, dst, block)

    def append_polluted(self, transfer: Transfer) -> None:
        """Record one polluted :class:`Transfer` (see :meth:`record_polluted`)."""
        self._polluted = self._polluted.add(*transfer)

    def record_phantom(self, tick: int, src: int, dst: int, block: int) -> None:
        """Record one *phantom* delivery; ticks must be non-decreasing.

        A phantom is a block the sender advertised but never sent (the
        liar behavior of :mod:`repro.adversary`): the requester's slot
        was wasted, nothing arrived.
        """
        self._phantoms = self._phantoms.add(tick, src, dst, block)

    def append_phantom(self, transfer: Transfer) -> None:
        """Record one phantom :class:`Transfer` (see :meth:`record_phantom`)."""
        self._phantoms = self._phantoms.add(*transfer)

    def extend_batch(
        self,
        transfers: Iterable[Sequence[int]] | np.ndarray = (),
        failures: Iterable[Sequence[int]] | np.ndarray = (),
        polluted: Iterable[Sequence[int]] | np.ndarray = (),
        phantoms: Iterable[Sequence[int]] | np.ndarray = (),
    ) -> None:
        """Bulk-append ``(tick, src, dst, block)`` rows to each stream.

        Each stream takes a sequence of rows or an ``(m, 4)`` integer
        ndarray (the vectorized engines' form: it converts to the int32
        columns without a Python loop). The columns are extended once
        per stream and tick order is checked over the whole batch at
        once; a batch fails with the same
        :class:`~repro.core.errors.ConfigError` its first bad row would
        raise appended on its own, and leaves the stream as it was.
        """
        self._transfers = self._transfers.extend(transfers)
        self._failures = self._failures.extend(failures)
        self._polluted = self._polluted.extend(polluted)
        self._phantoms = self._phantoms.extend(phantoms)

    # -- columnar readers ----------------------------------------------------

    def _stream(self, stream: str) -> _Stream:
        if stream not in STREAMS:
            raise ConfigError(f"unknown log stream {stream!r}; choose one of {STREAMS}")
        return getattr(self, "_" + stream)

    def columns(self, stream: str = "transfers") -> tuple[array, array, array, array]:
        """The ``(tick, src, dst, block)`` int32 columns of one stream.

        These are the log's own arrays, not copies: read them, never
        mutate them.
        """
        s = self._stream(stream)
        return s.tick, s.src, s.dst, s.block

    def runs(self, stream: str = "transfers") -> list[tuple[int, int, int]]:
        """``(tick, start, stop)`` for every tick with rows in ``stream``,
        ascending: that tick's rows are ``columns(stream)[...][start:stop]``."""
        return self._stream(stream).runs()

    def rows(self, stream: str = "transfers") -> list[list[int]]:
        """One stream as JSON-ready ``[tick, src, dst, block]`` lists."""
        return list(map(list, self._stream(stream).tuples()))

    # -- Transfer views --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._transfers.block)

    def __iter__(self) -> Iterator[Transfer]:
        return map(_make, self._transfers.tuples())

    def __getitem__(self, i):
        s = self._transfers
        if isinstance(i, slice):
            return list(map(_make, zip(s.tick[i], s.src[i], s.dst[i], s.block[i])))
        return Transfer(s.tick[i], s.src[i], s.dst[i], s.block[i])

    @property
    def last_tick(self) -> int:
        """The tick of the final transfer (0 for an empty log)."""
        return self._transfers.now or 0

    @property
    def failures(self) -> tuple[Transfer, ...]:
        """All failed attempts, in tick order."""
        return tuple(map(_make, self._failures.tuples()))

    @property
    def failed_count(self) -> int:
        """Number of failed attempts recorded."""
        return len(self._failures.block)

    @property
    def polluted(self) -> tuple[Transfer, ...]:
        """All polluted deliveries, in tick order."""
        return tuple(map(_make, self._polluted.tuples()))

    @property
    def polluted_count(self) -> int:
        """Number of polluted deliveries recorded."""
        return len(self._polluted.block)

    @property
    def phantoms(self) -> tuple[Transfer, ...]:
        """All phantom deliveries, in tick order."""
        return tuple(map(_make, self._phantoms.tuples()))

    @property
    def phantom_count(self) -> int:
        """Number of phantom deliveries recorded."""
        return len(self._phantoms.block)

    @property
    def attempted(self) -> int:
        """Total attempts: deliveries, failures, polluted and phantoms."""
        return (
            len(self._transfers.block)
            + len(self._failures.block)
            + len(self._polluted.block)
            + len(self._phantoms.block)
        )

    @property
    def last_attempt_tick(self) -> int:
        """Tick of the final attempt of any stream (0 if empty)."""
        return max(
            self._transfers.now or 0,
            self._failures.now or 0,
            self._polluted.now or 0,
            self._phantoms.now or 0,
        )

    def by_tick(self) -> dict[int, list[Transfer]]:
        """Group transfers per tick. Only ticks with activity appear."""
        return _grouped(self._transfers)

    def failures_by_tick(self) -> dict[int, list[Transfer]]:
        """Group failed attempts per tick. Only ticks with failures appear."""
        return _grouped(self._failures)

    def polluted_by_tick(self) -> dict[int, list[Transfer]]:
        """Group polluted deliveries per tick (active ticks only)."""
        return _grouped(self._polluted)

    def phantoms_by_tick(self) -> dict[int, list[Transfer]]:
        """Group phantom deliveries per tick (active ticks only)."""
        return _grouped(self._phantoms)

    # -- derived series ------------------------------------------------------

    def uploads_per_tick(self) -> list[int]:
        """Number of transfers in each tick ``1 .. last_tick``.

        This is the series behind the paper's "amortization" discussion:
        the fraction of nodes uploading in each tick.
        """
        counts = [0] * self.last_tick
        for tick, start, stop in self._transfers.runs():
            counts[tick - 1] = stop - start
        return counts

    def completion_ticks(self, n: int, k: int) -> dict[int, int]:
        """Tick at which each client first holds all ``k`` blocks.

        Returns a mapping from client id to completion tick, in completion
        order; clients that never complete are absent. The server (node 0)
        starts complete and is not included. A row whose destination or
        block is out of range raises :class:`ConfigError`.
        """
        s = self._transfers
        if not len(s.block):
            return {}
        dsts = np.array(s.dst, dtype=np.int32)
        blocks = np.array(s.block, dtype=np.int32)
        bad = np.flatnonzero((dsts < 0) | (dsts >= n))
        if bad.size:
            raise ConfigError(f"transfer destination {dsts[bad[0]]} outside 0..{n - 1}")
        bad = np.flatnonzero((blocks < 0) | (blocks >= k))
        if bad.size:
            raise ConfigError(f"transfer block {blocks[bad[0]]} outside 0..{k - 1}")
        # A client completes at the row where it first holds its k-th
        # distinct block: the latest first receipt among its blocks.
        keys = dsts.astype(np.int64) * k + blocks
        ordered = np.sort(keys)
        if (ordered[1:] != ordered[:-1]).all():
            first = np.arange(len(keys))  # no redundant row: all are first
        else:
            _, first = np.unique(keys, return_index=True)
        owners = dsts[first]
        last = np.zeros(n, dtype=np.int64)
        np.maximum.at(last, owners, first)
        complete = np.bincount(owners, minlength=n) == k
        complete[SERVER] = False
        rows = np.sort(last[complete]).tolist()  # completion order
        return {s.dst[row]: s.tick[row] for row in rows}

    def final_masks(self, n: int, k: int) -> list[int]:
        """Block bitmask of every node after the whole log is applied.

        The server starts with the complete file; clients start empty.
        """
        s = self._transfers
        held = [0] * n
        held[SERVER] = (1 << k) - 1
        for dst, block in zip(s.dst, s.block):
            held[dst] |= 1 << block
        return held


def _grouped(stream: _Stream) -> dict[int, list[Transfer]]:
    rows = list(map(_make, stream.tuples()))
    return {tick: rows[start:stop] for tick, start, stop in stream.runs()}


@dataclass(slots=True)
class RunResult:
    """Outcome of executing an algorithm on a swarm.

    Attributes
    ----------
    n, k:
        Swarm size (including the server) and number of file blocks.
    completion_time:
        Tick at which the last client completed, or ``None`` if the run
        ended without all clients holding the file.
    client_completions:
        Mapping of client id to its individual completion tick.
    log:
        The full transfer log of the run.
    meta:
        Free-form run metadata (algorithm name, seed, overlay, policy...).
    """

    n: int
    k: int
    completion_time: int | None
    client_completions: dict[int, int]
    log: TransferLog
    meta: dict[str, object] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        """True when every client finished."""
        return self.completion_time is not None

    @property
    def deadlocked(self) -> bool:
        """True when the run aborted on a *proven* permanent deadlock.

        Uniform across engines: randomized/churn runs set
        ``meta["deadlocked"]`` from their conclusive zero-transfer proof;
        engines that can only time out (exchange, triangular) leave it
        unset, which reads as False here. Analysis code should use this
        accessor rather than indexing ``meta`` directly.
        """
        return bool(self.meta.get("deadlocked", False))

    @property
    def abort(self) -> str | None:
        """Why the run stopped short, or ``None`` for a clean completion.

        One of ``"deadlock"`` (proven permanent stall), ``"stall"``
        (no progress for a recovery policy's window under stochastic
        faults — not provably permanent), or ``"max-ticks"`` (tick
        guard exhausted). Engines record it as ``meta["abort"]``;
        legacy results without the key fall back to the completion and
        deadlock flags.
        """
        reason = self.meta.get("abort")
        if reason is not None:
            return str(reason)
        if self.completed:
            return None
        return "deadlock" if self.deadlocked else "max-ticks"

    @property
    def mean_completion(self) -> float | None:
        """Mean individual completion tick over clients (paper's "average
        time for nodes to finish"), or ``None`` if any client is unfinished."""
        if len(self.client_completions) != self.n - 1:
            return None
        return sum(self.client_completions.values()) / (self.n - 1)

    @classmethod
    def from_log(
        cls, n: int, k: int, log: TransferLog, meta: dict[str, object] | None = None
    ) -> "RunResult":
        """Derive completion statistics from a finished log."""
        completions = log.completion_ticks(n, k)
        finished = len(completions) == n - 1
        return cls(
            n=n,
            k=k,
            completion_time=max(completions.values()) if finished and completions else
            (0 if finished else None),
            client_completions=completions,
            log=log,
            meta=dict(meta or {}),
        )
