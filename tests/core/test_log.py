"""Tests for transfer logs and run results."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.core.log import STREAMS, RunResult, Transfer, TransferLog

from ..conftest import log_from


class TestTransferLog:
    def test_append_and_iterate(self):
        log = TransferLog()
        log.record(1, 0, 1, 0)
        log.record(2, 1, 2, 0)
        assert len(log) == 2
        assert log[0] == Transfer(1, 0, 1, 0)
        assert [t.tick for t in log] == [1, 2]

    def test_rejects_tick_zero(self):
        log = TransferLog()
        with pytest.raises(ConfigError):
            log.record(0, 0, 1, 0)

    def test_rejects_out_of_order(self):
        log = TransferLog()
        log.record(3, 0, 1, 0)
        with pytest.raises(ConfigError):
            log.record(2, 0, 1, 1)

    def test_out_of_order_message_names_both_ticks(self):
        # The error must say what order was violated, with both ticks, so
        # an engine bug is locatable from the message alone.
        log = TransferLog()
        log.record(5, 0, 1, 0)
        with pytest.raises(ConfigError, match=r"tick order.*4.*after.*5"):
            log.append(Transfer(4, 0, 1, 1))

    def test_out_of_order_via_constructor(self):
        with pytest.raises(ConfigError, match="tick order"):
            TransferLog([Transfer(2, 0, 1, 0), Transfer(1, 0, 1, 1)])

    def test_same_tick_allowed(self):
        log = TransferLog()
        log.record(1, 0, 1, 0)
        log.record(1, 0, 2, 0)
        assert log.last_tick == 1

    def test_by_tick_groups(self):
        log = log_from([(1, 0, 1, 0), (1, 0, 2, 0), (3, 1, 2, 0)])
        grouped = log.by_tick()
        assert set(grouped) == {1, 3}
        assert len(grouped[1]) == 2

    def test_uploads_per_tick_includes_idle(self):
        log = log_from([(1, 0, 1, 0), (3, 1, 2, 0)])
        assert log.uploads_per_tick() == [1, 0, 1]

    def test_completion_ticks(self):
        # n=3, k=2: client 1 completes at tick 3, client 2 at tick 4.
        log = log_from(
            [(1, 0, 1, 0), (2, 0, 2, 1), (3, 2, 1, 1), (3, 1, 2, 0)]
        )
        done = log.completion_ticks(3, 2)
        assert done == {1: 3, 2: 3}

    def test_completion_ignores_redundant(self):
        log = log_from([(1, 0, 1, 0), (2, 0, 1, 0)])
        assert log.completion_ticks(2, 1) == {1: 1}

    def test_completion_rejects_bad_destination(self):
        log = log_from([(1, 0, 9, 0)])
        with pytest.raises(ConfigError):
            log.completion_ticks(3, 1)

    def test_final_masks(self):
        log = log_from([(1, 0, 1, 0), (2, 1, 2, 0)])
        masks = log.final_masks(3, 2)
        assert masks[0] == 0b11  # server complete from the start
        assert masks[1] == 0b01
        assert masks[2] == 0b01


# Per stream: its row writer and its Transfer view.
WRITERS = {
    "transfers": ("record", lambda log: list(log)),
    "failures": ("record_failure", lambda log: list(log.failures)),
    "polluted": ("record_polluted", lambda log: list(log.polluted)),
    "phantoms": ("record_phantom", lambda log: list(log.phantoms)),
}
NOUNS = {
    "transfers": "transfers",
    "failures": "failures",
    "polluted": "polluted rows",
    "phantoms": "phantom rows",
}


@pytest.mark.parametrize("stream", STREAMS)
class TestEveryStream:
    def write(self, log, stream, *row):
        getattr(log, WRITERS[stream][0])(*row)

    def view(self, log, stream):
        return WRITERS[stream][1](log)

    def test_rejects_tick_zero(self, stream):
        # The "current tick" of an empty stream must never equal a real
        # tick, 0 included, or the first row would skip the check.
        log = TransferLog()
        with pytest.raises(ConfigError, match="1-based, got 0"):
            self.write(log, stream, 0, 0, 1, 0)
        with pytest.raises(ConfigError, match="1-based, got 0"):
            log.extend_batch(**{stream: [(0, 0, 1, 0)]})
        assert self.view(log, stream) == []

    def test_out_of_order_names_both_ticks(self, stream):
        log = TransferLog()
        self.write(log, stream, 5, 0, 1, 0)
        message = rf"{NOUNS[stream]} must be appended in tick order \(4 after 5\)"
        with pytest.raises(ConfigError, match=message):
            self.write(log, stream, 4, 0, 1, 1)
        with pytest.raises(ConfigError, match=message):
            log.extend_batch(**{stream: [(5, 0, 2, 0), (4, 0, 1, 1)]})
        with pytest.raises(ConfigError, match=message):
            TransferLog(**{stream: [Transfer(5, 0, 1, 0), Transfer(4, 0, 1, 1)]})
        # A rejected batch leaves the stream as it was.
        assert self.view(log, stream) == [Transfer(5, 0, 1, 0)]
        assert log.runs(stream) == [(5, 0, 1)]

    def test_negative_indexing(self, stream):
        log = TransferLog()
        for row in [(1, 0, 1, 0), (1, 0, 2, 1), (3, 1, 2, 0)]:
            self.write(log, stream, *row)
        rows = self.view(log, stream)
        assert rows[-1] == Transfer(3, 1, 2, 0)
        assert rows[-3] == Transfer(1, 0, 1, 0)
        if stream == "transfers":
            assert log[-1] == Transfer(3, 1, 2, 0)
            assert log[-2:] == [Transfer(1, 0, 2, 1), Transfer(3, 1, 2, 0)]
            with pytest.raises(IndexError):
                log[-4]

    def test_pickle_round_trip(self, stream):
        # ParallelExecutor pickles results together with their logs.
        log = TransferLog()
        for row in [(1, 0, 1, 0), (2, 1, 2, 0), (2, 0, 2, 1)]:
            self.write(log, stream, *row)
        back = pickle.loads(pickle.dumps(log))
        assert self.view(back, stream) == self.view(log, stream)
        assert back.runs(stream) == log.runs(stream) == [(1, 0, 1), (2, 1, 3)]
        # The copy stays writable and keeps its tick-order state.
        self.write(back, stream, 2, 1, 3, 1)
        with pytest.raises(ConfigError, match="tick order"):
            self.write(back, stream, 1, 0, 3, 0)
        assert len(self.view(back, stream)) == 4
        assert len(self.view(log, stream)) == 3

    def test_values_outside_int32_name_stream_and_row(self, stream):
        log = TransferLog()
        self.write(log, stream, 1, 0, 1, 0)
        with pytest.raises(ConfigError, match=rf"{stream} row 1 \[2, 0, 2147483648, 0\]: .*int32"):
            self.write(log, stream, 2, 0, 2**31, 0)
        # In a batch, the row is named by its index in the stream.
        message = rf"{stream} row 2 \[2, 0, 2147483648, 0\]: .*int32"
        with pytest.raises(ConfigError, match=message):
            log.extend_batch(**{stream: [(1, 0, 2, 0), (2, 0, 2**31, 0)]})
        with pytest.raises(ConfigError, match=message):
            log.extend_batch(**{stream: np.array([(1, 0, 2, 0), (2, 0, 2**31, 0)])})
        # Nothing of a rejected row or batch is kept.
        assert self.view(log, stream) == [Transfer(1, 0, 1, 0)]
        assert [len(col) for col in log.columns(stream)] == [1, 1, 1, 1]
        self.write(log, stream, 2, 0, 2, 0)
        assert log.runs(stream) == [(1, 0, 1), (2, 1, 2)]

    def test_batches_match_row_by_row(self, stream):
        rows = [(1, 0, 1, 0), (1, 0, 2, 1), (3, 1, 2, 0), (4, 2, 1, 1), (4, 0, 3, 0)]
        one = TransferLog()
        for row in rows:
            self.write(one, stream, *row)
        lists = TransferLog()
        lists.extend_batch(**{stream: rows[:2]})
        lists.extend_batch(**{stream: rows[2:]})
        arrays = TransferLog()
        arrays.extend_batch(**{stream: np.array(rows[:3])})
        arrays.extend_batch(**{stream: np.array(rows[3:], dtype=np.int32)})
        for log in (lists, arrays):
            assert self.view(log, stream) == self.view(one, stream)
            assert log.runs(stream) == one.runs(stream) == [
                (1, 0, 2), (3, 2, 3), (4, 3, 5)
            ]
            assert log.rows(stream) == [list(row) for row in rows]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 6),
    k=st.integers(1, 4),
    rows=st.lists(
        st.tuples(st.integers(1, 9), st.integers(0, 5), st.integers(0, 5), st.integers(0, 3)),
        max_size=40,
    ),
)
def test_completion_ticks_match_row_by_row_replay(n, k, rows):
    # The vectorized reading must equal the definition — replay rows in
    # order, skip redundant ones — including completion order; a row out
    # of range is an error.
    rows = sorted(rows, key=lambda row: row[0])
    log = TransferLog()
    log.extend_batch(rows)
    if any(not (0 <= dst < n and 0 <= block < k) for _, _, dst, block in rows):
        with pytest.raises(ConfigError, match="outside"):
            log.completion_ticks(n, k)
        return
    held = [0] * n
    expected: dict[int, int] = {}
    for tick, _, dst, block in rows:
        if held[dst] >> block & 1:
            continue
        held[dst] |= 1 << block
        if held[dst] == (1 << k) - 1 and dst != 0:
            expected[dst] = tick
    assert list(log.completion_ticks(n, k).items()) == list(expected.items())


class TestColumns:
    def test_columns_are_int32_arrays(self):
        log = log_from([(1, 0, 1, 0), (2, 1, 2, 0)])
        ticks, srcs, dsts, blocks = log.columns()
        assert ticks.typecode == srcs.typecode == "i" and ticks.itemsize == 4
        assert list(ticks) == [1, 2] and list(dsts) == [1, 2]

    def test_unknown_stream(self):
        with pytest.raises(ConfigError, match="unknown log stream"):
            TransferLog().columns("deliveries")

    def test_empty_logs_share_nothing_mutable(self):
        a, b = TransferLog(), TransferLog()
        a.record(1, 0, 1, 0)
        a.record_phantom(1, 0, 1, 0)
        assert len(b) == 0 and b.phantom_count == 0 and b.last_attempt_tick == 0

    def test_bad_batch_shapes(self):
        log = TransferLog()
        with pytest.raises(ConfigError, match=r"\(tick, src, dst, block\)"):
            log.extend_batch([(1, 0, 1)])
        with pytest.raises(ConfigError, match="integer array"):
            log.extend_batch(np.zeros((2, 4), dtype=float))
        with pytest.raises(ConfigError, match="int32"):
            log.record(1, 0, 1.5, 0)
        assert len(log) == 0


class TestRunResult:
    def test_from_log_complete(self):
        log = log_from([(1, 0, 1, 0), (2, 0, 2, 0)])
        r = RunResult.from_log(3, 1, log)
        assert r.completed
        assert r.completion_time == 2
        assert r.client_completions == {1: 1, 2: 2}
        assert r.mean_completion == 1.5

    def test_from_log_incomplete(self):
        log = log_from([(1, 0, 1, 0)])
        r = RunResult.from_log(3, 1, log)
        assert not r.completed
        assert r.completion_time is None
        assert r.mean_completion is None

    def test_meta_preserved(self):
        r = RunResult.from_log(2, 1, log_from([(1, 0, 1, 0)]), {"algorithm": "x"})
        assert r.meta["algorithm"] == "x"
