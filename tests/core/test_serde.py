"""Tests for schedule/log serialization."""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import execute_schedule
from repro.core.errors import ConfigError
from repro.core.serde import (
    dump_schedule,
    load_schedule,
    log_from_dict,
    log_to_dict,
    result_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.core.verify import verify_log
from repro.schedules.hypercube import hypercube_schedule
from repro.schedules.riffle import riffle_pipeline_schedule


class TestScheduleRoundTrip:
    def test_round_trip_preserves_everything(self):
        original = hypercube_schedule(16, 8)
        restored = schedule_from_dict(schedule_to_dict(original))
        assert restored.n == original.n and restored.k == original.k
        assert sorted(restored) == sorted(original)
        assert restored.meta["algorithm"] == "hypercube"

    def test_round_trip_is_json_compatible(self):
        original = riffle_pipeline_schedule(9, 8)
        blob = json.dumps(schedule_to_dict(original))
        restored = schedule_from_dict(json.loads(blob))
        assert sorted(restored) == sorted(original)

    def test_restored_schedule_executes_identically(self):
        original = hypercube_schedule(13, 6)
        restored = schedule_from_dict(schedule_to_dict(original))
        r1 = execute_schedule(original)
        r2 = execute_schedule(restored)
        assert r1.completion_time == r2.completion_time
        verify_log(r2.log, 13, 6)

    def test_file_round_trip(self):
        original = hypercube_schedule(8, 4)
        buffer = io.StringIO()
        dump_schedule(original, buffer)
        buffer.seek(0)
        restored = load_schedule(buffer)
        assert sorted(restored) == sorted(original)

    def test_rejects_wrong_format(self):
        with pytest.raises(ConfigError):
            schedule_from_dict({"format": "something-else"})

    def test_rejects_corrupt_rows(self):
        data = schedule_to_dict(hypercube_schedule(8, 4))
        data["transfers"][0] = [1, 0, 99, 0]
        with pytest.raises(ConfigError):
            schedule_from_dict(data)
        data = schedule_to_dict(hypercube_schedule(8, 4))
        data["transfers"][0] = [0, 0, 1, 0]
        with pytest.raises(ConfigError):
            schedule_from_dict(data)
        data = schedule_to_dict(hypercube_schedule(8, 4))
        data["transfers"][0] = [1, 0, 1, 9]
        with pytest.raises(ConfigError):
            schedule_from_dict(data)

    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_round_trip(self, n, k):
        original = hypercube_schedule(n, k)
        restored = schedule_from_dict(
            json.loads(json.dumps(schedule_to_dict(original)))
        )
        assert sorted(restored) == sorted(original)


class TestLogAndResult:
    def test_log_round_trip(self):
        result = execute_schedule(hypercube_schedule(8, 4))
        log, n, k = log_from_dict(
            json.loads(json.dumps(log_to_dict(result.log, 8, 4)))
        )
        assert (n, k) == (8, 4)
        assert list(log) == list(result.log)
        verify_log(log, n, k)

    def test_log_rejects_wrong_format(self):
        with pytest.raises(ConfigError):
            log_from_dict({"format": "nope", "transfers": []})

    @pytest.mark.parametrize(
        "key, stream",
        [("transfers", "transfers"), ("failures", "failures"),
         ("polluted", "polluted"), ("phantom", "phantoms")],
    )
    @pytest.mark.parametrize("value", [2**31, -(2**31) - 1, 10**30])
    def test_log_rejects_values_outside_int32(self, key, stream, value):
        # External JSON can carry any integer; one that does not fit the
        # int32 columns is a ConfigError naming the stream and the row,
        # never a bare OverflowError.
        doc = {"format": "repro/log/v3", "n": 4, "k": 2, "transfers": []}
        doc[key] = [[1, 0, 1, 0], [2, 1, value, 1]]
        with pytest.raises(ConfigError, match=rf"{stream} row 1 \[2, 1, {value}, 1\]"):
            log_from_dict(doc)

    def test_log_keeps_tick_order_messages(self):
        doc = {"format": "repro/log/v2", "n": 4, "k": 2, "transfers": [],
               "failures": [[3, 0, 1, 0], [2, 0, 2, 0]]}
        with pytest.raises(ConfigError, match=r"failures must be appended in tick order \(2 after 3\)"):
            log_from_dict(doc)

    def test_result_to_dict_jsonable(self):
        result = execute_schedule(hypercube_schedule(8, 4))
        blob = json.dumps(result_to_dict(result))
        data = json.loads(blob)
        assert data["completion_time"] == result.completion_time
        assert data["meta"]["algorithm"] == "hypercube"
        assert len(data["log"]["transfers"]) == len(result.log)

    def test_meta_with_unjsonable_values_stringified(self):
        from repro.core.model import BandwidthModel

        result = execute_schedule(hypercube_schedule(8, 4), BandwidthModel())
        data = result_to_dict(result)
        assert isinstance(data["meta"]["model"], str)
