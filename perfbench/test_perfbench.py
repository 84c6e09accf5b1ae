"""Tests of the benchmark's own arithmetic.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perfbench.checks import verify_run  # noqa: E402
from perfbench.stats import Tally, rank_percentile, timing_report  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from repro.core.log import RunResult, TransferLog  # noqa: E402
from repro.core.mechanisms import StrictBarter  # noqa: E402


class FakeClock:
    """A clock that reads whatever the test last set."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_subtracts_every_direct_child():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.begin("step")            # t=0
    clock.now = 10
    tracer.begin("run_tick")        # 10..40
    clock.now = 15
    tracer.begin("attempt")         # 15..25, nested one level deeper
    clock.now = 25
    tracer.end()
    clock.now = 40
    tracer.end()
    clock.now = 50
    tracer.begin("begin_tick")      # 50..60
    clock.now = 60
    tracer.end()
    clock.now = 100
    tracer.end()
    assert tracer.total_ns["step"] == 100
    assert tracer.self_ns["step"] == 100 - 30 - 10
    assert tracer.self_ns["run_tick"] == 30 - 10
    assert tracer.self_ns["attempt"] == 10
    # kept spans name their parent
    spans = {name: (span_id, parent) for _, span_id, parent, name, *_ in tracer.spans}
    assert spans["attempt"][1] == spans["run_tick"][0]
    assert spans["run_tick"][1] == spans["step"][0]
    assert spans["step"][1] == 0


def test_self_time_accumulates_over_calls_and_wrap_counts_results():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def work(x):
        clock.now += x
        return x > 1

    def note(args, result):
        tracer.counters["true"] += result

    traced = tracer.wrap(work, "work", sample=True, after=note)
    with tracer.span("outer"):
        traced(1)
        traced(2)
        clock.now += 4
    assert tracer.calls["work"] == 2
    assert tracer.samples["work"] == [1, 2]
    assert tracer.self_ns["outer"] == 4
    assert tracer.counters["true"] == 1


def test_rank_percentile_counts_samples_beyond():
    values = list(range(1, 101))
    assert rank_percentile(values, 50) == (50, 50)
    assert rank_percentile(values, 90) == (90, 10)
    assert rank_percentile(values, 99) == (99, 1)


def test_timing_report_picks_highest_percentile_with_ten_beyond():
    report = timing_report([float(v) for v in range(1, 101)])
    assert report["median"] == 50.5
    assert report["count"] == 100
    assert (report["tail"], report["tail_value"]) == ("p90", 90.0)
    big = timing_report([float(v) for v in range(1, 1001)])
    assert (big["tail"], big["tail_value"]) == ("p99", 990.0)


def test_timing_report_with_few_samples_has_no_tail():
    report = timing_report([3.0, 1.0, 2.0])
    assert report == {"median": 2.0, "count": 3}


def test_abort_is_not_a_failure_but_a_verification_error_is():
    tally = Tally()
    tally.add("clean")
    tally.add("aborted", abort="max-ticks")
    tally.add("bad", errors=["verify_log: causality"])
    tally.add("bad-and-aborted", errors=["T below bound"], abort="stall")
    tally.add("defect", defect="exchange/adversary/strict-barter")
    assert tally.attempted == 5
    assert tally.failed == 2
    assert tally.failed_frac == 2 / 5
    assert tally.aborted == 2
    assert tally.known_defects == {"exchange/adversary/strict-barter": 1}
    assert tally.errors == [
        "bad: verify_log: causality",
        "bad-and-aborted: T below bound",
    ]


def _one_sided_swap() -> RunResult:
    """Two clients where 1 sends to 2 but 2 sends nothing back."""
    log = TransferLog()
    log.record(1, 0, 1, 0)
    log.record(2, 1, 2, 0)
    return RunResult(n=3, k=1, completion_time=None, client_completions={}, log=log)


def test_verification_error_is_reported():
    errors, defect = verify_run(_one_sided_swap(), mechanism=StrictBarter())
    assert defect is None
    assert len(errors) == 1 and "strict barter" in errors[0]


def test_known_defect_is_named_not_failed():
    errors, defect = verify_run(
        _one_sided_swap(), engine="exchange", scenario="adversary", mechanism=StrictBarter()
    )
    assert errors == []
    assert defect == "exchange/adversary/strict-barter"
