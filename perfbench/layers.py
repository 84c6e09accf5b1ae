"""Per-layer metrics derived from a traced run.

Counts are per iteration; ``*_us`` values are the mean per call; ``*_s``
values are seconds per iteration. A span's *self* time excludes the
spans opened inside it: ``sim.step_self_us`` is a tick minus the policy's
``run_tick``, ``SwarmState.begin_tick`` and the membership hooks;
``randomized.run_tick_self_us`` is ``run_tick`` minus ``attempt``, the
block policy's ``choose`` and the mechanism's ``allows``.
"""

from __future__ import annotations

import statistics
import tracemalloc

from perfbench.stats import rank_percentile, timing_report
from repro.sim import ENGINES

#: Metrics every workload measures; the traced run's result line carries
#: exactly these (BENCHMARK.json ``per_layer``). The report line carries
#: every other per-layer metric, or why it does not apply.
RESULT_METRICS = {
    "sim.step_us.p50": "us",
    "sim.step_us.p99": "us",
    "sim.step_self_us": "us",
    "sim.attempt_calls": "count",
    "sim.attempt_self_us": "us",
    "sim.build_us": "us",
    "randomized.run_tick_self_us": "us",
    "randomized.slot_yield": "ratio",
    "core.state.begin_tick_us": "us",
    "core.log.record_calls": "count",
    "core.log.record_self_us": "us",
    "core.log.bytes_per_row": "B",
    "core.verify.s": "s",
    "core.verify.rows_per_s": "1/s",
    "trace.overhead": "ratio",
}

def log_bytes_per_row(log) -> float:
    """Bytes a :class:`~repro.core.log.TransferLog` holds per delivered
    row, measured with ``tracemalloc`` while the log's rows are appended
    to a fresh log (the row values themselves exist beforehand)."""
    from repro.core.log import TransferLog

    record = getattr(TransferLog.record, "__wrapped__", TransferLog.record)
    rows = [tuple(t) for t in log]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fresh = TransferLog()
        for row in rows:
            record(fresh, *row)
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return used / len(rows)


def per_layer(
    tracer,
    iterations: int,
    traced_walls: list[float],
    untraced_walls: list[float],
    sample_log,
    workers: int,
    scale: float,
) -> tuple[dict, dict]:
    """Return ``(result metrics, report)`` for a traced run.

    The report maps every per-layer metric to its value, or to a string
    saying why it does not apply to this workload. Span times are scaled
    by ``scale`` (reference over measured seconds of the traced
    iterations) into reference seconds, like the end-to-end times.
    """
    calls, total, own, counters = (
        tracer.calls,
        tracer.total_ns,
        tracer.self_ns,
        tracer.counters,
    )
    report: dict[str, object] = {}

    def absent(*spans: str) -> str:
        return f"n/a: no {' or '.join(spans)} calls in this workload"

    def per_call_us(span: str, table) -> float | str:
        return scale * table[span] / calls[span] / 1e3 if calls[span] else absent(span)

    def per_iter(value: float) -> float:
        return value / iterations

    def seconds(span: str) -> float | str:
        return per_iter(scale * total[span] / 1e9) if calls[span] else absent(span)

    def count(span: str) -> float | str:
        return per_iter(calls[span]) if calls[span] else absent(span)

    steps = sorted(tracer.samples.get("sim.step", ()))
    if steps:
        step_report = timing_report([scale * s / 1e3 for s in steps])
        p99, beyond = rank_percentile(steps, 99.0)
        report["sim.step_us"] = step_report
        report["sim.step_us.p50"] = step_report["median"]
        report["sim.step_us.p99"] = scale * p99 / 1e3
        report["sim.step_us.p99_samples_beyond"] = beyond
    else:
        report["sim.step_us.p50"] = report["sim.step_us.p99"] = absent("sim.step")
    report["sim.step_self_us"] = per_call_us("sim.step", own)
    report["sim.attempt_calls"] = count("sim.attempt")
    report["sim.attempt_self_us"] = per_call_us("sim.attempt", own)
    report["sim.build_us"] = per_call_us("sim.build", total)
    report["sim.sync_log_s"] = seconds("sim.sync_log")
    report["sim.loop_run_s"] = seconds("sim.loop_run")
    report["sim.array_run_s"] = seconds("sim.array_run")

    report["randomized.run_tick_self_us"] = per_call_us("randomized.run_tick", own)
    report["randomized.slot_yield"] = (
        counters["randomized.attempts"] / counters["randomized.slots"]
        if counters["randomized.slots"]
        else absent("randomized.run_tick")
    )
    report["randomized.idle_tick_share"] = (
        counters["randomized.idle_ticks"] / counters["randomized.ticks"]
        if counters["randomized.ticks"]
        else absent("randomized.run_tick")
    )

    report["core.state.begin_tick_us"] = per_call_us("core.state.begin_tick", total)
    report["core.log.record_calls"] = count("core.log.record")
    report["core.log.record_self_us"] = per_call_us("core.log.record", own)
    report["core.log.bytes_per_row"] = (
        log_bytes_per_row(sample_log) if sample_log is not None and len(sample_log)
        else "n/a: no kept log in this workload"
    )
    report["core.log.time_share"] = (
        (total["core.log.record"] + total["core.log.extend_batch"])
        / 1e9
        / sum(traced_walls)
    )
    report["core.verify.s"] = seconds("core.verify")
    report["core.verify.rows_per_s"] = (
        counters["core.verify.rows"] / (scale * total["core.verify"] / 1e9)
        if calls["core.verify"]
        else absent("core.verify")
    )
    report["core.mechanisms.allows_calls"] = count("core.mechanisms.allows")
    report["core.mechanisms.allow_ratio"] = (
        counters["core.mechanisms.allowed"] / calls["core.mechanisms.allows"]
        if calls["core.mechanisms.allows"]
        else absent("core.mechanisms.allows")
    )
    report["core.mechanisms.allows_self_us"] = per_call_us("core.mechanisms.allows", own)
    report["overlays.build_s"] = seconds("overlays.build")

    report["faults.judge_calls"] = count("faults.judge")
    report["faults.judge_self_us"] = per_call_us("faults.judge", own)
    report["adversary.judge_calls"] = count("adversary.judge")
    report["adversary.judge_self_us"] = per_call_us("adversary.judge", own)
    report["workloads.membership_self_us"] = per_call_us("workloads.membership", own)
    report["telemetry.digest_s"] = seconds("telemetry.digest")
    report["checkpoint.saves"] = count("checkpoint.save")
    report["checkpoint.save_s"] = seconds("checkpoint.save")
    report["checkpoint.bytes"] = (
        per_iter(counters["checkpoint.bytes"])
        if calls["checkpoint.save"]
        else absent("checkpoint.save")
    )
    for engine in ENGINES:
        report[f"engine.{engine}.run_s"] = seconds(f"engine.{engine}.run")

    report["campaign.cold_s"] = seconds("campaign.cold")
    report["campaign.warm_s"] = seconds("campaign.warm")
    report["campaign.cache_get_us"] = per_call_us("campaign.cache_get", total)
    report["campaign.cache_put_us"] = per_call_us("campaign.cache_put", total)
    if calls["campaign.cold"]:
        busy = sum(total[f"engine.{engine}.run"] for engine in ENGINES)
        report["campaign.worker_busy_frac"] = busy / (total["campaign.cold"] * workers)
    else:
        report["campaign.worker_busy_frac"] = absent("campaign.cold")

    report["trace.overhead"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1
    )

    missing = [
        name for name in RESULT_METRICS if not isinstance(report[name], (int, float))
    ]
    if missing:
        raise RuntimeError(f"traced run could not measure {missing}")
    metrics = {
        name: {"value": report[name], "unit": unit}
        for name, unit in RESULT_METRICS.items()
    }
    return metrics, report
