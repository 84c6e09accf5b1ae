"""Checkpoint/restore exactness: the golden resume sweep.

For every pinned golden configuration (all six engine families, credit
barter, overlays, throttles, fault plans with crashes and outages,
churn), the suite arms a checkpoint at *every* tick of a reference run,
then — for each captured boundary — rebuilds an identically-configured
engine, restores the checkpoint (through a JSON round-trip, exactly what
the on-disk format does) and runs it to completion. The resumed run must
reproduce the reference **byte for byte**: transfer log, failure stream,
completion ticks, verdicts, crash/rejoin events.

This is the contract that makes preemption recovery trustworthy: a
killed-and-resumed campaign job is indistinguishable from one that never
died. ``repro.checkpoint`` documents it; this suite enforces it.
"""

from __future__ import annotations

import json

import pytest

from repro.checkpoint import resume_engine, save_checkpoint
from repro.core.errors import CheckpointError
from repro.core.serde import log_to_dict
from repro.faults import FaultPlan
from repro.overlays.random_regular import random_regular_graph
from repro.sim.registry import create_engine
from repro.workloads import WorkloadSpec

from .capture_golden import result_fingerprint
from .golden_specs import ARRAY_CAPABLE_SPECS, GOLDEN_ENGINE_FACTORIES


def _kernel(engine):
    return getattr(engine, "kernel", engine)


def _reference_run(factory, fingerprint=result_fingerprint):
    """Run the spec once, capturing the boundary state at every tick."""
    payloads: dict[int, dict] = {}
    engine = factory()
    _kernel(engine).arm_checkpoints(
        1, sink=lambda p: payloads.setdefault(p["tick"], p)
    )
    return fingerprint(engine.run()), payloads


@pytest.mark.parametrize("name", sorted(GOLDEN_ENGINE_FACTORIES))
def test_resume_is_bit_identical_from_every_tick(name: str) -> None:
    factory = GOLDEN_ENGINE_FACTORIES[name]
    baseline, payloads = _reference_run(factory)
    assert payloads, "run ended before the first checkpoint boundary"
    for tick, payload in sorted(payloads.items()):
        # The JSON round-trip is load-bearing: it is what the file format
        # does to tuples, dict keys and large ints.
        document = json.loads(json.dumps(payload))
        resumed = factory()
        _kernel(resumed).restore_checkpoint(document)
        fingerprint = result_fingerprint(resumed.run())
        assert fingerprint == baseline, (
            f"{name}: resume from tick {tick} diverged"
        )


@pytest.mark.parametrize("name", ["randomized-faults", "async-crash"])
def test_resume_engine_from_file(name: str, tmp_path) -> None:
    """The full disk round-trip: save_checkpoint -> resume_engine."""
    factory = GOLDEN_ENGINE_FACTORIES[name]
    baseline, payloads = _reference_run(factory)
    tick = sorted(payloads)[len(payloads) // 2]
    path = tmp_path / "run.ckpt"
    save_checkpoint(path, payloads[tick])
    resumed = resume_engine(path, factory)
    assert _kernel(resumed).tick == tick
    assert result_fingerprint(resumed.run()) == baseline


@pytest.mark.parametrize("name", ["randomized-barter-rarest", "exchange-faults"])
def test_cross_backend_resume(name: str) -> None:
    """A loop-backend checkpoint restores into an array-backend engine
    (and vice versa): the config fingerprint deliberately excludes the
    execution backend because the two are byte-identical."""
    assert name in ARRAY_CAPABLE_SPECS
    factory = GOLDEN_ENGINE_FACTORIES[name]
    baseline, payloads = _reference_run(factory)
    tick = sorted(payloads)[len(payloads) // 2]
    document = json.loads(json.dumps(payloads[tick]))
    resumed = factory(backend="array")
    _kernel(resumed).restore_checkpoint(document)
    assert result_fingerprint(resumed.run()) == baseline
    # And back: an array-run checkpoint resumes on the loop backend.
    arr_baseline, arr_payloads = _reference_run(
        lambda: factory(backend="array")
    )
    assert arr_baseline == baseline
    tick = sorted(arr_payloads)[len(arr_payloads) // 2]
    document = json.loads(json.dumps(arr_payloads[tick]))
    resumed = factory()
    _kernel(resumed).restore_checkpoint(document)
    assert result_fingerprint(resumed.run()) == baseline


def test_restore_refuses_config_mismatch() -> None:
    factory = GOLDEN_ENGINE_FACTORIES["randomized-cooperative"]
    _, payloads = _reference_run(factory)
    document = json.loads(json.dumps(payloads[min(payloads)]))
    other = GOLDEN_ENGINE_FACTORIES["randomized-barter-rarest"]()
    with pytest.raises(CheckpointError, match="differently-configured"):
        _kernel(other).restore_checkpoint(document)


def test_restore_refuses_stepped_kernel() -> None:
    factory = GOLDEN_ENGINE_FACTORIES["randomized-cooperative"]
    _, payloads = _reference_run(factory)
    document = json.loads(json.dumps(payloads[min(payloads)]))
    engine = factory()
    _kernel(engine).step()
    with pytest.raises(CheckpointError, match="freshly constructed"):
        _kernel(engine).restore_checkpoint(document)


# -- engines whose scans keep state that a checkpoint does not carry ------


_SCAN_CRASH_PLAN = FaultPlan(
    loss_rate=0.05,
    crash_rate=0.03,
    rejoin_delay=3,
    rejoin_retention=0.5,
    max_crashes=6,
)


def _coding_crash_sparse(**kw):
    """Coding on a sparse overlay with crashes and loss: the innovation
    cursors are rebuilt lazily after a restore."""
    from repro.coding.engine import NetworkCodingEngine

    return NetworkCodingEngine(
        18,
        8,
        overlay=random_regular_graph(18, 4, rng=2),
        rng=31,
        faults=_SCAN_CRASH_PLAN,
        max_ticks=2000,
        **kw,
    )


def _async_crash_slots(**kw):
    """Async with two download slots and crashes: several blocks in
    flight toward one node cross the checkpoint boundaries."""
    return create_engine(
        "async",
        16,
        8,
        rng=12,
        faults=_SCAN_CRASH_PLAN,
        parallel_downloads=2,
        max_ticks=2000,
        **kw,
    )


def _async_sparse_arrivals(**kw):
    """AsyncRandom on a sparse overlay with crashes, rejoins, loss and
    arrivals: the idle-retry memo is dropped at every epoch bump and
    rebuilt lazily after a restore."""
    return create_engine(
        "async",
        18,
        8,
        overlay=random_regular_graph(18, 4, rng=4),
        rng=21,
        faults=_SCAN_CRASH_PLAN,
        workload=WorkloadSpec(
            initial_fraction=0.5, arrival_rate=0.5, arrival_stop=12
        ),
        max_ticks=2000,
        **kw,
    )


_SCAN_FACTORIES = [_coding_crash_sparse, _async_crash_slots, _async_sparse_arrivals]
_SCAN_IDS = ["coding", "async", "async-sparse-arrivals"]


def _full_fingerprint(result) -> str:
    return json.dumps(
        {
            "log": log_to_dict(result.log, result.n, result.k),
            "completion_time": result.completion_time,
            "abort": result.abort,
            "meta": result.meta,
        },
        sort_keys=True,
        default=repr,
    )


@pytest.mark.parametrize("factory", _SCAN_FACTORIES, ids=_SCAN_IDS)
def test_scan_state_resumes_bit_identically_from_every_tick(factory) -> None:
    baseline, payloads = _reference_run(factory, _full_fingerprint)
    # Non-vacuous: some boundaries fall after a crash replaced a node's
    # state, before the run ended.
    first_crash = min(t for t, _ in json.loads(baseline)["meta"]["crash_events"])
    assert max(payloads) > first_crash
    for tick, payload in sorted(payloads.items()):
        document = json.loads(json.dumps(payload))
        resumed = factory()
        _kernel(resumed).restore_checkpoint(document)
        assert _full_fingerprint(resumed.run()) == baseline, (
            f"resume from tick {tick} diverged"
        )


@pytest.mark.parametrize("factory", _SCAN_FACTORIES, ids=_SCAN_IDS)
def test_scan_state_resets_on_restore_into_a_used_engine(factory) -> None:
    """Restore must drop scan state left by a run the engine already
    made, not only start from a fresh engine's empty state."""
    baseline, payloads = _reference_run(factory, _full_fingerprint)
    reused = factory()
    reused.run()
    for tick, payload in sorted(payloads.items()):
        # Rewound past the fresh-kernel guard on purpose.
        _kernel(reused).tick = 0
        _kernel(reused).restore_checkpoint(json.loads(json.dumps(payload)))
        assert _full_fingerprint(reused.run()) == baseline, (
            f"resume from tick {tick} diverged"
        )


def test_async_restore_drops_a_stale_idle_memo() -> None:
    """A used engine's idle memo must not survive a restore. Poison it
    before each restore — every node proven fruitless, valid for the
    current epoch — and the restored policy must start with no node
    proven fruitless and continue exactly like the uninterrupted run."""
    baseline, payloads = _reference_run(_async_sparse_arrivals, _full_fingerprint)
    reused = _async_sparse_arrivals()
    reused.run()
    kernel = _kernel(reused)
    policy = reused.policy
    assert policy._fruitless, "the finished run proved no node fruitless"
    for tick, payload in sorted(payloads.items()):
        policy._fruitless.update(range(kernel.n))
        policy._memo_epoch = kernel.state.epoch
        kernel.tick = 0  # rewound past the fresh-kernel guard on purpose
        kernel.restore_checkpoint(json.loads(json.dumps(payload)))
        assert not policy._fruitless
        assert _full_fingerprint(reused.run()) == baseline, (
            f"resume from tick {tick} diverged"
        )
