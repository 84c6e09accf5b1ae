"""Unit tests for :class:`repro.sim.kernel.TickKernel` in isolation.

The engine suites exercise the kernel through real policies; these tests
pin the kernel's own contract with minimal synthetic policies: the
``attempt`` primitive, the verdict ladder (completion / conclusive
deadlock / stall / max-ticks / policy abort), which scenario axes a bare
policy accepts or refuses, and the incomplete-pool bookkeeping the
complete-graph fast path rests on.
"""

from __future__ import annotations

import pytest

from repro.adversary import AdversaryPlan
from repro.core.bandwidth import BandwidthClasses, BandwidthTier
from repro.core.errors import ConfigError
from repro.core.model import SERVER
from repro.faults import FaultPlan, RecoveryPolicy
from repro.sim import TickKernel, TickPolicy, default_max_ticks
from repro.workloads import WorkloadSpec


class ServerSprayPolicy(TickPolicy):
    """Server sends each missing block to each client, one per tick."""

    name = "test-spray"

    def run_tick(self, snapshot: list[int]) -> None:
        kernel = self.kernel
        for dst in list(kernel.incomplete_pool):
            missing = snapshot[SERVER] & ~kernel.state.masks[dst]
            if missing:
                kernel.attempt(SERVER, dst, (missing & -missing).bit_length() - 1)


class IdlePolicy(TickPolicy):
    """Never uploads; what the verdict becomes is up to the other knobs."""

    name = "test-idle"

    def __init__(self, conclusive: bool = True) -> None:
        self._conclusive = conclusive

    def run_tick(self, snapshot: list[int]) -> None:
        pass

    def zero_tick_conclusive(self) -> bool:
        return self._conclusive


class AbortingPolicy(IdlePolicy):
    """Raises its own verdict through the ``post_tick`` hook."""

    name = "test-abort"

    def post_tick(self, delivered: int, failed: int) -> str | None:
        return "custom-verdict" if self.kernel.tick >= 3 else None


def test_default_max_ticks_scales_with_n_and_k() -> None:
    assert default_max_ticks(10, 5) > default_max_ticks(10, 4)
    assert default_max_ticks(11, 5) > default_max_ticks(10, 5)


def test_completion_and_log() -> None:
    kernel = TickKernel(4, 3, ServerSprayPolicy(), rng=1)
    result = kernel.run()
    assert result.completed
    assert result.meta["abort"] is None
    assert result.meta["deadlocked"] is False
    # 3 clients x 3 blocks, every delivery logged, none redundant.
    assert len(result.log) == 9
    assert result.client_completions.keys() == {1, 2, 3}
    assert not kernel.incomplete_pool


def test_attempt_updates_masks_pool_and_counters() -> None:
    kernel = TickKernel(3, 2, ServerSprayPolicy(), rng=1)
    assert sorted(kernel.incomplete_pool) == [1, 2]
    kernel.step()
    assert kernel.state.masks[1] != 0 or kernel.state.masks[2] != 0
    # The kernel *counts* capacity; respecting it is the policy's job,
    # and this synthetic policy sprays both clients in one tick.
    assert kernel.uploads_per_tick[0] == 2
    kernel.run()
    assert sorted(kernel.incomplete_pool) == []


def test_conclusive_zero_tick_is_deadlock() -> None:
    result = TickKernel(3, 2, IdlePolicy(conclusive=True), rng=1).run()
    assert not result.completed
    assert result.meta["deadlocked"] is True
    assert result.meta["abort"] == "deadlock"


def test_inconclusive_zero_ticks_run_to_max_ticks() -> None:
    kernel = TickKernel(3, 2, IdlePolicy(conclusive=False), rng=1, max_ticks=17)
    result = kernel.run()
    assert not result.completed
    assert result.meta["deadlocked"] is False
    assert result.meta["abort"] == "max-ticks"
    assert kernel.tick == 17

def test_policy_post_tick_abort_propagates() -> None:
    result = TickKernel(3, 2, AbortingPolicy(conclusive=False), rng=1).run()
    assert result.meta["abort"] == "custom-verdict"


def test_heavy_loss_aborts_as_stall() -> None:
    # Seed 0 loses the first four attempts in a row, exhausting the
    # explicit 4-tick stall window before anything is delivered.
    result = TickKernel(
        2, 1, ServerSprayPolicy(), rng=0, faults=FaultPlan(loss_rate=0.9),
        recovery=RecoveryPolicy(stall_window=4),
    ).run()
    assert not result.completed
    assert result.meta["abort"] == "stall"
    assert result.meta["deadlocked"] is False
    assert len(result.log.failures) == 4
    assert len(result.log) == 0


def test_null_plan_is_normalized_away() -> None:
    """An all-zero plan must not even seed the injector stream, so the
    run is draw-for-draw identical to a plain one."""
    plain = TickKernel(4, 3, ServerSprayPolicy(), rng=9).run()
    nulled = TickKernel(4, 3, ServerSprayPolicy(), rng=9, faults=FaultPlan()).run()
    assert nulled.meta["abort"] is None
    assert "faults" not in nulled.meta
    assert list(nulled.log) == list(plain.log)


def test_bare_policy_takes_faults_and_workloads_but_not_opt_in_axes() -> None:
    """Crash/rejoin and membership are kernel mechanics every policy
    gets; adversary and bandwidth axes need an explicit declaration."""
    crash = FaultPlan(crash_rate=0.2, rejoin_delay=2, rejoin_retention=0.5)
    result = TickKernel(
        6, 3, ServerSprayPolicy(), rng=3, faults=crash, max_ticks=60
    ).run()
    assert result.completed
    assert result.meta["crashes"] > 0 and result.meta["rejoins"] > 0
    workload = WorkloadSpec(initial_fraction=0.5, arrival_trace=((2, 2),))
    result = TickKernel(6, 3, ServerSprayPolicy(), rng=3, workload=workload).run()
    assert result.completed
    assert result.meta["workload"] == workload.describe()

    riders = AdversaryPlan(free_riders=(2,))
    with pytest.raises(ConfigError, match="test-spray.*adversary_support='none'"):
        TickKernel(6, 3, ServerSprayPolicy(), adversary=riders)
    tiers = BandwidthClasses(
        tiers=(BandwidthTier("cable", 0.5, upload=1, download=2),)
    )
    with pytest.raises(ConfigError, match="test-spray.*bandwidth_support='none'"):
        TickKernel(6, 3, ServerSprayPolicy(), bandwidth=tiers)


def test_progress_callback_reports_each_tick() -> None:
    calls: list[tuple[int, int]] = []
    result = TickKernel(4, 3, ServerSprayPolicy(), rng=1).run(
        progress=lambda t, made: calls.append((t, made))
    )
    assert [t for t, _ in calls] == list(range(1, len(calls) + 1))
    assert sum(made for _, made in calls) == len(result.log)


def test_keep_log_false_drops_log_keeps_verdict() -> None:
    result = TickKernel(4, 3, ServerSprayPolicy(), rng=1, keep_log=False).run()
    assert result.completed
    assert len(result.log) == 0
    assert result.client_completions == {}
