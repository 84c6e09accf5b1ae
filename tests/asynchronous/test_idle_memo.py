"""Differential oracle for the async engine's event-driven idle retries.

:class:`~repro.asynchronous.policy.AsyncTickPolicy` skips idle nodes it
has proven fruitless until a finished transfer or a swarm epoch bump can
change their answer. The reference here is the retry loop as it was
before: after every finished transfer and at every phase boundary, try
every idle node in ascending order. Every run below must be
byte-identical between the two — all log streams, the failed
transfers, the continuous completion times and the whole ``meta`` —
while the memo saves more than half of the strategy calls.
"""

from __future__ import annotations

import itertools
import json

import pytest

from repro.adversary import AdversaryPlan
from repro.asynchronous.policy import AsyncTickPolicy
from repro.asynchronous.strategies import AsyncHypercube, AsyncRandom, AsyncRarest
from repro.core.bandwidth import BandwidthClasses, BandwidthTier
from repro.core.serde import log_to_dict
from repro.faults import FaultPlan
from repro.overlays.random_regular import random_regular_graph
from repro.sim.registry import create_engine
from repro.workloads import WorkloadSpec

N, K, DEGREE = 20, 8, 4
MAX_TICKS = 400

SCENARIOS = ("none", "faults", "workload", "adversary", "tiers")
CASES = list(
    itertools.product(("random", "rarest"), ("complete", "sparse"), SCENARIOS)
)


class _RescanAll(AsyncTickPolicy):
    """The policy with the retry loop as it was: every idle node, every
    retry point, whatever it proved last time."""

    def _retry_idle(self, receiver=None) -> bool:
        started = False
        for node in sorted(self._idle):
            if self._try_start(node):
                self._idle.discard(node)
                started = True
        return started


def _scenario(name: str) -> dict:
    if name == "none":
        return {}
    if name == "faults":
        return {
            "faults": FaultPlan(
                loss_rate=0.1,
                crash_rate=0.03,
                rejoin_delay=3,
                rejoin_retention=0.5,
                max_crashes=6,
            )
        }
    if name == "workload":
        return {
            "workload": WorkloadSpec(
                initial_fraction=0.5,
                arrival_rate=0.6,
                arrival_stop=20,
                depart_after_complete=True,
                seed_holdover=2,
            )
        }
    if name == "adversary":
        return {
            "adversary": AdversaryPlan(
                free_riders=(3, 7), active_from=2, active_until=25
            )
        }
    if name == "tiers":
        tiers = (
            BandwidthTier("fast", 0.3, upload=2, download=3),
            BandwidthTier("slow", 0.7, upload=1, download=1),
        )
        return {"bandwidth": BandwidthClasses(tiers), "parallel_downloads": 2}
    raise ValueError(name)


def _strategy(name: str, overlay: str, seed: int):
    if name == "hypercube":
        return AsyncHypercube(N)
    graph = random_regular_graph(N, DEGREE, rng=seed) if overlay == "sparse" else None
    return (AsyncRandom if name == "random" else AsyncRarest)(graph)


class _Counted:
    """Counts ``next_transfer`` calls of the wrapped strategy; the
    policy is pointed at the strategy itself, so memo eligibility (an
    exact-type check) is unaffected."""

    def __init__(self, policy) -> None:
        self.calls = 0
        inner = policy.strategy.next_transfer

        def counted(engine, src):
            self.calls += 1
            return inner(engine, src)

        policy.strategy.next_transfer = counted


def _run(reference: bool, strategy, scenario: str, seed: int, **kw):
    engine = create_engine(
        "async",
        N,
        K,
        strategy=strategy,
        rng=seed,
        max_ticks=MAX_TICKS,
        **_scenario(scenario),
        **kw,
    )
    policy = engine.policy
    if reference:
        policy.__class__ = _RescanAll
    counter = _Counted(policy)
    result = engine.run()
    fingerprint = json.dumps(
        {
            "log": log_to_dict(result.log, result.n, result.k),
            "completion_time": result.completion_time,
            "abort": result.abort,
            "meta": result.meta,
            "failed": [list(t) for t in policy.failed],
            "float_completions": sorted(policy.float_completions.items()),
        },
        sort_keys=True,
        default=repr,
    )
    return fingerprint, counter.calls


@pytest.mark.parametrize("strategy,overlay,scenario", CASES)
@pytest.mark.parametrize("seed", (3, 17))
def test_memo_matches_full_rescan(strategy, overlay, scenario, seed):
    expected, rescans = _run(True, _strategy(strategy, overlay, seed), scenario, seed)
    actual, calls = _run(False, _strategy(strategy, overlay, seed), scenario, seed)
    assert actual == expected
    assert calls <= rescans


@pytest.mark.parametrize("overlay", ("complete", "sparse"))
def test_memo_halves_strategy_calls(overlay):
    """Non-vacuity: the memo must actually skip retries."""
    calls = rescans = 0
    for scenario, seed in itertools.product(SCENARIOS, (3, 17)):
        rescans += _run(True, _strategy("random", overlay, seed), scenario, seed)[1]
        calls += _run(False, _strategy("random", overlay, seed), scenario, seed)[1]
    assert calls < rescans / 2


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_hypercube_is_rescanned(scenario):
    """The hypercube walk picks its link by the clock: a node with
    nothing to send this phase may have work at the next one, so it is
    never memoised and sees every retry point."""
    expected, rescans = _run(True, _strategy("hypercube", "complete", 5), scenario, 5)
    actual, calls = _run(False, _strategy("hypercube", "complete", 5), scenario, 5)
    assert actual == expected
    assert calls == rescans


class _WaitsForTime(AsyncRandom):
    """A custom strategy whose answer depends on the clock alone: it
    declines every transfer before ``now`` reaches 3."""

    def next_transfer(self, engine, src):
        if engine.now < 3:
            return None
        return super().next_transfer(engine, src)


def test_custom_strategy_is_not_memoised():
    """Before time 3 nothing changes but the clock, so a memo would skip
    every node forever; the run must start at the first phase boundary
    at or after 3 and finish."""
    expected, _ = _run(True, _WaitsForTime(), "none", 8)
    engine = create_engine(
        "async", N, K, strategy=_WaitsForTime(), rng=8, max_ticks=MAX_TICKS
    )
    result = engine.run()
    assert result.completion_time is not None
    assert min(t.start for t in engine.policy.transfers) == 3.0
    actual, _ = _run(False, _WaitsForTime(), "none", 8)
    assert actual == expected
