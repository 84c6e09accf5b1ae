"""Differential oracle for the async engine's in-flight bitmasks.

:class:`~repro.asynchronous.policy.AsyncTickPolicy` records the blocks in
flight toward each node as one bitmask per node, and the randomized
strategies' destination scan reads busy counts, ``absent`` and the masks
directly. The reference here is the scan as it was before: in-flight
blocks as a ``(dst, block)`` set — rebuilt from the event heap, which is
independent of the masks — filtered bit by bit, and ``downlink_free`` /
``useful_mask`` called per candidate. Every run below must be
byte-identical between the two: all log streams, the verdict and the
whole ``meta``. After every window of the production run the masks must
also equal the in-flight events, and the checkpoint must list them as
sorted ``[dst, block]`` pairs.
"""

from __future__ import annotations

import itertools
import json

import pytest

from repro.adversary import AdversaryPlan
from repro.asynchronous.strategies import AsyncHypercube, AsyncRandom, AsyncRarest
from repro.core.bandwidth import BandwidthClasses, BandwidthTier
from repro.core.model import SERVER
from repro.core.serde import log_to_dict
from repro.faults import FaultPlan
from repro.overlays.graph import CompleteGraph
from repro.overlays.random_regular import random_regular_graph
from repro.sim.registry import create_engine
from repro.workloads import AvailabilityProfile, WorkloadSpec

N, K, DEGREE = 20, 8, 4
MAX_TICKS = 400

STRATEGIES = ("random", "rarest", "hypercube")
OVERLAYS = ("complete", "sparse")
SCENARIOS = ("none", "faults", "workload", "adversary", "bandwidth")
CASES = [
    (strategy, overlay, scenario)
    for strategy, overlay, scenario in itertools.product(
        STRATEGIES, OVERLAYS, SCENARIOS
    )
    # The hypercube walks its own links; it takes no overlay.
    if strategy != "hypercube" or overlay == "complete"
]


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _OldQueries:
    """The policy's query surface with in-flight blocks as a set."""

    def __init__(self, policy) -> None:
        self._policy = policy

    def __getattr__(self, name):
        return getattr(self._policy, name)

    def _in_flight(self) -> set[tuple[int, int]]:
        return {(t.dst, t.block) for *_, t in self._policy._events}

    def incoming(self, node: int, block: int) -> bool:
        return (node, block) in self._in_flight()

    def useful_mask(self, src: int, dst: int) -> int:
        masks = self._policy.kernel.state.masks
        mask = masks[src] & ~masks[dst]
        if mask:
            in_flight = self._in_flight()
            for block in list(_iter_bits(mask)):
                if (dst, block) in in_flight:
                    mask &= ~(1 << block)
        return mask


class _OldPick:
    """The randomized strategies' scan as it was before."""

    def _neighbors(self, engine, src: int):
        if self.overlay is None or isinstance(self.overlay, CompleteGraph):
            return [v for v in engine.incomplete_nodes if v != src]
        return [v for v in self.overlay.neighbors(src) if v != src]

    def _pick(self, engine, src: int):
        engine = _OldQueries(engine)
        rng = engine.rng
        candidates = []
        for dst in self._neighbors(engine, src):
            if dst == SERVER or not engine.downlink_free(dst):
                continue
            useful = engine.useful_mask(src, dst)
            if useful:
                candidates.append((dst, useful))
        if not candidates:
            return None
        dst, useful = candidates[rng.randrange(len(candidates))]
        return dst, self._block(engine, useful)


class _ReferenceRandom(_OldPick, AsyncRandom):
    pass


class _ReferenceRarest(_OldPick, AsyncRarest):
    pass


class _ReferenceHypercube(AsyncHypercube):
    def next_transfer(self, engine, src: int):
        return super().next_transfer(_OldQueries(engine), src)


def _strategy(reference: bool, name: str, overlay):
    if name == "hypercube":
        return (_ReferenceHypercube if reference else AsyncHypercube)(N)
    if name == "random":
        return (_ReferenceRandom if reference else AsyncRandom)(overlay)
    return (_ReferenceRarest if reference else AsyncRarest)(overlay)


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
                availability=(AvailabilityProfile("nap", 0.4, 8, 0.6),),
            )
        }
    if name == "adversary":
        return {
            "adversary": AdversaryPlan(
                free_riders=(3, 7), active_from=2, active_until=25
            )
        }
    if name == "bandwidth":
        tiers = (
            BandwidthTier("fast", 0.3, upload=2, download=3),
            BandwidthTier("slow", 0.7, upload=1, download=1),
        )
        # Two download slots: several blocks in flight toward one node.
        return {"bandwidth": BandwidthClasses(tiers), "parallel_downloads": 2}
    raise ValueError(name)


def _build(reference: bool, strategy: str, overlay: str, scenario: str, seed: int):
    graph = random_regular_graph(N, DEGREE, rng=seed) if overlay == "sparse" else None
    return create_engine(
        "async",
        N,
        K,
        strategy=_strategy(reference, strategy, graph),
        rng=seed,
        max_ticks=MAX_TICKS,
        **_scenario(scenario),
    )


def _fingerprint(result) -> str:
    # ``meta["strategy"]`` names the strategy class, which differs by
    # construction.
    meta = {key: v for key, v in result.meta.items() if key != "strategy"}
    return json.dumps(
        {
            "log": log_to_dict(result.log, result.n, result.k),
            "completion_time": result.completion_time,
            "abort": result.abort,
            "meta": meta,
        },
        sort_keys=True,
        default=repr,
    )


def _check_masks_every_window(policy) -> list[int]:
    """Assert after each window that the masks equal the in-flight
    events; returns the per-window count of in-flight transfers."""
    run_tick = policy.run_tick
    in_flight = []

    def checked(snapshot):
        run_tick(snapshot)
        expected = [0] * N
        pairs = []
        for *_, t in policy._events:
            expected[t.dst] |= 1 << t.block
            pairs.append([t.dst, t.block])
        assert policy.inbound == expected
        assert policy.capture_state()["inbound"] == sorted(pairs)
        in_flight.append(len(pairs))

    policy.run_tick = checked
    return in_flight


@pytest.mark.parametrize("strategy,overlay,scenario", CASES)
@pytest.mark.parametrize("seed", (3, 17))
def test_inflight_masks_match_reference(strategy, overlay, scenario, seed):
    expected = _build(True, strategy, overlay, scenario, seed).run()
    engine = _build(False, strategy, overlay, scenario, seed)
    in_flight = _check_masks_every_window(engine.policy)
    actual = engine.run()
    assert any(in_flight)
    assert _fingerprint(actual) == _fingerprint(expected)
