"""Differential oracle for the dead-end memo in sparse destination picks.

:meth:`RandomizedTickPolicy._pick_destination` remembers a source whose
fallback scan came up empty and, until something could widen its
eligible set, only replays the rejection draws. The reference policy
here overrides the pick with the unmemoised original — plain
``rng.randrange``, every predicate evaluated, the scan run every time —
and every sparse-overlay run below must be byte-identical between the
two: all log streams, the verdict and the whole ``meta``.

The matrix crosses every mechanism the engine gates on, both kinds of
non-compliant client, each way the swarm state can change outside the
monotone within-tick rules (fault crash/rejoin, workload arrivals,
departures and naps, the churn engine, adversaries, bandwidth tiers, a
rewiring overlay) and both backends. A memo that misses any of those
invalidations diverges here even when the golden logs still pass.
"""

from __future__ import annotations

import itertools
import json

import pytest

from repro.adversary import AdversaryPlan
from repro.core.bandwidth import BandwidthClasses, BandwidthTier
from repro.core.mechanisms import Cooperative, CreditLimitedBarter
from repro.core.serde import log_to_dict
from repro.faults import FaultPlan
from repro.overlays import random_regular_graph, rotating_regular_overlay
from repro.randomized.churn import ChurnEngine, ChurnTickPolicy
from repro.randomized.engine import RandomizedEngine, RandomizedTickPolicy
from repro.workloads import AvailabilityProfile, WorkloadSpec

N, K, DEGREE = 24, 10, 5
MAX_TICKS = 160

MECHANISMS = ("cooperative", "credit-1", "credit-2")
CLIENTS = ("throttled", "selfish")
SCENARIOS = (
    "none", "faults", "workload", "churn", "adversary", "bandwidth", "dynamic",
)
BACKENDS = ("loop", "array")


class _ReferencePick:
    """The destination pick as it was before the dead-end memo."""

    def _pick_destination(self, src, snapshot, masks, dl_left, pool, rng, absent):
        have = snapshot[src]
        gated = self._gated
        allows = self.mechanism.allows
        if pool is not None:
            if have & ~self._common == 0:
                return None
            candidates_pool = pool
        else:
            candidates_pool = self.kernel.graph.neighbors(src)
        size = len(candidates_pool)
        if size == 0:
            return None
        for _ in range(min(12, size)):
            v = candidates_pool[rng.randrange(size)]
            if (
                v != src
                and (dl_left is None or dl_left[v] > 0)
                and have & ~masks[v]
                and (not absent or v not in absent)
                and (not gated or allows(src, v))
            ):
                return v
        candidates = [
            v
            for v in candidates_pool
            if v != src
            and (dl_left is None or dl_left[v] > 0)
            and have & ~masks[v]
            and (not absent or v not in absent)
            and (not gated or allows(src, v))
        ]
        if not candidates:
            return None
        return candidates[rng.randrange(len(candidates))]


class _ReferencePolicy(_ReferencePick, RandomizedTickPolicy):
    pass


class _ReferenceChurnPolicy(_ReferencePick, ChurnTickPolicy):
    pass


class _ReferenceEngine(RandomizedEngine):
    _tick_policy_cls = _ReferencePolicy


class _ReferenceChurnEngine(ChurnEngine):
    _tick_policy_cls = _ReferenceChurnPolicy


def _mechanism(name: str):
    if name == "cooperative":
        return Cooperative()
    return CreditLimitedBarter(int(name.split("-")[1]))


def _clients(kind: str) -> dict:
    # Clients 5 and 9 misbehave; the scenarios below pick other ids.
    if kind == "throttled":
        return {"throttle": {5: 1.0, 9: 0.5}}
    return {"selfish": frozenset({5, 9})}


def _scenario(name: str, seed: int) -> dict:
    if name == "none":
        return {}
    if name == "faults":
        return {
            "faults": FaultPlan(
                loss_rate=0.1,
                crash_rate=0.02,
                rejoin_delay=3,
                rejoin_retention=0.5,
                max_crashes=4,
            )
        }
    if name == "workload":
        return {
            "workload": WorkloadSpec(
                initial_fraction=0.5,
                arrival_rate=0.6,
                arrival_stop=30,
                availability=(AvailabilityProfile("nap", 0.4, 10, 0.6),),
                depart_after_complete=True,
                seed_holdover=3,
            )
        }
    if name == "churn":
        return {"arrivals": {3: 6, 7: 15, 11: 30}, "departures": {2: 10, 13: 25}}
    if name == "adversary":
        return {
            "adversary": AdversaryPlan(
                free_riders=(4,),
                polluters=(6,),
                pollution_rate=0.5,
                liars=(8,),
                lie_rate=0.3,
                strike_threshold=2,
            )
        }
    if name == "bandwidth":
        tiers = (
            BandwidthTier("fast", 0.25, upload=2, download=3),
            BandwidthTier("slow", 0.75, upload=1, download=1),
        )
        return {"bandwidth": BandwidthClasses(tiers)}
    if name == "dynamic":
        return {"overlay": rotating_regular_overlay(N, DEGREE, period=7, rng=seed)}
    raise ValueError(name)


def _build(reference: bool, mechanism: str, clients: str, scenario: str, backend: str):
    seed = 1000 + 97 * MECHANISMS.index(mechanism) + 13 * SCENARIOS.index(scenario)
    options = {
        "overlay": random_regular_graph(N, DEGREE, rng=seed),
        "mechanism": _mechanism(mechanism),
        "rng": seed,
        "max_ticks": MAX_TICKS,
        "backend": backend,
    }
    options.update(_scenario(scenario, seed))
    behaviour = _clients(clients)
    if scenario == "churn":
        cls = _ReferenceChurnEngine if reference else ChurnEngine
        engine = cls(N, K, **options)
        # ChurnEngine takes no client-behaviour arguments; its policy
        # reads them from the same attributes RandomizedEngine fills.
        policy = engine.tick_policy
        policy.throttle = dict(behaviour.get("throttle", {}))
        policy.selfish = frozenset(behaviour.get("selfish", ()))
    else:
        cls = _ReferenceEngine if reference else RandomizedEngine
        engine = cls(N, K, **options, **behaviour)
    return engine


def _fingerprint(result) -> str:
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


@pytest.mark.parametrize(
    "mechanism,clients,scenario",
    list(itertools.product(MECHANISMS, CLIENTS, SCENARIOS)),
)
@pytest.mark.parametrize("backend", BACKENDS)
def test_memoised_pick_matches_reference(mechanism, clients, scenario, backend):
    expected = _build(True, mechanism, clients, scenario, backend).run()
    actual = _build(False, mechanism, clients, scenario, backend).run()
    assert _fingerprint(actual) == _fingerprint(expected)


def test_memo_replays_dead_ends():
    """The matrix above is only evidence if the memo actually fires: a
    starving credit run records dead ends and later replays them."""
    engine = _build(False, "credit-1", "throttled", "none", "loop")
    policy = engine.tick_policy
    pick = policy._pick_destination
    replays = 0

    def counting(src, *args):
        nonlocal replays
        replays += policy._targeted[src] < policy._dead[src]
        return pick(src, *args)

    policy._pick_destination = counting
    engine.run()
    assert replays > 0


# -- the memo never travels in a checkpoint -------------------------------


def _starving_engine():
    """s = 1 barter on a sparse overlay with one client that never
    uploads: it starves, and its neighbors' picks keep dead-ending."""
    return RandomizedEngine(
        16,
        8,
        overlay=random_regular_graph(16, 4, rng=5),
        mechanism=CreditLimitedBarter(1),
        throttle={6: 1.0},
        rng=29,
        max_ticks=90,
    )


def _reference_run():
    """The starving run's fingerprint and its checkpoint at every tick."""
    payloads: dict[int, dict] = {}
    engine = _starving_engine()
    engine.kernel.arm_checkpoints(1, sink=lambda p: payloads.setdefault(p["tick"], p))
    result = engine.run()
    assert result.completion_time is None  # the throttled client starved
    return _fingerprint(result), payloads


def test_starving_run_resumes_bit_identically_from_every_tick():
    baseline, payloads = _reference_run()
    for tick, payload in sorted(payloads.items()):
        resumed = _starving_engine()
        resumed.kernel.restore_checkpoint(json.loads(json.dumps(payload)))
        assert _fingerprint(resumed.run()) == baseline, f"resume from {tick}"


def test_restore_into_a_kernel_that_already_ran():
    """A kernel whose memo is full of dead ends from late ticks takes an
    early checkpoint and still continues exactly: the restore bumps the
    swarm epoch, so nothing proven before it is trusted after it."""
    baseline, payloads = _reference_run()
    reused = _starving_engine()
    reused.run()
    assert any(reused.tick_policy._dead)
    for tick in sorted(payloads)[::10]:
        # The restore guard refuses a stepped kernel; rewinding the tick
        # counter reuses this one with its memo intact.
        reused.kernel.tick = 0
        reused.kernel.restore_checkpoint(json.loads(json.dumps(payloads[tick])))
        assert _fingerprint(reused.run()) == baseline, f"resume from {tick}"
