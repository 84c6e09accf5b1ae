"""Kernel-level membership: open-system workloads on every engine."""

from __future__ import annotations

import pytest

from repro.randomized.churn import churn_run
from repro.sim.registry import run_engine
from repro.workloads import AvailabilityProfile, FlashCrowd, WorkloadSpec

ENGINES = ("randomized", "churn", "exchange", "bittorrent", "coding", "async")

ARRIVALS = WorkloadSpec(
    initial_fraction=0.5, arrival_trace=((3, 2), (6, 1))
)


def _run(engine: str, workload=None, n=10, k=4, seed=5, **kwargs):
    return run_engine(
        engine, n, k, rng=seed, max_ticks=400, workload=workload, **kwargs
    )


class TestAllEnginesArrive:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_trace_arrivals_join_and_complete(self, engine):
        r = _run(engine, ARRIVALS)
        assert r.completed, (engine, r.abort)
        joined = {int(v): int(t) for v, t in r.meta["joined_at"].items()}
        # initial = round(0.5 * 9) = 4; arrivals get ids 5, 6, 7.
        assert {v: t for v, t in joined.items() if t > 0} == {5: 3, 6: 3, 7: 6}
        # Every arrival completed at-or-after its join tick.
        for node in (5, 6, 7):
            assert r.client_completions[node] >= joined[node]
        assert r.meta["workload"] == ARRIVALS.describe()
        assert len(r.meta["swarm_size_per_tick"]) == r.completion_time

    @pytest.mark.parametrize("engine", ENGINES)
    def test_swarm_size_steps_up_at_arrivals(self, engine):
        r = _run(engine, ARRIVALS)
        sizes = r.meta["swarm_size_per_tick"]
        assert sizes[0] == 4
        assert sizes[2] == 6  # tick 3: two arrivals
        if len(sizes) >= 6:
            assert sizes[5] == 7


class TestNullWorkload:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_null_spec_is_a_no_op(self, engine):
        # Attaching WorkloadSpec() must not perturb a single RNG draw:
        # identical completions, identical per-tick upload counts.
        plain = run_engine(engine, 8, 4, rng=7, max_ticks=400)
        nulled = run_engine(
            engine, 8, 4, rng=7, max_ticks=400, workload=WorkloadSpec()
        )
        assert nulled.client_completions == plain.client_completions
        assert nulled.completion_time == plain.completion_time
        assert nulled.meta.get("uploads_per_tick") == plain.meta.get(
            "uploads_per_tick"
        )
        assert "joined_at" not in nulled.meta

    def test_null_spec_keeps_log_byte_identical(self):
        plain = run_engine("randomized", 8, 4, rng=7)
        nulled = run_engine(
            "randomized", 8, 4, rng=7, workload=WorkloadSpec()
        )
        assert list(nulled.log) == list(plain.log)
        assert nulled.log.failures == plain.log.failures


class TestDepartures:
    # A late straggler keeps the run alive past the initial cohort's
    # holdover, so their scheduled departures actually fire (a run that
    # reaches its goal ends immediately — pending departures are moot).
    STEADY = WorkloadSpec(
        initial_fraction=0.8,
        arrival_trace=((40, 1),),
        depart_after_complete=True,
        seed_holdover=2,
    )

    def test_completed_clients_depart_after_holdover(self):
        r = _run("randomized", self.STEADY, n=8, k=4)
        assert r.completed
        departed = {int(v): int(t) for v, t in r.meta["departed_at"].items()}
        assert departed  # initial cohort finishes long before tick 40
        joined = {int(v): int(t) for v, t in r.meta["joined_at"].items()}
        for node, when in departed.items():
            done = r.client_completions[node]
            assert when == done + 1 + 2, (node, when, done)
        # The late arrival must still be served by whoever remains.
        assert r.client_completions[max(joined)] >= 40

    def test_swarm_size_shrinks_after_departures(self):
        r = _run("randomized", self.STEADY, n=8, k=4)
        sizes = r.meta["swarm_size_per_tick"]
        assert min(sizes) < sizes[0]


class TestAvailability:
    DIURNAL = WorkloadSpec(
        availability=(AvailabilityProfile("nap", 1.0, 8, 0.5),)
    )

    def test_naps_dip_the_swarm_and_blocks_survive(self):
        r = _run("randomized", self.DIURNAL, n=10, k=6)
        assert r.completed
        sizes = r.meta["swarm_size_per_tick"]
        assert min(sizes) < 9  # someone napped
        assert r.meta["availability_profiles"] == {
            int(v): "nap"
            for v in range(1, 10)
        } or len(r.meta["availability_profiles"]) == 9

    def test_napper_past_horizon_does_not_block_the_goal(self):
        # With the period stretched so the final windows run past the
        # horizon, nodes whose return would land after max_ticks must
        # not hold the goal open forever: the run either completes
        # without them or aborts — it must not wait pointlessly.
        spec = WorkloadSpec(
            availability=(AvailabilityProfile("gone", 1.0, 390, 0.02),)
        )
        r = _run("randomized", spec, n=6, k=3)
        # Every present client is satisfied; nappers that never return
        # are out of the goal set (completion may exclude them).
        assert r.abort in (None, "deadlock") or r.completed

    def test_flash_crowd_peaks_swarm_size(self):
        spec = WorkloadSpec(
            initial_fraction=0.3, flash_crowds=(FlashCrowd(5, 5),)
        )
        r = _run("randomized", spec, n=10, k=4)
        assert r.completed
        sizes = r.meta["swarm_size_per_tick"]
        assert sizes[4] == sizes[3] + 5


class TestWorkloadVsChurnEngine:
    def test_workload_and_churn_tables_agree_on_joins(self):
        # The same arrival timeline expressed as churn tables and as a
        # workload trace must produce the same join ticks (the engines
        # draw differently, so completions may differ — membership
        # telemetry is what must line up).
        spec = WorkloadSpec(initial_fraction=0.5, arrival_trace=((4, 1),))
        wl = _run("randomized", spec, n=6, k=3)
        ch = churn_run(6, 3, arrivals={3: 4}, rng=5, max_ticks=400)
        assert wl.completed and ch.completed
        joined = {int(v): int(t) for v, t in wl.meta["joined_at"].items()}
        tables = {int(v): int(t) for v, t in ch.meta["arrivals"].items()}
        assert joined[3] == 4 == tables[3]


class TestSeedDraw:
    def test_workload_seed_recorded_and_replicable(self):
        a = _run("randomized", ARRIVALS)
        b = _run("randomized", ARRIVALS)
        assert a.meta["workload_seed"] == b.meta["workload_seed"]
        assert a.client_completions == b.client_completions
        c = _run("randomized", ARRIVALS, seed=6)
        assert c.meta["workload_seed"] != a.meta["workload_seed"]
