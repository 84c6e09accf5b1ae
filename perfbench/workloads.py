"""The three benchmark workloads.

Each workload turns the ``--seed`` into inputs (:meth:`prepare`, the
set-up a user pays before the first run can start) and then does one
fixed amount of work on them per iteration (:meth:`iterate`): every run,
every output check and the resume path. Every iteration of a benchmark
invocation repeats the same inputs, so the iterations differ only by
machine noise.

Why these three (the property each was chosen for is measured and
reported with every result):

* ``swarm-coop`` — the per-transfer path does nearly all the work:
  ``TickKernel.attempt``, the receiver pool, rejection sampling,
  ``TransferLog`` appends and the ``verify_log`` replay. Campaign,
  credit, overlays and the scenario axes do none. Property: the share
  of the traced run spent in ``core.log``.
* ``barter-starve`` — almost every upload pick fails: throttled
  strategic clients starve under credit-limited barter and their runs
  end at ``max_ticks``, while each of the 95 uploaders still pays the
  rejection draws and the O(degree) fallback scan on every tick; the
  log and the verifier see few rows. Property: the share of ticks that
  produced no attempt.
* ``campaign-mix`` — per-run set-up, scenario judging, GF(2) coding,
  async event windows, telemetry digests, checkpoint writes, pickling
  and cache I/O dominate; the large hot loops do little. Property: the
  share of runs (and of in-worker run time) per engine and per
  scenario, and the share that ended in an abort.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from perfbench.checks import bound_errors, verify_run
from perfbench.machine import REFERENCE_S, calibration_s
from repro.adversary import AdversaryPlan
from repro.analysis.sweeps import sweep
from repro.campaign import CampaignError, ParallelExecutor, ResultCache
from repro.campaign.checkpointing import DEFAULT_INTERVAL, CheckpointSpec
from repro.campaign.factories import EngineRun
from repro.campaign.model import Job
from repro.core.bandwidth import BandwidthClasses, BandwidthTier
from repro.core.mechanisms import CreditLimitedBarter, StrictBarter
from repro.core.serde import log_to_dict
from repro.faults import FaultPlan
from repro.overlays import random_regular_graph
from repro.sim import ENGINES, create_engine
from repro.telemetry import TelemetrySpec
from repro.workloads import WorkloadSpec

#: How many times a single-run workload re-opens its result cache and
#: serves every run again; ``resume_s`` is the median.
RESUME_REPEATS = 31
#: Passes of each calibration round a campaign worker takes after a run.
WORKER_CALIBRATION_LOOPS = 10_000


def derive(seed: int, *labels: object) -> int:
    """A 63-bit input seed for one labelled input of one workload seed."""
    key = "|".join(["perfbench", str(seed), *map(str, labels)])
    return random.Random(key).getrandbits(63)


@dataclass
class Iteration:
    """What one iteration did and how long it took.

    Times are reference seconds (see :class:`~perfbench.machine.
    ReferenceClock`) except ``raw_wall_s``, the measured seconds.
    """

    wall_s: float
    raw_wall_s: float
    sim_s: float
    node_ticks: int
    resume_s: float
    props: dict = field(default_factory=dict)
    #: The longest transfer log the iteration kept (for the traced
    #: run's bytes-per-row measurement).
    sample_log: object = None


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _walls(phases) -> dict:
    return {
        "wall_s": sum(p.ref for p in phases),
        "raw_wall_s": sum(p.raw for p in phases),
    }


def _ticks(result) -> int:
    return len(result.meta["uploads_per_tick"])


def _same_outcome(a, b) -> bool:
    """Completion and metadata agree, as a result cache round trip keeps them."""
    return (
        a.completion_time == b.completion_time
        and a.client_completions == b.client_completions
        and json.loads(json.dumps(a.meta, default=repr))
        == json.loads(json.dumps(b.meta, default=repr))
    )


def serve_again(results: dict, root: str) -> tuple[float, dict[str, list[str]]]:
    """The ``--resume`` path for single runs: store every run in a fresh
    :class:`ResultCache`, then time re-opening it and serving each run
    back (median of ``RESUME_REPEATS``); returns the time and, per run
    label, what came back wrong."""
    cache = ResultCache(root)
    jobs = {
        label: Job(experiment="perfbench", point=label, replicate=0, seed=0, fn=None)
        for label in results
    }
    for label, result in results.items():
        cache.put(jobs[label], result)
    times = []
    for _ in range(RESUME_REPEATS):
        start = time.perf_counter()
        reopened = ResultCache(root)
        served = {label: reopened.get(job) for label, job in jobs.items()}
        times.append(time.perf_counter() - start)
    shutil.rmtree(root)
    errors = {
        label: []
        if served[label] is not None and _same_outcome(result, served[label])
        else ["served back from the result cache changed"]
        for label, result in results.items()
    }
    return statistics.median(times), errors


class SwarmCoop:
    """One cooperative randomized run, n = k = 500, loop then array."""

    name = "swarm-coop"
    n = k = 500

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir

    def prepare(self, seed: int) -> dict:
        rng = derive(seed, self.name)
        return {
            backend: create_engine(
                "randomized", self.n, self.k, rng=rng, backend=backend, keep_log=True
            )
            for backend in ("loop", "array")
        }

    def iterate(self, engines: dict, tally, clock, tracer=None) -> Iteration:
        phases = []
        results = {}
        seconds = {}
        for backend, engine in engines.items():
            with clock.phase() as timed, _span(tracer, f"sim.{backend}_run"):
                results[backend] = engine.run(timed.lap)
            phases.append(timed)
            seconds[backend] = timed.ref
        errors = {}
        with clock.phase() as timed, _span(tracer, "check"):
            for backend, result in results.items():
                found, _ = verify_run(result)
                errors[backend] = found + bound_errors(result)
                timed.lap()
            loop, array = results["loop"], results["array"]
            loop_bytes = json.dumps(log_to_dict(loop.log, self.n, self.k))
            timed.lap()
            array_bytes = json.dumps(log_to_dict(array.log, self.n, self.k))
            if loop_bytes != array_bytes or not _same_outcome(loop, array):
                errors["array"].append("array log differs from the loop log")
        phases.append(timed)
        with clock.phase() as timed, _span(tracer, "resume"):
            resume_raw, served = serve_again(
                results, os.path.join(self.workdir, "resume")
            )
        phases.append(timed)
        for backend, result in results.items():
            tally.add(
                f"{self.name}/{backend}",
                errors=errors[backend] + served[backend],
                abort=result.abort,
            )
        ticks = {b: _ticks(r) for b, r in results.items()}
        return Iteration(
            **_walls(phases),
            sim_s=sum(seconds.values()),
            node_ticks=self.n * sum(ticks.values()),
            resume_s=resume_raw * timed.ref / timed.raw,
            props={
                "T": loop.completion_time,
                "rows": len(loop.log),
                "loop_ms_per_tick": 1000 * seconds["loop"] / ticks["loop"],
                "array_ms_per_tick": 1000 * seconds["array"] / ticks["array"],
            },
            sample_log=loop.log,
        )


class BarterStarve:
    """Credit-limited barter (s = 1) on random regular overlays with one
    throttled strategic client per run, n = k = 96, degree 36."""

    name = "barter-starve"
    n = k = 96
    degree = 36
    credit = 1
    #: Throttle of the strategic client in each run: one compliant run
    #: and two (a throttled client and a free-rider) that starve it and
    #: end at ``max_ticks``.
    throttles = (0.0, 0.5, 1.0)
    max_ticks = 1500

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir

    def prepare(self, seed: int) -> list:
        runs = []
        for i, p in enumerate(self.throttles):
            graph = random_regular_graph(self.n, self.degree, rng=derive(seed, "overlay", i))
            # Only barter can feed a client the server is not adjacent
            # to, so a throttled one starves whatever the seed.
            fed_by_barter = [v for v in range(1, self.n) if not graph.has_edge(0, v)]
            strategic = fed_by_barter[derive(seed, "strategic", i) % len(fed_by_barter)]
            engine = create_engine(
                "randomized",
                self.n,
                self.k,
                overlay=graph,
                mechanism=CreditLimitedBarter(self.credit),
                rng=derive(seed, "run", i),
                max_ticks=self.max_ticks,
                throttle={strategic: p} if p else None,
            )
            runs.append((f"throttle={p:g}", graph, engine))
        return runs

    def iterate(self, runs: list, tally, clock, tracer=None) -> Iteration:
        phases = []
        results = {}
        for label, _, engine in runs:
            with clock.phase() as timed, _span(tracer, "sim.loop_run"):
                results[label] = engine.run(timed.lap)
            phases.append(timed)
        sim_s = sum(p.ref for p in phases)
        errors = {}
        with clock.phase() as timed, _span(tracer, "check"):
            for label, graph, _ in runs:
                result = results[label]
                found, _ = verify_run(
                    result, mechanism=CreditLimitedBarter(self.credit), overlay=graph
                )
                errors[label] = found + bound_errors(result)
                timed.lap()
        phases.append(timed)
        with clock.phase() as timed, _span(tracer, "resume"):
            resume_raw, served = serve_again(
                results, os.path.join(self.workdir, "resume")
            )
        phases.append(timed)
        for label, result in results.items():
            tally.add(
                f"{self.name}/{label}",
                errors=errors[label] + served[label],
                abort=result.abort,
            )
        ticks = sum(_ticks(r) for r in results.values())
        idle = sum(
            sum(1 for made in r.meta["uploads_per_tick"] if made == 0)
            for r in results.values()
        )
        return Iteration(
            **_walls(phases),
            sim_s=sim_s,
            node_ticks=self.n * ticks,
            resume_s=resume_raw * timed.ref / timed.raw,
            props={
                "idle_tick_share": idle / ticks,
                "starved_runs": sum(1 for r in results.values() if r.abort),
                "rows": sum(len(r.log) for r in results.values()),
            },
            sample_log=max((r.log for r in results.values()), key=len),
        )


@dataclass(frozen=True)
class MixRun:
    """Campaign run factory whose sweep points are :class:`EngineRun`
    factories, so one sweep covers every engine and scenario.

    Stamps into ``meta["perfbench"]`` the run seed, the in-worker seconds
    of the ``EngineRun`` call, and the calibration time measured right
    after it on the same worker (see :class:`~perfbench.machine.
    ReferenceClock`) with the seconds that measurement took; the result
    cache stores them with the rest of the metadata.
    """

    supports_checkpoint = True

    def __call__(self, point, seed, checkpoint=None):
        start = time.perf_counter()
        if checkpoint is None:
            result = point(None, seed)
        else:
            result = point(None, seed, checkpoint=checkpoint)
        run_s = time.perf_counter() - start
        start = time.perf_counter()
        calibration = calibration_s(rounds=2, loops=WORKER_CALIBRATION_LOOPS)
        result.meta["perfbench"] = {
            "seed": seed,
            "run_s": run_s,
            "calibration_s": calibration,
            "calibrating_s": time.perf_counter() - start,
        }
        return result


SCENARIOS = ("null", "faults", "adversary", "broadband", "open-system")

_BROADBAND = (("fast", 0.25, 2, 4), ("cable", 0.50, 1, 2), ("dsl", 0.25, 1, 1))


def scenario_options(scenario: str, engine: str, seed: int, n: int) -> dict:
    """``EngineRun.configure`` keyword options of one scenario axis.

    Tier uploads above 1 and polluters go only to engines whose registry
    entry declares full support for them.
    """
    spec = ENGINES[engine]
    if scenario == "null":
        return {}
    if scenario == "faults":
        return {
            "faults": FaultPlan(
                loss_rate=0.05,
                crash_rate=0.01,
                rejoin_delay=4,
                rejoin_retention=0.5,
                max_crashes=2,
            )
        }
    if scenario == "adversary":
        rider, polluter = random.Random(derive(seed, "adversary")).sample(range(1, n), 2)
        if spec.adversary_support == "full":
            plan = AdversaryPlan(
                free_riders=(rider,),
                polluters=(polluter,),
                pollution_rate=0.5,
                strike_threshold=2,
            )
        else:
            plan = AdversaryPlan(free_riders=(rider,))
        return {"adversary": plan}
    if scenario == "broadband":
        uploads = spec.bandwidth_support == "full"
        tiers = tuple(
            BandwidthTier(name, share, upload=(u if uploads else 1), download=d)
            for name, share, u, d in _BROADBAND
        )
        return {"bandwidth": BandwidthClasses(tiers), "telemetry": TelemetrySpec()}
    if scenario == "open-system":
        return {
            "workload": WorkloadSpec(initial_fraction=0.5, arrival_rate=0.5, arrival_stop=20)
        }
    raise ValueError(f"unknown scenario {scenario!r}")


class CampaignMix:
    """Every registry engine under every scenario, as one cold campaign
    through ``sweep``/``ParallelExecutor`` with an armed checkpoint spec,
    then the same campaign served warm from the result cache."""

    name = "campaign-mix"
    n, k = 48, 24
    replicates = 4
    jobs = 2

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir

    def prepare(self, seed: int) -> dict:
        cases = []
        for engine in ENGINES:
            for scenario in SCENARIOS:
                options = scenario_options(scenario, engine, seed, self.n)
                cases.append(
                    (engine, scenario, options, EngineRun.configure(engine, self.n, self.k, **options))
                )
        return {"cases": cases, "base_seed": derive(seed, self.name)}

    def _sweep(self, prepared: dict, cache, executor):
        return sweep(
            [point for *_, point in prepared["cases"]],
            MixRun(),
            replicates=self.replicates,
            base_seed=prepared["base_seed"],
            keep_results=True,
            executor=executor,
            cache=cache,
            experiment="perfbench-campaign-mix",
        )

    def iterate(self, prepared: dict, tally, clock, tracer=None) -> Iteration:
        root = os.path.join(self.workdir, "campaign")
        cache_dir = os.path.join(root, "cache")
        executor = ParallelExecutor(
            self.jobs,
            checkpoint=CheckpointSpec(
                os.path.join(root, "checkpoints"), interval=DEFAULT_INTERVAL
            ),
        )
        labels = [
            f"{self.name}/{engine}/{scenario}/{r}"
            for engine, scenario, *_ in prepared["cases"]
            for r in range(self.replicates)
        ]
        try:
            with clock.phase() as cold_pass, _span(tracer, "campaign.cold"):
                cold = self._sweep(prepared, ResultCache(cache_dir), executor)
            with clock.phase() as warm_pass, _span(tracer, "campaign.warm"):
                warm = self._sweep(prepared, ResultCache(cache_dir), executor)
        except CampaignError as exc:
            for label in labels:
                tally.add(label, errors=[f"campaign failed: {exc}"])
            shutil.rmtree(root, ignore_errors=True)
            raise
        warm_stats = executor.last_stats
        missed = warm_stats.total - warm_stats.cached
        sim_s = 0.0
        node_ticks = 0
        stamps = []
        run_s: dict[str, float] = {}
        runs: dict[str, int] = {}
        aborts = 0
        sample_log = None
        with clock.phase() as check, _span(tracer, "check"):
            for (engine, scenario, options, _), cold_point, warm_point in zip(
                prepared["cases"], cold, warm
            ):
                for r, (result, served) in enumerate(
                    zip(cold_point.results, warm_point.results)
                ):
                    stamp = result.meta["perfbench"]
                    errors, defect = self._verify(engine, scenario, options, result, stamp["seed"])
                    if scenario == "null":
                        errors += bound_errors(result, strict_barter=engine == "exchange")
                    if not _same_outcome(result, served):
                        errors.append("warm outcome differs from the cold run")
                    if missed:
                        errors.append(f"warm pass executed {missed} runs instead of serving them")
                    tally.add(
                        f"{self.name}/{engine}/{scenario}/{r}",
                        errors=errors,
                        abort=result.abort,
                        defect=defect,
                    )
                    stamps.append(stamp)
                    sim_s += stamp["run_s"] * REFERENCE_S / stamp["calibration_s"]
                    node_ticks += result.n * _ticks(result)
                    aborts += result.abort is not None
                    if sample_log is None or len(result.log) > len(sample_log):
                        sample_log = result.log
                    for key in (f"engine={engine}", f"scenario={scenario}"):
                        run_s[key] = run_s.get(key, 0.0) + stamp["run_s"]
                        runs[key] = runs.get(key, 0) + 1
                    check.lap()
        shutil.rmtree(root)
        # The cold pass runs in the workers, so the workers' own
        # calibration rounds measure its speed: it is scaled like the
        # runs were, on average weighted by run time. The time the rounds
        # took is spread over the workers and taken out of the pass.
        cold_pass.raw -= sum(s["calibrating_s"] for s in stamps) / self.jobs
        cold_pass.ref = cold_pass.raw * sim_s / sum(s["run_s"] for s in stamps)
        total = len(labels)
        return Iteration(
            **_walls((cold_pass, warm_pass, check)),
            sim_s=sim_s,
            node_ticks=node_ticks,
            resume_s=warm_pass.ref,
            props={
                "runs": total,
                "cold_s": cold_pass.ref,
                "abort_share": aborts / total,
                "run_share": {key: count / total for key, count in runs.items()},
                "run_time_share": {key: s / sim_s for key, s in run_s.items()},
                "warm_cache_hit_ratio": warm_stats.cached / warm_stats.total,
            },
            sample_log=sample_log,
        )

    def _verify(self, engine, scenario, options, result, seed):
        model = None
        if "bandwidth" in options:
            # The realized per-node tiers are drawn from the run's own
            # seed at construction; rebuilding the engine recovers them.
            built = create_engine(engine, self.n, self.k, rng=seed, **options)
            model = getattr(built, "kernel", built).model
        adversary = options.get("adversary")
        return verify_run(
            result,
            engine=engine,
            scenario=scenario,
            model=model,
            mechanism=StrictBarter() if engine == "exchange" else None,
            strike_threshold=(adversary.strike_threshold or None) if adversary else None,
            open_system=scenario == "open-system",
        )


WORKLOADS = {cls.name: cls for cls in (SwarmCoop, BarterStarve, CampaignMix)}
