"""Resilience experiment: the price of barter on a faulty network.

The paper evaluates every mechanism on a perfect network, so this
experiment has no paper baseline — it extends the comparison along the
robustness axis the paper leaves to "systems specifically tailored toward
goals like robustness". The question it answers: *when transfers fail and
nodes crash, how much of the damage is the mechanism's fault?*

All six registry mechanisms run over the same loss x crash grid on a
complete graph, with identical fault seeds per grid point:

* **cooperative** — uploads freely; faults only cost repeated attempts;
* **credit-limited barter** (``s`` from the scale) — a crashed node that
  rejoins empty-handed can still be fed ``s`` blocks per neighbor on
  credit, so recovery is gated but not blocked;
* **strict barter** (randomized exchange) — a rejoining node with
  nothing to trade can only be re-fed by the server's one free seed per
  tick, so crashes starve it and completion probability collapses first;
* **bittorrent** — tit-for-tat choking; a crashed peer is evicted from
  all unchoke sets and a rejoiner bootstraps through the server's
  optimistic unchoke;
* **coding** — random linear network coding; a crash truncates the
  node's GF(2) basis to the sampled retained rows;
* **async** — the continuous-time engine on kernel event windows, same
  crash/rejoin semantics judged per unit-time window.

Crash faults use crash-rejoin (delay and retention from the scale): a
crash permanently destroys a sampled fraction of a node's blocks, which
can make blocks server-only again. Reported per point: completion
probability, mean completion time of completed runs, overhead against
the same mechanism's fault-free baseline, wasted-upload fraction, and
the abort breakdown (proven deadlock / stall / tick-guard).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.resilience import (
    abort_breakdown,
    completion_probability,
    overhead_ratio,
    wasted_upload_fraction,
)
from ..analysis.sweeps import sweep
from ..core.mechanisms import CreditLimitedBarter
from ..faults.plan import FaultPlan
from ..sim.registry import run_engine
from .figures import FigureResult
from .scale import Scale, resolve_scale

__all__ = ["resilience"]

MECHANISMS = (
    "cooperative",
    "credit",
    "strict",
    "bittorrent",
    "coding",
    "async",
)


@dataclass(frozen=True)
class _ResilienceRun:
    """Factory: point = (mechanism, loss_rate, crash_rate).

    Picklable (parallel executors ship it to workers); the fault plan is
    rebuilt per call from the point, and a (0, 0) point yields a *null*
    plan — the baseline runs are bit-identical to plain ones.
    """

    n: int
    k: int
    credit: int
    rejoin_delay: int
    retention: float
    max_crashes: int | None
    max_ticks: int

    def __call__(self, point: object, seed: int):
        mechanism, loss, crash = point  # type: ignore[misc]
        plan = FaultPlan(
            loss_rate=float(loss),
            crash_rate=float(crash),
            rejoin_delay=self.rejoin_delay if crash else 0,
            rejoin_retention=self.retention if crash else 0.0,
            max_crashes=self.max_crashes,
        )
        # Engines are constructed by registry name; the kwargs mirror the
        # old per-mechanism wrappers exactly, so the seeds' draw order —
        # and therefore every number in the figure — is unchanged.
        if mechanism == "cooperative":
            return run_engine(
                "randomized", self.n, self.k, rng=seed,
                max_ticks=self.max_ticks, keep_log=False, faults=plan,
            )
        if mechanism == "credit":
            return run_engine(
                "randomized", self.n, self.k,
                mechanism=CreditLimitedBarter(self.credit), rng=seed,
                max_ticks=self.max_ticks, keep_log=False, faults=plan,
            )
        if mechanism == "strict":
            return run_engine(
                "exchange", self.n, self.k, rng=seed,
                max_ticks=self.max_ticks, faults=plan,
            )
        if mechanism in ("bittorrent", "coding", "async"):
            # Registry engines by their own names — every engine carries
            # the full fault model, so the same plan applies verbatim.
            return run_engine(
                mechanism, self.n, self.k, rng=seed,
                max_ticks=self.max_ticks, keep_log=False, faults=plan,
            )
        raise ValueError(f"unknown mechanism {mechanism!r}")


def resilience(
    scale: str | Scale | None = None,
    base_seed: int = 53,
    replicas_per_batch: int | None = None,
) -> FigureResult:
    """Completion probability and overhead under loss x crash faults.

    ``replicas_per_batch`` routes the replicate sweep through the
    batched execution path; the resilience readers work off per-run
    meta (``failed_transfers``, ``uploads_per_tick``, abort reasons),
    all preserved by the columnar summaries, so the figure is identical.
    ``None`` defers to the ambient campaign configuration.
    """
    s = resolve_scale(scale)
    factory = _ResilienceRun(
        n=s.res_n,
        k=s.res_k,
        credit=s.res_credit,
        rejoin_delay=s.res_rejoin_delay,
        retention=s.res_retention,
        max_crashes=s.res_max_crashes,
        max_ticks=s.res_max_ticks,
    )
    points = [
        (mech, loss, crash)
        for mech in MECHANISMS
        for loss in s.res_loss_rates
        for crash in s.res_crash_rates
    ]
    swept = sweep(
        points,
        factory,
        replicates=s.replicates,
        base_seed=base_seed,
        keep_results=True,
        experiment="resilience",
        replicas_per_batch=replicas_per_batch,
    )

    by_point = {p.label: p for p in swept}
    baselines = {
        mech: by_point[(mech, s.res_loss_rates[0], s.res_crash_rates[0])]
        for mech in MECHANISMS
    }

    rows: list[dict[str, object]] = []
    series: dict[str, list[tuple[float, float]]] = {}
    for mech, loss, crash in points:
        point = by_point[(mech, loss, crash)]
        results = point.results
        prob = completion_probability(results)
        base = baselines[mech].mean_completion
        overhead = overhead_ratio(results, base) if base else None
        breakdown = abort_breakdown(results)
        rows.append(
            {
                "mechanism": mech,
                "loss": loss,
                "crash": crash,
                "P(complete)": prob,
                "mean T": point.mean_completion,
                "overhead": overhead,
                "wasted": wasted_upload_fraction(results),
                "deadlock": breakdown["deadlock"],
                "stall": breakdown["stall"] + breakdown["max-ticks"],
            }
        )
        if crash == max(s.res_crash_rates):
            series.setdefault(f"{mech} (crash={crash})", []).append(
                (float(loss), prob)
            )

    notes = [
        "no paper baseline: the paper assumes a perfect network; this "
        "sweep extends it along the robustness axis",
        "strict barter's completion probability collapses first under "
        "crashes (a rejoined node has nothing to trade; only the server's "
        "one free seed per tick re-feeds it), while credit-limited barter "
        "tracks cooperative at bounded overhead",
        "all six registry mechanisms sweep the same grid with identical "
        "fault seeds — bittorrent, coding and async graduated to full "
        "crash/rejoin support (see the fault parity table in docs/API.md)",
        f"crash points use crash-rejoin: delay {s.res_rejoin_delay} ticks, "
        f"retention {s.res_retention}, "
        + (
            f"at most {s.res_max_crashes} crashes"
            if s.res_max_crashes is not None
            else "sustained hazard (no crash cap)"
        ),
    ]
    return FigureResult(
        name="Resilience",
        title=(
            f"fault injection, n={s.res_n}, k={s.res_k}, "
            f"credit s={s.res_credit}"
        ),
        scale=s.name,
        columns=(
            "mechanism", "loss", "crash", "P(complete)", "mean T",
            "overhead", "wasted", "deadlock", "stall",
        ),
        rows=rows,
        series=series,
        x_label="loss rate",
        y_label="P(complete)",
        notes=notes,
    )
