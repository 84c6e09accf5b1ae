"""Command-line runner for every reproduced figure, table and ablation.

Usage (installed as ``repro-experiments``, or ``python -m
repro.experiments``)::

    repro-experiments fig3 --scale lite
    repro-experiments all --scale ci --json results.json
    repro-experiments all --scale lite --jobs 8 --cache-dir cache/
    repro-experiments table

Each experiment prints its table (and ASCII plot) and can dump
machine-readable rows as JSON for downstream processing.

Campaign execution: ``--jobs N`` fans every sweep out over ``N`` worker
processes; ``--cache-dir DIR`` stores per-task results content-addressed
so a repeated or interrupted invocation skips completed tasks;
``--resume`` is the convenience form that enables the cache at its
default location. Results are identical at any ``--jobs`` because every
task's seed is derived up front (see :mod:`repro.campaign`).

``--replicas-per-batch S`` routes every sweep through the batched
execution path: each point's replicates are chunked into batches of at
most ``S`` runs, executed whole inside one worker, and shipped back as
compact columnar summaries (see :mod:`repro.campaign.summaries`) — the
same results, far less pickling and scheduling overhead.

``--backend array`` switches array-capable engines to the vectorized
:mod:`repro.sim.array` backend — byte-identical results, faster ticks at
large n; exported as ``REPRO_BACKEND`` so parallel workers inherit it.

Preemption tolerance: ``--checkpoint-interval N`` makes every
checkpoint-capable task write a kernel checkpoint every ``N`` ticks (plus
a heartbeat), so a killed worker's retry resumes mid-run instead of
starting over; ``--resume-run DIR`` points at a previous invocation's
checkpoint directory to pick up its surviving checkpoints. Task results
are bit-identical either way (see :mod:`repro.checkpoint`).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from collections.abc import Callable, Sequence

from ..campaign import (
    CheckpointSpec,
    ConsoleProgress,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    configured,
)
from ..campaign.checkpointing import DEFAULT_INTERVAL
from .ablations import (
    ablation_efficiency,
    ablation_estimated_rarest,
    ablation_riffle_stride,
    ablation_rotation,
)
from .diagrams import figure1, figure2
from .extensions import (
    extension_asynchrony,
    extension_coding,
    extension_incentives,
    extension_bittorrent,
    extension_churn,
    extension_embedding,
    extension_triangular,
    extension_freerider,
    extension_multiserver,
)
from .adversary import adversary
from .figures import FigureResult, completion_fit, figure3, figure4, figure5, figure6, figure7
from .heterogeneity import heterogeneity
from .open_system import open_system
from .resilience import resilience
from .scale import SCALES
from .tables import price_table, schedule_table

__all__ = [
    "main",
    "EXPERIMENTS",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_CHECKPOINT_DIR",
]

EXPERIMENTS: dict[str, Callable[..., FigureResult]] = {
    "fig1": figure1,
    "fig2": figure2,
    "fig3": figure3,
    "fig4": figure4,
    "fig5": figure5,
    "fig6": figure6,
    "fig7": figure7,
    "fit": completion_fit,
    "table": schedule_table,
    "price": price_table,
    "ablation-stride": ablation_riffle_stride,
    "ablation-efficiency": ablation_efficiency,
    "ablation-estimated-rarest": ablation_estimated_rarest,
    "ablation-rotation": ablation_rotation,
    "ext-multiserver": extension_multiserver,
    "ext-asynchrony": extension_asynchrony,
    "ext-bittorrent": extension_bittorrent,
    "ext-freerider": extension_freerider,
    "ext-embedding": extension_embedding,
    "ext-churn": extension_churn,
    "ext-triangular": extension_triangular,
    "ext-coding": extension_coding,
    "ext-incentives": extension_incentives,
    "resilience": resilience,
    "open-system": open_system,
    "adversary": adversary,
    "heterogeneity": heterogeneity,
}

DEFAULT_CACHE_DIR = ".repro-campaign-cache"
DEFAULT_CHECKPOINT_DIR = ".repro-campaign-checkpoints"


def _to_jsonable(result: FigureResult) -> dict[str, object]:
    return {
        "name": result.name,
        "title": result.title,
        "scale": result.scale,
        "columns": list(result.columns),
        "rows": result.rows,
        "notes": result.notes,
        "fit": (
            {
                "a": result.fit.a,
                "b": result.fit.b,
                "c": result.fit.c,
                "r_squared": result.fit.r_squared,
            }
            if result.fit
            else None
        ),
    }


class _CampaignTally:
    """Accumulate task outcomes across every sweep of one experiment.

    A single experiment may run several campaigns (Figure 5 sweeps the
    regular overlays and the reference overlays separately), so the CLI
    tallies outcomes through the progress hook instead of reading one
    executor's per-campaign stats.
    """

    def __init__(self, console: ConsoleProgress | None = None) -> None:
        self.console = console
        self.executed = 0
        self.cached = 0
        self.failed = 0

    def reset(self) -> None:
        self.executed = self.cached = self.failed = 0

    @property
    def total(self) -> int:
        return self.executed + self.cached + self.failed

    def __call__(self, stats, outcome) -> None:
        if outcome.source == "cache":
            self.cached += 1
        elif outcome.ok:
            self.executed += 1
        else:
            self.failed += 1
        if self.console is not None:
            self.console(stats, outcome)

    def summary(self) -> str:
        return (
            f"{self.executed} executed, {self.cached} cached, "
            f"{self.failed} failed"
        )


def _experiment_kwargs(
    fn: Callable[..., FigureResult], scale: str | None, seed: int | None
) -> dict[str, object]:
    """Build call kwargs, passing the seed override only where it applies.

    Experiments without randomness (the schedule diagrams and tables)
    take no ``base_seed``; the flag is silently inapplicable to them.
    """
    kwargs: dict[str, object] = {"scale": scale}
    if seed is not None and "base_seed" in inspect.signature(fn).parameters:
        kwargs["base_seed"] = seed
    return kwargs


def _engine_table() -> str:
    """Render the :mod:`repro.sim` engine registry as an aligned table."""
    from ..sim.registry import ENGINES

    rows = [("engine", "array", "adversary", "bandwidth", "mechanism", "summary")]
    rows.extend(
        (
            spec.name,
            "yes" if spec.array_backend else "no",
            spec.adversary_support,
            spec.bandwidth_support,
            spec.mechanism,
            spec.summary,
        )
        for spec in ENGINES.values()
    )
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row[:5]))
        + "  "
        + row[5]
        for row in rows
    ]
    lines.insert(1, "-" * max(map(len, lines)))
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the figures and tables of 'On Cooperative Content "
            "Distribution and the Price of Barter' (ICDCS 2005)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all", "engines"],
        help="which figure/table/ablation to run ('engines' lists the "
        "simulation engine registry)",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=None,
        help="parameter scale (default: REPRO_SCALE env var, else 'lite')",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write machine-readable rows to this JSON file",
    )
    parser.add_argument(
        "--no-plot", action="store_true", help="suppress ASCII plots"
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for sweep execution (default 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "content-addressed result cache; completed tasks found here "
            "are skipped and fresh results are stored for next time"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume an interrupted run from cached results (uses "
            f"{DEFAULT_CACHE_DIR!r} when --cache-dir is not given)"
        ),
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        metavar="N",
        help=(
            "write a kernel checkpoint (and heartbeat) every N ticks for "
            "each checkpoint-capable task, so killed workers resume "
            f"mid-run; stored under {DEFAULT_CHECKPOINT_DIR!r} unless "
            "--resume-run names a directory"
        ),
    )
    parser.add_argument(
        "--resume-run",
        metavar="DIR",
        default=None,
        help=(
            "checkpoint directory of a previous invocation; surviving "
            "per-task checkpoints there are resumed from (implies "
            f"--checkpoint-interval {DEFAULT_INTERVAL} when not given)"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help=(
            "override every experiment's base seed (experiments without "
            "randomness ignore it)"
        ),
    )
    parser.add_argument(
        "--replicas-per-batch",
        type=int,
        default=None,
        metavar="S",
        help=(
            "batch S seed-replicas per point into one schedulable task "
            "(the batched execution path: workers run whole batches and "
            "return compact columnar summaries instead of pickled "
            "transfer logs); results are bit-identical to the default "
            "job-per-run path"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render live campaign progress (tasks/sec, ETA) on stderr",
    )
    parser.add_argument(
        "--backend",
        choices=("loop", "array"),
        default=None,
        help=(
            "simulation kernel backend: 'array' switches array-capable "
            "engines to the vectorized repro.sim.array backend "
            "(byte-identical results); engines without array support "
            "keep the loop. Default: REPRO_BACKEND env var, else 'loop'"
        ),
    )
    args = parser.parse_args(argv)

    if args.backend is not None:
        from ..sim.registry import set_default_backend

        # Env too, so ParallelExecutor worker processes (which read
        # REPRO_BACKEND at import) inherit the choice.
        os.environ["REPRO_BACKEND"] = args.backend
        set_default_backend(args.backend)

    if args.experiment == "engines":
        print(_engine_table())
        return 0

    if args.jobs < 1:
        parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")
    if args.checkpoint_interval is not None and args.checkpoint_interval < 1:
        parser.error(
            "argument --checkpoint-interval: must be >= 1, "
            f"got {args.checkpoint_interval}"
        )
    if args.replicas_per_batch is not None and args.replicas_per_batch < 1:
        parser.error(
            "argument --replicas-per-batch: must be >= 1, "
            f"got {args.replicas_per_batch}"
        )
    checkpoint = None
    if args.checkpoint_interval is not None or args.resume_run is not None:
        checkpoint = CheckpointSpec(
            args.resume_run or DEFAULT_CHECKPOINT_DIR,
            interval=args.checkpoint_interval or DEFAULT_INTERVAL,
        )
    executor = (
        ParallelExecutor(jobs=args.jobs, checkpoint=checkpoint)
        if args.jobs > 1
        else SerialExecutor(checkpoint=checkpoint)
    )
    cache_dir = args.cache_dir or (DEFAULT_CACHE_DIR if args.resume else None)
    cache = ResultCache(cache_dir) if cache_dir else None
    console = ConsoleProgress(sys.stderr) if args.progress else None
    tally = _CampaignTally(console)

    run_all = args.experiment == "all"
    names = list(EXPERIMENTS) if run_all else [args.experiment]
    outputs: list[dict[str, object]] = []
    summary: list[tuple[str, bool, float, str | None]] = []
    with configured(
        executor=executor,
        cache=cache,
        progress=tally,
        replicas_per_batch=args.replicas_per_batch,
    ):
        for name in names:
            fn = EXPERIMENTS[name]
            tally.reset()
            started = time.monotonic()
            try:
                result = fn(**_experiment_kwargs(fn, args.scale, args.seed))
            except Exception as exc:  # noqa: BLE001 - reported in summary
                elapsed = time.monotonic() - started
                if console is not None:
                    console.close()
                if not run_all:
                    raise
                summary.append((name, False, elapsed, f"{type(exc).__name__}: {exc}"))
                print(f"[{name} FAILED after {elapsed:.1f}s: {exc}]")
                print()
                continue
            elapsed = time.monotonic() - started
            if console is not None:
                console.close()
            print(result.render(plot=not args.no_plot))
            if cache is not None and tally.total:
                print(f"[campaign: {tally.summary()}]")
            print(f"[{name} finished in {elapsed:.1f}s]")
            print()
            summary.append((name, True, elapsed, None))
            outputs.append(_to_jsonable(result))

    failed = [s for s in summary if not s[1]]
    if run_all:
        print("== summary ==")
        for name, ok, elapsed, error in summary:
            status = "ok  " if ok else "FAIL"
            line = f"{name:<26} {status} {elapsed:7.1f}s"
            if error:
                line += f"  {error}"
            print(line)
        print(
            f"{len(summary) - len(failed)} passed, {len(failed)} failed "
            f"in {sum(s[2] for s in summary):.1f}s"
        )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(outputs, handle, indent=2, default=str)
        print(f"wrote {args.json}")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
