"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload swarm-coop --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
unmodified: ``setup_s`` from several fresh interpreters (median), then
whole iterations until ``--seconds`` are spent. ``--trace 1`` runs a
third of the time untraced, then installs the span wrappers of
:mod:`perfbench.tracer` and spends the rest traced, and reports the
per-layer metrics. The next-to-last line of output is a report with the
machine fingerprint and every other number; the last line is the
result. The report, and in a traced run every span, is also written to
``.perfbench/`` in the checkout. The exit code is 0 only when every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Fresh interpreters started to measure ``setup_s``.
SETUP_REPEATS = 7


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help=argparse.SUPPRESS,  # internal: one fresh-interpreter set-up
    )
    return parser.parse_args(argv)


def _probe_setup(args, clock) -> list[float]:
    """Reference seconds from starting a fresh interpreter until the
    workload's first run could start, once per ``SETUP_REPEATS``."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        with clock.phase() as timed:
            probe = subprocess.Popen(
                command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True,
            )
            line = probe.stdout.readline()
        # The probe waits for its standard input to close, so it stays
        # idle while the clock calibrates.
        probe.communicate(timeout=60)
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {probe.returncode})")
        times.append(timed.ref)
    return times


def _run_iterations(workload, seed, tally, clock, tracer, until, iterations):
    """Run whole iterations, at least one, while the next is expected to
    end before ``until``; append them to ``iterations``. Only the latest
    iteration keeps its sample log, and only in a traced run."""
    last = 0.0
    while not iterations or time.perf_counter() + last <= until:
        began = time.perf_counter()
        if iterations:
            iterations[-1].sample_log = None
        if tracer is not None:
            tracer.iteration += 1
            with tracer.span("prepare"):
                prepared = workload.prepare(seed)
            with tracer.span("iteration"):
                iterations.append(workload.iterate(prepared, tally, clock, tracer))
        else:
            prepared = workload.prepare(seed)
            iterations.append(workload.iterate(prepared, tally, clock))
            iterations[-1].sample_log = None
        del prepared
        last = time.perf_counter() - began


def _median_props(iterations) -> dict:
    """Per-iteration properties: the median of numbers, the last value of
    anything else."""
    props = {}
    for key, value in iterations[-1].props.items():
        if isinstance(value, (int, float)):
            value = statistics.median(it.props[key] for it in iterations)
        props[key] = value
    return props


def _crosscheck(props: dict) -> dict:
    """Loop and array ms/tick beside the ROADMAP baseline's n = k = 1000
    figures; the loop/array ratio is what should carry over."""
    loop, array = props["loop_ms_per_tick"], props["array_ms_per_tick"]
    return {
        "n=k=500": {"loop_ms_per_tick": loop, "array_ms_per_tick": array,
                    "loop_over_array": loop / array},
        "roadmap_n=k=1000": {"loop_ms_per_tick": 15.5, "array_ms_per_tick": 8.2,
                             "loop_over_array": 15.5 / 8.2},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT} has no src/repro to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workload = WORKLOADS[args.workload](str(workdir))
    if args.setup_probe:
        workload.prepare(args.seed)
        print("ready", flush=True)
        sys.stdin.read()
        return 0

    from perfbench.machine import ReferenceClock, fingerprint, peak_rss_mb, reap_children
    from perfbench.stats import Tally, timing_report

    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    report: dict[str, object] = {"workload": args.workload, "seed": args.seed}
    tracer = None
    try:
        clock = ReferenceClock(laps=not args.trace)
        setup = [] if args.trace else _probe_setup(args, clock)
        start = time.perf_counter()
        deadline = start + args.seconds
        untraced: list = []
        traced: list = []
        if args.trace:
            from perfbench.tracer import Tracer, instrument

            _run_iterations(workload, args.seed, tally, clock, None,
                            start + args.seconds / 3, untraced)
            tracer = Tracer(worker_dir=str(workdir))
            instrument(tracer)
            _run_iterations(workload, args.seed, tally, clock, tracer, deadline, traced)
            reap_children()
            tracer.absorb_workers()
        else:
            _run_iterations(workload, args.seed, tally, clock, None, deadline, untraced)
            reap_children()
        props = _median_props(untraced)
        if args.trace:
            from perfbench.layers import per_layer

            metrics, layers = per_layer(
                tracer,
                len(traced),
                [it.wall_s for it in traced],
                [it.wall_s for it in untraced],
                traced[-1].sample_log,
                getattr(workload, "jobs", 1),
                scale=sum(it.wall_s for it in traced) / sum(it.raw_wall_s for it in traced),
            )
            layers["campaign.cache_hit_ratio"] = props.get(
                "warm_cache_hit_ratio", "n/a: no result cache in this workload"
            )
            report["per_layer"] = layers
            report["iterations"] = {"untraced": len(untraced), "traced": len(traced)}
        else:
            walls = [it.wall_s for it in untraced]
            throughput = [it.node_ticks / it.sim_s for it in untraced]
            resumes = [it.resume_s for it in untraced]
            rss = peak_rss_mb(with_children=args.workload == "campaign-mix")
            metrics = {
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "node_ticks_per_s": {"value": statistics.median(throughput), "unit": "1/s"},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
                "resume_s": {"value": statistics.median(resumes), "unit": "s"},
            }
            report["timings"] = {
                "wall_s": timing_report(walls),
                "raw_wall_s": timing_report([it.raw_wall_s for it in untraced]),
                "setup_s": timing_report(setup),
                "node_ticks_per_s": timing_report(throughput),
                "resume_s": timing_report(resumes),
            }
        report["failed_frac"] = {"value": tally.failed_frac, "unit": "ratio"}
        report["aborted_runs"] = tally.aborted
        report["known_defects"] = dict(tally.known_defects)
        report["errors"] = tally.errors[:20]
        report["properties"] = props
        if args.workload == "swarm-coop":
            report["roadmap_crosscheck"] = _crosscheck(props)
        report["machine"] = fingerprint(ROOT, statistics.median(clock.samples))
    except Exception:  # noqa: BLE001 - any crash is a failed benchmark run
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    document = dict(report)
    if tracer is not None:
        document["trace"] = tracer.dump()
    (out_dir / name).write_text(json.dumps(document, default=repr))
    print(json.dumps({"report": report}, default=repr))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
