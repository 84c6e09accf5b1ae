"""Fault injection and recovery for the simulation engines.

The paper assumes a perfect network; this package measures what its
mechanisms are worth without one. A :class:`FaultPlan` declares the
faults (transfer loss, link outages, node crashes with optional rejoin,
server outage windows), a :class:`FaultInjector` realises them per run
from a dedicated RNG stream, and a :class:`RecoveryPolicy` describes the
countermeasures (bounded retry with backoff, stall detection, server
reseeding). Deterministic schedules are perturbed through
:func:`replay_schedule`; simulation engines run under a plan through
:func:`fault_run`, which constructs them by :mod:`repro.sim` registry
name (engines also take ``faults=`` / ``recovery=`` keyword arguments
directly).
"""

from __future__ import annotations

import random
from typing import Callable

from ..core.log import RunResult
from .injector import FaultInjector
from .plan import FaultPlan
from .recovery import RecoveryPolicy
from .replay import replay_schedule

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "RecoveryPolicy",
    "fault_run",
    "replay_schedule",
]


def fault_run(
    engine: str,
    n: int,
    k: int,
    faults: FaultPlan | None,
    *,
    recovery: RecoveryPolicy | None = None,
    rng: random.Random | int | None = None,
    max_ticks: int | None = None,
    keep_log: bool = True,
    progress: Callable[[int, int], None] | None = None,
    **kwargs: object,
) -> RunResult:
    """Run any registry engine under a fault plan, engine chosen by name.

    A thin veneer over :func:`repro.sim.registry.run_engine` that leads
    with the fault arguments — the fault suite's idiom for "same plan,
    every engine". Every engine honors every fault axis, node crashes
    included.
    """
    # Imported lazily: the kernel imports this package, so a top-level
    # import of repro.sim here would be circular.
    from ..sim.registry import run_engine

    return run_engine(
        engine,
        n,
        k,
        rng=rng,
        max_ticks=max_ticks,
        keep_log=keep_log,
        faults=faults,
        recovery=recovery,
        progress=progress,
        **kwargs,
    )
