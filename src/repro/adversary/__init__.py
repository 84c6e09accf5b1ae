"""Adversarial behavior for the simulation engines.

The paper argues barter buys robustness against non-cooperation; this
package supplies the non-cooperation so the claim can be stressed. An
:class:`AdversaryPlan` declares the misbehavior (free-riders who never
upload, polluters whose blocks fail integrity checks, liars who
advertise blocks they will not serve, activation windows, strike-based
blacklisting), an :class:`AdversaryDriver` realises it per run from a
dedicated RNG stream, and every engine's policy class declares how much
of the model it honors (``adversary_support``). Engines run
under a plan through :func:`adversary_run`, which constructs them by
:mod:`repro.sim` registry name (engines also take ``adversary=`` keyword
arguments directly).
"""

from __future__ import annotations

import random
from typing import Callable

from ..core.log import RunResult
from .driver import PHANTOM, POLLUTED, AdversaryDriver
from .plan import AdversaryPlan

__all__ = [
    "AdversaryPlan",
    "AdversaryDriver",
    "POLLUTED",
    "PHANTOM",
    "adversary_run",
]


def adversary_run(
    engine: str,
    n: int,
    k: int,
    adversary: AdversaryPlan | None,
    *,
    rng: random.Random | int | None = None,
    max_ticks: int | None = None,
    keep_log: bool = True,
    progress: Callable[[int, int], None] | None = None,
    **kwargs: object,
) -> RunResult:
    """Run any registry engine under an adversary plan, chosen by name.

    A thin veneer over :func:`repro.sim.registry.run_engine` that leads
    with the adversary argument — the adversary suite's idiom for "same
    plan, every engine". Plans an engine cannot honor raise
    :class:`~repro.core.errors.ConfigError` at construction (see
    ``EngineSpec.adversary_support``).
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
        adversary=adversary,
        progress=progress,
        **kwargs,
    )
