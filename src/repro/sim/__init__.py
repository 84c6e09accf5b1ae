"""The shared simulation kernel and engine registry.

One :class:`TickKernel` drives every tick-synchronous engine in the
library; each engine is a :class:`TickPolicy` deciding who uploads what
to whom, and the :data:`~repro.sim.registry.ENGINES` registry constructs
any of them by name with a uniform option surface (fault plan, recovery
policy, progress callback, max-ticks). See :mod:`repro.sim.kernel` for
the contract.
"""

from .kernel import TickKernel, default_max_ticks
from .policy import TickPolicy
from .registry import (
    ENGINES,
    EngineSpec,
    create_engine,
    default_backend,
    engine_names,
    run_engine,
    set_default_backend,
)

__all__ = [
    "ENGINES",
    "EngineSpec",
    "TickKernel",
    "TickPolicy",
    "create_engine",
    "default_backend",
    "default_max_ticks",
    "engine_names",
    "run_engine",
    "set_default_backend",
]
