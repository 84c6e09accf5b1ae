"""The engine registry: construct any simulation engine by name.

The paper's point is comparing *mechanisms* under one model; the registry
is that comparison surface in code. Every entry accepts the same kernel
options (``rng``, ``max_ticks``, ``keep_log``, ``faults``, ``recovery``,
and a ``progress`` callback on :func:`run_engine`) and returns a
:class:`~repro.core.log.RunResult` with the uniform
``None | deadlock | stall | max-ticks`` abort verdict — which is what
lets experiment runners, campaign factories and the fault suite treat
engines as data::

    from repro.sim import run_engine

    result = run_engine("randomized", n=100, k=100, rng=42)
    result = run_engine("exchange", n=50, k=20, rng=7,
                        faults=FaultPlan(loss_rate=0.05))

Every engine honors every fault axis and open-system workloads. What
differs is declared once, on the engine's
:class:`~repro.sim.policy.TickPolicy` class, which each
:class:`EngineSpec` names and reads its capabilities from.

Array-capable engines (``EngineSpec.array_backend``) additionally accept
``backend="array"`` — the :mod:`repro.sim.array` vectorized backend,
byte-identical to the default loop. The ambient default is ``"loop"``;
:func:`set_default_backend` or the ``REPRO_BACKEND`` environment variable
(read once at import, so parallel-executor workers inherit it) switch it
swarm-wide, in which case array-capable engines pick the array backend up
*softly* — engines without array support keep the loop. Passing
``backend=`` explicitly always wins, and an *explicit* ``"array"`` on an
unsupporting engine raises ``ConfigError`` naming the engine. So does
the first use of an unknown ``REPRO_BACKEND`` value, on any engine.

Engine modules are imported lazily, by each factory and by
``EngineSpec.policy_class``: the registry is imported by
:mod:`repro.sim`, which the engines themselves import for the kernel,
and laziness breaks that cycle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable

from ..core.errors import ConfigError
from ..core.log import RunResult
from .policy import TickPolicy

__all__ = [
    "ENGINES",
    "EngineSpec",
    "create_engine",
    "default_backend",
    "engine_names",
    "run_engine",
    "set_default_backend",
]


@dataclass(frozen=True)
class EngineSpec:
    """One registry entry: how to build an engine and what it can do."""

    #: Registry key (also the conventional CLI / campaign label).
    name: str
    #: One-line description for listings.
    summary: str
    #: Paper mechanism the engine realises (see DESIGN.md mapping).
    mechanism: str
    #: Dotted path of the engine's :class:`~repro.sim.policy.TickPolicy`
    #: class, the one place its capabilities are declared.
    policy: str
    #: ``factory(n, k, **kwargs)`` returning an object with
    #: ``run(progress=None) -> RunResult``.
    factory: Callable[..., Any]

    @property
    def policy_class(self) -> type[TickPolicy]:
        """The policy class named by :attr:`policy`, imported on demand."""
        module, _, cls = self.policy.rpartition(".")
        return getattr(import_module(module), cls)

    # Capabilities, read from the policy class (see its attributes).

    @property
    def array_backend(self) -> bool:
        return self.policy_class.supports_array

    @property
    def adversary_support(self) -> str:
        return self.policy_class.adversary_support

    @property
    def bandwidth_support(self) -> str:
        return self.policy_class.bandwidth_support


def _randomized(n: int, k: int, **kwargs: Any) -> Any:
    from ..randomized.engine import RandomizedEngine

    return RandomizedEngine(n, k, **kwargs)


def _churn(n: int, k: int, **kwargs: Any) -> Any:
    from ..randomized.churn import ChurnEngine

    return ChurnEngine(n, k, **kwargs)


def _exchange(n: int, k: int, **kwargs: Any) -> Any:
    from ..randomized.exchange import ExchangeEngine

    return ExchangeEngine(n, k, **kwargs)


def _bittorrent(n: int, k: int, **kwargs: Any) -> Any:
    from ..randomized.bittorrent import BitTorrentEngine

    return BitTorrentEngine(n, k, **kwargs)


def _coding(n: int, k: int, **kwargs: Any) -> Any:
    from ..coding.engine import NetworkCodingEngine

    return NetworkCodingEngine(n, k, **kwargs)


def _async(n: int, k: int, **kwargs: Any) -> Any:
    from ..asynchronous.engine import AsyncKernelRun

    return AsyncKernelRun(n, k, **kwargs)


ENGINES: dict[str, EngineSpec] = {
    spec.name: spec
    for spec in (
        EngineSpec(
            name="randomized",
            summary="randomized uniform-neighbor sampling "
            "(cooperative or credit-limited barter)",
            mechanism="cooperative / credit-limited barter",
            policy="repro.randomized.engine.RandomizedTickPolicy",
            factory=_randomized,
        ),
        EngineSpec(
            name="churn",
            summary="randomized sampling with scheduled arrivals/departures",
            mechanism="cooperative / credit-limited barter",
            policy="repro.randomized.churn.ChurnTickPolicy",
            factory=_churn,
        ),
        EngineSpec(
            name="exchange",
            summary="randomized strict-barter pairwise exchange matching",
            mechanism="strict barter",
            policy="repro.randomized.exchange.ExchangeTickPolicy",
            factory=_exchange,
        ),
        EngineSpec(
            name="bittorrent",
            summary="BitTorrent-style tit-for-tat choking",
            mechanism="tit-for-tat (approximate barter)",
            policy="repro.randomized.bittorrent.BitTorrentTickPolicy",
            factory=_bittorrent,
        ),
        EngineSpec(
            name="coding",
            summary="GF(2) network coding (random linear combinations)",
            mechanism="cooperative",
            policy="repro.coding.engine.CodingTickPolicy",
            factory=_coding,
        ),
        EngineSpec(
            name="async",
            summary="continuous-time asynchronous engine "
            "(kernel-hosted event windows, one tick per unit time)",
            mechanism="cooperative",
            policy="repro.asynchronous.policy.AsyncTickPolicy",
            factory=_async,
        ),
    )
}


def engine_names() -> list[str]:
    """Registered engine names, in registry order."""
    return list(ENGINES)


# Ambient execution backend, applied *softly*: array-capable engines pick
# it up as their default, everyone else keeps the loop. Seeded from the
# environment once at import so ParallelExecutor worker processes inherit
# the parent's choice, and validated on use: only the environment can
# store a name that is not a backend (set_default_backend checks its own).
_BACKENDS = ("loop", "array")
_DEFAULT_BACKEND = os.environ.get("REPRO_BACKEND") or "loop"


def default_backend() -> str:
    """The ambient backend name (``"loop"`` unless switched); raises
    ``ConfigError`` if ``REPRO_BACKEND`` names no backend."""
    if _DEFAULT_BACKEND not in _BACKENDS:
        raise ConfigError(
            f"REPRO_BACKEND={_DEFAULT_BACKEND!r} names no backend; set it "
            f"to 'loop' or 'array', or unset it"
        )
    return _DEFAULT_BACKEND


def set_default_backend(backend: str) -> str:
    """Set the ambient backend (``"loop"`` or ``"array"``); returns the
    previous value. The CLI's ``--backend`` flag lands here."""
    global _DEFAULT_BACKEND
    if backend not in _BACKENDS:
        raise ConfigError(
            f"unknown backend {backend!r}; choose 'loop' or 'array'"
        )
    previous = _DEFAULT_BACKEND
    _DEFAULT_BACKEND = backend
    return previous


def create_engine(name: str, n: int, k: int, **kwargs: Any) -> Any:
    """Build the named engine (unstarted); raises ``ConfigError`` for an
    unknown name or options the engine rejects.

    ``backend=`` is resolved here: ``None`` means the ambient default
    (validated, then followed only by array-capable engines); an
    explicit value is checked against ``EngineSpec.array_backend`` so the
    error names the engine rather than surfacing as an
    unexpected-keyword ``TypeError``.
    """
    spec = ENGINES.get(name)
    if spec is None:
        raise ConfigError(
            f"unknown engine {name!r}; registered: {', '.join(ENGINES)}"
        )
    backend = kwargs.pop("backend", None)
    if backend is None and default_backend() != "loop" and spec.array_backend:
        backend = _DEFAULT_BACKEND
    if backend is not None and backend != "loop":
        if not spec.array_backend:
            capable = ", ".join(s.name for s in ENGINES.values() if s.array_backend)
            raise ConfigError(
                f"the {name} engine does not support the array backend "
                f"(no batched attempt path); use backend='loop' or one "
                f"of: {capable}"
            )
        kwargs["backend"] = backend
    return spec.factory(n, k, **kwargs)


def run_engine(
    name: str,
    n: int,
    k: int,
    *,
    progress: Callable[[int, int], None] | None = None,
    **kwargs: Any,
) -> RunResult:
    """Construct and run the named engine; the uniform entry point used
    by experiment runners and campaign factories."""
    return create_engine(name, n, k, **kwargs).run(progress)
