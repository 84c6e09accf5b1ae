"""Event-driven (continuous-time) swarm simulation on the shared kernel.

Section 2.3.4, "Dealing with asynchrony": in reality nodes have slightly
differing bandwidths and no global tick; the paper suggests running the
hypercube algorithm with each node simply using its links in round-robin
order *at its own pace*, and notes the connection to the randomized
algorithms. The paper's own ongoing BitTorrent study also uses
asynchronous simulations.

Time is continuous; each node ``v`` has an upload rate ``up[v]`` and a
download rate ``down[v]`` (blocks per unit time). A transfer occupies
the sender's uplink and one downlink slot at the receiver for
``1 / min(up[src], down[dst])`` time units (the paper's tail-link
bottleneck, one connection at a time). Whenever a node's uplink frees,
its *strategy* picks the next (receiver, block) — or the node idles
until some transfer completes somewhere and retries.

The event loop itself lives in
:class:`~repro.asynchronous.policy.AsyncTickPolicy`, hosted on the
shared :class:`~repro.sim.kernel.TickKernel` (one tick = one unit-time
window). Two front ends wrap it:

* :class:`AsyncEngine` — the continuous-time API
  (:class:`AsyncRunResult` with float times), used by the asynchrony
  extension experiment and the strategy tests;
* :class:`AsyncKernelRun` — the registry adapter surface (``rng`` /
  ``max_ticks`` / ``keep_log`` / ``faults`` / ``recovery`` / progress
  callback) returning the uniform :class:`~repro.core.log.RunResult`.

Both carry the full fault model, including node crash/rejoin. With all
rates equal to 1 this reduces to the synchronous model up to scheduling
slack, so the test suite cross-checks completion times against the tick
engines.
"""

from __future__ import annotations

import random
from math import ceil
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Protocol

from ..core.errors import ConfigError
from ..core.log import RunResult
from ..faults.plan import FaultPlan
from ..faults.recovery import RecoveryPolicy
from ..overlays.graph import Graph
from ..sim.kernel import TickKernel
from .policy import AsyncTickPolicy, AsyncTransfer, validate_rates

__all__ = [
    "AsyncTransfer",
    "AsyncRunResult",
    "AsyncStrategy",
    "AsyncEngine",
    "AsyncKernelRun",
]


class AsyncStrategy(Protocol):
    """Decides what a node uploads next when its uplink frees."""

    def next_transfer(self, engine, src: int) -> tuple[int, int] | None:
        """Return ``(dst, block)`` or ``None`` to idle.

        ``engine`` is the live :class:`AsyncTickPolicy` (the query
        surface documented there). Must only propose receivers with a
        free downlink slot (``engine.downlink_free(dst)``) holding
        ``block`` not yet present (``engine.has_block(dst, block)`` is
        False) that ``src`` holds.
        """
        ...


@dataclass(slots=True)
class AsyncRunResult:
    """Outcome of an asynchronous run."""

    n: int
    k: int
    completion_time: float | None
    client_completions: dict[int, float]
    transfers: list[AsyncTransfer]
    meta: dict[str, object] = field(default_factory=dict)
    failed_transfers: list[AsyncTransfer] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        """Whether every client received the whole file."""
        return self.completion_time is not None


def _build_kernel(
    n: int,
    k: int,
    strategy,
    *,
    upload_rates: Sequence[float] | None,
    download_rates: Sequence[float] | None,
    parallel_downloads: int,
    rng: random.Random | int | None,
    max_ticks: int,
    keep_log: bool,
    faults: FaultPlan | None,
    recovery: RecoveryPolicy | None,
    workload=None,
    adversary=None,
    bandwidth=None,
    telemetry=None,
) -> tuple[AsyncTickPolicy, TickKernel]:
    if n < 2:
        raise ConfigError(f"need a server and at least one client, got n={n}")
    if k < 1:
        raise ConfigError(f"file must have at least one block, got k={k}")
    if (
        bandwidth is not None
        and not bandwidth.is_null
        and (upload_rates is not None or download_rates is not None)
    ):
        raise ConfigError(
            "bandwidth classes and explicit upload_rates/download_rates are "
            "two spellings of per-node capacity; pass one or the other"
        )
    policy = AsyncTickPolicy(
        strategy,
        validate_rates(upload_rates, n, "upload"),
        validate_rates(download_rates, n, "download"),
        parallel_downloads,
    )
    kernel = TickKernel(
        n,
        k,
        policy,
        rng=rng,
        max_ticks=max_ticks,
        keep_log=keep_log,
        faults=faults,
        recovery=recovery,
        workload=workload,
        adversary=adversary,
        bandwidth=bandwidth,
        telemetry=telemetry,
    )
    if kernel.bandwidth is not None:
        # Map the realized tier model onto the continuous-time rates: a
        # tier upload of u is u blocks per unit time, and an unbounded
        # download tier never bottlenecks a transfer.
        model = kernel.model
        policy.up = [float(model.upload_capacity(v)) for v in range(n)]
        policy.down = [
            float("inf") if model.download_capacity(v) is None
            else float(model.download_capacity(v))
            for v in range(n)
        ]
    return policy, kernel


class AsyncEngine:
    """Continuous-time swarm simulation; see module docstring.

    Parameters
    ----------
    n, k:
        Swarm size (server included) and number of blocks.
    strategy:
        An :class:`AsyncStrategy`; decides each node's next upload.
    upload_rates, download_rates:
        Per-node rates in blocks per time unit (length ``n``); default 1.0
        everywhere. Download rate also admits ``parallel_downloads`` slots.
    parallel_downloads:
        Number of simultaneous incoming transfers a node accepts.
    rng:
        Seed or Random for strategy use and tie-breaking.
    max_time:
        Simulation horizon; an unfinished run returns
        ``completion_time=None``.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` — every axis,
        including node crash/rejoin, is carried (loss and link outages
        are judged at the tick of the window a transfer ends in; a
        server outage window benches the server at transfer start).
    """

    def __init__(
        self,
        n: int,
        k: int,
        strategy: AsyncStrategy,
        upload_rates: Sequence[float] | None = None,
        download_rates: Sequence[float] | None = None,
        parallel_downloads: int = 1,
        rng: random.Random | int | None = None,
        max_time: float | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.n, self.k = n, k
        self.strategy = strategy
        self.max_time = max_time if max_time is not None else 50.0 * (k + n)
        # Float transfer times are the result surface here, so the
        # kernel's tick-quantised log is redundant — keep_log=False keeps
        # the memory profile of the pre-kernel event loop.
        self.policy, self.kernel = _build_kernel(
            n,
            k,
            strategy,
            upload_rates=upload_rates,
            download_rates=download_rates,
            parallel_downloads=parallel_downloads,
            rng=rng,
            max_ticks=max(1, int(ceil(self.max_time - 1e-9))),
            keep_log=False,
            faults=faults,
            recovery=None,
        )
        self.up = self.policy.up
        self.down = self.policy.down

    @property
    def masks(self) -> list[int]:
        """Live holdings (mutable test hook; the kernel's swarm state)."""
        return self.kernel.state.masks

    @property
    def now(self) -> float:
        return self.policy.now

    @property
    def transfers(self) -> list[AsyncTransfer]:
        return self.policy.transfers

    @property
    def failed(self) -> list[AsyncTransfer]:
        return self.policy.failed

    def run(
        self, progress: Callable[[int, int], None] | None = None
    ) -> AsyncRunResult:
        """Simulate until every client completes or ``max_time`` passes.

        ``progress`` (optional) is called as ``progress(t, deliveries)``
        once per unit-time window ``(t - 1, t]`` — the tick callback of
        the underlying kernel (with unit rates the windows *are* the
        ticks).
        """
        result = self.kernel.run(progress)
        policy = self.policy
        completions = dict(policy.float_completions)
        done = result.completion_time is not None
        return AsyncRunResult(
            n=self.n,
            k=self.k,
            completion_time=(
                max(completions.values()) if done and completions else
                (policy.now if done else None)
            ),
            client_completions=completions,
            transfers=policy.transfers,
            meta=dict(result.meta),
            failed_transfers=policy.failed,
        )


class AsyncKernelRun:
    """Registry surface for the asynchronous engine; see module docstring.

    Parameters mirror the tick engines; ``strategy`` defaults to
    :class:`~repro.asynchronous.strategies.AsyncRandom` (the asynchronous
    analogue of the randomized cooperative algorithm), restricted to
    ``overlay`` when one is given. ``max_ticks`` bounds simulated time
    (one tick = one unit-time window).
    """

    def __init__(
        self,
        n: int,
        k: int,
        overlay: Graph | None = None,
        strategy: AsyncStrategy | None = None,
        rng: random.Random | int | None = None,
        max_ticks: int | None = None,
        keep_log: bool = True,
        faults: FaultPlan | None = None,
        recovery: RecoveryPolicy | None = None,
        upload_rates: Sequence[float] | None = None,
        download_rates: Sequence[float] | None = None,
        parallel_downloads: int = 1,
        workload=None,
        adversary=None,
        bandwidth=None,
        telemetry=None,
    ) -> None:
        from .strategies import AsyncRandom

        self.n, self.k = n, k
        self.policy, self.kernel = _build_kernel(
            n,
            k,
            strategy if strategy is not None else AsyncRandom(overlay),
            upload_rates=upload_rates,
            download_rates=download_rates,
            parallel_downloads=parallel_downloads,
            rng=rng,
            max_ticks=max_ticks if max_ticks is not None else 50 * (k + n),
            keep_log=keep_log,
            faults=faults,
            recovery=recovery,
            workload=workload,
            adversary=adversary,
            bandwidth=bandwidth,
            telemetry=telemetry,
        )

    def run(self, progress: Callable[[int, int], None] | None = None) -> RunResult:
        return self.kernel.run(progress)
