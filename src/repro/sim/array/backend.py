"""The array execution backend for :class:`~repro.sim.kernel.TickKernel`.

Construction with ``backend="array"`` hangs one :class:`ArrayBackend` off
the kernel. It owns two things:

* the :class:`~repro.sim.array.state.ArrayState` ownership mirror (kept
  bit-exact with ``SwarmState`` through the mirror hook, snapshotted each
  tick alongside the kernel's bigint snapshot);
* the **array receiver pool** — the per-tick eligible-receiver set as a
  live ``int64`` array with O(1) swap-removal, so the uniform-sampling
  fallback scan can slice it and test interest for every candidate in one
  vectorized expression. Its mutation order replicates the loop backend's
  list pool exactly, which is what keeps the RNG draw sequence — and
  therefore the golden logs — byte-identical.

:meth:`submit` is the batched attempt path: a whole block of attempts as
index arrays, judged against the fault injector (the resulting failure
mask gates everything downstream), delivered, capacity- and
credit-charged, and logged with vectorized NumPy ops. It is equivalent,
state-for-state and draw-for-draw, to calling
:meth:`TickKernel.attempt` sequentially on the same list — the Hypothesis
suite in ``tests/sim/test_array_backend.py`` holds it to that. Policies
whose *decisions* feed back on live mid-tick state (the randomized
family's sampling reads live masks and capacity) instead drive the same
delivery/charge/log machinery attempt-by-attempt from their vectorized
tick loop; ``submit`` serves feedback-free batches, where the tick's
attempts are known up front.

Logging is eager, as on the loop backend: per-attempt paths call the
kernel's ``TransferLog.record*`` writers, and batched paths (``submit``,
the randomized complete-graph lane) append each tick's rows with one
:meth:`~repro.core.log.TransferLog.extend_batch` call straight into the
log's int32 columns. Nothing is buffered, so ``kernel.log`` is always
current.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ...core.errors import ConfigError
from ...core.model import SERVER
from .state import ArrayState, _WBIT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..kernel import TickKernel

__all__ = ["ArrayBackend"]


class ArrayBackend:
    """Array-side twin of one :class:`~repro.sim.kernel.TickKernel` run."""

    __slots__ = (
        "kernel", "state", "n",
        "pool", "pos", "size", "pool_active",
    )

    def __init__(self, kernel: "TickKernel", state: ArrayState | None = None) -> None:
        self.kernel = kernel
        n = kernel.n
        self.n = n
        if state is None:
            state = ArrayState(n, kernel.k)
        self.state = state
        state.attach(kernel.state)
        #: Live per-tick receiver pool (valid slice: ``pool[:size]``).
        self.pool = np.zeros(n, dtype=np.int64)
        self.pos: list[int] = [-1] * n
        self.size = 0
        self.pool_active = False

    # -- tick protocol -------------------------------------------------------

    def begin_tick(self) -> None:
        """Snapshot the word matrix; called right after the kernel's own
        bigint snapshot so both views describe the same instant."""
        self.state.begin_tick()
        self.pool_active = False

    # -- array receiver pool -------------------------------------------------

    def activate_pool(self, members: list[int]) -> None:
        """Arm the per-tick receiver pool with ``members`` (in order).

        The order and subsequent swap-removals replicate the loop
        backend's list pool exactly — pool layout feeds the policy's
        uniform draws, so it is part of the byte-identity contract.
        """
        size = len(members)
        if size:
            self.pool[:size] = members
        pos = [-1] * self.n
        for i, v in enumerate(members):
            pos[v] = i
        self.pos = pos
        self.size = size
        self.pool_active = True

    def pool_remove(self, v: int) -> None:
        """Swap-remove ``v`` from the live pool (no-op when absent)."""
        pos = self.pos
        p = pos[v]
        if p < 0:
            return
        size = self.size - 1
        self.size = size
        pool = self.pool
        last = int(pool[size])
        if last != v:
            pool[p] = last
            pos[last] = p
        pos[v] = -1

    # -- batched attempt path ------------------------------------------------

    def submit(
        self,
        srcs: np.ndarray,
        dsts: np.ndarray,
        blocks: np.ndarray,
    ) -> np.ndarray:
        """Attempt a whole batch of transfers; returns the delivered mask.

        Equivalent to ``[kernel.attempt(s, d, b) for s, d, b in zip(...)]``
        in submission order: the fault injector judges each attempt (its
        outage state latches attempt-by-attempt, so judging consumes the
        injector stream sequentially — producing the *fault mask* that
        gates everything else), then deliveries, download-capacity
        charges, credit charges and both log streams are applied with
        vectorized operations. Duplicate deliveries inside one batch are
        redundant exactly as they are sequentially (first occurrence
        wins; every attempt still charges capacity and credit and is
        logged).

        Completion-triggered pool removals are replayed in submission
        order (pool layout feeds later uniform draws). Live per-tick
        receiver pools mutate per attempt mid-decision, which a batch by
        definition has already finished — policies using one drive the
        per-attempt path instead, and ``submit`` refuses the combination.
        """
        kernel = self.kernel
        if kernel._avail_active or self.pool_active:
            raise ConfigError(
                "submit() cannot run while a live per-tick receiver pool "
                "is active; pool-sampling policies drive the per-attempt "
                "path instead"
            )
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        blocks = np.asarray(blocks, dtype=np.int64)
        m = dsts.shape[0]
        if srcs.shape != (m,) or blocks.shape != (m,):
            raise ConfigError(
                "srcs, dsts and blocks must be equal-length 1-D arrays"
            )
        if m == 0:
            return np.zeros(0, dtype=bool)
        tick = kernel.tick
        src_list = srcs.tolist()
        dst_list = dsts.tolist()

        judge = kernel._judge
        if judge is None:
            failed = np.zeros(m, dtype=bool)
        else:
            failed = np.fromiter(
                (judge(tick, s, d) for s, d in zip(src_list, dst_list)),
                dtype=bool,
                count=m,
            )
        ok = ~failed

        # Deliveries: among successful attempts, the first occurrence of
        # each (dst, block) pair that the destination does not already
        # hold is new; later duplicates are redundant. The authoritative
        # masks are bigints (scalar per new pair); frequency counts and
        # the word mirror update vectorially over the new pairs.
        state = kernel.state
        masks = state.masks
        full = kernel._full
        d_ok = dsts[ok]
        b_ok = blocks[ok]
        if d_ok.size:
            key = d_ok * np.int64(kernel.k) + b_ok
            _, first = np.unique(key, return_index=True)
            first.sort()  # completions must fire in submission order
            new_d: list[int] = []
            new_b: list[int] = []
            for i in first.tolist():
                dv = int(d_ok[i])
                bv = int(b_ok[i])
                if masks[dv] >> bv & 1:
                    continue
                masks[dv] |= 1 << bv
                new_d.append(dv)
                new_b.append(bv)
                if dv != SERVER and masks[dv] == full:
                    state._incomplete.discard(dv)
                    kernel._pool_remove(dv)
            if new_d:
                nd = np.asarray(new_d, dtype=np.int64)
                nb = np.asarray(new_b, dtype=np.int64)
                np.add.at(state.freq, nb, 1)
                np.bitwise_or.at(
                    self.state.words, (nd, nb >> 6), _WBIT[nb & 63]
                )

        dl = kernel._dl_left
        if dl is not None:
            charged = np.asarray(dl, dtype=np.int64)
            charged -= np.bincount(dsts, minlength=kernel.n)
            dl[:] = charged.tolist()

        if kernel.credit is not None:
            kernel._credit_sends.extend(zip(src_list, dst_list))

        if kernel.keep_log:
            rows = np.column_stack((np.full(m, tick), srcs, dsts, blocks))
            kernel.log.extend_batch(rows[ok], rows[failed])

        n_failed = int(failed.sum())
        kernel._tick_failed += n_failed
        kernel._tick_delivered += m - n_failed
        return ok
