"""The synchronous randomized simulation engine (Sections 2.4 and 3.2.3).

Per tick, every node holding data tries to upload one block:

1. pick a uniformly random *eligible* neighbor — one that is interested
   (lacks a block the uploader holds), still has download capacity this
   tick, and (under a barter mechanism) is reachable within the credit
   limit;
2. send it one useful block chosen by the block-selection policy.

The paper resolves simultaneous-choice collisions with a handshake
protocol; a synchronous simulation models that by processing uploaders in
random order against live download-capacity counters and live receiver
holdings (so no duplicate deliveries happen), while *senders* read their
own holdings from the start-of-tick snapshot (a block received this tick
cannot be forwarded until the next).

Eligible-neighbor sampling stays exactly uniform: up to a bounded number
of rejection samples over the neighbor list (uniform conditioned on
acceptance), then a full scan choosing uniformly among the eligible. On a
complete graph the candidate pool is the set of still-incomplete nodes,
maintained incrementally so big swarms (the paper's n = 10,000 run) stay
fast. On sparse overlays a source proven to have no eligible neighbor
only replays its rejection draws until something could widen its choice
(see :meth:`RandomizedTickPolicy._pick_destination`).

Since the :mod:`repro.sim` refactor the mechanics live in
:class:`~repro.sim.kernel.TickKernel`; this module contributes
:class:`RandomizedTickPolicy` (the upload decisions above) and keeps
:class:`RandomizedEngine` as the stable construction facade.
"""

from __future__ import annotations

import random
from array import array
from typing import Callable

import numpy as np

from ..core.blocks import bit_indices
from ..core.errors import ConfigError
from ..core.log import RunResult, TransferLog
from ..core.mechanisms import Cooperative, CreditLimitedBarter, Mechanism
from ..core.model import SERVER, BandwidthModel
from ..core.state import SwarmState
from ..faults.plan import FaultPlan
from ..faults.recovery import RecoveryPolicy
from ..overlays.dynamic import DynamicOverlay
from ..overlays.graph import CompleteGraph, Graph
from ..sim.array.state import _WBIT
from ..sim.kernel import TickKernel, default_max_ticks
from ..sim.policy import TickPolicy
from .policies import BlockPolicy, RandomPolicy

__all__ = ["RandomizedEngine", "RandomizedTickPolicy", "default_max_ticks"]

_REJECTION_TRIES = 12


def _shuffle(items: list, getrandbits) -> None:
    """``random.shuffle`` inlined: the same Fisher-Yates swaps with the
    same ``_randbelow`` rejection draws, minus a method call per item."""
    for i in range(len(items) - 1, 0, -1):
        hi = i + 1
        nbits = hi.bit_length()
        r = getrandbits(nbits)
        while r >= hi:
            r = getrandbits(nbits)
        items[i], items[r] = items[r], items[i]


class RandomizedTickPolicy(TickPolicy):
    """Randomized uniform-neighbor sampling as a kernel policy.

    Holds the decision-side configuration (block policy, barter gate,
    free-riders, throttling, overlay); the kernel owns the swarm state,
    capacity, faults and logging. Construct through
    :class:`RandomizedEngine`, which validates arguments.
    """

    name = "randomized"
    supports_array = True
    adversary_support = "full"
    bandwidth_support = "full"

    def __init__(
        self,
        block_policy: BlockPolicy,
        mechanism: Mechanism,
        *,
        selfish: frozenset[int] = frozenset(),
        throttle: dict[int, float] | None = None,
        graph: Graph | None = None,
        dynamic: DynamicOverlay | None = None,
    ) -> None:
        self.block_policy = block_policy
        self.mechanism = mechanism
        self.selfish = frozenset(selfish)
        self.throttle = dict(throttle or {})
        self._graph = graph
        self._dynamic = dynamic
        self._gated = not isinstance(mechanism, Cooperative)
        self._common = 0  # refreshed at every tick start
        # Dead-end memo for sparse-overlay picks (see _pick_destination):
        # _dead[v] is the tick v's fallback scan last proved empty,
        # _targeted[v] the last tick any attempt went toward v. Both are
        # forgotten when the swarm epoch or the overlay changes.
        self._dead: list[int] = []
        self._targeted: list[int] = []
        self._memo_epoch = -1
        self._memo_graph: Graph | None = None

    def bind(self, kernel: TickKernel) -> None:
        super().bind(kernel)
        kernel.graph = self._graph

    def pre_tick(self, tick: int) -> None:
        if self._dynamic is not None:
            self.kernel.graph = self._dynamic.at_tick(tick)

    def run_tick(self, snapshot: list[int]) -> None:
        kernel = self.kernel
        if (
            kernel.state.epoch != self._memo_epoch
            or kernel.graph is not self._memo_graph
        ):
            self._memo_epoch = kernel.state.epoch
            self._memo_graph = kernel.graph
            self._dead = [0] * kernel.n
            self._targeted = [0] * kernel.n
        backend = kernel.array
        # An armed adversary routes every attempt through the kernel's
        # judged path (pollution/lie verdicts, strike bookkeeping), which
        # the vectorized tick inlines away — fall through to the scalar
        # path, which stays correct (and array-mirrored) under the
        # backend's per-attempt machinery.
        if (
            backend is not None
            and kernel.adversary is None
            and isinstance(kernel.graph, CompleteGraph)
        ):
            # Complete-graph ticks vectorize on the array backend; sparse
            # overlays fall through to the scalar path below (which keeps
            # the backend's word mirror via ``kernel.attempt``). Both make
            # the same RNG draws.
            self._run_tick_array(snapshot, backend)
            return
        state = kernel.state
        masks = state.masks
        rng = kernel.rng
        graph = kernel.graph
        dl_left = kernel.download_ledger
        complete_graph = isinstance(graph, CompleteGraph)
        targeted = self._targeted
        tick = kernel.tick
        # Per-tick receiver pool for complete graphs: incomplete nodes
        # with download capacity left. Shrinks as capacity is spent, so
        # late uploaders don't re-sample saturated receivers.
        if complete_graph:
            kernel.activate_receiver_pool()

        selfish = self.selfish
        if kernel.adversary is not None:
            riders = kernel.adversary.free_riders_at(kernel.tick)
            if riders:
                selfish = selfish | riders
        throttle = self.throttle
        uploaders = [
            v
            for v in range(1, kernel.n)
            if snapshot[v]
            and v not in selfish
            and (not throttle or (p := throttle.get(v)) is None or rng.random() >= p)
        ]
        if kernel.server_available():
            uploaders.append(SERVER)
        _shuffle(uploaders, rng.getrandbits)

        # Server reseeding (recovery): blocks crashes made server-only
        # again (global holder count 1) get priority in server picks.
        reseed_rare = 0
        if kernel.faults is not None and kernel.recovery.reseed:
            for b, count in enumerate(state.freq):
                if count == 1:
                    reseed_rare |= 1 << b

        # Blocks held by *every* incomplete client at tick start: an
        # uploader whose content is a subset of this can interest nobody
        # and is skipped outright (a large saving near the endgame).
        common = -1
        for v in kernel.incomplete_pool:
            common &= snapshot[v]
            if common == 0:
                break
        self._common = common

        attempt = kernel.attempt
        choose = self.block_policy.choose
        pick = self._pick_destination
        model = kernel.model
        server_rounds = model.server_upload
        # Per-node upload rounds under heterogeneous tiers; None keeps
        # the historical single-round client path (and its exact
        # branch shape) for uniform models.
        up_rounds = (
            None
            if getattr(model, "is_uniform", True)
            else [model.upload_capacity(v) for v in range(kernel.n)]
        )
        # Hot-loop hoists: the receiver pool is one live list per tick
        # (mutated in place as capacity drains), so its reference — like
        # the rng and absent set — is loop-invariant and passed down
        # rather than re-fetched through kernel properties per pick.
        pool = kernel.receiver_pool if complete_graph else None
        absent = kernel.absent
        for src in uploaders:
            if src == SERVER:
                rounds = server_rounds
            else:
                rounds = 1 if up_rounds is None else up_rounds[src]
            for _ in range(rounds):
                dst = pick(src, snapshot, masks, dl_left, pool, rng, absent)
                if dst is None:
                    break
                useful = snapshot[src] & ~masks[dst]
                if reseed_rare and src == SERVER and useful & reseed_rare:
                    useful &= reseed_rare
                block = choose(useful, kernel, src, dst)
                targeted[dst] = tick
                attempt(src, dst, block)

    def _run_tick_array(self, snapshot: list[int], backend) -> None:
        """Complete-graph tick on the array backend.

        Byte-identity contract: every ``kernel.rng`` draw the scalar path
        makes is replicated here, in order, with the same bounds —
        throttle skips, the uploader shuffle, the bounded rejection
        sampling (``randrange`` inlined as its ``getrandbits`` rejection
        loop, which is exactly CPython's ``_randbelow``), the fallback
        choice among eligible candidates, and the block policy's own
        draws. Only the *deterministic* work between draws is vectorized:
        uploader/interest discovery over the packed snapshot words, the
        fallback eligibility scan in one masked expression instead of a
        listcomp, deliveries applied inline and logged with one
        ``extend_batch`` per tick on the fast lane.
        Receiver-pool layout feeds the uniform draws, so the array pool's
        activation order and swap-removals mirror the scalar pool's.
        """
        kernel = self.kernel
        state = kernel.state
        masks = state.masks
        freq = state.freq
        incomplete = state._incomplete
        rng = kernel.rng
        getrandbits = rng.getrandbits
        dl_left = kernel.download_ledger
        arr = backend.state
        words = arr.words
        snap_words = arr.snap_words

        backend.activate_pool(kernel.incomplete_pool)

        # Uploaders: nodes holding data at tick start, ascending, minus
        # free-riders and throttle skips (same draw order as the scalar
        # listcomp over range(1, n)); held[0] is always the server.
        held = np.flatnonzero(snap_words.any(axis=1)).tolist()
        selfish = self.selfish
        throttle = self.throttle
        rnd = rng.random
        uploaders = [
            v
            for v in held[1:]
            if v not in selfish
            and (not throttle or (p := throttle.get(v)) is None or rnd() >= p)
        ]
        if kernel.server_available():
            uploaders.append(SERVER)
        _shuffle(uploaders, getrandbits)

        reseed_rare = 0
        if kernel.faults is not None and kernel.recovery.reseed:
            for b in np.flatnonzero(freq == 1).tolist():
                reseed_rare |= 1 << b

        # Interest screen: src can interest someone iff it holds a block
        # not common to every pool member at tick start (the scalar
        # path's `have & ~common` test, batched for all nodes at once).
        pool_arr = backend.pool
        size = backend.size
        if size == 0:
            can = None
        else:
            common_words = np.bitwise_and.reduce(
                snap_words[pool_arr[:size]], axis=0
            )
            can = (snap_words & ~common_words).any(axis=1).tolist()

        choose = self.block_policy.choose
        gated = self._gated
        allows = self.mechanism.allows
        judge = kernel._judge
        credit_sends = kernel._credit_sends if kernel.credit is not None else None
        rec_d = kernel._log_delivery
        rec_f = kernel._log_failure
        model = kernel.model
        server_rounds = model.server_upload
        up_rounds = (
            None
            if getattr(model, "is_uniform", True)
            else [model.upload_capacity(v) for v in range(kernel.n)]
        )
        full = kernel._full
        tick = kernel.tick
        pool_item = pool_arr.item
        pool_remove = backend.pool_remove
        kernel_pool_remove = kernel._pool_remove
        wbit = _WBIT
        delivered = 0
        failed = 0

        # Fast lane for the figure-sweep configuration: no fault judging,
        # no credit ledger, ungated, no reseed priority, download capacity
        # exactly 1. Capacity 1 means every recipient leaves the pool the
        # instant it receives, so pool members' live masks equal their
        # snapshot all tick — which licenses deferring the word-mirror and
        # frequency updates to one batch at tick end (nothing reads them
        # mid-tick), and every delivery evicts unconditionally (no
        # capacity countdown). Draw-for-draw identical to the general
        # lane; only bookkeeping is batched.
        fast = (
            judge is None
            and credit_sends is None
            and not gated
            and not reseed_rare
            and dl_left is not None
            and getattr(kernel.model, "is_uniform", True)
            and kernel.model.download == 1
        )
        if fast and can is not None:
            random_block = type(self.block_policy) is RandomPolicy
            s_buf = array("i")
            d_buf: list[int] = []
            b_buf: list[int] = []
            pos = backend.pos
            size = backend.size
            # The pool is worked as a plain list (indexing beats
            # ndarray.item at this call volume) kept in sync with the
            # backend's array, which the vectorized fallback reads.
            pool_l = pool_arr[:size].tolist()
            # Pool members keep their snapshot masks all tick (capacity
            # 1), so the inverted snapshot serves every interest test.
            notm = [~m for m in snapshot]
            # Lazy per-tick unpacked ownership: has_bits[v, b] says v
            # held block b at tick start. Capacity 1 keeps pool members'
            # masks at their snapshot all tick, so one build serves
            # every fallback; eligibility for a src holding few blocks
            # is then a gather of that many columns instead of a
            # packed-row reduction over the whole pool.
            has_bits = None
            k_blocks = arr.k
            for src in uploaders:
                if not can[src]:
                    continue
                have = snapshot[src]
                rounds = server_rounds if src == SERVER else 1
                for _ in range(rounds):
                    if size == 0:
                        break
                    iv = 0
                    nbits = size.bit_length()
                    for _t in range(
                        _REJECTION_TRIES if size > _REJECTION_TRIES else size
                    ):
                        r = getrandbits(nbits)
                        while r >= size:
                            r = getrandbits(nbits)
                        v = pool_l[r]
                        if v != src:
                            iv = have & notm[v]
                            if iv:
                                dst = v
                                break
                    else:
                        # Full scan in pool order. A member is eligible
                        # iff it lacks at least one of src's blocks:
                        # with few blocks held, AND the per-block
                        # ownership rows; otherwise reduce the packed
                        # snapshot rows (identical eligible set and
                        # draw either way).
                        cand = pool_arr[:size]
                        c_have = have.bit_count()
                        if c_have <= 64:
                            if has_bits is None:
                                has_bits = np.unpackbits(
                                    snap_words.view(np.uint8),
                                    axis=1,
                                    bitorder="little",
                                )[:, :k_blocks]
                            if c_have == 1:
                                eligible = (
                                    has_bits[cand, have.bit_length() - 1]
                                    == 0
                                )
                            else:
                                held_b = []
                                m = have
                                while m:
                                    held_b.append((m & -m).bit_length() - 1)
                                    m &= m - 1
                                eligible = (
                                    has_bits[np.ix_(cand, held_b)]
                                    .all(axis=1)
                                    == 0
                                )
                        else:
                            eligible = (
                                snap_words[src] & ~snap_words[cand]
                            ).any(axis=1)
                        sp = pos[src]
                        if 0 <= sp < size:
                            eligible[sp] = False
                        idx = np.flatnonzero(eligible)
                        csize = idx.shape[0]
                        if csize == 0:
                            break
                        nbits = csize.bit_length()
                        r = getrandbits(nbits)
                        while r >= csize:
                            r = getrandbits(nbits)
                        dst = pool_l[idx.item(r)]
                        iv = have & notm[dst]

                    if random_block:
                        # Inlined random_set_bit: same single
                        # randrange(popcount) draw, wrapper-free.
                        c = iv.bit_count()
                        if c == 1:
                            block = iv.bit_length() - 1
                        else:
                            nbits = c.bit_length()
                            r = getrandbits(nbits)
                            while r >= c:
                                r = getrandbits(nbits)
                            d = c - 1 - r
                            if r <= d:
                                if r <= 64:
                                    m = iv
                                    for _i in range(r):
                                        m &= m - 1
                                    block = (m & -m).bit_length() - 1
                                else:
                                    block = int(bit_indices(iv)[r])
                            elif d <= 64:
                                # Clear the d highest set bits instead
                                # of walking r low ones.
                                m = iv
                                for _i in range(d):
                                    m ^= 1 << (m.bit_length() - 1)
                                block = m.bit_length() - 1
                            else:
                                block = int(bit_indices(iv)[r])
                    else:
                        block = choose(iv, kernel, src, dst)

                    m_new = masks[dst] | (1 << block)
                    masks[dst] = m_new
                    s_buf.append(src)
                    d_buf.append(dst)
                    b_buf.append(block)
                    if m_new == full:
                        incomplete.discard(dst)
                        kernel_pool_remove(dst)
                    # Unconditional eviction (capacity 1), inline
                    # swap-remove on both pool representations.
                    p = pos[dst]
                    size -= 1
                    last = pool_l[size]
                    if last != dst:
                        pool_l[p] = last
                        pool_arr[p] = last
                        pos[last] = p
                    pos[dst] = -1
                    dl_left[dst] = 0
                    delivered += 1

            backend.size = size
            if d_buf:
                arr_d = np.asarray(d_buf, dtype=np.int64)
                arr_b = np.asarray(b_buf, dtype=np.int64)
                freq += np.bincount(arr_b, minlength=arr.k)
                # Each dst receives at most one block per tick here, so
                # the (row, word) index pairs are unique and a fancy |=
                # is safe (no lost updates).
                words[arr_d, arr_b >> 6] |= wbit[arr_b & 63]
                if rec_d is not None:
                    srcs = np.frombuffer(s_buf, dtype=np.int32)
                    kernel.log.extend_batch(
                        np.column_stack((np.full_like(srcs, tick), srcs, arr_d, arr_b))
                    )
            kernel._tick_delivered += delivered
            return

        for src in uploaders:
            if can is None or not can[src]:
                continue
            have = snapshot[src]
            have_row = snap_words[src]
            is_server = src == SERVER
            if is_server:
                rounds = server_rounds
            else:
                rounds = 1 if up_rounds is None else up_rounds[src]
            for _ in range(rounds):
                size = backend.size
                if size == 0:
                    break
                # Bounded rejection sampling over the live pool. Pool
                # members are incomplete, present, with capacity left
                # (maintained below), so only self- and interest-checks
                # (and the barter gate) remain from the scalar predicate.
                dst = -1
                iv = 0
                for _t in range(
                    _REJECTION_TRIES if size > _REJECTION_TRIES else size
                ):
                    nbits = size.bit_length()
                    r = getrandbits(nbits)
                    while r >= size:
                        r = getrandbits(nbits)
                    v = pool_item(r)
                    if v != src:
                        iv = have & ~masks[v]
                        if iv and (not gated or allows(src, v)):
                            dst = v
                            break
                if dst < 0:
                    # Full scan, vectorized: interest for every pool
                    # member in one masked expression, preserving pool
                    # order (the scalar fallback's candidate order).
                    cand = pool_arr[:size]
                    eligible = (have_row & ~words[cand]).any(axis=1)
                    eligible &= cand != src
                    idx = np.flatnonzero(eligible)
                    if gated:
                        sel = [c for c in cand[idx].tolist() if allows(src, c)]
                        csize = len(sel)
                    else:
                        sel = None
                        csize = idx.shape[0]
                    if csize == 0:
                        break
                    nbits = csize.bit_length()
                    r = getrandbits(nbits)
                    while r >= csize:
                        r = getrandbits(nbits)
                    dst = sel[r] if sel is not None else pool_item(idx.item(r))
                    iv = have & ~masks[dst]

                useful = iv
                if reseed_rare and is_server and useful & reseed_rare:
                    useful &= reseed_rare
                block = choose(useful, kernel, src, dst)

                # Inline kernel.attempt: judge -> deliver -> charge ->
                # log, against the backend pool instead of the kernel's.
                if judge is not None and judge(tick, src, dst):
                    if dl_left is not None:
                        left = dl_left[dst] - 1
                        dl_left[dst] = left
                        if left <= 0:
                            pool_remove(dst)
                    if credit_sends is not None:
                        credit_sends.append((src, dst))
                    if rec_f is not None:
                        rec_f(tick, src, dst, block)
                    failed += 1
                    continue
                # `block` was chosen from the live useful set, so the
                # delivery is never redundant.
                m_new = masks[dst] | (1 << block)
                masks[dst] = m_new
                freq[block] += 1
                words[dst, block >> 6] |= wbit[block & 63]
                if m_new == full:
                    incomplete.discard(dst)
                    kernel_pool_remove(dst)
                    pool_remove(dst)
                if dl_left is not None:
                    left = dl_left[dst] - 1
                    dl_left[dst] = left
                    if left <= 0:
                        pool_remove(dst)
                if credit_sends is not None:
                    credit_sends.append((src, dst))
                if rec_d is not None:
                    rec_d(tick, src, dst, block)
                delivered += 1

        kernel._tick_delivered += delivered
        kernel._tick_failed += failed

    def _pick_destination(
        self,
        src: int,
        snapshot: list[int],
        masks: list[int],
        dl_left: list[int] | None,
        pool: list[int] | None,
        rng,
        absent: set[int],
    ) -> int | None:
        """Uniformly random eligible destination for ``src``, or ``None``.

        Bounded rejection sampling over the candidate pool (uniform over
        the eligible subset, conditioned on acceptance), then a full scan
        choosing uniformly outright — the combination is exactly uniform.
        ``randrange`` is inlined as CPython's ``getrandbits`` rejection
        loop (the same stream). ``pool`` is the complete-graph receiver
        pool (``None`` on sparse overlays).

        Sparse overlays memoise dead ends. When the scan finds no
        candidate even ignoring download capacity (which resets every
        tick), ``src`` is recorded as dead. Until something can widen its
        eligible set — an attempt toward ``src`` (its next snapshot and
        the credit flush), a :attr:`SwarmState.epoch` bump (crash,
        rejoin, arrival, departure, restore) or a new overlay — every
        neighbor stays ineligible, so each rejection try must fail and
        the scan must come up empty. The memo then replays just the
        rejection draws and returns ``None``: same draws, same bounds,
        same order, without evaluating a single predicate. The argument
        assumes ``mechanism.allows(src, v)`` changes only when credit
        flows between the pair, true of every mechanism in the library.
        """
        have = snapshot[src]
        if pool is not None:
            # Nobody can be interested if every incomplete client already
            # held all of src's content at tick start.
            if have & ~self._common == 0:
                return None
            candidates_pool = pool
            dead = None
        else:
            candidates_pool = self.kernel.graph.neighbors(src)
            dead = self._dead
        size = len(candidates_pool)
        if size == 0:
            return None
        getrandbits = rng.getrandbits
        nbits = size.bit_length()
        tries = _REJECTION_TRIES if size > _REJECTION_TRIES else size

        if dead is not None and self._targeted[src] < dead[src]:
            for _ in range(tries):
                r = getrandbits(nbits)
                while r >= size:
                    r = getrandbits(nbits)
            return None

        gated = self._gated
        allows = self.mechanism.allows
        for _ in range(tries):
            r = getrandbits(nbits)
            while r >= size:
                r = getrandbits(nbits)
            v = candidates_pool[r]
            if (
                v != src
                and (dl_left is None or dl_left[v] > 0)
                and have & ~masks[v]
                and (not absent or v not in absent)
                and (not gated or allows(src, v))
            ):
                return v
        # Capacity is left out of the scan so an empty result proves a
        # dead end; it filters the survivors (same order) afterwards.
        candidates = [
            v
            for v in candidates_pool
            if v != src
            and have & ~masks[v]
            and (not absent or v not in absent)
            and (not gated or allows(src, v))
        ]
        if not candidates:
            if dead is not None:
                dead[src] = self.kernel.tick
            return None
        if dl_left is not None:
            candidates = [v for v in candidates if dl_left[v] > 0]
            if not candidates:
                return None
        size = len(candidates)
        nbits = size.bit_length()
        r = getrandbits(nbits)
        while r >= size:
            r = getrandbits(nbits)
        return candidates[r]

    def zero_tick_conclusive(self) -> bool:
        """The destination search is exhaustive (bounded rejection
        sampling *plus* a full fallback scan), so a tick with zero
        attempts proves no legal transfer exists; with a static overlay
        the state can never change again. Random throttling makes a
        silent tick non-conclusive (a skipped uploader may act next
        tick); the kernel separately asks the fault injector about
        fault-side revivals (rejoins, a server outage ending)."""
        return self._dynamic is None and not self.throttle

    def result_meta(self) -> dict[str, object]:
        kernel = self.kernel
        meta: dict[str, object] = {
            "algorithm": self.name,
            "policy": self.block_policy.name,
            "mechanism": self.mechanism.name,
            "overlay": type(kernel.graph).__name__,
            "max_ticks": kernel.max_ticks,
            "uploads_per_tick": kernel.uploads_per_tick,
            "final_holdings": [m.bit_count() for m in kernel.state.masks],
        }
        if self.selfish:
            meta["selfish"] = sorted(self.selfish)
        return meta


class RandomizedEngine:
    """One randomized run over a (possibly dynamic) overlay.

    A construction facade: validates arguments, builds a
    :class:`RandomizedTickPolicy` and the :class:`~repro.sim.kernel.
    TickKernel` that drives it, and exposes the familiar attribute
    surface (``state``, ``log``, ``tick``, ``graph``, ...) by delegation.

    Parameters
    ----------
    n, k:
        Swarm size (server included) and number of blocks.
    overlay:
        A :class:`~repro.overlays.graph.Graph`, a
        :class:`~repro.overlays.dynamic.DynamicOverlay`, or ``None`` for
        the complete graph.
    policy:
        Block-selection policy; defaults to Random.
    mechanism:
        ``Cooperative()`` (default) or ``CreditLimitedBarter(s)``.
        Strict barter needs paired exchanges and has its own engine
        (:mod:`repro.randomized.exchange`).
    model:
        Bandwidth model; defaults to ``d = u`` (one download per tick).
    rng:
        A :class:`random.Random`, a seed, or ``None``.
    max_ticks:
        Abort threshold; a run that exceeds it returns an incomplete
        :class:`~repro.core.log.RunResult` (``completion_time is None``).
    keep_log:
        Record every transfer (needed for verification and efficiency
        traces); switch off to save memory on huge sweeps — per-tick
        upload counts are kept either way.
    selfish:
        Client ids that *never upload* (free-riders). Under the
        cooperative mechanism they lose nothing; under credit-limited
        barter they exhaust their ``s``-per-neighbor credit and starve —
        the incentive loophole of Section 3.2.1. The run's
        ``meta["final_holdings"]`` records how far each node got.
    throttle:
        Mapping ``client -> p`` where a throttled client *skips* each
        tick's upload independently with probability ``p`` (0 = fully
        compliant, 1 = free-rider). The strategic knob for incentive
        analysis (:mod:`repro.incentives`).
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`. A null plan (all
        rates zero, no windows) is normalised to "no faults" and the run
        stays bit-identical to one without the argument. Otherwise an
        injector with its own RNG stream judges every attempted transfer
        (a failed attempt consumes bandwidth and credit but delivers
        nothing), crashes/rejoins clients at tick starts, and sits the
        server out during outage windows.
    recovery:
        :class:`~repro.faults.recovery.RecoveryPolicy` governing stall
        detection (the generalisation of the conclusive zero-transfer
        deadlock abort, which stochastic faults make inconclusive) and
        optional server reseeding of blocks that crashes made
        server-only again. Only consulted when ``faults`` is active.
    backend:
        ``"loop"``/``None`` (default) or ``"array"`` — forwarded to
        :class:`~repro.sim.kernel.TickKernel`; the array backend runs
        complete-graph ticks vectorized over packed ownership words with
        byte-identical results (see :mod:`repro.sim.array`).
    adversary:
        Optional :class:`~repro.adversary.plan.AdversaryPlan`. A null
        plan is normalised to "no adversaries" and the run stays
        bit-identical to one without the argument; otherwise the kernel
        realises free-riders (excluded from uploading like ``selfish``),
        polluters and liars per the plan from a dedicated RNG stream.
    bandwidth:
        Optional :class:`~repro.core.bandwidth.BandwidthClasses`. A null
        spec is the uniform model (bit-identical runs); otherwise tiers
        are realized per node and this engine honors both axes
        (``bandwidth_support='full'``): fast tiers upload several blocks
        per tick and are charged per-node download capacities.
    telemetry:
        Optional :class:`~repro.telemetry.TelemetrySpec`; digests the
        completed log into ``meta["telemetry"]`` (requires
        ``keep_log=True``, never perturbs the run).
    """

    _tick_policy_cls = RandomizedTickPolicy

    def __init__(
        self,
        n: int,
        k: int,
        overlay: Graph | DynamicOverlay | None = None,
        policy: BlockPolicy | None = None,
        mechanism: Mechanism | None = None,
        model: BandwidthModel | None = None,
        rng: random.Random | int | None = None,
        max_ticks: int | None = None,
        keep_log: bool = True,
        selfish: frozenset[int] | set[int] = frozenset(),
        throttle: dict[int, float] | None = None,
        faults: FaultPlan | None = None,
        recovery: RecoveryPolicy | None = None,
        backend: object | None = None,
        workload=None,
        adversary=None,
        bandwidth=None,
        telemetry=None,
    ) -> None:
        self.n, self.k = n, k
        self.policy = policy or RandomPolicy()
        self.mechanism = mechanism or Cooperative()
        self.mechanism.reset()

        dynamic = overlay if isinstance(overlay, DynamicOverlay) else None
        if dynamic is not None:
            graph: Graph = dynamic.at_tick(1)
        else:
            graph = overlay if overlay is not None else CompleteGraph(n)
        if graph.n != n:
            raise ConfigError(
                f"overlay has {graph.n} nodes but the swarm has {n}"
            )

        self.selfish = frozenset(selfish)
        if SERVER in self.selfish:
            raise ConfigError("the server cannot be selfish (it is the source)")
        if not self.selfish <= set(range(1, n)):
            raise ConfigError(f"selfish ids must be clients 1..{n - 1}")
        for node, p in (throttle or {}).items():
            if node == SERVER or not 1 <= node < n:
                raise ConfigError(f"throttle for invalid client {node}")
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"throttle probability must be in [0, 1], got {p}")
        # Zero entries are dropped so an all-zero throttle is bit-for-bit
        # identical to no throttle (no RNG draws are spent on it).
        self.throttle = {node: p for node, p in (throttle or {}).items() if p > 0}

        self.tick_policy = self._build_tick_policy(graph, dynamic)
        credit = (
            self.mechanism if isinstance(self.mechanism, CreditLimitedBarter) else None
        )
        self.kernel = TickKernel(
            n,
            k,
            self.tick_policy,
            model=model,
            rng=rng,
            max_ticks=max_ticks,
            keep_log=keep_log,
            faults=faults,
            recovery=recovery,
            credit=credit,
            backend=backend,
            workload=workload,
            adversary=adversary,
            bandwidth=bandwidth,
            telemetry=telemetry,
        )

    def _build_tick_policy(
        self, graph: Graph, dynamic: DynamicOverlay | None
    ) -> RandomizedTickPolicy:
        return self._tick_policy_cls(
            self.policy,
            self.mechanism,
            selfish=self.selfish,
            throttle=self.throttle,
            graph=graph,
            dynamic=dynamic,
        )

    # -- delegation to the kernel ------------------------------------------

    @property
    def state(self) -> SwarmState:
        return self.kernel.state

    @property
    def log(self) -> TransferLog:
        return self.kernel.log

    @property
    def rng(self) -> random.Random:
        return self.kernel.rng

    @property
    def tick(self) -> int:
        return self.kernel.tick

    @tick.setter
    def tick(self, value: int) -> None:
        self.kernel.tick = value

    @property
    def graph(self) -> Graph:
        assert self.kernel.graph is not None
        return self.kernel.graph

    def _pool_remove(self, v: int) -> None:
        self.kernel._pool_remove(v)

    def _run_tick(self) -> int:
        """Advance one tick; returns the number of *delivered* transfers.

        Failed attempts (fault injection) are counted separately in
        ``kernel.failures_per_tick``.
        """
        return self.kernel.step()

    def run(self, progress: Callable[[int, int], None] | None = None) -> RunResult:
        """Run until every client completes or ``max_ticks`` elapse.

        ``progress`` (optional) is called as ``progress(tick, transfers)``
        after each tick. A run can also end on a proven deadlock (the
        paper's "off the charts" barter runs) or, under fault injection,
        on stall detection — see :attr:`~repro.core.log.RunResult.abort`.
        """
        return self.kernel.run(progress)
