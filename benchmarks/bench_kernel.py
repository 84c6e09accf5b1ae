"""Kernel benchmarks: loop vs legacy, and the array backend vs loop.

The :mod:`repro.sim` kernel replaced six hand-inlined tick loops; the one
that mattered for wall-clock is the randomized engine's complete-graph
fast path (the paper's n = 10,000 run lives on it). ``_LegacyLoop`` below
is a frozen copy of that pre-refactor hot loop — cooperative mechanism,
complete graph, ``keep_log=False``, no faults: exactly the configuration
of the big figure sweeps — kept draw-for-draw RNG-compatible with the
kernel so both sides simulate the *identical* run.

Two acceptance gates:

* ``test_kernel_overhead_within_10pct`` — per-tick kernel time at
  n=1000, k=1000 must stay within 10% of the legacy loop.
* ``test_array_backend_speedup`` — the :mod:`repro.sim.array` backend
  must be at least 2x faster per tick than the loop backend at
  n = k = 1000 (same run, byte-identical transfer log).

Both gates persist their numbers to ``BENCH_kernel.json`` at the repo
root (config, per-round timings, speedup ratios, git rev) so the perf
trajectory is tracked across PRs. ``REPRO_BENCH_NK`` / ``REPRO_BENCH_TICKS``
shrink the scale for CI smoke runs; the 2x assertion only arms at the
full n = k = 1000 scale.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from _harness import interleaved_best_of, update_bench_json
from repro.core.model import SERVER, BandwidthModel
from repro.core.state import SwarmState
from repro.randomized.engine import RandomizedEngine
from repro.randomized.policies import RandomPolicy

N = K = int(os.environ.get("REPRO_BENCH_NK", "1000"))
# steady-state warm phase of the ~1070-tick full run
TICKS = int(os.environ.get("REPRO_BENCH_TICKS", "60"))
_REJECTION_TRIES = 12


class _LegacyLoop:
    """Pre-refactor ``RandomizedEngine._run_tick``, stripped to the
    complete-graph cooperative fast path (no faults / selfish / throttle /
    credit / log — all were no-ops in the benchmarked configuration, and
    their guard checks are kept so the baseline pays the same branches)."""

    def __init__(self, n: int, k: int, rng: int) -> None:
        self.n, self.k = n, k
        self.model = BandwidthModel.symmetric()
        self.state = SwarmState(n, k)
        self.rng = random.Random(rng)
        self.policy = RandomPolicy()
        self.tick = 0
        self._full = (1 << k) - 1
        self._pool = list(range(1, n))
        self._pool_pos = {v: i for i, v in enumerate(self._pool)}
        self._avail: list[int] = []
        self._avail_pos: dict[int, int] = {}
        self._common = 0

    def _pool_remove(self, v: int) -> None:
        pos = self._pool_pos.pop(v, None)
        if pos is None:
            return
        last = self._pool.pop()
        if last != v:
            self._pool[pos] = last
            self._pool_pos[last] = pos

    def _avail_remove(self, v: int) -> None:
        pos = self._avail_pos.pop(v, None)
        if pos is None:
            return
        last = self._avail.pop()
        if last != v:
            self._avail[pos] = last
            self._avail_pos[last] = pos

    def _run_tick(self) -> int:
        self.tick += 1
        state = self.state
        snapshot = state.begin_tick()
        masks = state.masks
        rng = self.rng
        download_cap = self.model.download
        dl_left = [download_cap] * self.n if download_cap is not None else None
        self._avail = list(self._pool)
        self._avail_pos = {v: i for i, v in enumerate(self._avail)}

        uploaders = [v for v in range(1, self.n) if snapshot[v]]
        uploaders.append(SERVER)
        rng.shuffle(uploaders)

        common = -1
        for v in self._pool:
            common &= snapshot[v]
            if common == 0:
                break
        self._common = common

        transfers = 0
        for src in uploaders:
            rounds = self.model.server_upload if src == SERVER else 1
            for _ in range(rounds):
                dst = self._pick_destination(src, snapshot, masks, dl_left)
                if dst is None:
                    break
                useful = snapshot[src] & ~masks[dst]
                block = self.policy.choose(useful, self, src, dst)
                state.receive(dst, block)
                if state.masks[dst] == self._full:
                    self._pool_remove(dst)
                    self._avail_remove(dst)
                if dl_left is not None:
                    dl_left[dst] -= 1
                    if dl_left[dst] <= 0:
                        self._avail_remove(dst)
                transfers += 1
        return transfers

    def _pick_destination(self, src, snapshot, masks, dl_left):
        have = snapshot[src]
        rng = self.rng
        candidates_pool = self._avail
        if have & ~self._common == 0:
            return None
        size = len(candidates_pool)
        if size == 0:
            return None
        for _ in range(min(_REJECTION_TRIES, size)):
            v = candidates_pool[rng.randrange(size)]
            if v != src and (dl_left is None or dl_left[v] > 0) and have & ~masks[v]:
                return v
        candidates = [
            v
            for v in candidates_pool
            if v != src and (dl_left is None or dl_left[v] > 0) and have & ~masks[v]
        ]
        if not candidates:
            return None
        return candidates[rng.randrange(len(candidates))]


def _run_legacy(ticks: int = TICKS, rng: int = 1):
    loop = _LegacyLoop(N, K, rng=rng)
    for _ in range(ticks):
        loop._run_tick()
    return loop


def _run_kernel(ticks: int = TICKS, rng: int = 1):
    engine = RandomizedEngine(N, K, rng=rng, keep_log=False)
    for _ in range(ticks):
        engine.kernel.step()
    return engine


def _run_array(ticks: int = TICKS, rng: int = 1):
    engine = RandomizedEngine(N, K, rng=rng, keep_log=False, backend="array")
    for _ in range(ticks):
        engine.kernel.step()
    return engine


def test_legacy_and_kernel_simulate_the_same_run():
    """The baseline is only meaningful if it is draw-for-draw identical."""
    legacy = _run_legacy(ticks=30)
    engine = _run_kernel(ticks=30)
    assert legacy.state.masks == engine.state.masks
    assert legacy.rng.random() == engine.kernel.rng.random()


def test_array_and_loop_simulate_the_same_run():
    """Same contract for the array backend: the speedup below compares
    two implementations of the *identical* run."""
    loop = _run_kernel(ticks=30)
    arr = _run_array(ticks=30)
    assert loop.state.masks == arr.state.masks
    assert loop.kernel.rng.random() == arr.kernel.rng.random()


def test_kernel_tick_n1000(benchmark):
    engine = benchmark.pedantic(_run_kernel, rounds=1, iterations=1)
    assert engine.kernel.tick == TICKS


def test_legacy_tick_n1000(benchmark):
    loop = benchmark.pedantic(_run_legacy, rounds=1, iterations=1)
    assert loop.tick == TICKS


@pytest.mark.slow
def test_kernel_overhead_within_10pct():
    """Acceptance gate: per-tick kernel overhead <= 10% over the frozen
    pre-refactor hot loop at n=1000, k=1000 (interleaved best of 3, same
    seeds)."""
    _run_kernel(ticks=5)  # warm imports and allocator before timing
    res = interleaved_best_of(
        {"legacy": _run_legacy, "kernel": _run_kernel}, rounds=3
    )
    legacy, kernel = res["legacy"]["best"], res["kernel"]["best"]
    per_tick_ms = kernel / TICKS * 1000
    print(
        f"\nlegacy {legacy / TICKS * 1000:.2f} ms/tick, "
        f"kernel {per_tick_ms:.2f} ms/tick, "
        f"ratio {kernel / legacy:.3f}"
    )
    update_bench_json(
        "BENCH_kernel.json",
        "kernel_vs_legacy",
        {
            "config": {"n": N, "k": K, "ticks": TICKS, "seed": 1, "rounds": 3},
            "legacy_ms_per_tick": round(legacy / TICKS * 1000, 4),
            "kernel_ms_per_tick": round(per_tick_ms, 4),
            "legacy_rounds_s": res["legacy"]["rounds"],
            "kernel_rounds_s": res["kernel"]["rounds"],
            "overhead_ratio": round(kernel / legacy, 4),
        },
    )
    if N >= 1000 and K >= 1000:
        # At reduced CI-smoke scales the measurement still runs and
        # records, but fixed per-tick overheads dominate and the 10%
        # budget is only meaningful at the full n = k = 1000 scale.
        assert kernel <= legacy * 1.10, (
            f"kernel tick loop is {kernel / legacy:.2%} of the legacy hot "
            f"path (budget 110%)"
        )


# -- array backend vs loop backend -----------------------------------------

# Untimed lead-in before the measured window: the opening ticks are a
# seeding transient (only the server uploads, interest is scarce), while
# the bulk of the ~1070-tick full run at n = k = 1000 is the steady
# dissemination phase the window below samples.
WARMUP = int(os.environ.get("REPRO_BENCH_WARMUP", str(2 * TICKS)))


def _steady_window(backend: str | None) -> float:
    """Advance a fresh run WARMUP ticks untimed, then time TICKS more.

    ``keep_log=True`` (the ``run()`` default): experiments retain the
    transfer log, so both backends pay for logging inside the window.
    Returns the measured seconds (self-timed sample for
    :func:`interleaved_best_of`).
    """
    kwargs = {"backend": backend} if backend else {}
    engine = RandomizedEngine(N, K, rng=1, keep_log=True, **kwargs)
    kernel = engine.kernel
    for _ in range(WARMUP):
        kernel.step()
    start = time.perf_counter()
    for _ in range(TICKS):
        kernel.step()
    return time.perf_counter() - start


def test_array_backend_speedup():
    """Headline acceptance gate: the array backend is >= 2x faster per
    tick than the loop backend at n = k = 1000 on the identical run
    (interleaved best of 3, warmed into the steady phase). Numbers are
    persisted to ``BENCH_kernel.json``; at reduced CI-smoke scales the
    measurement still runs and records, but the 2x bar is not armed."""
    res = interleaved_best_of(
        {
            "loop": lambda: _steady_window(None),
            "array": lambda: _steady_window("array"),
        },
        rounds=3,
    )
    loop, array = res["loop"]["best"], res["array"]["best"]
    speedup = loop / array
    print(
        f"\nloop {loop / TICKS * 1000:.2f} ms/tick, "
        f"array {array / TICKS * 1000:.2f} ms/tick, "
        f"speedup {speedup:.2f}x"
    )
    update_bench_json(
        "BENCH_kernel.json",
        "array_vs_loop",
        {
            "config": {
                "n": N,
                "k": K,
                "ticks": TICKS,
                "warmup": WARMUP,
                "keep_log": True,
                "seed": 1,
                "rounds": 3,
            },
            "loop_ms_per_tick": round(loop / TICKS * 1000, 4),
            "array_ms_per_tick": round(array / TICKS * 1000, 4),
            "loop_rounds_s": res["loop"]["rounds"],
            "array_rounds_s": res["array"]["rounds"],
            "speedup": round(speedup, 3),
        },
    )
    if N >= 1000 and K >= 1000:
        assert speedup >= 2.0, (
            f"array backend speedup {speedup:.2f}x is below the 2x "
            f"acceptance bar at n=k={N}"
        )
