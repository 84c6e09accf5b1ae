"""Spans and counters for the traced run, kept in memory.

A :class:`Tracer` records a span around each call into a layer: its
name, start, end and the span that was open when it began (its parent).
It keeps, per span name, the call count, the total time and the *self*
time — a span's duration minus the time its child spans cover — and, for
names marked ``sample``, every duration. Full span records are kept only
for names marked ``keep`` (runs, passes, builds, saves); the hot
per-transfer layers are aggregated so that the trace stays small.

:func:`instrument` installs the wrappers at class and module level over
the public functions of the ``repro`` layers. It is called only in the
traced run; the untraced run executes the program unmodified.

Campaign workers are forked from the traced process, so they inherit the
wrappers and the tracer. A tracer that finds itself in a new process
starts empty, and each time its outermost span closes it appends its
aggregates to ``worker-<pid>.jsonl`` in ``worker_dir``; the parent folds
those files in with :meth:`Tracer.absorb_workers`.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_KEEP = 1
_SAMPLE = 2


class Tracer:
    """Span aggregates, sampled durations, counters and kept spans."""

    def __init__(self, worker_dir: str | None = None, clock=time.perf_counter_ns):
        self.clock = clock
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.in_worker = False
        #: Identifier shared by the spans of one benchmark iteration.
        self.iteration = 0
        self._reset()

    def _reset(self) -> None:
        self._stack: list[list] = []
        self._next_id = 1
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.samples: defaultdict[str, list[int]] = defaultdict(list)
        self.counters: Counter = Counter()
        #: Kept spans: ``(pid, id, parent id, name, start ns, end ns, iteration)``.
        self.spans: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str, flags: int = _KEEP) -> None:
        """Open a span; it is a child of the innermost open span."""
        if os.getpid() != self.pid:
            self._become_worker()
        parent = self._stack[-1][3] if self._stack else 0
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([name, self.clock(), 0, span_id, parent, flags])

    def end(self) -> None:
        """Close the innermost open span."""
        name, start, child_ns, span_id, parent, flags = self._stack.pop()
        end = self.clock()
        duration = end - start
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration
        if flags & _SAMPLE:
            self.samples[name].append(duration)
        if flags & _KEEP:
            self.spans.append(
                (self.pid, span_id, parent, name, start, end, self.iteration)
            )
        if self.in_worker and not self._stack:
            self._flush_worker()

    @contextmanager
    def span(self, name: str):
        """A kept span around a block of the benchmark's own code."""
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, fn, name, *, keep: bool = False, sample: bool = False, after=None):
        """``fn`` with a span around every call.

        ``name`` is a string or a function of the call's positional
        arguments. ``after(args, result)`` runs once the span has closed,
        to count what the call did.
        """
        tracer = self
        flags = (_KEEP if keep else 0) | (_SAMPLE if sample else 0)
        label = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.begin(label(args) if label is not None else name, flags)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- forked workers ----------------------------------------------------

    def _become_worker(self) -> None:
        self.pid = os.getpid()
        self.in_worker = True
        self._reset()

    def dump(self) -> dict:
        """Everything recorded, JSON-ready."""
        return {
            "calls": dict(self.calls),
            "total_ns": dict(self.total_ns),
            "self_ns": dict(self.self_ns),
            "samples": dict(self.samples),
            "counters": dict(self.counters),
            "spans": self.spans,
        }

    def _flush_worker(self) -> None:
        if self.worker_dir is None:
            return
        path = os.path.join(self.worker_dir, f"worker-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(self.dump()) + "\n")
        self._reset()

    def absorb_workers(self) -> int:
        """Fold every worker's flushed aggregates into this tracer, delete
        the files, and return how many worker processes reported."""
        if self.worker_dir is None:
            return 0
        paths = sorted(glob.glob(os.path.join(self.worker_dir, "worker-*.jsonl")))
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    part = json.loads(line)
                    self.calls.update(part["calls"])
                    self.total_ns.update(part["total_ns"])
                    self.self_ns.update(part["self_ns"])
                    for name, values in part["samples"].items():
                        self.samples[name].extend(values)
                    self.counters.update(part["counters"])
                    self.spans.extend(tuple(s) for s in part["spans"])
            os.remove(path)
        return len(paths)


# -- installation ------------------------------------------------------------


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _patch_function(tracer: Tracer, module, attr: str, name: str, **kw) -> None:
    """Wrap ``module.attr`` and every other binding of the same function
    in the ``repro`` and ``perfbench`` modules (``from x import f``)."""
    original = getattr(module, attr)
    traced = tracer.wrap(original, name, **kw)
    for mod in list(sys.modules.values()):
        if mod is None or mod.__name__.split(".")[0] not in ("repro", "perfbench"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, traced)


def _patch_method(tracer: Tracer, cls, attr: str, name, **kw) -> None:
    setattr(cls, attr, tracer.wrap(cls.__dict__[attr], name, **kw))


def instrument(tracer: Tracer) -> None:
    """Install span wrappers over the layers the per-layer metrics read."""
    import repro.asynchronous.engine  # noqa: F401 - registers its policy class
    import repro.checkpoint
    import repro.coding.engine  # noqa: F401
    import repro.coding.verify
    import repro.core.verify
    import repro.overlays.random_regular
    import repro.randomized.bittorrent  # noqa: F401
    import repro.randomized.churn  # noqa: F401
    import repro.randomized.exchange  # noqa: F401
    import repro.sim.registry
    import repro.telemetry.digest
    from repro.adversary.driver import AdversaryDriver
    from repro.campaign.cache import ResultCache
    from repro.campaign.executors import Executor
    from repro.campaign.factories import EngineRun
    from repro.core.log import TransferLog
    from repro.core.mechanisms import Mechanism
    from repro.core.state import SwarmState
    from repro.faults.injector import FaultInjector
    from repro.randomized.engine import RandomizedTickPolicy
    from repro.randomized.policies import BlockPolicy
    from repro.sim.kernel import TickKernel
    from repro.sim.membership import MembershipRuntime
    from repro.sim.policy import TickPolicy

    def after_step(args, made):
        kernel = args[0]
        if isinstance(kernel.policy, RandomizedTickPolicy):
            attempts = made + kernel.failures_per_tick[-1]
            counters = tracer.counters
            counters["randomized.ticks"] += 1
            counters["randomized.attempts"] += attempts
            counters["randomized.idle_ticks"] += attempts == 0

    def after_run_tick(args, _):
        tracer.counters["randomized.slots"] += sum(1 for mask in args[1] if mask)

    def after_allows(_, allowed):
        tracer.counters["core.mechanisms.allowed"] += bool(allowed)

    def after_verify(args, _):
        log = args[0]
        tracer.counters["core.verify.rows"] += (
            len(log) + log.failed_count + log.polluted_count + log.phantom_count
        )

    def after_save(args, _):
        tracer.counters["checkpoint.bytes"] += os.path.getsize(args[0])

    # repro.sim
    _patch_method(tracer, TickKernel, "step", "sim.step", sample=True, after=after_step)
    _patch_method(tracer, TickKernel, "attempt", "sim.attempt")
    _patch_method(tracer, TickKernel, "__init__", "sim.kernel_init", keep=True)
    _patch_method(tracer, TickKernel, "sync_log", "sim.sync_log", keep=True)
    _patch_function(tracer, repro.sim.registry, "create_engine", "sim.build", keep=True)
    for cls in [TickPolicy, *_subclasses(TickPolicy)]:
        if "run_tick" in cls.__dict__:
            if issubclass(cls, RandomizedTickPolicy):
                _patch_method(
                    tracer, cls, "run_tick", "randomized.run_tick",
                    after=after_run_tick,
                )
            else:
                _patch_method(tracer, cls, "run_tick", "policy.run_tick")
    # repro.randomized
    for cls in _subclasses(BlockPolicy):
        if "choose" in cls.__dict__:
            _patch_method(tracer, cls, "choose", "randomized.choose")
    # repro.core
    _patch_method(tracer, SwarmState, "begin_tick", "core.state.begin_tick")
    for attr in ("record", "record_failure", "record_polluted", "record_phantom"):
        _patch_method(tracer, TransferLog, attr, "core.log.record")
    _patch_method(tracer, TransferLog, "extend_batch", "core.log.extend_batch", keep=True)
    for cls in [Mechanism, *_subclasses(Mechanism)]:
        if "allows" in cls.__dict__:
            _patch_method(
                tracer, cls, "allows", "core.mechanisms.allows", after=after_allows
            )
    _patch_function(
        tracer, repro.core.verify, "verify_log", "core.verify", keep=True,
        after=after_verify,
    )
    _patch_function(
        tracer, repro.coding.verify, "verify_coding_log", "coding.verify", keep=True
    )
    # repro.overlays
    _patch_function(
        tracer, repro.overlays.random_regular, "random_regular_graph",
        "overlays.build", keep=True,
    )
    # scenario axes
    _patch_method(tracer, FaultInjector, "transfer_fails", "faults.judge")
    _patch_method(tracer, AdversaryDriver, "judge", "adversary.judge")
    _patch_method(tracer, MembershipRuntime, "begin_tick", "workloads.membership")
    _patch_method(tracer, MembershipRuntime, "end_tick", "workloads.membership")
    _patch_function(tracer, repro.telemetry.digest, "digest_run", "telemetry.digest", keep=True)
    _patch_function(
        tracer, repro.checkpoint, "save_checkpoint", "checkpoint.save", keep=True,
        after=after_save,
    )
    # repro.campaign
    _patch_method(tracer, Executor, "run", "campaign.executor_run", keep=True)
    _patch_method(tracer, ResultCache, "get", "campaign.cache_get")
    _patch_method(tracer, ResultCache, "put", "campaign.cache_put")
    _patch_method(
        tracer, EngineRun, "__call__", lambda args: f"engine.{args[0].engine}.run",
        keep=True,
    )
