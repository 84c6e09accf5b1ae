"""The machine fingerprint, the reference clock, and peak memory.

Numbers from different machines or days compare only as ratios; the
calibration loop's time is the denominator that makes them comparable.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import random
import resource
import time
from contextlib import contextmanager
from pathlib import Path


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_rev(root: Path) -> str | None:
    """HEAD's commit, read from ``.git`` without running git; ``None`` in
    a checkout that is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(root: Path) -> str:
    """SHA-256 over every ``src`` Python file's path and content."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


#: Passes of the calibration loop in one round.
CALIBRATION_LOOPS = 60_000
#: Seconds one calibration round takes on the reference machine: the unit
#: of every time the benchmark reports.
REFERENCE_S = 0.015
#: Segment length at which :meth:`Phase.lap` calibrates again, seconds.
LAP_S = 0.3


def calibration_s(rounds: int = 3, loops: int = CALIBRATION_LOOPS) -> float:
    """Fastest of ``rounds`` rounds of a fixed interpreter-bound loop (list
    indexing, bit tests, dict stores), in seconds per
    ``CALIBRATION_LOOPS`` passes; shorter rounds (``loops``) are scaled
    up to that unit."""
    masks = [random.Random(i).getrandbits(64) for i in range(256)]
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        total = 0
        table = {}
        for i in range(loops):
            if masks[i & 255] >> (i & 63) & 1:
                total += 1
            table[i & 1023] = total
        best = min(best, time.perf_counter() - start)
    return best * CALIBRATION_LOOPS / loops


class Phase:
    """One timed phase of work, split into segments at calibration laps.

    ``raw`` is the measured seconds of the phase's work and ``ref`` the
    same work in reference seconds; calibration time is in neither.
    """

    def __init__(self, clock: "ReferenceClock") -> None:
        self.clock = clock
        self.raw = 0.0
        self.ref = 0.0
        self.start = time.perf_counter()

    def close_segment(self) -> None:
        """End the current segment, calibrate, and start the next one."""
        segment = time.perf_counter() - self.start
        after = calibration_s()
        self.raw += segment
        self.ref += segment * REFERENCE_S / ((self.clock.last + after) / 2)
        self.clock.last = after
        self.clock.samples.append(after)
        self.start = time.perf_counter()

    def lap(self, *_args) -> None:
        """Close the segment once it is ``LAP_S`` long (when the clock
        laps at all). Takes and ignores any arguments, so it can be an
        engine's per-tick ``progress`` callback."""
        if self.clock.laps and time.perf_counter() - self.start >= LAP_S:
            self.close_segment()


class ReferenceClock:
    """Times phases of work in reference seconds.

    The host's speed swings by up to 1.8x within seconds, and an
    interpreter-bound loop swings with it; a segment's measured seconds
    are therefore scaled by ``REFERENCE_S`` over the calibration time
    taken around it (the mean of the rounds just before and just after).
    A phase is one segment unless its work calls :meth:`Phase.lap`, which
    cuts it into segments of about ``LAP_S``; calibration always runs
    between segments, outside the measured time. With ``laps=False``
    (the traced run, whose spans must not contain calibration) phases
    are never cut.
    """

    def __init__(self, laps: bool = True) -> None:
        self.laps = laps
        self.last = calibration_s()
        self.samples = [self.last]

    @contextmanager
    def phase(self):
        timed = Phase(self)
        yield timed
        timed.close_segment()


def fingerprint(root: Path, calibration: float) -> dict:
    """Python and numpy versions, CPU model, core count, code revision
    and the calibration loop's time."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "git_rev": _git_rev(root),
        "src_sha256": _src_digest(root),
        "calibration_s": calibration,
        "reference_calibration_s": REFERENCE_S,
    }


def reap_children(timeout: float = 30.0) -> None:
    """Wait until every child process this one started has ended."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)


def peak_rss_mb(with_children: bool = False) -> float:
    """Peak resident memory of this process, or the largest of it and its
    ended children, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024
