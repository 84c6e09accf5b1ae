"""The benchmark's own arithmetic: timing reports and failure counting."""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field

#: Candidate tail percentiles, lowest first.
TAIL_PERCENTILES = (90.0, 95.0, 99.0, 99.9)
#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10


def rank_percentile(sorted_values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank percentile of ascending ``sorted_values``; returns the
    value and how many samples lie beyond its rank."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted_values[rank - 1], n - rank


def timing_report(values: list[float]) -> dict[str, float | int | str]:
    """Median plus the highest percentile with at least ``MIN_BEYOND``
    samples beyond it, with the sample count.

    With too few samples for any tail percentile only the median and the
    count are reported.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    report: dict[str, float | int | str] = {
        "median": statistics.median(ordered),
        "count": len(ordered),
    }
    for p in reversed(TAIL_PERCENTILES):
        value, beyond = rank_percentile(ordered, p)
        if beyond >= MIN_BEYOND:
            report["tail"] = f"p{p:g}"
            report["tail_value"] = value
            break
    return report


@dataclass
class Tally:
    """Run outcomes of one benchmark invocation.

    A run *fails* when it raised, failed verification, broke a paper
    bound or disagreed with its twin (loop vs array, cold vs warm). An
    abort verdict (``max-ticks``, ``stall``, ``deadlock``) is a valid
    simulation outcome and is counted separately, not as a failure. A
    verification error whose rule is a listed known defect (see
    :data:`perfbench.checks.KNOWN_DEFECTS`) is counted by defect, not as
    a failure, so the defect stays visible in every result.
    """

    attempted: int = 0
    failed: int = 0
    aborted: int = 0
    known_defects: Counter = field(default_factory=Counter)
    errors: list[str] = field(default_factory=list)

    def add(
        self,
        label: str,
        *,
        errors: list[str] = (),
        abort: str | None = None,
        defect: str | None = None,
    ) -> None:
        """Count one run with the problems its checks found."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{label}: {e}" for e in errors)
        elif defect is not None:
            self.known_defects[defect] += 1
        if abort is not None:
            self.aborted += 1

    @property
    def failed_frac(self) -> float:
        """Failed runs over runs attempted."""
        return self.failed / self.attempted if self.attempted else 0.0
