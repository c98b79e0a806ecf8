"""Summary statistics and failure counting for the benchmark.

Pure Python, so the benchmark's own tests need neither numpy nor the
simulator.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

# Candidate percentiles for a timing's tail, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """Samples ranked strictly after the interpolation point of percentile q."""
    if n <= 0:
        return 0
    return n - 1 - math.floor(q / 100.0 * (n - 1))


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND of n samples beyond it."""
    ok = [q for q in TAIL_LADDER if samples_beyond(n, q) >= MIN_BEYOND]
    return ok[-1] if ok else None


def summarize(values) -> dict:
    """Median, sample count and the tail percentile the count supports."""
    values = list(values)
    if not values:
        return {"n": 0, "median": None, "tail_q": None, "tail": None}
    q = tail_percentile(len(values))
    return {"n": len(values), "median": statistics.median(values),
            "tail_q": q, "tail": percentile(values, q) if q is not None else None}


@dataclass
class FailureLog:
    """Attempted and failed operation counts, with the reason for each failure.

    An operation fails when it raises, exits nonzero or fails an output
    check; a failure is recorded and the set carries on.
    """

    attempted: int = 0
    reasons: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.reasons)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def record(self, op_index: int, problems: list[str]) -> bool:
        """Count one operation; returns True when it passed."""
        self.attempted += 1
        if problems:
            self.reasons.append({"op": op_index, "problems": list(problems)})
        return not problems
