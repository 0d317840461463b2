"""Summary statistics and failure counting for benchmark samples."""

from __future__ import annotations

import statistics

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least ten of n samples beyond it."""
    for p in TAIL_PERCENTILES:
        if round(n * (100.0 - p) / 100.0, 9) >= MIN_BEYOND:
            return p
    return None


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(values) -> dict:
    """Median, the highest percentile the sample count supports, and n."""
    values = list(values)
    out = {"median": statistics.median(values), "n": len(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out[f"p{p:g}"] = percentile(values, p)
    return out


def fail_counts(failures_per_child) -> tuple[int, int]:
    """(attempted, failed) operations over children.

    Each child contributes a mapping from operation name to the list of checks
    it failed; an operation with any failed check counts once as failed.
    """
    attempted = failed = 0
    for failures in failures_per_child:
        attempted += len(failures)
        failed += sum(1 for fails in failures.values() if fails)
    return attempted, failed


def fail_ratio(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no operations attempted")
    return failed / attempted
