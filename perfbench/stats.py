"""Summary statistics the benchmark reports."""

from __future__ import annotations

from typing import Sequence

# candidate tail percentiles in tenths of a percent, highest first
TAIL_LADDER = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10


def tail_percentile(samples: Sequence[float]) -> tuple[str, float, int]:
    """The highest ladder percentile with at least MIN_BEYOND samples beyond it.

    Percentiles are nearest-rank: the value at 1-based rank ceil(p * n). The
    samples beyond it are the n - rank ranked above. With fewer than
    2 * MIN_BEYOND samples no percentile qualifies, and the maximum is
    reported under the label "max". Returns (label, value, samples beyond).
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    for tenths in TAIL_LADDER:
        rank = -(-tenths * n // 1000)
        beyond = n - rank
        if beyond >= MIN_BEYOND:
            return f"p{tenths / 10:g}", ordered[rank - 1], beyond
    return "max", ordered[-1], 0
