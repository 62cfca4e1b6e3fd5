"""Summary statistics the benchmark reports.

Timings are summarised by their median and by the *tail*: the highest
percentile that still has at least ten samples beyond it.  In samples of
fewer than 21 the requirement drops to ``(n - 1) // 2``, so the tail
never falls below the median (a strict ten would make the minimum of
eleven samples their "tail").  The printed label always says how many
samples stand beyond the number.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """A tail value with the evidence behind it."""

    value: float
    percentile: float
    beyond: int
    samples: int

    def label(self) -> str:
        return (
            f"p{self.percentile:.4g} ({self.beyond} samples beyond, "
            f"n={self.samples})"
        )


def tail(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> Tail:
    """The highest percentile of *samples* with enough samples above it.

    "Enough" is *beyond*, or ``(n - 1) // 2`` when that is smaller.  Sorted
    ascending, the sample at index ``n - k - 1`` has exactly ``k``
    samples ranked after it; its percentile is the share of the sample
    at or below it.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("tail of an empty sample")
    k = min(beyond, (n - 1) // 2)
    idx = n - k - 1
    return Tail(sorted(samples)[idx], 100.0 * (idx + 1) / n, k, n)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` (the default *exclusive*
    method), the same rule the benchmark's acceptance check applies.
    """
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
