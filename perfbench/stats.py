"""Statistics helpers: tail percentiles, open-loop latency and span self time."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile is reported only where at least this many samples lie
#: beyond it; with fewer samples the highest such percentile is used instead.
MIN_BEYOND = 10
#: The tail reported when the samples allow it.
TAIL_CAP = 99.0


@dataclass(frozen=True)
class Tail:
    """A percentile as reported: which one, its value, and the sample count."""

    percentile: float
    value: float
    samples: int


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``pct`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail(values: Sequence[float]) -> Tail:
    """The highest percentile, at most p99, with ``MIN_BEYOND`` samples above it.

    With nearest-rank percentiles the sample at rank ``r`` has ``n - r``
    samples beyond it, so the rank is ``min(ceil(0.99 * n), n - MIN_BEYOND)``.
    When even the median has fewer samples beyond it, the median is
    reported; the sample count says how much to trust it.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    rank = min(math.ceil(TAIL_CAP / 100.0 * n), n - MIN_BEYOND)
    rank = max(rank, math.ceil(n / 2))
    return Tail(percentile=100.0 * rank / n, value=ordered[rank - 1], samples=n)


@dataclass(frozen=True)
class Sent:
    """One open-loop request as the generator saw it (seconds, one clock).

    ``due`` is when the schedule said to send it, ``ready`` when a connection
    became free to take it, ``sent`` when it went out and ``done`` when the
    answer came back.
    """

    due: float
    ready: float
    sent: float
    done: float

    @property
    def latency(self) -> float:
        """Time to answer counted from the due time, so a stall of the
        generator or a busy connection is charged to every request it
        delayed, not hidden by a late send."""
        return self.done - self.due

    @property
    def lag(self) -> float:
        """How late the generator itself ran: the send delay beyond the
        later of the due time and the moment a connection was free."""
        return max(0.0, self.sent - max(self.due, self.ready))


def self_times(
    spans: Iterable[Tuple[int, Optional[int], float, float]]
) -> Dict[int, float]:
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover.

    ``spans`` are ``(id, parent, start, end)``.  Children are clipped to the
    parent's interval and overlapping children (from other threads) are
    counted once, so self time is never negative.
    """
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span_id, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result: Dict[int, float] = {}
    for span_id, _, start, end in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = max(0.0, (end - start) - covered)
    return result
