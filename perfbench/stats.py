"""The benchmark's own arithmetic: percentiles, self time, open-loop timing.

Everything here is a pure function of plain numbers so that the rules the
benchmark reports by are tested on their own (``perfbench/tests``).
"""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: samples that must lie beyond a reported tail percentile
TAIL_SAMPLES = 10
#: the tail percentile reported when the sample supports it
MAX_TAIL_PERCENTILE = 99


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation between order stats."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> Optional[int]:
    """The highest whole percentile with at least ten samples beyond it.

    Capped at the 99th.  ``None`` when ``n`` is too small for any
    percentile to have ten samples beyond it (``n <= 10``).
    """
    if n <= TAIL_SAMPLES:
        return None
    q = math.floor(100.0 * (1.0 - TAIL_SAMPLES / n) + 1e-9)
    return min(q, MAX_TAIL_PERCENTILE) if q >= 1 else None


def tail(values: Sequence[float]) -> Tuple[float, Optional[int], int]:
    """``(value, percentile, n)`` of the tail a sample supports.

    When no percentile has ten samples beyond it the maximum is returned
    with ``percentile=None``; the sample count is always reported.
    """
    n = len(values)
    q = tail_percentile(n)
    if q is None:
        return max(values), None, n
    return percentile(values, q), q, n


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median.

    The same rule (``statistics.quantiles(values, n=4)``) decides whether
    repeated runs of the benchmark agree.
    """
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(start: float, end: float,
              children: Sequence[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    clipped = [(max(lo, start), min(hi, end)) for lo, hi in children]
    return (end - start) - union_length(clipped)


def due_time_latency(due: Sequence[float], done: Sequence[Optional[float]],
                     submitted: Sequence[float]) -> Dict[str, List[float]]:
    """Open-loop timing of each request, in milliseconds.

    ``latency_ms`` runs from when the request was *due* to be sent to when
    its result arrived, so a stall in the generator or the system is
    charged to every request it delays; ``lateness_ms`` is how late the
    generator actually sent it.  Requests without a result (``done`` is
    ``None``: failed, shed or refused) have no latency.
    """
    latency = [(d - t) * 1e3 for t, d in zip(due, done) if d is not None]
    lateness = [(s - t) * 1e3 for t, s in zip(due, submitted)]
    return {"latency_ms": latency, "lateness_ms": lateness}


def deadline_met(due: Sequence[float], done: Sequence[Optional[float]],
                 budget_s: float) -> float:
    """Share of requests sent that finished within ``budget_s`` of due.

    A request without a result counts as a miss.
    """
    if not due:
        raise ValueError("deadline share of an empty sample")
    met = sum(1 for t, d in zip(due, done)
              if d is not None and d - t <= budget_s)
    return met / len(due)


def keeps_up(due: Sequence[float], done: Sequence[Optional[float]],
             min_share: float = 0.95) -> bool:
    """Whether the system completed work as fast as it was offered.

    The completion rate (results over the span from the first due time to
    the last result) must reach ``min_share`` of the offered rate (sends
    over the span of due times).  A backlog that grows through the window
    stretches the completion span and fails this test; one that stays
    bounded costs at most one latency at the end.
    """
    finished = [d for d in done if d is not None]
    if len(due) < 2 or len(finished) < len(due):
        return False
    offered = (len(due) - 1) / (max(due) - min(due))
    completed = (len(finished) - 1) / (max(finished) - min(due))
    return completed >= min_share * offered


def max_rate(rungs: Sequence[Tuple[float, float, bool]],
             limit_ms: float) -> float:
    """Highest ladder rate whose tail latency meets the limit.

    ``rungs`` holds ``(rate, tail_ms, kept_up)`` per offered rate.  A rate
    qualifies when its tail latency is at most ``limit_ms`` and the backlog
    did not grow.  0 when no rate qualifies.
    """
    ok = [rate for rate, tail_ms, kept in rungs
          if kept and tail_ms <= limit_ms]
    return max(ok) if ok else 0.0


def sweep_waits(due: Sequence[float], completed: Sequence[Optional[float]],
                sweeps: Sequence[Tuple[float, float]]) -> List[float]:
    """Milliseconds from each request's due time to the start of its sweep.

    ``sweeps`` are the ``(start, end)`` intervals of the serialized sweeps,
    in order; a request was scored by the last sweep that ended by its
    completion time.  Requests without a completion are skipped.
    """
    ends = [end for _, end in sweeps]
    out = []
    for t, done in zip(due, completed):
        if done is None:
            continue
        k = bisect.bisect_right(ends, done) - 1
        if k >= 0:
            out.append((sweeps[k][0] - t) * 1e3)
    return out
