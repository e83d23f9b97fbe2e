"""Order statistics used by the benchmark and its compare mode."""

from __future__ import annotations

import math
import statistics

TAIL_CANDIDATES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    s = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(s)))
    return s[rank - 1]


def tail(values: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it
    (never below the median), with that percentile and the counts."""
    n = len(values)
    p = 50.0
    for cand in TAIL_CANDIDATES:
        if n - math.ceil(cand / 100.0 * n) >= 10:
            p = cand
            break
    rank = max(1, math.ceil(p / 100.0 * n))
    value = percentile(values, p) if p > 50.0 else median(values)
    return {"value": value, "percentile": p, "samples": n,
            "beyond": n - rank}


def median(values: list[float]) -> float:
    return statistics.median(values)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def latency_summary(values_ms: list[float]) -> dict:
    if not values_ms:
        return {"p50": None, "tail": None, "samples": 0}
    return {"p50": median(values_ms), "tail": tail(values_ms),
            "samples": len(values_ms)}
