"""Percentiles, spreads, and the metric lists of ``BENCHMARK.json``."""

from __future__ import annotations

import json
import math
import os
import statistics
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def contract() -> dict:
    """``BENCHMARK.json``: the one place metric names, units, directions and
    bounds are written down."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _rank(count: int, p: float) -> int:
    """1-based nearest-rank position of percentile ``p`` among ``count``."""
    return max(1, math.ceil(count * p / 100))


def percentile(sorted_samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; refuses one above the median with fewer than
    ten samples beyond it (a tail that thin is an anecdote, not a percentile)."""
    count = len(sorted_samples)
    if not 0 < p < 100:
        raise ValueError(f"percentile {p} out of range")
    if count == 0:
        raise ValueError("no samples")
    rank = _rank(count, p)
    if p > 50 and count - rank < 10:
        raise ValueError(
            f"p{p:g} of {count} samples has only {count - rank} samples beyond it")
    return sorted_samples[rank - 1]


def tail(sorted_samples: Sequence[float], p: float) -> float:
    """``percentile(p)``, or — on runs too short to support it — the highest
    sample that still has ten beyond it (the median at worst)."""
    count = len(sorted_samples)
    if count < 20:
        return percentile(sorted_samples, 50)
    return sorted_samples[min(_rank(count, p), count - 10) - 1]


def quartiles(values: Sequence[float]) -> List[float]:
    return list(statistics.quantiles(values, n=4))


def spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile as a share of the median —
    the driver's repeatability measure."""
    first, _, third = quartiles(values)
    return (third - first) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``
    (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def attach_units(values: Dict[str, float], specs: List[dict]) -> Dict[str, dict]:
    """Render computed values in the driver's shape, insisting that they are
    exactly the metrics the contract lists."""
    names = [spec["name"] for spec in specs]
    if sorted(names) != sorted(values):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in specs}
