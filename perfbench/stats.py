"""Order statistics the benchmark reports, and the tail-percentile rule."""

from __future__ import annotations

import math
from collections.abc import Sequence

__all__ = ["TAIL_SAMPLES", "median", "percentile", "reportable", "tail_percentile"]

#: a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (``0 <= q <= 1``), linear between order statistics."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def tail_percentile(n: int, beyond: int = TAIL_SAMPLES) -> float | None:
    """The highest percentile (as a fraction) of an ``n``-sample that has at
    least ``beyond`` samples beyond it: ``1 - beyond / n``. None when the
    sample is too small to support any tail percentile."""
    if n <= beyond:
        return None
    return 1.0 - beyond / n


def reportable(q: float, n: int, beyond: int = TAIL_SAMPLES) -> bool:
    """Whether the ``q`` percentile of ``n`` samples may be reported."""
    highest = tail_percentile(n, beyond)
    return highest is not None and q <= highest + 1e-12
