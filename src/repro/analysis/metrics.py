"""Summary metrics used throughout the evaluation."""

from __future__ import annotations

import math
from typing import Iterable, List


def gmean(values: Iterable[float]) -> float:
    """Geometric mean; values must be positive."""
    vals: List[float] = [float(v) for v in values]
    if not vals:
        return 0.0
    if any(v <= 0 for v in vals):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def amean(values: Iterable[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    vals = [float(v) for v in values]
    return sum(vals) / len(vals) if vals else 0.0
