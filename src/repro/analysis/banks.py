"""Per-bank traffic analysis.

The paper's thesis is about the *distribution* of writes over banks; this
module summarises that distribution from the per-bank read/write burst
counts the DRAM model keeps, giving a finer-grained view than the
per-episode BLP number (e.g. for diagnosing why a workload's BLP is low).
Those counts are reset with the other statistics at every epoch
boundary, so after a run they cover its last measured window (the whole
measurement of a full run; the last interval of a sampled one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class BankDistribution:
    """Summary of one counter (reads or writes) across banks."""

    counts: tuple
    total: int
    banks_used: int
    max_share: float
    imbalance: float

    @property
    def mean(self) -> float:
        return self.total / len(self.counts) if self.counts else 0.0


def _gini(values: Sequence[int]) -> float:
    """Gini coefficient: 0 = perfectly even, -> 1 = fully concentrated."""
    n = len(values)
    total = sum(values)
    if n == 0 or total == 0:
        return 0.0
    ordered = sorted(values)
    cum = 0
    weighted = 0
    for i, v in enumerate(ordered, start=1):
        cum += v
        weighted += cum
    # Standard discrete Gini from the Lorenz curve.
    return (n + 1 - 2 * weighted / total) / n


def distribution(counts: Sequence[int]) -> BankDistribution:
    """Summarise a per-bank counter vector."""
    total = sum(counts)
    used = sum(1 for c in counts if c)
    max_share = max(counts) / total if total else 0.0
    return BankDistribution(
        counts=tuple(counts),
        total=total,
        banks_used=used,
        max_share=max_share,
        imbalance=_gini(counts),
    )


def write_distribution(system) -> List[BankDistribution]:
    """Per-sub-channel write distribution for a simulated system.

    Takes a :class:`repro.sim.system.System` *after* a run and returns one
    :class:`BankDistribution` per sub-channel (channel-major order).
    """
    out: List[BankDistribution] = []
    for channel in system.channels:
        for sc in channel.subchannels:
            out.append(distribution([b.stats.writes for b in sc.banks]))
    return out


def read_distribution(system) -> List[BankDistribution]:
    """Per-sub-channel read distribution (same shape as writes)."""
    out: List[BankDistribution] = []
    for channel in system.channels:
        for sc in channel.subchannels:
            out.append(distribution([b.stats.reads for b in sc.banks]))
    return out
