"""Sampled-simulation configuration.

A :class:`SamplingConfig` describes a SMARTS-style interval-sampling plan
for one run: instead of measuring one monolithic epoch of
``sim_instructions`` per core in full detail, the run alternates

* **fast-forward** - raw trace consumption with no state updates (tens of
  times faster than detailed simulation),
* **functional warming** - the last ``warm_instructions`` of every gap
  are driven through the cache/TLB/replacement/prefetcher state machines
  (:meth:`~repro.cpu.core.Core.warm_up`) so each measurement interval
  starts from warm microarchitectural state, and
* **detailed measurement intervals** of ``interval_instructions`` each,

and reports per-metric means with CLT confidence intervals across the
intervals (:mod:`repro.sampling.stats`).

The plan plugs into :class:`~repro.config.system.SystemConfig` via the
``sampling`` field, which makes it part of every run's content hash:
sampled and full runs of the same (workload, config, seed) can never
collide in the experiment layer's result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import ConfigError

#: Valid interval-placement schemes.
SCHEMES = ("periodic", "random")


@dataclass(frozen=True)
class SamplingConfig:
    """An interval-sampling plan (see :mod:`repro.sampling`).

    ``intervals`` measurement intervals of ``interval_instructions`` each
    are placed one per period.  The period defaults to
    ``sim_instructions // intervals`` - the plan then tiles the epoch -
    and can be pinned explicitly with ``period_instructions``.  Placement
    within each period window is either ``periodic`` (at the window
    start) or ``random`` (uniform in the window, deterministic in
    ``scheme_seed``).
    """

    #: Measurement intervals to run.
    intervals: int = 10
    #: Detailed instructions measured per interval, per core.
    interval_instructions: int = 1_000
    #: Distance between interval starts; ``None`` spreads the intervals
    #: evenly over the measured epoch (``sim_instructions // intervals``).
    period_instructions: Optional[int] = None
    #: Functional-warming instructions at the tail of every fast-forward
    #: gap (the rest of the gap is raw trace skipping).
    warm_instructions: int = 2_000
    #: Detailed (but unmeasured) instructions executed right before each
    #: interval to rebuild pipeline state - ROB occupancy, in-flight
    #: MSHRs, queued DRAM traffic - that functional warming cannot
    #: produce.  Without it the interval starts from an artificially
    #: quiesced pipeline and IPC is biased; a few hundred instructions
    #: (roughly the ROB depth) restore steady state.
    detailed_warm_instructions: int = 500
    #: Interval placement: ``"periodic"`` or ``"random"``.
    scheme: str = "periodic"
    #: RNG seed for the ``"random"`` scheme (placement is deterministic).
    scheme_seed: int = 1
    #: Confidence level for the reported intervals (CLT, two-sided).
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if self.intervals < 1:
            raise ConfigError("sampling needs at least one interval")
        if self.interval_instructions <= 0:
            raise ConfigError(
                "sampling interval_instructions must be positive")
        if self.period_instructions is not None \
                and self.period_instructions < self.interval_instructions:
            raise ConfigError(
                "sampling period must be at least one interval long")
        if self.warm_instructions < 0:
            raise ConfigError("sampling warm_instructions must be >= 0")
        if self.detailed_warm_instructions < 0:
            raise ConfigError(
                "sampling detailed_warm_instructions must be >= 0")
        if self.scheme not in SCHEMES:
            raise ConfigError(
                f"sampling scheme must be one of {SCHEMES}")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError(
                "sampling confidence must be strictly between 0 and 1")

    def resolve_period(self, epoch_instructions: int) -> int:
        """The concrete period for an epoch of ``epoch_instructions``.

        Raises :class:`~repro.errors.ConfigError` when the epoch is too
        short to hold the plan's intervals.
        """
        period = self.period_instructions
        if period is None:
            period = epoch_instructions // self.intervals
        if period < self.interval_instructions:
            raise ConfigError(
                f"sampling plan does not fit: period {period} < interval "
                f"length {self.interval_instructions} (epoch "
                f"{epoch_instructions}, {self.intervals} intervals)")
        return period

    def fixed(self, intervals: int) -> "SamplingConfig":
        """A fixed-count re-plan at ``intervals``, spread over the epoch.

        Used by the adaptive orchestrator
        (:meth:`~repro.experiment.spec.RunSpec.refine`): a pinned period
        is released so a grown plan re-tiles the epoch instead of
        overrunning it.  Everything else (interval length, warming
        budgets, scheme, seed, confidence) is preserved.
        """
        return replace(self, intervals=intervals, period_instructions=None)
