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

from repro.errors import ConfigError

#: Confidence level of every sampled run's intervals (CLT, two-sided).
CONFIDENCE = 0.95


@dataclass(frozen=True)
class SamplingConfig:
    """An interval-sampling plan (see :mod:`repro.sampling`).

    ``intervals`` measurement intervals of ``interval_instructions``
    each tile the measured epoch: interval ``k`` starts at
    ``k * (sim_instructions // intervals)``.  Confidence intervals are
    reported at the fixed :data:`CONFIDENCE` level.
    """

    #: Measurement intervals to run.
    intervals: int = 10
    #: Detailed instructions measured per interval, per core.
    interval_instructions: int = 1_000
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

    def __post_init__(self) -> None:
        if self.intervals < 1:
            raise ConfigError("sampling needs at least one interval")
        if self.interval_instructions <= 0:
            raise ConfigError(
                "sampling interval_instructions must be positive")
        if self.warm_instructions < 0:
            raise ConfigError("sampling warm_instructions must be >= 0")
        if self.detailed_warm_instructions < 0:
            raise ConfigError(
                "sampling detailed_warm_instructions must be >= 0")

    def resolve_period(self, epoch_instructions: int) -> int:
        """The distance between interval starts in an epoch of
        ``epoch_instructions``.

        Raises :class:`~repro.errors.ConfigError` when the epoch is too
        short to hold the plan's intervals.
        """
        period = epoch_instructions // self.intervals
        if period < self.interval_instructions:
            raise ConfigError(
                f"sampling plan does not fit: period {period} < interval "
                f"length {self.interval_instructions} (epoch "
                f"{epoch_instructions}, {self.intervals} intervals)")
        return period

    def fixed(self, intervals: int) -> "SamplingConfig":
        """A fixed-count re-plan at ``intervals``, tiling the epoch.

        Used by the adaptive orchestrator
        (:meth:`~repro.experiment.spec.RunSpec.refine`); the interval
        length and warming budgets are preserved.
        """
        return replace(self, intervals=intervals)
