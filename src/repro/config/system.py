"""System configuration dataclasses.

A :class:`SystemConfig` describes the complete simulated machine (paper
Table II).  Presets in :mod:`repro.config.presets` provide the paper's exact
configuration plus a scaled-down profile suitable for pure-Python runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigError
from repro.sampling.config import SamplingConfig


@dataclass(frozen=True)
class CacheConfig:
    """One cache level."""

    size_bytes: int
    ways: int
    hit_latency: int
    mshrs: int
    replacement: str = "lru"
    prefetcher: Optional[str] = None
    #: Opt into the MSHR pipeline: ``mshrs`` becomes a true MSHR-file
    #: occupancy bound with admission stalls that back up into the core
    #: (see ``docs/architecture.md``).  The default (off) keeps the
    #: legacy issue-bandwidth interpretation, bit-identical to the seed
    #: model.
    mshr_pipeline: bool = False

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0:
            raise ConfigError("cache size and ways must be positive")
        if self.hit_latency < 1 or self.mshrs < 1:
            raise ConfigError("cache latency and MSHR count must be >= 1")


@dataclass(frozen=True)
class DramConfig:
    """DDR5 memory-system parameters (paper Table II defaults)."""

    channels: int = 1
    device: str = "x4"
    rq_capacity: int = 64
    wq_capacity: int = 48
    wq_high: int = 40
    wq_low: int = 8
    ideal_writes: bool = False
    pbpl: bool = True
    #: Write-drain scheduling: 'min-latency' (baseline) or 'fcfs' (ablation).
    drain_policy: str = "min-latency"
    #: All-bank refresh model (off by default, matching the paper).
    refresh: bool = False

    def __post_init__(self) -> None:
        if self.device not in ("x4", "x8"):
            raise ConfigError("DRAM device must be 'x4' or 'x8'")
        if not 0 <= self.wq_low < self.wq_high <= self.wq_capacity:
            raise ConfigError("invalid write-queue watermarks")
        if self.drain_policy not in ("min-latency", "fcfs"):
            raise ConfigError("drain_policy must be 'min-latency' or 'fcfs'")


@dataclass(frozen=True)
class SystemConfig:
    """The full simulated machine."""

    cores: int = 8
    rob_size: int = 512
    issue_width: int = 4
    retire_width: int = 4
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(4096, 8, 1, 8)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(6144, 12, 4, 16,
                                            prefetcher="berti")
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(65536, 8, 14, 32,
                                            prefetcher="spp")
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(524288, 16, 36, 128)
    )
    llc_writeback: Optional[str] = None
    dram: DramConfig = field(default_factory=DramConfig)
    warmup_instructions: int = 5_000
    sim_instructions: int = 20_000
    #: How warmup instructions are executed.  ``"detailed"`` (default)
    #: drives them through the full timing model - bit-identical to the
    #: historical behaviour.  ``"functional"`` drives them straight
    #: through the cache/TLB/replacement/prefetcher state machines with
    #: no engine events (no ROB, no MSHRs, no DRAM timing), which is
    #: several times faster and enables warm-state checkpoint sharing
    #: across an experiment grid (see ``docs/performance.md``).
    warmup_mode: str = "detailed"
    #: Interval-sampling plan (``docs/sampling.md``).  ``None`` (default)
    #: measures the whole epoch in full detail; a
    #: :class:`~repro.sampling.config.SamplingConfig` switches the run to
    #: alternating fast-forward and detailed measurement intervals and
    #: requires ``warmup_mode="functional"`` (the fast-forward path is
    #: the functional engine; detailed warmup would leave in-flight
    #: timing state the sampler cannot reason about).
    sampling: Optional[SamplingConfig] = None

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigError("need at least one core")
        if self.rob_size < self.issue_width:
            raise ConfigError("ROB must hold at least one issue group")
        if self.warmup_mode not in ("detailed", "functional"):
            raise ConfigError(
                "warmup_mode must be 'detailed' or 'functional'")
        if self.sampling is not None and self.warmup_mode != "functional":
            raise ConfigError(
                "sampled runs require warmup_mode='functional' (the "
                "fast-forward between measurement intervals is the "
                "functional engine); pass --warmup-mode functional or "
                "drop the sampling config")

    def with_writeback(self, policy: Optional[str]) -> "SystemConfig":
        """Copy of this config using the named LLC writeback policy."""
        return replace(self, llc_writeback=policy)

    def with_replacement(self, policy: str) -> "SystemConfig":
        """Copy of this config using the named LLC replacement policy."""
        return replace(self, llc=replace(self.llc, replacement=policy))

    def with_warmup_mode(self, mode: str) -> "SystemConfig":
        """Copy of this config using the named warmup mode."""
        return replace(self, warmup_mode=mode)

    def with_sampling(
            self, sampling: Optional[SamplingConfig]) -> "SystemConfig":
        """Copy of this config using the given sampling plan (or none).

        Sampled runs require ``warmup_mode="functional"``; set it first
        (:meth:`with_warmup_mode`) or construction raises
        :class:`~repro.errors.ConfigError`.
        """
        return replace(self, sampling=sampling)

    def with_mshrs(self, mshrs: int) -> "SystemConfig":
        """Copy with the MSHR pipeline on and scaled MSHR files.

        ``mshrs`` sizes the L1D MSHR file; L2 gets ``2x`` and the LLC
        ``8x``, preserving the default 16/32/128 proportions so one knob
        sweeps the whole hierarchy's miss parallelism (the ``mshr``
        sweep axis).  The L1I keeps the legacy regime - instruction
        fetch is not the paper's MLP story.
        """
        if mshrs < 1:
            raise ConfigError("with_mshrs needs mshrs >= 1")
        return replace(
            self,
            l1d=replace(self.l1d, mshrs=mshrs, mshr_pipeline=True),
            l2=replace(self.l2, mshrs=2 * mshrs, mshr_pipeline=True),
            llc=replace(self.llc, mshrs=8 * mshrs, mshr_pipeline=True),
        )

    def with_wq(self, capacity: int, high: Optional[int] = None,
                low: Optional[int] = None) -> "SystemConfig":
        """Copy with a different write-queue size (paper Fig. 17 sweep).

        Watermarks scale with capacity unless given explicitly (the paper's
        48-entry queue uses high=40, low=8, i.e. high = capacity - 8).
        """
        high = high if high is not None else capacity - 8
        low = low if low is not None else 8
        return replace(
            self, dram=replace(self.dram, wq_capacity=capacity,
                               wq_high=high, wq_low=low)
        )

    def with_ideal_writes(self) -> "SystemConfig":
        """Copy with the idealised write timing (every write at 3.3 ns)."""
        return replace(self, dram=replace(self.dram, ideal_writes=True))

    def with_device(self, device: str) -> "SystemConfig":
        """Copy using 'x4' or 'x8' DRAM devices (paper Table VI)."""
        return replace(self, dram=replace(self.dram, device=device))

    def with_drain_policy(self, policy: str) -> "SystemConfig":
        """Copy using a different write-drain scheduling policy."""
        return replace(self, dram=replace(self.dram, drain_policy=policy))

    def with_refresh(self) -> "SystemConfig":
        """Copy with the all-bank refresh model enabled."""
        return replace(self, dram=replace(self.dram, refresh=True))

