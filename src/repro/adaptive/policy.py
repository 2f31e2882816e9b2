"""The knobs of an adaptive grid orchestration.

An :class:`AdaptivePolicy` says how much simulation a grid may spend and
when a cell has earned its answer: the decision metric and its target
relative error, the interval ladder (start count and growth factor), an
optional hard budget in detailed instructions, round limits, whether a
cell that outgrows sampling escalates to a full-detail run, and which
axis the comparison is fought along (dominated values of that axis are
pruned early).

Policies are frozen, validated at construction, and round-trip JSON via
:meth:`to_dict` / :meth:`from_dict` - the same policy object drives the
local loop (:meth:`~repro.experiment.session.Session.run_adaptive`) and
the service path, which is what makes their decisions identical.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping, Optional

from repro.errors import ConfigError
from repro.sampling.stats import SAMPLE_METRICS

#: Sampled metrics where a *smaller* value wins the comparison.
LOWER_IS_BETTER = ("mpki", "wpki", "mean_w2w_ns", "time_writing_pct")

#: Valid escalation rules: grow into a full-detail run, or stop at the
#: interval cap and accept the residual CI.
ESCALATIONS = ("full", "stop")


@dataclass(frozen=True)
class AdaptivePolicy:
    """Budget and stopping rules for one adaptive grid orchestration."""

    #: Decision metric; must be one the sampling summaries estimate
    #: (:data:`~repro.sampling.stats.SAMPLE_METRICS`).
    metric: str = "mean_ipc"
    #: Stop refining a cell once its CI half-width over |mean| is at
    #: most this (e.g. ``0.02`` for 2%).
    target_relative_error: float = 0.05
    #: Optional hard cap on detailed instructions spent across the whole
    #: grid (all rounds).  The mandatory survey round always runs;
    #: refinements that would overdraw the budget are denied and their
    #: cells stop with reason ``"budget"``.  ``None`` = unbounded.
    budget_instructions: Optional[int] = None
    #: Rounds a cell must run before any early stop (target, dominance,
    #: decided) may retire it.
    min_rounds: int = 1
    #: Hard round cap per cell; a cell still unconverged after this many
    #: rounds stops with reason ``"max-rounds"``.
    max_rounds: int = 4
    #: Interval count of the cheap survey pass every cell gets first.
    start_intervals: int = 4
    #: Ladder growth factor between rounds (next = ceil(n * growth)).
    growth: float = 2.0
    #: What happens when a cell needs more intervals than fit the epoch
    #: (or the planner's ``MAX_INTERVALS``): ``"full"`` re-plans it as an
    #: unsampled full-detail run, ``"stop"`` accepts the residual CI.
    escalation: str = "full"
    #: The axis the comparison is decided along.  Cells sharing every
    #: other coordinate form one decision group; a group member whose CI
    #: is strictly dominated by the group leader's is pruned.
    compare_axis: str = "policy"
    #: Disable to keep dominated cells refining toward the error target
    #: (pure precision mode - no bandit-style early stopping).
    prune: bool = True
    #: Override the metric's win direction; ``None`` infers it
    #: (:data:`LOWER_IS_BETTER` metrics prefer smaller values).
    higher_is_better: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.metric not in SAMPLE_METRICS:
            raise ConfigError(
                f"adaptive metric must be a sampled metric, one of "
                f"{list(SAMPLE_METRICS)}; got {self.metric!r}")
        if self.target_relative_error <= 0:
            raise ConfigError(
                "adaptive target_relative_error must be positive")
        if self.budget_instructions is not None \
                and self.budget_instructions <= 0:
            raise ConfigError(
                "adaptive budget_instructions must be positive")
        if self.min_rounds < 1:
            raise ConfigError("adaptive min_rounds must be >= 1")
        if self.max_rounds < self.min_rounds:
            raise ConfigError(
                "adaptive max_rounds must be >= min_rounds")
        if self.start_intervals < 2:
            raise ConfigError(
                "adaptive start_intervals must be >= 2 (confidence "
                "intervals need at least two samples)")
        if self.growth <= 1.0:
            raise ConfigError("adaptive growth must be > 1")
        if self.escalation not in ESCALATIONS:
            raise ConfigError(
                f"adaptive escalation must be one of {ESCALATIONS}")
        if not self.compare_axis:
            raise ConfigError("adaptive compare_axis must be non-empty")

    @property
    def prefers_higher(self) -> bool:
        """Whether a larger metric value wins the comparison."""
        if self.higher_is_better is not None:
            return self.higher_is_better
        return self.metric not in LOWER_IS_BETTER

    def better(self, a: float, b: float) -> bool:
        """Whether value ``a`` beats value ``b`` under this policy."""
        return a > b if self.prefers_higher else a < b

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (the wire and grid-record format)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AdaptivePolicy":
        """Rebuild from :meth:`to_dict` output; validates like __init__."""
        if not isinstance(data, Mapping):
            raise ConfigError("adaptive policy must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown adaptive policy fields: {sorted(unknown)}")
        kwargs: Dict[str, Any] = dict(data)
        for field_name in ("min_rounds", "max_rounds", "start_intervals"):
            if field_name in kwargs:
                kwargs[field_name] = int(kwargs[field_name])
        if kwargs.get("budget_instructions") is not None:
            kwargs["budget_instructions"] = \
                int(kwargs["budget_instructions"])
        if "target_relative_error" in kwargs:
            kwargs["target_relative_error"] = \
                float(kwargs["target_relative_error"])
        if "growth" in kwargs:
            kwargs["growth"] = float(kwargs["growth"])
        return cls(**kwargs)
