"""Adaptive grid orchestration: spend simulation where the CIs say.

A grid-level, budget-aware scheduler over the sampling subsystem
(``docs/adaptive.md``): every cell first runs a cheap sampled survey
pass, then iterative rounds allocate additional budget - more
measurement intervals, or escalation to a full-detail run - only to
cells whose confidence intervals still straddle a decision boundary,
with bandit-style early stopping of dominated configurations::

    from repro import AdaptivePolicy, ExperimentSpec, Session

    policy = AdaptivePolicy(metric="mean_ipc",
                            target_relative_error=0.02,
                            budget_instructions=2_000_000)
    rs = Session().run_adaptive(spec, policy)
    print(rs.adaptive.savings_pct, rs.adaptive.winners)

The pieces:

* :class:`~repro.adaptive.policy.AdaptivePolicy` - budget, error
  target, decision metric/axis, round limits, escalation rule.
* :class:`~repro.adaptive.planner.AdaptivePlanner` - the pure,
  deterministic decision core shared verbatim by the local loop
  (:meth:`Session.run_adaptive <repro.experiment.session.Session.run_adaptive>`)
  and the service path
  (:meth:`ExperimentService.submit_adaptive
  <repro.service.service.ExperimentService.submit_adaptive>`), which is
  why the two produce identical decisions.
* :func:`~repro.adaptive.orchestrate.drive` - the one round driver
  both paths advance a planner through.  Nothing of a planner is
  persisted: a restarted service rebuilds it from the grid's cell specs
  and policy and replays it through the rounds the store already holds.
* :class:`~repro.adaptive.report.AdaptiveReport` /
  :class:`~repro.adaptive.report.CellDecision` - per-cell rounds,
  instructions spent, stop reason, and final CI, carried on the
  returned :class:`~repro.experiment.resultset.ResultSet`.
"""

from repro.adaptive.orchestrate import drive, orchestrate
from repro.adaptive.planner import AdaptivePlanner, CellState
from repro.adaptive.policy import ESCALATIONS, LOWER_IS_BETTER, \
    AdaptivePolicy
from repro.adaptive.report import STOP_REASONS, AdaptiveReport, \
    CellDecision

__all__ = [
    "ESCALATIONS",
    "LOWER_IS_BETTER",
    "STOP_REASONS",
    "AdaptivePlanner",
    "AdaptivePolicy",
    "AdaptiveReport",
    "CellDecision",
    "CellState",
    "drive",
    "orchestrate",
]
