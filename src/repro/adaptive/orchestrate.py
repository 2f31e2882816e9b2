"""The one adaptive round driver, and the local loop built on it.

:func:`drive` advances an :class:`AdaptivePlanner` through every round
whose outcome a ``settle(specs)`` callable can supply: ``(results,
quarantined)`` once every run of the round is terminal, ``None`` while
any is pending.  :func:`orchestrate` (behind
:meth:`~repro.experiment.session.Session.run_adaptive`) settles a round
by running it as an ordinary :class:`RunPlan` on the session, so rounds
share its memo, disk cache and warm checkpoints.  The service settles
rounds against its durable queue and store, and after a restart replays
a fresh planner through the rounds the store already holds
(:mod:`repro.service.service`).  The planner is pure, so the same
results drive it to the same decisions on every path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional, \
    Tuple, Union

from repro.adaptive.planner import AdaptivePlanner
from repro.adaptive.policy import AdaptivePolicy
from repro.experiment.resultset import Observation, ResultSet
from repro.experiment.spec import ExperimentSpec, GridPoint, RunPlan, \
    RunSpec
from repro.sim.results import RunResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiment.session import ProgressFn, Session

#: A round's outcome: results by run key, and quarantined run keys
#: mapped to their errors.
Outcome = Tuple[Mapping[str, RunResult], Mapping[str, str]]
Settle = Callable[[Dict[str, RunSpec]], Optional[Outcome]]


def drive(planner: AdaptivePlanner, settle: Settle) -> bool:
    """Advance ``planner`` while ``settle`` supplies round outcomes.

    Starts the planner if it has not started.  Returns True once the
    planner has finished, False when ``settle`` reported a round still
    pending (call again later to continue from that round).
    """
    specs = planner.pending() if planner.round else planner.start()
    while specs:
        outcome = settle(specs)
        if outcome is None:
            return False
        results, quarantined = outcome
        if quarantined:
            planner.mark_quarantined(quarantined)
        specs = planner.advance(results)
    return True


def orchestrate(session: "Session",
                experiment: Union[ExperimentSpec, RunPlan],
                policy: AdaptivePolicy,
                progress: "Optional[ProgressFn]" = None) -> ResultSet:
    """Run the grid adaptively on ``session``; see ``run_adaptive``."""
    plan = experiment.expand() \
        if isinstance(experiment, ExperimentSpec) else experiment
    planner = AdaptivePlanner(plan, policy)
    results: Dict[str, RunResult] = {}

    def settle(specs: Dict[str, RunSpec]) -> Outcome:
        coords = {cell.key: dict(cell.coords)
                  for cell in planner.cells.values()}
        round_plan = RunPlan(None, [
            GridPoint(coords=coords[key], spec=spec)
            for key, spec in specs.items()])
        for obs in session.run(round_plan, progress=progress):
            results[obs.spec.key()] = obs.result
        return results, {}

    drive(planner, settle)
    final_specs = planner.final_specs()
    observations = []
    for point in plan.points:
        spec = final_specs[point.spec.key()]
        observations.append(Observation(
            coords=point.coords, spec=spec, result=results[spec.key()]))
    name = plan.spec.name if plan.spec is not None else ""
    return ResultSet(observations, name=name, adaptive=planner.report())
