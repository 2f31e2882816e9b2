"""The deterministic decision core of adaptive grid orchestration.

An :class:`AdaptivePlanner` owns the per-cell state machine: every
unique run of the submitted plan becomes a *cell* that climbs an
interval ladder (``start_intervals``, then ``ceil(n * growth)`` per
round) until its CI meets the policy's error target, its comparison
group's ranking is decided, it is dominated by the group leader
(bandit-style pruning), it escalates to a full-detail run, or budget /
round caps retire it.

The planner is deliberately *pure*: decisions depend only on the policy
and the observed :class:`~repro.sim.results.RunResult` objects - no
wall clock, no randomness, no I/O - and results are themselves
deterministic in (config, workload, seed).  The local loop
(:meth:`~repro.experiment.session.Session.run_adaptive`) and the
service supervisor drive the *same* planner code over the *same*
results, which is what guarantees identical decisions on both paths.
:meth:`state_dict` / :meth:`restore` round-trip the full state through
JSON so the service can persist it in grid records between rounds.

Budget accounting counts **detailed instructions**
(``RunResult.instructions``: instructions measured in full detail,
which is where simulation time goes) and the planner increments the
``repro_adaptive_*`` registry counters from the same events that build
the :class:`~repro.adaptive.report.AdaptiveReport`, so report totals
always reconcile with telemetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro import telemetry
from repro.adaptive.policy import AdaptivePolicy
from repro.adaptive.report import AdaptiveReport, CellDecision
from repro.errors import ConfigError
from repro.experiment.spec import RunPlan, RunSpec
from repro.sim.results import RunResult

#: Ceiling of every cell's interval ladder (the epoch may cap it lower).
MAX_INTERVALS = 64


def _counter(name: str, help_text: str) -> Any:
    """Always-on operational counter (the service/queue pattern)."""
    return telemetry.REGISTRY.counter(name, help_text)


def _rounds_counter() -> Any:
    return _counter("repro_adaptive_rounds_total",
                    "Adaptive cell-rounds executed")


def _escalations_counter() -> Any:
    return _counter("repro_adaptive_escalations_total",
                    "Adaptive cells escalated to full-detail runs")


def _pruned_counter() -> Any:
    return _counter("repro_adaptive_pruned_total",
                    "Adaptive cells pruned as dominated")


def _instructions_counter() -> Any:
    return telemetry.REGISTRY.counter(
        "repro_adaptive_instructions_total",
        "Adaptive detailed instructions by kind", ("kind",))


@dataclass
class CellState:
    """One unique run's position on the refinement ladder."""

    cell: str                      # original run key (stable identity)
    label: str
    coords: Dict[str, Any]
    group: str                     # decision-group anchor
    value: str                     # compare-axis value
    spec: RunSpec                  # current round's spec
    key: str                       # current spec's run key
    intervals: Optional[int]       # current interval count (None = full)
    cap: int                       # interval-ladder ceiling
    full_cost: int                 # cores * sim_instructions
    rounds: int = 0
    instructions: int = 0
    last_instructions: int = 0
    awaiting: bool = False         # a planned round has no result yet
    stop: Optional[str] = None
    escalated: bool = False
    pruned: bool = False
    has_estimate: bool = False
    mean: float = 0.0
    ci_lo: float = 0.0
    ci_hi: float = 0.0
    rel_error: float = 0.0
    final_key: str = ""
    history: List[Dict[str, Any]] = field(default_factory=list)


def _group_anchor(coords: Mapping[str, Any], compare_axis: str) -> str:
    parts = [f"{k}={coords[k]}" for k in sorted(coords)
             if k != compare_axis]
    return ",".join(parts) or "all"


class AdaptivePlanner:
    """Drives one grid through sampled survey + targeted refinement."""

    def __init__(self, plan: RunPlan, policy: AdaptivePolicy) -> None:
        self.policy = policy
        self.round = 0
        self.spent = 0
        self.totals = {"rounds": 0, "escalations": 0, "pruned": 0}
        self._finalized = False
        self._winners: Dict[str, str] = {}
        self.cells: Dict[str, CellState] = {}
        coords_of: Dict[str, Mapping[str, Any]] = {}
        for point in plan.points:
            coords_of.setdefault(point.spec.key(), point.coords)
        for cell_key, spec in plan.runs.items():
            coords = dict(coords_of[cell_key])
            config = spec.config
            base = config.sampling
            interval_len = base.interval_instructions if base is not None \
                else 1_000
            cap = min(MAX_INTERVALS,
                      config.sim_instructions // max(1, interval_len))
            if cap < 2:
                raise ConfigError(
                    f"adaptive orchestration cannot sample "
                    f"{spec.label or spec.workload!r}: the epoch "
                    f"({config.sim_instructions} instructions) fits "
                    f"fewer than 2 intervals of {interval_len}; shorten "
                    f"the interval or run the grid exhaustively")
            self.cells[cell_key] = CellState(
                cell=cell_key,
                label=spec.label or spec.workload,
                coords=coords,
                group=_group_anchor(coords, policy.compare_axis),
                value=str(coords.get(policy.compare_axis, "")),
                spec=spec, key=cell_key,
                intervals=None, cap=cap,
                full_cost=config.cores * config.sim_instructions)

    # -- round planning ------------------------------------------------

    def start(self) -> Dict[str, RunSpec]:
        """Plan the mandatory survey round (every cell, cheap sampling)."""
        if self.round != 0:
            raise ConfigError("adaptive planner already started")
        self.round = 1
        for cell in self._ordered():
            n0 = min(self.policy.start_intervals, cell.cap)
            self._plan_cell(cell, intervals=n0)
        return self.pending()

    def pending(self) -> Dict[str, RunSpec]:
        """Specs of the rounds planned but not yet observed."""
        return {cell.key: cell.spec for cell in self._ordered()
                if cell.awaiting}

    def _ordered(self) -> List[CellState]:
        return [self.cells[k] for k in sorted(self.cells)]

    def _plan_cell(self, cell: CellState,
                   intervals: Optional[int]) -> None:
        if intervals is None:
            cell.spec = cell.spec.refine(full=True)
            cell.escalated = True
            self.totals["escalations"] += 1
            _escalations_counter().inc()
        else:
            cell.spec = cell.spec.refine(intervals=intervals)
        cell.intervals = intervals
        cell.key = cell.spec.key()
        cell.awaiting = True

    # -- observation + decisions ---------------------------------------

    def advance(self, results: Mapping[str, RunResult]
                ) -> Dict[str, RunSpec]:
        """Feed one round's results; returns the next round's specs.

        ``results`` maps run keys to finished results and must cover
        every awaiting cell.  An empty return value means the
        orchestration is finished (:attr:`finished` turns True and
        :meth:`report` becomes available).
        """
        self._observe(results)
        if not self._all_stopped():
            self._decide()
        if self._all_stopped():
            self._finalize()
            return {}
        self.round += 1
        return self.pending()

    def _observe(self, results: Mapping[str, RunResult]) -> None:
        instructions = _instructions_counter()
        for cell in self._ordered():
            if not cell.awaiting:
                continue
            result = results.get(cell.key)
            if result is None:
                raise ConfigError(
                    f"adaptive round {self.round} is missing the result "
                    f"for {cell.label!r} (run {cell.key})")
            cell.awaiting = False
            cell.rounds += 1
            cell.final_key = cell.key
            cell.last_instructions = result.instructions
            cell.instructions += result.instructions
            self.spent += result.instructions
            cell.history.append({"key": cell.key,
                                 "intervals": cell.intervals,
                                 "instructions": result.instructions})
            self.totals["rounds"] += 1
            _rounds_counter().inc()
            instructions.labels(kind="spent").inc(result.instructions)
            metric = self.policy.metric
            if result.sampling is not None:
                est = result.sampling.estimate(metric)
                cell.mean = est.mean
                cell.ci_lo, cell.ci_hi = est.ci_lo, est.ci_hi
                cell.rel_error = est.rel_error
            else:
                value = float(getattr(result, metric))
                cell.mean = cell.ci_lo = cell.ci_hi = value
                cell.rel_error = 0.0
            cell.has_estimate = True
            if cell.escalated and cell.stop is None:
                # A full-detail result is exact; nothing left to refine.
                cell.stop = "escalated"

    def _dominates(self, leader: CellState, cell: CellState) -> bool:
        """Leader's CI strictly beats the cell's whole CI."""
        if self.policy.prefers_higher:
            return leader.ci_lo > cell.ci_hi
        return leader.ci_hi < cell.ci_lo

    def _group_leader(self,
                      members: List[CellState]) -> Optional[CellState]:
        leader: Optional[CellState] = None
        for cell in members:
            if not cell.has_estimate:
                continue
            if leader is None or \
                    self.policy.better(cell.mean, leader.mean):
                leader = cell
        return leader

    def _decide(self) -> None:
        policy = self.policy
        groups: Dict[str, List[CellState]] = {}
        for cell in self._ordered():
            groups.setdefault(cell.group, []).append(cell)

        refine_candidates: List[CellState] = []
        for members in groups.values():
            leader = self._group_leader(members)
            contested = len(members) > 1 and leader is not None
            decided = contested and all(
                cell is leader or not cell.has_estimate
                or self._dominates(leader, cell)
                for cell in members)
            for cell in members:
                if cell.stop is not None or cell.awaiting \
                        or not cell.has_estimate:
                    continue
                if cell.rounds >= policy.min_rounds:
                    if contested and policy.prune and cell is not leader \
                            and self._dominates(leader, cell):
                        cell.stop = "dominated"
                        cell.pruned = True
                        self.totals["pruned"] += 1
                        _pruned_counter().inc()
                        continue
                    if decided:
                        cell.stop = "decided"
                        continue
                    # A zero mean carries no relative precision (its
                    # relative error is 0/0), so it never meets the target.
                    if cell.mean != 0.0 and \
                            cell.rel_error <= policy.target_relative_error:
                        cell.stop = "target-met"
                        continue
                if cell.rounds >= policy.max_rounds:
                    cell.stop = "max-rounds"
                    continue
                refine_candidates.append(cell)

        # Neediest first; ties break on the stable cell id so local and
        # service runs admit refinements in the same order.
        refine_candidates.sort(key=lambda c: (-c.rel_error, c.cell))
        committed = 0
        for cell in refine_candidates:
            assert cell.intervals is not None
            next_n: Optional[int] = math.ceil(
                cell.intervals * self.policy.growth)
            if next_n > cell.cap:
                if self.policy.escalation == "stop":
                    cell.stop = "interval-cap"
                    continue
                next_n = None  # escalate to a full-detail run
            projected = cell.full_cost if next_n is None else \
                -(-cell.last_instructions * next_n // cell.intervals)
            budget = self.policy.budget_instructions
            if budget is not None and \
                    self.spent + committed + projected > budget:
                cell.stop = "budget"
                continue
            committed += projected
            self._plan_cell(cell, intervals=next_n)

    def _all_stopped(self) -> bool:
        return all(cell.stop is not None and not cell.awaiting
                   for cell in self.cells.values())

    @property
    def finished(self) -> bool:
        return self._finalized

    def mark_quarantined(self, keys: Mapping[str, str]) -> None:
        """Retire cells whose current run was dead-lettered (service).

        ``keys`` maps run keys to error strings; matching awaiting
        cells stop with reason ``"quarantined"`` and are excluded from
        winners and the final ResultSet (degraded-grid semantics).
        """
        for cell in self._ordered():
            if cell.awaiting and cell.key in keys:
                cell.awaiting = False
                cell.stop = "quarantined"
                cell.has_estimate = False

    def _finalize(self) -> None:
        if self._finalized:
            return
        self._finalized = True
        groups: Dict[str, List[CellState]] = {}
        for cell in self._ordered():
            groups.setdefault(cell.group, []).append(cell)
        for group, members in sorted(groups.items()):
            leader = self._group_leader(members)
            if leader is not None:
                self._winners[group] = leader.value
        _instructions_counter().labels(kind="saved").inc(
            self._instructions_saved())

    def _instructions_full(self) -> int:
        return sum(cell.full_cost for cell in self.cells.values())

    def _instructions_saved(self) -> int:
        return max(0, self._instructions_full() - self.spent)

    # -- outputs -------------------------------------------------------

    def final_specs(self) -> Dict[str, RunSpec]:
        """Original cell key -> highest-fidelity spec that produced the
        cell's final estimate (quarantined cells excluded)."""
        return {cell.cell: cell.spec for cell in self._ordered()
                if cell.stop != "quarantined"}

    def report(self) -> AdaptiveReport:
        if not self._finalized:
            raise ConfigError(
                "adaptive orchestration has not finished; report() is "
                "only available once advance() returns no more work")
        cells = tuple(
            CellDecision(
                cell=cell.cell, label=cell.label,
                coords=dict(cell.coords), group=cell.group,
                value=cell.value, rounds=cell.rounds,
                intervals=cell.intervals, escalated=cell.escalated,
                pruned=cell.pruned, stop=cell.stop or "",
                instructions=cell.instructions, mean=cell.mean,
                ci_lo=cell.ci_lo, ci_hi=cell.ci_hi,
                rel_error=cell.rel_error, final_key=cell.final_key)
            for cell in self._ordered())
        return AdaptiveReport(
            policy=self.policy.to_dict(), cells=cells,
            rounds=self.totals["rounds"],
            escalations=self.totals["escalations"],
            pruned=self.totals["pruned"],
            instructions_spent=self.spent,
            instructions_full=self._instructions_full(),
            winners=dict(self._winners))

    # -- persistence (the service's grid records) ----------------------

    def state_dict(self) -> Dict[str, Any]:
        """JSON-serialisable snapshot; :meth:`restore` round-trips it."""
        return {
            "round": self.round,
            "spent": self.spent,
            "totals": dict(self.totals),
            "finalized": self._finalized,
            "winners": dict(self._winners),
            "cells": [{
                "cell": cell.cell, "label": cell.label,
                "coords": dict(cell.coords), "group": cell.group,
                "value": cell.value, "spec": cell.spec.describe(),
                "key": cell.key, "intervals": cell.intervals,
                "cap": cell.cap, "full_cost": cell.full_cost,
                "rounds": cell.rounds,
                "instructions": cell.instructions,
                "last_instructions": cell.last_instructions,
                "awaiting": cell.awaiting, "stop": cell.stop,
                "escalated": cell.escalated, "pruned": cell.pruned,
                "has_estimate": cell.has_estimate,
                "mean": cell.mean, "ci_lo": cell.ci_lo,
                "ci_hi": cell.ci_hi, "rel_error": cell.rel_error,
                "final_key": cell.final_key,
                "history": list(cell.history),
            } for cell in self._ordered()],
        }

    @classmethod
    def restore(cls, policy: AdaptivePolicy,
                state: Mapping[str, Any]) -> "AdaptivePlanner":
        """Rebuild a planner from :meth:`state_dict` output."""
        from repro.experiment.serialize import spec_from_dict

        planner = cls.__new__(cls)
        planner.policy = policy
        planner.round = int(state["round"])
        planner.spent = int(state["spent"])
        planner.totals = {k: int(v)
                          for k, v in state["totals"].items()}
        planner._finalized = bool(state.get("finalized", False))
        planner._winners = {str(k): str(v) for k, v
                            in state.get("winners", {}).items()}
        planner.cells = {}
        for data in state["cells"]:
            spec = spec_from_dict(data["spec"])
            cell = CellState(
                cell=str(data["cell"]), label=str(data["label"]),
                coords=dict(data["coords"]), group=str(data["group"]),
                value=str(data["value"]), spec=spec,
                key=str(data["key"]),
                intervals=data["intervals"], cap=int(data["cap"]),
                full_cost=int(data["full_cost"]),
                rounds=int(data["rounds"]),
                instructions=int(data["instructions"]),
                last_instructions=int(data["last_instructions"]),
                awaiting=bool(data["awaiting"]), stop=data["stop"],
                escalated=bool(data["escalated"]),
                pruned=bool(data["pruned"]),
                has_estimate=bool(data["has_estimate"]),
                mean=float(data["mean"]), ci_lo=float(data["ci_lo"]),
                ci_hi=float(data["ci_hi"]),
                rel_error=float(data["rel_error"]),
                final_key=str(data["final_key"]),
                history=list(data.get("history", [])))
            planner.cells[cell.cell] = cell
        return planner
