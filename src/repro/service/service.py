"""The experiment service: grids in, deduplicated execution, results out.

:class:`ExperimentService` is the orchestrator the HTTP API (and tests)
talk to.  It owns the three durable pieces - the
:class:`~repro.service.queue.JobQueue`, the
:class:`~repro.service.store.ResultStore`, and a directory of *grid
records* - plus the :class:`~repro.service.workers.WorkerPool` that
drains the queue.

A submission expands an :class:`~repro.experiment.spec.ExperimentSpec`
(or a pre-expanded plan) exactly like an in-process Session would, then
settles every unique run against the shared fabric:

* already in the store        -> satisfied instantly (``store_hits``),
* already queued or running   -> attached (``inflight_dedup``),
* otherwise                   -> a new job (``new_jobs``), subject to
  per-tenant and global backpressure (:class:`QueueFull` -> HTTP 429).

Grid ids are deterministic in (tenant, grid content), so resubmitting
an identical grid is idempotent: it reuses the record and reports how
much of it the store already holds.  Grid records persist point
coordinates and run specs, which is what makes a killed service
resumable - on restart, unfinished grids re-admit any run that is
neither stored nor queued, and everything already finished stays
finished.

Adaptive grids (:meth:`ExperimentService.submit_adaptive`) run the same
:class:`~repro.adaptive.planner.AdaptivePlanner` through the same
driver (:func:`~repro.adaptive.orchestrate.drive`) as the local
``Session.run_adaptive`` loop, but round by round over the durable
queue: a supervisor thread (woken whenever a worker group settles)
advances each grid's in-memory planner once every run of its round is
in the store or dead-lettered, and admits the next round's refinements
as *internal* jobs - so retries, quarantine, and tenant fairness apply
to refinement rounds unchanged.  No planner state is persisted: a
restarted service rebuilds each unfinished grid's planner from the
record's policy and cell specs and replays it over the store.  Replay
reads the queue as it is now, so a run requeued out of quarantine
since is replayed from its new result.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro import telemetry
from repro.adaptive.orchestrate import Outcome, drive
from repro.adaptive.planner import AdaptivePlanner
from repro.adaptive.policy import AdaptivePolicy
from repro.adaptive.report import AdaptiveReport
from repro.errors import ConfigError
from repro.experiment.cache import default_cache_dir
from repro.experiment.resultset import ResultSet, from_points
from repro.experiment.serialize import experiment_from_dict, \
    spec_from_dict
from repro.experiment.spec import ExperimentSpec, GridPoint, RunPlan
from repro.resilience.retry import RetryPolicy
from repro.service.queue import CANCELLED, DONE, FAILED, JobQueue, \
    PENDING, QUARANTINED, QueueFull, RUNNING
from repro.service.store import ResultStore
from repro.service.util import atomic_write_json, read_json
from repro.service.workers import WorkerPool
from repro.telemetry import get_logger

logger = get_logger("service")

#: On-disk grid record format; unknown versions are skipped on load.
#: v3: the embedded run specs carry the v4 run-key config (no MSHR
#: target bound, hit-under-miss switch or sampling placement knobs).
GRID_FORMAT = 3

# Grid lifecycle states (computed states in status() refine "active").
ACTIVE = "active"
GRID_CANCELLED = "cancelled"


class UnknownGrid(KeyError):
    """No grid with that id (HTTP 404 material)."""


class ResultPending(Exception):
    """The grid is not finished yet (HTTP 409 material)."""

    def __init__(self, status: Dict[str, Any]) -> None:
        super().__init__(
            f"grid {status['grid_id']} is {status['state']}: "
            f"{status['done']}/{status['unique_runs']} runs done")
        self.status = status


@dataclass
class ServiceConfig:
    """Tunables for one service instance.

    ``state_dir`` holds the durable queue and grid records;
    ``store_dir`` defaults to the experiment layer's shared result
    cache, so the service and plain CLI sessions exchange artifacts.
    """

    state_dir: Path
    store_dir: Optional[Path] = None
    shards: int = 2
    max_group: int = 8
    max_pending_per_tenant: int = 64
    max_pending_total: int = 256
    use_processes: bool = True
    poll_interval: float = 0.05
    #: How failed runs are retried and when they are quarantined.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Wall-clock seconds without progress before a group is reaped
    #: and its shard respawned (``None`` disables the reaper).
    job_timeout: Optional[float] = None


class ExperimentService:
    """Multi-tenant grid execution over one shared store and queue."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        state_dir = Path(config.state_dir)
        self.store = ResultStore(config.store_dir or default_cache_dir())
        self.queue = JobQueue(
            state_dir / "queue",
            max_pending_per_tenant=config.max_pending_per_tenant,
            max_pending_total=config.max_pending_total)
        self.workers = WorkerPool(
            self.queue, self.store, shards=config.shards,
            max_group=config.max_group,
            use_processes=config.use_processes,
            poll_interval=config.poll_interval,
            retry=config.retry,
            job_timeout=config.job_timeout)
        self._grids_dir = state_dir / "grids"
        self._grids: Dict[str, Dict[str, Any]] = {}
        #: One planner per active, unfinished adaptive grid.
        self._planners: Dict[str, AdaptivePlanner] = {}
        self._lock = threading.RLock()
        self._started_at = time.time()
        self.counters: Dict[str, int] = {
            "submissions": 0, "resubmissions": 0, "rejected": 0,
            "grids_resumed": 0, "jobs_readmitted": 0,
            "adaptive_grids": 0, "adaptive_rounds": 0,
            "adaptive_completed": 0,
        }
        self._adaptive_wake = threading.Event()
        self._adaptive_stop = threading.Event()
        self._adaptive_thread: Optional[threading.Thread] = None
        # Wake the adaptive supervisor the moment any group settles,
        # instead of leaving round boundaries to the poll fallback.
        self.workers.on_settled = self._adaptive_wake.set
        self._load_grids()
        self._reconcile()
        # Resume is replay: each unfinished adaptive grid gets a fresh
        # planner, driven through every round the store already holds.
        for grid_id, record in self._grids.items():
            adaptive = record.get("adaptive")
            if record["state"] != ACTIVE or adaptive is None \
                    or adaptive["final"]:
                continue
            plan = RunPlan(None, [
                GridPoint(coords=point["coords"], spec=spec_from_dict(
                    adaptive["cells"][point["key"]]))
                for point in record["points"]])
            self._planners[grid_id] = AdaptivePlanner(
                plan, AdaptivePolicy.from_dict(adaptive["policy"]))
            self._drive(grid_id)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Start the workers and the adaptive supervisor (idempotent)."""
        self.workers.start()
        if self._adaptive_thread is None \
                or not self._adaptive_thread.is_alive():
            self._adaptive_stop.clear()
            self._adaptive_thread = threading.Thread(
                target=self._adaptive_loop, name="adaptive-supervisor",
                daemon=True)
            self._adaptive_thread.start()

    def stop(self) -> None:
        """Stop the workers; durable state stays resumable on disk."""
        self._adaptive_stop.set()
        self._adaptive_wake.set()
        if self._adaptive_thread is not None:
            self._adaptive_thread.join(timeout=5.0)
            self._adaptive_thread = None
        self.workers.stop()

    def __enter__(self) -> "ExperimentService":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- durable grid records ------------------------------------------

    def _grid_path(self, grid_id: str) -> Path:
        return self._grids_dir / f"{grid_id}.json"

    def _persist_grid(self, record: Dict[str, Any]) -> None:
        atomic_write_json(self._grid_path(record["grid_id"]), record)

    def _load_grids(self) -> None:
        self._grids_dir.mkdir(parents=True, exist_ok=True)
        for path in sorted(self._grids_dir.glob("*.json")):
            record = read_json(path)
            if not isinstance(record, dict) or \
                    record.get("format") != GRID_FORMAT:
                continue
            self._grids[record["grid_id"]] = record

    def _reconcile(self) -> None:
        """Re-admit lost runs of unfinished grids (restart recovery).

        The queue already requeued jobs it found ``running``; this pass
        covers the rarer hole where a job file is missing entirely (a
        crash between grid persist and job persist, or a wiped queue
        directory) by rebuilding jobs from the grid record's specs.
        """
        for record in self._grids.values():
            if record["state"] != ACTIVE:
                continue
            resumed = False
            for key, spec_dict in record["specs"].items():
                if key in self.store or \
                        self.queue.get(key) is not None:
                    continue
                spec = spec_from_dict(spec_dict)
                self.queue.admit([spec], [], tenant=record["tenant"],
                                 priority=record["priority"],
                                 grid_id=record["grid_id"],
                                 internal=True)
                self.counters["jobs_readmitted"] += 1
                resumed = True
            if resumed:
                self.counters["grids_resumed"] += 1

    # -- submission ----------------------------------------------------

    @staticmethod
    def _grid_id(tenant: str, plan: RunPlan) -> str:
        """Deterministic grid identity: tenant + grid content."""
        if plan.spec is not None:
            content = plan.spec.hash()
        else:
            content = hashlib.sha256(
                ",".join(sorted(plan.runs)).encode()).hexdigest()
        digest = hashlib.sha256(
            f"{tenant}:{content}".encode()).hexdigest()
        return f"g{digest[:16]}"

    @classmethod
    def _adaptive_grid_id(cls, tenant: str, plan: RunPlan,
                          policy: AdaptivePolicy) -> str:
        """Adaptive grids hash the policy in: the same grid under two
        policies executes differently, so it is two grids."""
        base = cls._grid_id(tenant, plan)
        digest = hashlib.sha256(
            f"{base}:adaptive:"
            f"{json.dumps(policy.to_dict(), sort_keys=True)}"
            .encode()).hexdigest()
        return f"a{digest[:16]}"

    def _settle_specs(self, specs: Mapping[str, Any], *, tenant: str,
                      priority: int, grid_id: str, internal: bool
                      ) -> Dict[str, int]:
        """Settle keyed specs against the shared fabric (store-first).

        Runs already in the store are satisfied instantly, runs queued
        or running elsewhere are attached, and only the remainder
        become new jobs.  Admission is atomic: on
        :class:`~repro.service.queue.QueueFull` nothing was enqueued.
        """
        store_hits: List[str] = []
        attach: List[str] = []
        new_specs = []
        for key, spec in specs.items():
            if key in self.store:
                store_hits.append(key)
                continue
            job = self.queue.get(key)
            if job is not None and job.state in (PENDING, RUNNING, DONE):
                attach.append(key)
            else:
                new_specs.append(spec)
        created, attached = self.queue.admit(
            new_specs, attach, tenant=tenant, priority=priority,
            grid_id=grid_id, internal=internal)
        return {"store_hits": len(store_hits),
                "inflight_dedup": attached, "new_jobs": created}

    def submit(self, experiment: Union[ExperimentSpec, RunPlan],
               tenant: str = "default", priority: int = 0,
               name: Optional[str] = None) -> Dict[str, Any]:
        """Admit a grid; returns its status (idempotent per content).

        Raises :class:`~repro.service.queue.QueueFull` when admission
        would blow the tenant's (or the global) pending bound - nothing
        is partially enqueued in that case.
        """
        plan = experiment.expand() \
            if isinstance(experiment, ExperimentSpec) else experiment
        if not len(plan):
            raise ConfigError("cannot submit an empty grid")
        grid_id = self._grid_id(tenant, plan)
        with self._lock:
            existing = self._grids.get(grid_id)
            if existing is not None and existing["state"] == ACTIVE:
                self.counters["resubmissions"] += 1
                return self.status(grid_id)

            try:
                settled = self._settle_specs(
                    plan.runs, tenant=tenant, priority=priority,
                    grid_id=grid_id, internal=False)
            except QueueFull:
                self.counters["rejected"] += 1
                raise

            record = {
                "format": GRID_FORMAT,
                "grid_id": grid_id,
                "tenant": tenant,
                "name": name or (plan.spec.name if plan.spec
                                 else "plan"),
                "priority": priority,
                "state": ACTIVE,
                "submitted_at": time.time(),
                "points": [{"coords": dict(p.coords),
                            "key": p.spec.key(),
                            "label": p.spec.label}
                           for p in plan.points],
                "specs": {key: spec.describe()
                          for key, spec in plan.runs.items()},
                "admission": {
                    "total_points": len(plan),
                    "unique_runs": plan.unique_count,
                    **settled,
                },
            }
            self._grids[grid_id] = record
            self._persist_grid(record)
            self.counters["submissions"] += 1
        self.workers.kick()
        return self.status(grid_id)

    def submit_adaptive(self, experiment: Union[ExperimentSpec, RunPlan],
                        policy: AdaptivePolicy, tenant: str = "default",
                        priority: int = 0,
                        name: Optional[str] = None) -> Dict[str, Any]:
        """Admit a grid for adaptive orchestration (idempotent).

        The survey round's runs are admitted immediately (subject to
        the same backpressure as :meth:`submit`); every later
        refinement round is planned by the supervisor from observed
        results and admitted as *internal* jobs, exempt from pending
        bounds because no submitter exists to retry a 429.  Decisions
        are made by the identical :class:`AdaptivePlanner` the local
        ``Session.run_adaptive`` path uses, over the same deterministic
        results - so the two paths always agree.
        """
        plan = experiment.expand() \
            if isinstance(experiment, ExperimentSpec) else experiment
        if not len(plan):
            raise ConfigError("cannot submit an empty grid")
        grid_id = self._adaptive_grid_id(tenant, plan, policy)
        with self._lock:
            existing = self._grids.get(grid_id)
            if existing is not None and existing["state"] == ACTIVE:
                self.counters["resubmissions"] += 1
                return self.status(grid_id)

            planner = AdaptivePlanner(plan, policy)
            specs = planner.start()
            try:
                settled = self._settle_specs(
                    specs, tenant=tenant, priority=priority,
                    grid_id=grid_id, internal=False)
            except QueueFull:
                self.counters["rejected"] += 1
                raise

            record = {
                "format": GRID_FORMAT,
                "grid_id": grid_id,
                "tenant": tenant,
                "name": name or (plan.spec.name if plan.spec
                                 else "plan"),
                "priority": priority,
                "state": ACTIVE,
                "submitted_at": time.time(),
                # Point keys start as the original cell keys and are
                # rewritten to each cell's final (highest-fidelity) run
                # key when the orchestration finalises.
                "points": [{"coords": dict(p.coords),
                            "key": p.spec.key(),
                            "label": p.spec.label}
                           for p in plan.points],
                "specs": {key: spec.describe()
                          for key, spec in specs.items()},
                "admission": {
                    "total_points": len(plan),
                    "unique_runs": plan.unique_count,
                    **settled,
                },
                "adaptive": {
                    "policy": policy.to_dict(),
                    "cells": {key: spec.describe()
                              for key, spec in plan.runs.items()},
                    "final": False,
                },
            }
            self._grids[grid_id] = record
            self._planners[grid_id] = planner
            self._persist_grid(record)
            self.counters["submissions"] += 1
            self.counters["adaptive_grids"] += 1
        self.workers.kick()
        self._adaptive_wake.set()
        return self.status(grid_id)

    def submit_request(self, payload: Mapping[str, Any]
                       ) -> Dict[str, Any]:
        """Wire-format submission (the HTTP POST body).

        ``{"tenant": ..., "priority": ..., "name": ...,
        "experiment": <experiment_to_dict form>}`` - plus an optional
        ``"adaptive": <AdaptivePolicy.to_dict form>`` that switches the
        grid to adaptive orchestration (:meth:`submit_adaptive`).
        """
        if not isinstance(payload, Mapping):
            raise ConfigError("submission body must be a JSON object")
        if "experiment" not in payload:
            raise ConfigError("submission body needs an 'experiment'")
        spec = experiment_from_dict(payload["experiment"])
        tenant = str(payload.get("tenant", "default")) or "default"
        priority = int(payload.get("priority", 0))
        name = payload.get("name")
        name_str = str(name) if name is not None else None
        if payload.get("adaptive") is not None:
            policy = AdaptivePolicy.from_dict(payload["adaptive"])
            return self.submit_adaptive(spec, policy, tenant=tenant,
                                        priority=priority, name=name_str)
        return self.submit(spec, tenant=tenant, priority=priority,
                           name=name_str)

    # -- adaptive supervision ------------------------------------------

    def _adaptive_loop(self) -> None:
        """Supervisor thread body: tick when woken, poll as fallback."""
        poll = max(self.config.poll_interval, 0.05)
        while not self._adaptive_stop.is_set():
            self._adaptive_wake.wait(timeout=poll)
            self._adaptive_wake.clear()
            if self._adaptive_stop.is_set():
                return
            try:
                self.tick_adaptive()
            except Exception:  # pragma: no cover - supervisor survives
                logger.exception("adaptive tick failed")

    def tick_adaptive(self) -> int:
        """Advance every adaptive grid whose round has fully settled.

        Public (and synchronous) so tests and embedders can drive
        orchestration deterministically without the supervisor thread.
        Returns how many grids advanced a round or finalised.
        """
        with self._lock:
            return sum(self._drive(grid_id)
                       for grid_id in list(self._planners))

    def _drive(self, grid_id: str) -> bool:
        """Advance one adaptive grid's planner as far as results allow.

        Returns True when the grid advanced a round or finalised.  A
        finished grid's point keys are rewritten to each cell's final
        (highest-fidelity) run key and its report is persisted.
        """
        record = self._grids[grid_id]
        planner = self._planners[grid_id]
        before = planner.round
        if not drive(planner,
                     lambda specs: self._settle_round(record, specs)):
            return planner.round != before
        del self._planners[grid_id]
        final_keys = {cell.cell: cell.key
                      for cell in planner.cells.values()}
        for point in record["points"]:
            point["key"] = final_keys.get(point["key"], point["key"])
        record["adaptive"].update(final=True, round=planner.round,
                                  report=planner.report().to_dict())
        self.counters["adaptive_completed"] += 1
        self._persist_grid(record)
        return True

    def _settle_round(self, record: Dict[str, Any],
                      specs: Mapping[str, Any]) -> Optional[Outcome]:
        """The service's ``settle`` for :func:`drive`.

        Admits the round's runs the record does not hold yet (runs it
        holds are looked up, never re-counted), and returns the round's
        outcome once every run is in the store or dead-lettered.  A run
        whose stored result vanished or failed verification is
        re-admitted like any lost run.
        """
        new = {key: spec for key, spec in specs.items()
               if key not in record["specs"]}
        if new:
            settled = self._settle_specs(
                new, tenant=record["tenant"], priority=record["priority"],
                grid_id=record["grid_id"], internal=True)
            for key, spec in new.items():
                record["specs"][key] = spec.describe()
            admission = record["admission"]
            for kind, count in settled.items():
                admission[kind] += count
            admission["unique_runs"] = len(record["specs"])
            self.counters["adaptive_rounds"] += 1
            self._persist_grid(record)
            self.workers.kick()

        quarantined: Dict[str, str] = {}
        lost: List[str] = []
        for key in specs:
            # Read the job before the store: workers store a result
            # before they mark its job done, so a done job whose result
            # is missing was really lost, not finished in between.
            job = self.queue.get(key)
            state = job.state if job is not None else None
            if key in self.store:
                continue
            if state in (None, DONE):
                lost.append(key)
            elif state == QUARANTINED:
                quarantined[key] = job.error or "quarantined"
            else:
                return None  # pending, running, or retrying
        if not lost:
            results = {key: self.store.get(key) for key in specs
                       if key not in quarantined}
            lost = [key for key, result in results.items()
                    if result is None]
        if lost:
            self._readmit(record, lost)
            return None
        return results, quarantined

    # -- status / results ----------------------------------------------

    def _record(self, grid_id: str) -> Dict[str, Any]:
        record = self._grids.get(grid_id)
        if record is None:
            raise UnknownGrid(grid_id)
        return record

    def _job_states(self, record: Mapping[str, Any]) -> Dict[str, str]:
        """Per-unique-run state, store-first (DONE once materialised)."""
        states: Dict[str, str] = {}
        for key in record["specs"]:
            if key in self.store:
                states[key] = DONE
                continue
            job = self.queue.get(key)
            states[key] = job.state if job is not None else PENDING
        return states

    def status(self, grid_id: str) -> Dict[str, Any]:
        """Progress snapshot for one grid (the GET /v1/grids/<id> body).

        A grid whose every run is terminal but has quarantined members
        reports ``degraded``: it is finished *enough* to hand out
        partial results, and it never fails early while healthy
        siblings are still executing.
        """
        with self._lock:
            record = self._record(grid_id)
            states = self._job_states(record)
            adaptive = record.get("adaptive")
            adaptive_summary = None
            if adaptive is not None:
                planner = self._planners.get(grid_id)
                adaptive_summary = {
                    "final": bool(adaptive["final"]),
                    "round": planner.round if planner is not None
                    else adaptive.get("round", 0),
                    "cells": len(adaptive["cells"]),
                    "active": 0 if planner is None else sum(
                        1 for cell in planner.cells.values()
                        if cell.stop is None),
                }
        tally = {PENDING: 0, RUNNING: 0, DONE: 0, FAILED: 0,
                 CANCELLED: 0, QUARANTINED: 0}
        errors = []
        for key, state in states.items():
            tally[state] = tally.get(state, 0) + 1
            if state in (FAILED, QUARANTINED):
                job = self.queue.get(key)
                if job is not None and job.error:
                    errors.append({"key": key, "state": state,
                                   "error": job.error,
                                   "attempts": job.attempts})
        terminal = tally[DONE] + tally[CANCELLED] + tally[QUARANTINED]
        if record["state"] == GRID_CANCELLED:
            state = GRID_CANCELLED
        elif tally[FAILED]:
            state = "failed"
        elif tally[DONE] == len(states):
            state = "done"
        elif terminal == len(states) and tally[QUARANTINED]:
            state = "degraded"
        elif tally[RUNNING]:
            state = "running"
        else:
            state = "queued"
        if adaptive_summary is not None \
                and not adaptive_summary["final"] \
                and state in ("done", "degraded"):
            # The round's runs are settled but the supervisor has not
            # planned the next round yet: the grid is still working.
            state = "running"
        payload = {
            "grid_id": grid_id,
            "name": record["name"],
            "tenant": record["tenant"],
            "priority": record["priority"],
            "state": state,
            "total_points": record["admission"]["total_points"],
            "unique_runs": len(states),
            "done": tally[DONE],
            "pending": tally[PENDING] + tally[CANCELLED],
            "running": tally[RUNNING],
            "failed": tally[FAILED],
            "quarantined": tally[QUARANTINED],
            "errors": errors[:8],
            "admission": dict(record["admission"]),
        }
        if adaptive_summary is not None:
            payload["adaptive"] = adaptive_summary
        return payload

    def result_set(self, grid_id: str) -> ResultSet:
        """Assemble the grid's :class:`ResultSet` from the store.

        A ``degraded`` grid yields a *partial* set: quarantined points
        are simply absent.  A ``done`` grid whose store entry turns out
        to be corrupt (the read quarantines it) transparently re-admits
        the lost run and reports :class:`ResultPending` - the caller
        retries and gets a freshly recomputed result, never garbage.
        """
        status = self.status(grid_id)
        if status["state"] not in ("done", "degraded"):
            raise ResultPending(status)
        record = self._record(grid_id)
        points: List[GridPoint] = []
        results = {}
        lost: List[str] = []
        for point in record["points"]:
            spec = spec_from_dict(
                dict(record["specs"][point["key"]],
                     label=point["label"]))
            if point["key"] not in results:
                result = self.store.get(point["key"])
                if result is None:
                    job = self.queue.get(point["key"])
                    if job is not None and job.state == QUARANTINED:
                        continue  # degraded: this point sat out
                    lost.append(point["key"])
                    continue
                results[point["key"]] = result
            points.append(GridPoint(coords=point["coords"], spec=spec))
        if lost:
            self._readmit(record, lost)
            raise ResultPending(self.status(grid_id))
        adaptive = record.get("adaptive")
        report = AdaptiveReport.from_dict(adaptive["report"]) \
            if adaptive is not None and adaptive["final"] else None
        return from_points(points, results, name=record["name"],
                           adaptive=report)

    def _readmit(self, record: Mapping[str, Any],
                 keys: Sequence[str]) -> None:
        """Recompute runs whose stored results vanished or failed
        verification (the store already quarantined the bad files)."""
        for key in keys:
            if not self.queue.resurrect(key):
                spec = spec_from_dict(record["specs"][key])
                self.queue.admit([spec], [], tenant=record["tenant"],
                                 priority=record["priority"],
                                 grid_id=record["grid_id"],
                                 internal=True)
            self.counters["jobs_readmitted"] += 1
        self.workers.kick()

    def result(self, grid_id: str,
               metrics: Sequence[str] = ()) -> Dict[str, Any]:
        """Finished grid as records + accounting (the result body).

        The envelope matches the CLI's ``--json`` output - ``records``
        plus a ``stats`` block - so service consumers and local sessions
        see the same accounting shape.
        """
        rs = self.result_set(grid_id)
        record = self._record(grid_id)
        status = self.status(grid_id)
        payload = {
            "grid_id": grid_id,
            "name": record["name"],
            "tenant": record["tenant"],
            "state": status["state"],
            "quarantined": status["quarantined"],
            "records": rs.to_records(metrics),
            "stats": dict(record["admission"]),
        }
        if rs.adaptive is not None:
            payload["report"] = rs.adaptive.to_dict()
        return payload

    def cancel(self, grid_id: str) -> Dict[str, Any]:
        """Cancel a grid; jobs other grids still need keep running."""
        with self._lock:
            record = self._record(grid_id)
            if record["state"] != GRID_CANCELLED:
                record["state"] = GRID_CANCELLED
                planner = self._planners.pop(grid_id, None)
                if planner is not None:
                    record["adaptive"]["round"] = planner.round
                self._persist_grid(record)
                self.queue.detach_grid(grid_id)
        return self.status(grid_id)

    # -- jobs / quarantine ---------------------------------------------

    def jobs(self, state: Optional[str] = None) -> List[Dict[str, Any]]:
        """Job listing (``GET /v1/jobs``), optionally filtered by state."""
        return self.queue.jobs(state)

    def requeue_quarantined(self,
                            keys: Optional[List[str]] = None
                            ) -> Dict[str, Any]:
        """Drain the dead-letter queue back into execution.

        The operational exit from quarantine: jobs go back to PENDING
        with a fresh attempt budget and the workers are kicked.
        """
        requeued = self.queue.requeue_quarantined(keys)
        if requeued:
            self.workers.kick()
        return {"requeued": requeued}

    # -- introspection -------------------------------------------------

    def metrics_text(self) -> str:
        """The ``/v1/metrics`` body: Prometheus text exposition.

        Counters (job transitions, queue-wait/run-time histograms,
        HTTP request counts) accumulate in the process registry as they
        happen; point-in-time gauges (queue depth, worker utilisation,
        store totals) are refreshed here at scrape time.
        """
        registry = telemetry.REGISTRY
        depth = registry.gauge(
            "repro_queue_depth", "Jobs by state", ("state",))
        for state, count in self.queue.counts().items():
            depth.labels(state=state).set(count)
        workers = self.workers.stats_dict()
        registry.gauge(
            "repro_worker_utilisation",
            "Busy shard-seconds / capacity since start").set(
                workers["utilisation"])
        registry.gauge(
            "repro_worker_busy_seconds",
            "Shard-seconds spent executing groups").set(
                workers["busy_seconds"])
        registry.gauge(
            "repro_worker_shards", "Configured shard count").set(
                self.workers.shards)
        worker_totals = registry.gauge(
            "repro_worker_events", "Worker pool counters", ("kind",))
        for kind in ("groups", "jobs", "failures", "retried",
                     "quarantined", "timeouts", "pool_respawns",
                     "store_skips"):
            worker_totals.labels(kind=kind).set(workers[kind])
        store = self.store.stats_dict()
        store_totals = registry.gauge(
            "repro_store_events", "Result store counters", ("kind",))
        for kind in ("hits", "misses", "puts", "integrity_failures"):
            store_totals.labels(kind=kind).set(store[kind])
        registry.gauge(
            "repro_service_uptime_seconds",
            "Seconds since the service started").set(
                time.time() - self._started_at)
        service_counters = registry.gauge(
            "repro_service_counters", "Service-level counters",
            ("kind",))
        with self._lock:
            for kind, value in self.counters.items():
                service_counters.labels(kind=kind).set(value)
        return registry.render()

    def drain(self, timeout: float = 60.0, poll: float = 0.02) -> bool:
        """Block until no jobs are pending/running (True) or timeout."""
        deadline = time.time() + timeout
        while time.time() < deadline:
            if self.queue.outstanding() == 0:
                return True
            time.sleep(poll)
        return self.queue.outstanding() == 0
