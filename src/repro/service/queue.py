"""Durable, tenant-aware job queue.

A *job* is one unique simulation - a content-hashed
:class:`~repro.experiment.spec.RunSpec` - admitted on behalf of one or
more grids.  The job's identity IS its run key, which gives in-flight
deduplication by construction: a second tenant submitting an identical
RunSpec attaches to the existing job instead of enqueueing a duplicate,
and both grids observe the single execution.

Every state transition is persisted as one JSON file per job
(atomic write-and-rename), so a killed service resumes in place: on
reload, jobs found ``running`` are demoted back to ``pending`` - their
worker died with the process - and everything finished stays finished.
Torn or truncated job files (a crash mid-write on a non-atomic
filesystem) are moved to a ``quarantine/`` sidecar directory with a
warning instead of refusing to start; the owning grid re-admits the
lost run at reconciliation.

Failure handling is attempt-aware: a leased job carries an ``attempts``
count and a *lease epoch* so stale workers (reaped after a timeout)
cannot complete or fail a job that was already handed to someone else.
Transient failures re-enqueue with a ``not_before`` backoff timestamp;
jobs that exhaust their retry budget move to the terminal
``quarantined`` state (a dead-letter, carrying the full error chain)
instead of poisoning their grid - see
:meth:`retry` / :meth:`quarantine` / :meth:`requeue_quarantined`.

Scheduling is fair across tenants: :meth:`JobQueue.lease` picks the next
tenant round-robin (equal shares), then hands the worker that
tenant's best job *plus* every queued job sharing its warm group (see
:func:`~repro.experiment.spec.warm_group_key`), so a shard still warms
once per group exactly like an in-process Session.  Jobs marked
``solo`` (retries isolated after a group crash) always lease alone.
Backpressure is a bounded queue: admitting new jobs past the per-tenant
or global pending limit raises :class:`QueueFull`, which the HTTP layer
maps to a 429.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro import telemetry
from repro.experiment.serialize import spec_from_dict
from repro.experiment.spec import RunSpec, warm_group_key

logger = logging.getLogger("repro.service")

# Job lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
#: Dead-letter: the job exhausted its retry budget (or failed
#: permanently) and sits aside with its error chain until an operator
#: requeues it - its grid keeps executing every sibling.
QUARANTINED = "quarantined"

STATES = (PENDING, RUNNING, DONE, FAILED, CANCELLED, QUARANTINED)

#: States a re-admitting grid resurrects back to PENDING.
_RESURRECTABLE = (FAILED, CANCELLED, QUARANTINED)

#: On-disk job record format; unknown versions are skipped on load.
#: v2: the embedded run spec carries the v4 run-key config.
JOB_FORMAT = 2

#: Most recent error-chain entries kept per job (bounds file growth).
MAX_ERROR_CHAIN = 8


class QueueFull(Exception):
    """Admission would exceed a pending-jobs bound (HTTP 429 material)."""

    def __init__(self, tenant: str, pending: int, limit: int,
                 scope: str) -> None:
        super().__init__(
            f"{scope} queue full for tenant {tenant!r}: {pending} jobs "
            f"pending (limit {limit}); retry after some complete")
        self.tenant = tenant
        self.pending = pending
        self.limit = limit
        self.scope = scope


@dataclass
class Job:
    """One unique simulation and its queue bookkeeping."""

    key: str
    spec: RunSpec
    tenant: str
    priority: int = 0
    state: str = PENDING
    #: Grid ids that need this job (the dedup fan-in).
    grids: Tuple[str, ...] = ()
    #: Admission order; ties in priority break oldest-first.
    seq: int = 0
    attempts: int = 0
    error: str = ""
    #: One entry per failed attempt, oldest first (capped).
    error_chain: List[str] = field(default_factory=list)
    #: Retries isolated after a group crash lease alone.
    solo: bool = False
    #: Earliest wall-clock time this job may lease again (backoff).
    not_before: float = 0.0
    #: Wall-clock time the job was admitted (queue-age telemetry;
    #: 0.0 for records written before the field existed).
    enqueued_at: float = 0.0
    #: Lease epoch of the worker currently holding the job.  Transient:
    #: not persisted - a reloaded queue demotes RUNNING jobs anyway.
    lease: int = field(default=0, repr=False, compare=False)
    #: When the current lease was granted (transient, run-time metric).
    leased_at: float = field(default=0.0, repr=False, compare=False)
    #: Warm-checkpoint-sharing key (None = cannot share).
    group: Optional[str] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.group is None:
            self.group = warm_group_key(self.spec)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": JOB_FORMAT,
            "key": self.key,
            "tenant": self.tenant,
            "priority": self.priority,
            "state": self.state,
            "grids": list(self.grids),
            "seq": self.seq,
            "attempts": self.attempts,
            "error": self.error,
            "error_chain": list(self.error_chain),
            "solo": self.solo,
            "not_before": self.not_before,
            "enqueued_at": self.enqueued_at,
            "spec": self.spec.describe(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Job":
        if data.get("format") != JOB_FORMAT:
            raise ValueError(f"unknown job format {data.get('format')!r}")
        return cls(
            key=str(data["key"]),
            spec=spec_from_dict(data["spec"]),
            tenant=str(data["tenant"]),
            priority=int(data.get("priority", 0)),
            state=str(data.get("state", PENDING)),
            grids=tuple(data.get("grids", ())),
            seq=int(data.get("seq", 0)),
            attempts=int(data.get("attempts", 0)),
            error=str(data.get("error", "")),
            error_chain=[str(e) for e in data.get("error_chain", [])],
            solo=bool(data.get("solo", False)),
            not_before=float(data.get("not_before", 0.0)),
            enqueued_at=float(data.get("enqueued_at", 0.0)),
        )

    def record_error(self, error: str) -> None:
        """Append to the bounded error chain and update the latest error."""
        self.error = error
        self.error_chain.append(f"attempt {self.attempts}: {error}")
        del self.error_chain[:-MAX_ERROR_CHAIN]


class JobQueue:
    """Disk-backed job table with fair leasing and bounded admission."""

    def __init__(self, directory: Path,
                 max_pending_per_tenant: int = 64,
                 max_pending_total: int = 256) -> None:
        self.directory = Path(directory)
        self.max_pending_per_tenant = max_pending_per_tenant
        self.max_pending_total = max_pending_total
        self._lock = threading.RLock()
        self._jobs: Dict[str, Job] = {}
        self._seq = 0
        self._lease_seq = 0
        #: Lease sequence number of each tenant's latest lease.
        self._served: Dict[str, int] = {}
        #: Jobs found mid-run at load time and requeued (resume evidence).
        self.resumed = 0
        #: Torn/corrupt job files moved aside at load time.
        self.quarantined_files = 0
        self._load()

    # -- persistence ---------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _persist(self, job: Job) -> None:
        from repro.service.util import atomic_write_json

        atomic_write_json(self._path(job.key), job.to_dict())

    def _transition(self, job: Job, old: str, reason: str = "") -> None:
        """Record one job state change: structured log + counter.

        Operational (always-on) telemetry: every transition increments
        ``repro_jobs_transitions_total{from_state,to_state}`` in the
        process registry and emits a ``job.transition`` log record whose
        extras surface as top-level fields in ``--log-json`` mode.
        """
        if job.state == old:
            return
        telemetry.REGISTRY.counter(
            "repro_jobs_transitions_total",
            "Job state transitions by (from, to) pair",
            ("from_state", "to_state")).labels(
                from_state=old, to_state=job.state).inc()
        logger.info(
            "job %s (%s): %s -> %s%s", job.key[:12], job.tenant, old,
            job.state, f" ({reason})" if reason else "",
            extra={"event": "job.transition", "job": job.key,
                   "tenant": job.tenant, "from_state": old,
                   "to_state": job.state, "attempts": job.attempts,
                   "reason": reason})

    def _quarantine_file(self, path: Path, reason: str) -> None:
        """Move an unreadable job file aside so the service still starts.

        The run itself is not lost: grid reconciliation rebuilds any job
        that is neither stored nor queued from the grid record's specs.
        """
        target_dir = self.directory / "quarantine"
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            path.replace(target_dir / path.name)
        except OSError:  # pragma: no cover - filesystem-dependent
            try:
                path.unlink()
            except OSError:
                pass
        self.quarantined_files += 1
        logger.warning(
            "quarantined unreadable job file %s (%s); the owning grid "
            "re-admits the run at reconciliation", path.name, reason)

    def _load(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        from repro.service.util import read_json

        for path in sorted(self.directory.glob("*.json")):
            data = read_json(path)
            if data is None:
                # Torn mid-write (crash) or truncated: never fatal.
                self._quarantine_file(path, "not valid JSON")
                continue
            try:
                job = Job.from_dict(data)
            except Exception as exc:
                self._quarantine_file(
                    path, f"{type(exc).__name__}: {exc}")
                continue
            if job.state == RUNNING:
                # The worker that held this lease died with the previous
                # process; requeue so the run is never lost.
                job.state = PENDING
                self.resumed += 1
                self._persist(job)
                self._transition(job, RUNNING, reason="resumed at load")
            self._jobs[job.key] = job
            self._seq = max(self._seq, job.seq + 1)

    # -- admission -----------------------------------------------------

    def get(self, key: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(key)

    def _pending_counts(self) -> Tuple[Dict[str, int], int]:
        per_tenant: Dict[str, int] = {}
        total = 0
        for job in self._jobs.values():
            if job.state in (PENDING, RUNNING):
                per_tenant[job.tenant] = per_tenant.get(job.tenant, 0) + 1
                total += 1
        return per_tenant, total

    def admit(self, new_specs: List[RunSpec], attach_keys: List[str],
              tenant: str, priority: int = 0,
              grid_id: Optional[str] = None,
              internal: bool = False) -> Tuple[int, int]:
        """Atomically admit a grid's share of the queue.

        ``new_specs`` become fresh jobs (subject to the pending bounds -
        the whole batch is admitted or :class:`QueueFull` is raised and
        nothing changes); ``attach_keys`` are existing jobs this grid
        additionally depends on (in-flight dedup - attaching is free and
        never rejected).  Returns ``(jobs created, jobs attached)``.

        ``internal=True`` marks a service-originated continuation of an
        *already admitted* grid - adaptive refinement rounds, restart
        reconciliation, lost-result re-admission.  Those are exempt from
        the pending bounds: backpressure exists to push back on new
        submitters at the door, and there is no submitter left to retry
        a 429 once a grid is in flight, so bounding continuations could
        only deadlock grids against each other.
        """
        with self._lock:
            per_tenant, total = self._pending_counts()
            want = len(new_specs) if not internal else 0
            have = per_tenant.get(tenant, 0)
            if want and have + want > self.max_pending_per_tenant:
                raise QueueFull(tenant, have, self.max_pending_per_tenant,
                                "per-tenant")
            if want and total + want > self.max_pending_total:
                raise QueueFull(tenant, total, self.max_pending_total,
                                "global")
            grids = (grid_id,) if grid_id else ()
            created = attached = 0
            for spec in new_specs:
                key = spec.key()
                if key in self._jobs and \
                        self._jobs[key].state in (PENDING, RUNNING, DONE):
                    # Raced with another submit between the caller's
                    # lookup and now; treat as an attach.
                    attach_keys = list(attach_keys) + [key]
                    continue
                job = Job(key=key, spec=spec, tenant=tenant,
                          priority=priority, grids=grids, seq=self._seq,
                          enqueued_at=time.time())
                self._seq += 1
                self._jobs[key] = job
                self._persist(job)
                self._transition(job, "new", reason="admitted")
                created += 1
            for key in attach_keys:
                job = self._jobs.get(key)
                if job is None:
                    continue
                changed = False
                if grid_id and grid_id not in job.grids:
                    job.grids = job.grids + (grid_id,)
                    changed = True
                if priority > job.priority:
                    job.priority = priority
                    changed = True
                if job.state in _RESURRECTABLE:
                    # A fresh grid wants a job that previously failed,
                    # was cancelled, or sat in quarantine: give it a
                    # whole new attempt budget.
                    old = job.state
                    job.state = PENDING
                    job.error = ""
                    job.attempts = 0
                    job.not_before = 0.0
                    job.enqueued_at = time.time()
                    self._transition(job, old,
                                     reason="resurrected by attach")
                    changed = True
                if changed:
                    self._persist(job)
                attached += 1
            return created, attached

    # -- leasing -------------------------------------------------------

    def _pick_tenant(self, tenants: List[str]) -> str:
        """Round-robin over tenants with pending work.

        Deterministic: the least recently served tenant wins (ties
        broken alphabetically), so every tenant gets an equal share of
        leases regardless of queue depth.
        """
        return min(sorted(tenants), key=lambda t: self._served.get(t, 0))

    def lease(self, max_jobs: int = 8) -> List[Job]:
        """Claim the next warm group of jobs for a worker (may be empty).

        The head job is the winning tenant's highest-priority, oldest
        pending job; if it belongs to a warm-sharing group, up to
        ``max_jobs - 1`` queued groupmates (any tenant - they share
        identical warm state by construction) ride along so the shard
        warms once for all of them.  Jobs in retry backoff
        (``not_before`` in the future) are invisible until their delay
        elapses, and ``solo`` jobs always lease alone.  Leased jobs
        transition to ``running`` durably - stamped with a fresh lease
        epoch - before they are returned.
        """
        now = time.time()
        with self._lock:
            ready = [j for j in self._jobs.values()
                     if j.state == PENDING and j.not_before <= now]
            if not ready:
                return []
            tenant = self._pick_tenant(list({j.tenant for j in ready}))
            mine = sorted((j for j in ready if j.tenant == tenant),
                          key=lambda j: (-j.priority, j.seq))
            head = mine[0]
            group = [head]
            if head.group is not None and not head.solo:
                mates = [j for j in ready
                         if j is not head and not j.solo
                         and j.group == head.group]
                mates.sort(key=lambda j: (-j.priority, j.seq))
                group.extend(mates[:max(0, max_jobs - 1)])
            self._lease_seq += 1
            self._served[tenant] = self._lease_seq
            waits = telemetry.REGISTRY.histogram(
                "repro_job_queue_wait_seconds",
                "Pending time between admission and lease")
            for job in group:
                job.state = RUNNING
                job.attempts += 1
                job.lease = self._lease_seq
                job.leased_at = now
                self._persist(job)
                self._transition(job, PENDING, reason="leased")
                if job.enqueued_at:
                    waits.observe(max(0.0, now - job.enqueued_at))
            return group

    # -- completion ----------------------------------------------------

    def _holder(self, key: str, lease: Optional[int]) -> Optional[Job]:
        """The job, unless ``lease`` is stale (a reaped worker calling)."""
        job = self._jobs.get(key)
        if job is None:
            return None
        if lease is not None and job.lease != lease:
            return None
        return job

    def complete(self, key: str, lease: Optional[int] = None) -> None:
        """Mark a leased job finished (its result is in the store)."""
        with self._lock:
            job = self._holder(key, lease)
            if job is None:
                return
            old = job.state
            job.state = DONE
            job.error = ""
            self._persist(job)
            self._transition(job, old, reason="completed")
            if job.leased_at:
                telemetry.REGISTRY.histogram(
                    "repro_job_run_seconds",
                    "Lease-to-done time of completed jobs").observe(
                        max(0.0, time.time() - job.leased_at))

    def fail(self, key: str, error: str,
             lease: Optional[int] = None) -> None:
        """Mark a leased job failed, keeping the error for status calls."""
        with self._lock:
            job = self._holder(key, lease)
            if job is None:
                return
            old = job.state
            job.state = FAILED
            job.record_error(error)
            self._persist(job)
            self._transition(job, old, reason=error)

    def retry(self, key: str, error: str, delay: float = 0.0,
              solo: bool = True, lease: Optional[int] = None) -> None:
        """Re-enqueue a failed/timed-out job after ``delay`` seconds.

        The attempt that just failed stays counted (attempts increment
        at lease time); ``solo=True`` (the default) keeps the retry out
        of warm-group coalescing so one poisonous config can never take
        down its siblings twice.
        """
        with self._lock:
            job = self._holder(key, lease)
            if job is None or job.state != RUNNING:
                return
            job.state = PENDING
            job.solo = solo
            job.not_before = time.time() + max(0.0, delay)
            job.record_error(error)
            self._persist(job)
            self._transition(job, RUNNING, reason=f"retry: {error}")

    def quarantine(self, key: str, error: str,
                   lease: Optional[int] = None) -> None:
        """Dead-letter a job: terminal, with the full error chain kept.

        Quarantined jobs never block their grid's siblings and are
        excluded from the pending bounds; ``requeue_quarantined`` (or a
        fresh grid attaching) puts them back in play.
        """
        with self._lock:
            job = self._holder(key, lease)
            if job is None:
                return
            old = job.state
            job.state = QUARANTINED
            job.record_error(error)
            self._persist(job)
            self._transition(job, old, reason=error)

    def release(self, keys: List[str], lease: Optional[int] = None,
                refund_attempt: bool = False) -> None:
        """Return leased-but-unfinished jobs to the queue.

        Used on shutdown and when an innocent in-flight group is swept
        up by a worker-pool recycle; ``refund_attempt`` undoes the lease
        charge so a job is never quarantined for its neighbours' sins.
        """
        with self._lock:
            for key in keys:
                job = self._holder(key, lease)
                if job is not None and job.state == RUNNING:
                    job.state = PENDING
                    if refund_attempt:
                        job.attempts = max(0, job.attempts - 1)
                    self._persist(job)
                    self._transition(job, RUNNING, reason="released")

    def resurrect(self, key: str) -> bool:
        """Force a terminal job back to PENDING with a fresh budget.

        Used when a job's *stored result* turns out to be lost or
        corrupt after the job already completed: the DONE state no
        longer reflects a usable artifact, so the run goes again.
        """
        with self._lock:
            job = self._jobs.get(key)
            if job is None or job.state in (PENDING, RUNNING):
                return False
            old = job.state
            job.state = PENDING
            job.attempts = 0
            job.not_before = 0.0
            job.error = ""
            job.enqueued_at = time.time()
            self._persist(job)
            self._transition(job, old, reason="resurrected")
            return True

    def requeue_quarantined(self,
                            keys: Optional[List[str]] = None) -> int:
        """Drain the dead-letter queue back to PENDING (fresh budget).

        ``keys=None`` requeues every quarantined job; otherwise only the
        named ones.  Returns how many jobs were requeued.
        """
        requeued = 0
        with self._lock:
            for job in self._jobs.values():
                if job.state != QUARANTINED:
                    continue
                if keys is not None and job.key not in keys:
                    continue
                job.state = PENDING
                job.attempts = 0
                job.not_before = 0.0
                job.error = ""
                job.enqueued_at = time.time()
                self._persist(job)
                self._transition(job, QUARANTINED, reason="requeued")
                requeued += 1
        return requeued

    def detach_grid(self, grid_id: str) -> int:
        """Drop a cancelled grid's interest; orphaned pending jobs die.

        Jobs still wanted by another grid keep running - cancellation
        never yanks work out from under a different tenant.  Returns the
        number of jobs cancelled outright.
        """
        cancelled = 0
        with self._lock:
            for job in self._jobs.values():
                if grid_id not in job.grids:
                    continue
                job.grids = tuple(g for g in job.grids if g != grid_id)
                if not job.grids and job.state == PENDING:
                    job.state = CANCELLED
                    cancelled += 1
                    self._transition(job, PENDING,
                                     reason="grid cancelled")
                self._persist(job)
        return cancelled

    # -- introspection -------------------------------------------------

    def jobs(self, state: Optional[str] = None) -> List[Dict[str, Any]]:
        """Lightweight job listing (no specs), optionally one state.

        The shape the ``/v1/jobs`` endpoint and ``repro jobs`` render:
        key, tenant, state, priority, attempts, latest error, error
        chain, interested grids, retry bookkeeping, and queue age
        (seconds since admission for pending/running jobs, 0 for
        terminal states and pre-telemetry records).  An unknown
        ``state`` raises :class:`ValueError`.
        """
        if state is not None and state not in STATES:
            raise ValueError(f"unknown job state {state!r}; "
                             f"expected one of {', '.join(STATES)}")
        now = time.time()
        with self._lock:
            out = []
            for job in sorted(self._jobs.values(), key=lambda j: j.seq):
                if state is not None and job.state != state:
                    continue
                age = 0.0
                if job.enqueued_at and job.state in (PENDING, RUNNING):
                    age = max(0.0, now - job.enqueued_at)
                out.append({
                    "key": job.key,
                    "tenant": job.tenant,
                    "state": job.state,
                    "priority": job.priority,
                    "attempts": job.attempts,
                    "error": job.error,
                    "error_chain": list(job.error_chain),
                    "grids": list(job.grids),
                    "solo": job.solo,
                    "not_before": job.not_before,
                    "enqueued_at": job.enqueued_at,
                    "age": age,
                })
            return out

    def counts(self) -> Dict[str, int]:
        """Job totals by state (all states present, zeros included)."""
        with self._lock:
            out = {state: 0 for state in STATES}
            for job in self._jobs.values():
                out[job.state] = out.get(job.state, 0) + 1
            return out

    def outstanding(self) -> int:
        """Jobs still pending or running (the drain condition).

        Quarantined jobs are terminal: they never hold ``drain`` open.
        """
        with self._lock:
            return sum(1 for j in self._jobs.values()
                       if j.state in (PENDING, RUNNING))

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)
