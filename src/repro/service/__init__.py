"""Sharded, resumable, multi-tenant experiment service.

This package promotes the in-process experiment
:class:`~repro.experiment.session.Session` into a long-running service
with an HTTP/JSON API, so many clients share one execution fabric:

* :mod:`repro.service.queue` - durable job queue (content-hashed
  RunSpecs with tenant, priority, and state persisted to disk; a killed
  service resumes in place),
* :mod:`repro.service.workers` - worker-shard pool draining the queue,
  reusing warm-group batching so shards warm once per group,
* :mod:`repro.service.store` - content-addressed result store with
  read-through caching and in-flight dedup (identical RunSpecs from
  different tenants execute exactly once),
* :mod:`repro.service.service` - the orchestrator: fair round-robin
  across tenants, bounded queues with 429-style rejection,
  durable grid records, restart reconciliation,
* :mod:`repro.service.api` / :mod:`repro.service.client` - the HTTP
  surface and its thin client; ``repro serve`` / ``repro submit`` make
  the CLI one consumer among many.

See ``docs/service.md`` for architecture and API reference.
"""

from repro.service.api import API_VERSION, ServiceHTTPServer, make_server
from repro.service.client import Backpressure, DEFAULT_URL, \
    ResultNotReady, ServiceClient, ServiceError
from repro.service.queue import CANCELLED, DONE, FAILED, Job, JobQueue, \
    PENDING, QUARANTINED, QueueFull, RUNNING, STATES
from repro.service.service import ExperimentService, ResultPending, \
    ServiceConfig, UnknownGrid
from repro.service.store import ResultStore, StoreStats
from repro.service.workers import WorkerPool, WorkerStats

__all__ = [
    "API_VERSION",
    "Backpressure",
    "CANCELLED",
    "DEFAULT_URL",
    "DONE",
    "ExperimentService",
    "FAILED",
    "Job",
    "JobQueue",
    "PENDING",
    "QUARANTINED",
    "QueueFull",
    "RUNNING",
    "ResultNotReady",
    "ResultPending",
    "ResultStore",
    "STATES",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceHTTPServer",
    "StoreStats",
    "UnknownGrid",
    "WorkerPool",
    "WorkerStats",
    "make_server",
]
