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

import importlib

#: Where each exported name lives.  The exports load on first use (PEP
#: 562), so ``import repro.service.queue`` - which the CLI does at start
#: - does not pull in the HTTP server, the worker pool's
#: multiprocessing machinery or the client.
_EXPORTS = {
    "api": ("API_VERSION", "ServiceHTTPServer", "make_server"),
    "client": ("Backpressure", "DEFAULT_URL", "ResultNotReady",
               "ServiceClient", "ServiceError"),
    "queue": ("CANCELLED", "DONE", "FAILED", "Job", "JobQueue", "PENDING",
              "QUARANTINED", "QueueFull", "RUNNING", "STATES"),
    "service": ("ExperimentService", "ResultPending", "ServiceConfig",
                "UnknownGrid"),
    "store": ("ResultStore", "StoreStats"),
    "workers": ("WorkerPool", "WorkerStats"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
