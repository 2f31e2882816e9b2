"""Thin HTTP client for the experiment service (stdlib ``urllib``).

The CLI's ``repro submit`` is built on this, and it is the intended
programmatic surface for any other consumer::

    from repro.experiment import ExperimentSpec
    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8023")
    ticket = client.submit(spec, tenant="alice")
    status = client.wait(ticket["grid_id"], timeout=300)
    records = client.result(ticket["grid_id"])["records"]

Errors come back as :class:`ServiceError` carrying the HTTP status and
decoded body; 429 rejections raise the :class:`Backpressure` subclass so
callers can implement retry policies without string matching.

The transport is resilient by default: connection failures (and injected
``client.request`` faults) are retried ``retries`` times with the
deterministic backoff of a :class:`~repro.resilience.RetryPolicy` before
:class:`ServiceError` (status 0) surfaces.  429 backpressure is *not*
retried unless ``retry_backpressure=True`` - batch submitters opt in and
the client then honours the server's ``Retry-After`` header; interactive
callers keep seeing :class:`Backpressure` immediately.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, \
    Tuple, Union
from urllib.error import HTTPError, URLError
from urllib.parse import quote
from urllib.request import Request, urlopen

from repro import telemetry
from repro.experiment.serialize import experiment_to_dict
from repro.experiment.spec import ExperimentSpec
from repro.resilience import FaultInjected, RetryPolicy, faults

#: Default service endpoint (matches ``repro serve``'s default port).
DEFAULT_URL = "http://127.0.0.1:8023"

#: Poll-interval growth factor / ceiling for :meth:`ServiceClient.wait`.
_POLL_GROWTH = 1.5
_POLL_MAX = 2.0


class ServiceError(RuntimeError):
    """An HTTP-level failure talking to the service."""

    def __init__(self, status: int, payload: Mapping[str, Any]) -> None:
        message = payload.get("error") if isinstance(payload, Mapping) \
            else None
        super().__init__(
            f"service returned {status}: {message or payload}")
        self.status = status
        self.payload = dict(payload) if isinstance(payload, Mapping) \
            else {"error": str(payload)}


class Backpressure(ServiceError):
    """The service rejected a submission (429); retry later.

    ``retry_after`` carries the server's ``Retry-After`` header in
    seconds (``None`` when absent).
    """

    def __init__(self, status: int, payload: Mapping[str, Any],
                 retry_after: Optional[float] = None) -> None:
        super().__init__(status, payload)
        self.retry_after = retry_after


class ResultNotReady(ServiceError):
    """The grid has not finished yet (409); keep polling."""


class ServiceClient:
    """Minimal JSON-over-HTTP client; one instance per endpoint."""

    def __init__(self, base_url: str = DEFAULT_URL,
                 timeout: float = 30.0,
                 retries: int = 2,
                 retry_backpressure: bool = False,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.retry_backpressure = retry_backpressure
        self.retry_policy = retry_policy if retry_policy is not None \
            else RetryPolicy(max_attempts=self.retries + 1)

    # -- transport -----------------------------------------------------

    def _request_once(self, method: str, path: str,
                      body: Optional[Mapping[str, Any]]
                      ) -> Dict[str, Any]:
        url = f"{self.base_url}{path}"
        faults.trip("client.request", path)
        data = json.dumps(body).encode() if body is not None else None
        request = Request(url, data=data, method=method, headers={
            "Content-Type": "application/json",
            "Accept": "application/json",
        })
        try:
            with urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read() or b"{}")
        except HTTPError as exc:
            try:
                payload = json.loads(exc.read() or b"{}")
            except ValueError:
                payload = {"error": exc.reason}
            if exc.code == 429:
                header = exc.headers.get("Retry-After")
                try:
                    retry_after = float(header) if header else None
                except ValueError:
                    retry_after = None
                raise Backpressure(exc.code, payload,
                                   retry_after=retry_after) from None
            if exc.code == 409:
                raise ResultNotReady(exc.code, payload) from None
            raise ServiceError(exc.code, payload) from None
        except URLError as exc:
            raise ServiceError(
                0, {"error": f"cannot reach {url}: {exc.reason}"}) \
                from None

    def _request(self, method: str, path: str,
                 body: Optional[Mapping[str, Any]] = None
                 ) -> Dict[str, Any]:
        """One logical request = up to ``retries + 1`` attempts.

        Retried: connection-level failures (``ServiceError`` with
        status 0, which includes dropped responses injected by a fault
        plan) and - only when ``retry_backpressure`` is set - 429s,
        sleeping the server's ``Retry-After`` if it sent one.  Real
        HTTP errors (4xx/5xx) mean the request *arrived*; they are
        never retried.
        """
        attempt = 0
        retries = telemetry.counter(
            "repro_client_retries_total",
            "Client request attempts that were retried", ("kind",))
        while True:
            attempt += 1
            try:
                return self._request_once(method, path, body)
            except FaultInjected as exc:
                if not exc.transient or attempt > self.retries:
                    raise ServiceError(
                        0, {"error": f"cannot reach "
                                     f"{self.base_url}{path}: {exc}"}) \
                        from None
                retries.labels(kind="fault").inc()
                time.sleep(self.retry_policy.delay(attempt, path))
            except Backpressure as exc:
                if not self.retry_backpressure or attempt > self.retries:
                    raise
                retries.labels(kind="backpressure").inc()
                delay = self.retry_policy.delay(attempt, path)
                if exc.retry_after is not None:
                    delay = max(delay, exc.retry_after)
                time.sleep(delay)
            except ServiceError as exc:
                if exc.status != 0 or attempt > self.retries:
                    raise
                retries.labels(kind="connection").inc()
                time.sleep(self.retry_policy.delay(attempt, path))

    # -- endpoints -----------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/health")

    def metrics(self) -> str:
        """Raw Prometheus text exposition from ``/v1/metrics``.

        The one non-JSON endpoint; returned verbatim for scrapers
        and tests asserting on series.
        """
        url = f"{self.base_url}/v1/metrics"
        request = Request(url, method="GET",
                          headers={"Accept": "text/plain"})
        try:
            with urlopen(request, timeout=self.timeout) as response:
                return response.read().decode()
        except HTTPError as exc:
            raise ServiceError(exc.code,
                               {"error": exc.reason}) from None
        except URLError as exc:
            raise ServiceError(
                0, {"error": f"cannot reach {url}: {exc.reason}"}) \
                from None

    def submit(self,
               experiment: Union[ExperimentSpec, Mapping[str, Any]],
               tenant: str = "default", priority: int = 0,
               name: Optional[str] = None,
               adaptive: Optional[Mapping[str, Any]] = None
               ) -> Dict[str, Any]:
        """Submit a grid; returns the service's status/admission dict.

        ``adaptive`` (an ``AdaptivePolicy.to_dict()`` mapping, or the
        policy object itself) switches the grid to adaptive
        orchestration: the service surveys every cell cheaply and then
        spends refinement rounds only where the CIs demand them.
        """
        wire = experiment_to_dict(experiment) \
            if isinstance(experiment, ExperimentSpec) \
            else dict(experiment)
        body: Dict[str, Any] = {"tenant": tenant, "priority": priority,
                                "experiment": wire}
        if name is not None:
            body["name"] = name
        if adaptive is not None:
            body["adaptive"] = adaptive.to_dict() \
                if hasattr(adaptive, "to_dict") else dict(adaptive)
        return self._request("POST", "/v1/grids", body)

    def status(self, grid_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/grids/{quote(grid_id)}")

    def result(self, grid_id: str,
               metrics: Sequence[str] = ()) -> Dict[str, Any]:
        path = f"/v1/grids/{quote(grid_id)}/result"
        if metrics:
            path += "?metrics=" + quote(",".join(metrics))
        return self._request("GET", path)

    def cancel(self, grid_id: str) -> Dict[str, Any]:
        return self._request(
            "POST", f"/v1/grids/{quote(grid_id)}/cancel", {})

    def jobs(self, state: Optional[str] = None) -> Dict[str, Any]:
        """Job listing, optionally filtered (e.g. ``state="quarantined"``)."""
        path = "/v1/jobs"
        if state:
            path += f"?state={quote(state)}"
        return self._request("GET", path)

    def requeue_quarantined(self,
                            keys: Optional[Sequence[str]] = None
                            ) -> Dict[str, Any]:
        """Put quarantined jobs back in play (all of them by default)."""
        body: Dict[str, Any] = {}
        if keys is not None:
            body["keys"] = list(keys)
        return self._request("POST", "/v1/jobs/requeue", body)

    def wait(self, grid_id: str, timeout: float = 600.0,
             poll: float = 0.2, poll_max: float = _POLL_MAX,
             on_progress: Optional[
                 Callable[[Dict[str, Any]], None]] = None
             ) -> Dict[str, Any]:
        """Poll until the grid reaches a terminal state.

        Returns the final status for ``done`` *and* ``degraded`` grids
        (a degraded grid has partial results worth fetching; check
        ``status["quarantined"]``); raises :class:`ServiceError` on
        timeout or when the grid failed/was cancelled.

        The poll interval backs off exponentially (x1.5, capped at
        ``poll_max``) while nothing changes, and snaps back to ``poll``
        whenever progress advances - long waits stop hammering the
        server without going blind.  Every status observed carries
        ``status["progress"] = {"completed": ..., "quarantined": ...,
        "total": ...}``; ``on_progress`` (when given) fires on the first
        poll and then only when completion, quarantine count, or state
        actually changed - not once per poll.
        """
        deadline = time.time() + timeout
        interval = poll
        last_done = -1
        last_seen: Optional[Tuple[int, int, str]] = None
        while True:
            status = self.status(grid_id)
            done = int(status.get("done", 0))
            quarantined = int(status.get("quarantined", 0))
            status["progress"] = {"completed": done,
                                  "quarantined": quarantined,
                                  "total": status.get("unique_runs", 0)}
            observed = (done, quarantined, str(status.get("state", "")))
            if on_progress is not None and observed != last_seen:
                on_progress(status)
            last_seen = observed
            if status["state"] in ("done", "degraded"):
                return status
            if status["state"] in ("failed", "cancelled"):
                raise ServiceError(500, dict(
                    status, error=f"grid {grid_id} {status['state']}"))
            if time.time() >= deadline:
                raise ServiceError(0, dict(
                    status,
                    error=f"timed out after {timeout:.0f}s waiting "
                          f"for grid {grid_id} "
                          f"({status['done']}/{status['unique_runs']} "
                          f"runs done)"))
            if done > last_done:
                last_done = done
                interval = poll  # progress: stay responsive
            else:
                interval = min(poll_max, interval * _POLL_GROWTH)
            time.sleep(min(interval, max(0.0, deadline - time.time())))
        # not reached
