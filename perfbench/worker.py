"""One iteration of one benchmark workload, in a fresh process.

``run.py`` starts this script once per measured iteration, so no run
inherits a warm heap or allocator state from the one before it.  The
script sets the workload up, runs its job once, checks the outputs, and
prints one JSON object on its last stdout line: timings, simulated
summaries, check outcomes, and - when traced - per-layer span totals.

    python3 perfbench/worker.py --workload write_drain --seed 7 \
        --trace 0 --spawned-at <time.monotonic() of the parent>

Run it from the repository root with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from workloads import WORKLOADS, Workload, check_runs, run_summary

#: Client poll interval for service grids, pinned so that the client's
#: x1.5 backoff never quantizes the job's wall time.
SERVICE_POLL_S = 0.01

#: Trace records the generator probe drains per kernel.
PROBE_RECORDS = 200_000

#: Host-speed probe: every PERIOD seconds of wall time, time LOOPS turns
#: of a fixed arithmetic loop.  REF is the loop's time at the reference
#: host speed the reported timings are scaled to.
SPEED_PROBE_PERIOD_S = 0.02
SPEED_PROBE_LOOPS = 3000
SPEED_PROBE_REF_S = 150e-6


class SpeedProbe:
    """Samples the host's speed all through the iteration.

    The shared host this benchmark runs on alternates, for seconds to
    minutes at a time, between speed states about 1.6x apart, which moves
    raw timings far more than any change worth measuring.  A ``SIGALRM``
    handler times a fixed pure-Python loop every
    ``SPEED_PROBE_PERIOD_S``; :meth:`scale` turns a raw duration into the
    duration at the reference speed, after subtracting the probe's own
    time.  The loop never touches the simulator, so a faster simulator
    does not speed the probe up.
    """

    def __init__(self) -> None:
        self.samples = 0
        #: Seconds spent inside the probe so far.
        self.seconds = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(SPEED_PROBE_LOOPS):
            acc += i * i
        self.seconds += time.perf_counter() - start
        self.samples += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PROBE_PERIOD_S,
                         SPEED_PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def factor(self) -> float:
        """Reference loop time over the mean measured one (1 = reference
        speed, below 1 = the host ran slower)."""
        if not self.samples:
            return 1.0
        return SPEED_PROBE_REF_S * self.samples / self.seconds

    def scale(self, raw: float, probe_s: float) -> float:
        """``raw`` seconds, less ``probe_s`` spent probing, at reference
        speed."""
        return (raw - probe_s) * self.factor


def _stamp_first_event(first: List[float], probe: SpeedProbe) -> None:
    """Record when the simulator first starts working (end of set-up).

    The first call into ``System.warm_up`` or ``System.run`` - after the
    config, Session or service, and the first System are built - marks
    the first simulated event.  ``first`` receives the monotonic time and
    the probe seconds spent until then.
    """
    from repro.sim.system import System

    for name in ("warm_up", "run"):
        original = getattr(System, name)

        def stamped(self, *args, _original=original, **kwargs):
            if not first:
                first.extend((time.monotonic(), probe.seconds))
            return _original(self, *args, **kwargs)

        setattr(System, name, stamped)


#: One finished run: ((kernel, policy, seed), RunResult).
KeyedResult = Tuple[Tuple[str, str, int], Any]


def _digest(results: List[KeyedResult]) -> str:
    """Hash of every simulated counter of the job's runs, in grid order."""
    from repro.experiment.serialize import result_to_dict

    payload = []
    for coords, result in sorted(results, key=lambda item: item[0]):
        data = result_to_dict(result)
        data["result"].pop("phase_breakdown", None)
        payload.append([list(coords), data])
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _collect(rs) -> Tuple[List[dict], List[KeyedResult]]:
    """Summaries and keyed results of a finished ResultSet."""
    summaries = []
    results = []
    for obs in rs:
        coords = (str(obs.coords["workload"]), str(obs.coords["policy"]),
                  int(obs.coords["seed"]))
        summaries.append(run_summary(*coords, obs.result))
        results.append((coords, obs.result))
    return summaries, results


def run_session_job(workload: Workload, seed: int, scale: str,
                    probe: SpeedProbe) -> Dict[str, Any]:
    """Session workloads: one serial ``Session.run`` of the grid."""
    from repro import Session

    spec = workload.spec(seed, scale)
    session = Session(cache=False, parallel=1)
    probe0 = probe.seconds
    cpu0, wall0 = time.process_time(), time.perf_counter()
    rs = session.run(spec)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    probe_s = probe.seconds - probe0
    summaries, results = _collect(rs)
    checks = []
    stats = session.stats
    if workload.warmups is not None:
        checks.append(("warmups", stats.warmups_executed == workload.warmups,
                       f"{stats.warmups_executed} of {workload.warmups}"))
    if workload.restores is not None:
        checks.append(("restores",
                       stats.checkpoint_restores == workload.restores,
                       f"{stats.checkpoint_restores} of "
                       f"{workload.restores}"))
    return {"wall_s": wall, "cpu_s": cpu, "probe_s": probe_s,
            "runs": summaries, "results": results, "checks": checks,
            "warmups": stats.warmups_executed,
            "restores": stats.checkpoint_restores}


def run_service_job(workload: Workload, seed: int, scale: str,
                    probe: SpeedProbe, scratch: Path) -> Dict[str, Any]:
    """service_grid: submit over HTTP to an in-process service, wait, fetch.

    The service starts from an empty state directory and result store,
    so every run of the grid is simulated.  Workers run inline (one
    shard thread); the client is one closed loop in the main thread.
    """
    from repro.service import ExperimentService, ServiceClient, \
        ServiceConfig
    from repro.service.api import make_server

    spec = workload.spec(seed, scale)
    service = ExperimentService(ServiceConfig(
        state_dir=scratch / "state", store_dir=scratch / "store",
        shards=1, use_processes=False))
    last_put: List[float] = []
    put = service.store.put

    def stamped_put(*args, **kwargs):
        put(*args, **kwargs)
        last_put[:] = [time.perf_counter()]

    service.store.put = stamped_put
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever,
                              name="perfbench-http", daemon=True)
    service.start()
    thread.start()
    try:
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}", timeout=60.0)
        probe0 = probe.seconds
        cpu0, wall0 = time.process_time(), time.perf_counter()
        ticket = client.submit(spec, tenant="perfbench")
        submitted = time.perf_counter()
        grid_id = ticket["grid_id"]
        status = client.wait(grid_id, timeout=150.0, poll=SERVICE_POLL_S,
                             poll_max=SERVICE_POLL_S)
        observed = time.perf_counter()
        client.result(grid_id)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        probe_s = probe.seconds - probe0
        rs = service.result_set(grid_id)
        waits = []
        for obs in rs:
            job = service.queue.get(obs.spec.key())
            if job is not None and job.leased_at and job.enqueued_at:
                waits.append(1000.0 * (job.leased_at - job.enqueued_at))
        worker_stats = service.workers.stats
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)
        service.stop()
    summaries, results = _collect(rs)
    checks = [
        ("service_state", status["state"] == "done", status["state"]),
        ("service_quarantined", status["quarantined"] == 0,
         f"{status['quarantined']} quarantined"),
    ]
    return {"wall_s": wall, "cpu_s": cpu, "probe_s": probe_s,
            "runs": summaries, "results": results, "checks": checks,
            "warmups": worker_stats.warmups,
            "restores": worker_stats.restores,
            "service": {
                "submit_ms": 1000.0 * (submitted - wall0),
                "queue_wait_ms": sorted(waits),
                "jobs": worker_stats.jobs,
                "retries": worker_stats.retried,
                "poll_late_ms": (1000.0 * (observed - last_put[0])
                                 if last_put else 0.0),
            }}


def generator_probe(workload: Workload, seed: int, scale: str) -> float:
    """Trace-generator throughput alone, in thousand records per second.

    Drains core 0's trace of every kernel the workload runs for a fixed
    record count, so generator cost is measured apart from simulation.
    """
    from repro.workloads.suites import trace_factory

    config = workload.config(scale)
    records = 0
    seconds = 0.0
    for kernel in workload.kernels:
        trace = trace_factory(kernel, config, seed=seed)(0)
        step = trace.__next__
        start = time.perf_counter()
        for _ in range(PROBE_RECORDS):
            step()
        seconds += time.perf_counter() - start
        records += PROBE_RECORDS
    return records / seconds / 1000.0


def layer_report(tracer, job: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer totals and per-entry call counts of the traced job."""
    layers: Dict[str, Dict[str, float]] = {}
    entries: Dict[str, Dict[str, float]] = {}
    for (layer, entry), (calls, self_s) in tracer.totals().items():
        total = layers.setdefault(layer, {"calls": 0, "self_s": 0.0})
        total["calls"] += calls
        total["self_s"] += self_s
        entries[entry] = {"layer": layer, "calls": calls, "self_s": self_s}
    warm = tracer.span_seconds("System.warm_up")
    return {
        "layers": layers,
        "entries": entries,
        "events": tracer.counters.get("events", 0),
        "phase_warmup_s": warm,
        "phase_measure_s": tracer.span_seconds("System.run")
        - tracer.span_seconds("System.warm_up", parent_entry="System.run"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", default="bench",
                        choices=("bench", "tiny"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="parent's time.monotonic() at spawn")
    parser.add_argument("--out-dir", default=".perfbench_out")
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None \
        else started
    workload = WORKLOADS[args.workload]
    out_dir = Path(args.out_dir)

    probe = SpeedProbe()
    probe.start()
    tracer = None
    if args.trace:
        from tracing import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    first_event: List[float] = []
    _stamp_first_event(first_event, probe)

    scratch = out_dir / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if workload.service:
            job = run_service_job(workload, args.seed, args.scale, probe,
                                  scratch)
        else:
            job = run_session_job(workload, args.seed, args.scale, probe)
    finally:
        probe.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = first_event[0] - spawned_at

    checks = check_runs(workload, args.scale, job["runs"]) + job["checks"]
    out: Dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "traced": bool(args.trace),
        # Timings at the reference host speed; "raw" keeps the clocks.
        "setup_s": probe.scale(setup, first_event[1]),
        "wall_s": probe.scale(job["wall_s"], job["probe_s"]),
        "cpu_s": probe.scale(job["cpu_s"], job["probe_s"]),
        "raw": {"setup_s": setup, "wall_s": job["wall_s"],
                "cpu_s": job["cpu_s"]},
        "host_speed": {"factor": probe.factor, "samples": probe.samples,
                       "probe_s": probe.seconds},
        "peak_rss_mb": rss_mb,
        "epoch_kinst": workload.epoch_kinst(args.scale),
        "digest": _digest(job["results"]),
        "runs": job["runs"],
        "warmups": job["warmups"],
        "restores": job["restores"],
        "checks": checks,
        "service": job.get("service"),
    }
    if tracer is not None:
        out["trace"] = layer_report(tracer, job)
        out["trace"]["krec_per_s"] = generator_probe(
            workload, args.seed, args.scale)
        spans_dir = out_dir / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_file = spans_dir / f"{workload.name}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(
            {"workload": workload.name, "seed": args.seed,
             "spans": tracer.records(),
             "entries": out["trace"]["entries"]}, indent=1))
        out["trace"]["spans_file"] = str(spans_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
