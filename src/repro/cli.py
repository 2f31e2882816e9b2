"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Commands
--------

``run``            one workload under one configuration, print metrics
``compare``        one workload under several writeback policies
``characterize``   Table IV-style characterization of several workloads
``sweep``          grid sweep over arbitrary axes (workloads x policies
                   x seeds x any registered config axis); ``--adaptive``
                   orchestrates the grid budget-aware (docs/adaptive.md)
``list``           available workloads, policies, presets, and axes
``serve``          run the long-running experiment service (HTTP API)
``submit``         submit a grid to a running service and fetch results
``jobs``           inspect a service's job table (``--quarantined`` for
                   the dead-letter queue; ``--requeue`` to drain it)
``trace``          run one workload with telemetry enabled and write a
                   Chrome trace-event JSON (load in Perfetto)

Every simulating command runs through the declarative experiment layer
(:mod:`repro.experiment`): duplicate grid points simulate once, finished
runs are cached on disk (``--cache-dir``/``--no-cache``), fresh runs can
fan out over processes (``--parallel N``, ``0`` = all cores), and
``--json`` emits ``{"records": [...], "stats": {...}}`` - the records
plus the session's accounting (cache hits, warmups executed, checkpoint
restores) - instead of tables.  ``serve``/``submit`` move the same grids
onto a shared multi-tenant service (see ``docs/service.md``); the local
commands and the service exchange artifacts through the same
content-addressed cache.

Examples::

    python -m repro run lbm --policy bard-h
    python -m repro compare lbm --policies baseline bard-e bard-c bard-h
    python -m repro characterize lbm copy cf whiskey --parallel 4
    python -m repro sweep --workloads lbm copy --axis wq=32,48,64 \\
        --axis policy=baseline,bard-h --speedup-vs policy
    python -m repro sweep --workloads lbm copy --sample 4 \\
        --axis policy=baseline,bard-h --adaptive --adaptive-error 2
    python -m repro serve --port 8023 --workers 4
    python -m repro submit --workloads lbm --axis policy=baseline,bard-h \\
        --server http://127.0.0.1:8023 --tenant alice
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from repro import telemetry
from repro.analysis.report import characterization_report, \
    comparison_report, sampling_note
from repro.analysis.tables import format_table
from repro.config.presets import PRESETS as _PRESETS
from repro.config.system import SystemConfig
from repro.errors import ConfigError
from repro.experiment import AXIS_MODIFIERS, Axis, ExperimentSpec, \
    ResultSet, RunSpec, Session, SessionInterrupted, make_axis
from repro.experiment.cache import default_cache_dir
from repro.experiment.resultset import RELATIVE_METRICS, valid_metric
from repro.experiment.spec import BASELINE, INHERIT, policy_arg
from repro.sampling import SamplingConfig
from repro.service.queue import STATES as JOB_STATES
from repro.telemetry import configure_logging, get_logger
from repro.workloads.suites import ALL_WORKLOADS

_POLICY_CHOICES = ["baseline", "bard-e", "bard-c", "bard-h", "eager", "vwq"]

_log = get_logger("cli")


def _build_config(args) -> SystemConfig:
    cfg = _PRESETS[args.preset]()
    if getattr(args, "replacement", None):
        cfg = cfg.with_replacement(args.replacement)
    if getattr(args, "device", None):
        cfg = cfg.with_device(args.device)
    if getattr(args, "ideal_writes", False):
        cfg = cfg.with_ideal_writes()
    if getattr(args, "refresh", False):
        cfg = cfg.with_refresh()
    if getattr(args, "instructions", None) is not None:
        if args.instructions <= 0:
            raise ConfigError("--instructions must be positive")
        cfg = replace(cfg, sim_instructions=args.instructions)
    if getattr(args, "warmup", None) is not None:
        if args.warmup < 0:
            raise ConfigError("--warmup must be >= 0")
        cfg = replace(cfg, warmup_instructions=args.warmup)
    if getattr(args, "warmup_mode", None):
        cfg = cfg.with_warmup_mode(args.warmup_mode)
    return _apply_sampling(args, cfg)


def _apply_sampling(args, cfg: SystemConfig) -> SystemConfig:
    """Attach a sampling plan built from the ``--sample*`` flags, if any.

    ``--sample`` switches the run to interval sampling; that requires
    functional warmup, so the mode is upgraded automatically unless the
    user pinned ``--warmup-mode detailed`` - an invalid combination that
    surfaces as a :class:`ConfigError`.
    """
    if getattr(args, "sample", None) is None:
        return cfg
    if cfg.warmup_mode != "functional" \
            and getattr(args, "warmup_mode", None) is None:
        cfg = cfg.with_warmup_mode("functional")
    kwargs = {"intervals": args.sample}
    if getattr(args, "sample_interval", None) is not None:
        kwargs["interval_instructions"] = args.sample_interval
    if getattr(args, "sample_period", None) is not None:
        kwargs["period_instructions"] = args.sample_period
    if getattr(args, "sample_warm", None) is not None:
        kwargs["warm_instructions"] = args.sample_warm
    if getattr(args, "sample_scheme", None) is not None:
        kwargs["scheme"] = args.sample_scheme
    if getattr(args, "sample_seed", None) is not None:
        kwargs["scheme_seed"] = args.sample_seed
    return cfg.with_sampling(SamplingConfig(**kwargs))


def _resolve_parallel(value: Optional[int]) -> int:
    """Validate ``--parallel``: N>=1 workers, 0 = all cores, else error."""
    if value is None:
        return 1
    if value < 0:
        raise ConfigError(
            f"--parallel must be >= 0 (got {value}; 0 means one worker "
            f"per CPU core)")
    if value == 0:
        return os.cpu_count() or 1
    return value


def _session(args) -> Session:
    return Session(cache_dir=getattr(args, "cache_dir", None),
                   parallel=_resolve_parallel(
                       getattr(args, "parallel", 1)),
                   cache=not getattr(args, "no_cache", False))


def _progress(done: int, total: int, spec: RunSpec) -> None:
    _log.info("[%d/%d] %s", done, total, spec.label,
              extra={"event": "run.progress", "completed": done,
                     "total": total, "label": spec.label})


def _progress_fn(args):
    if sys.stderr.isatty():
        return _progress
    return None


def _emit_json(rs: ResultSet, session: Session, metrics=(),
               adaptive=None) -> None:
    """Records plus the session's accounting, one JSON object.

    The ``stats`` block mirrors what the experiment service reports for
    a grid, so scripted consumers see the same accounting whether a run
    executed locally or through ``repro submit``.  Adaptive sweeps add
    an ``adaptive`` block (the AdaptiveReport), matching the service
    result envelope's ``report``.
    """
    envelope = {
        "name": rs.name,
        "records": rs.to_records(metrics),
        "stats": dataclasses.asdict(session.stats),
    }
    if adaptive is not None:
        envelope["adaptive"] = adaptive.to_dict()
    print(json.dumps(envelope, indent=2))


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    """Machine-configuration flags shared by local and service commands."""
    parser.add_argument("--preset", choices=sorted(_PRESETS),
                        default="small-8core",
                        help="system preset (default: small-8core)")
    parser.add_argument("--replacement",
                        choices=["lru", "srrip", "ship", "drrip"],
                        help="LLC replacement policy")
    parser.add_argument("--device", choices=["x4", "x8"],
                        help="DDR5 device width")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--instructions", type=int, metavar="N",
                        help="override per-core simulated instructions")
    parser.add_argument("--warmup", type=int, metavar="N",
                        help="override per-core warmup instructions")
    parser.add_argument("--warmup-mode", dest="warmup_mode",
                        choices=["detailed", "functional"],
                        help="warmup execution mode: 'detailed' (default; "
                             "full timing model) or 'functional' (state "
                             "machines only - several times faster, and "
                             "policy grids share one warmup via warm-state "
                             "checkpoints)")
    parser.add_argument("--sample", type=int, metavar="N",
                        help="sample the measurement epoch with N detailed "
                             "intervals instead of simulating it "
                             "monolithically (implies functional warmup; "
                             "see docs/sampling.md)")
    parser.add_argument("--sample-interval", dest="sample_interval",
                        type=int, metavar="N",
                        help="instructions measured per interval, per core "
                             "(default 1000)")
    parser.add_argument("--sample-period", dest="sample_period",
                        type=int, metavar="N",
                        help="instructions between interval starts "
                             "(default: epoch/intervals)")
    parser.add_argument("--sample-warm", dest="sample_warm",
                        type=int, metavar="N",
                        help="functional-warming instructions before each "
                             "interval (default 2000)")
    parser.add_argument("--sample-scheme", dest="sample_scheme",
                        choices=["periodic", "random"],
                        help="interval placement within each period "
                             "(default periodic)")
    parser.add_argument("--sample-seed", dest="sample_seed", type=int,
                        metavar="N",
                        help="placement seed for --sample-scheme random")


def _add_adaptive_args(parser: argparse.ArgumentParser) -> None:
    """Grid-level adaptive-orchestration flags (see docs/adaptive.md)."""
    parser.add_argument("--adaptive", action="store_true",
                        help="orchestrate the grid adaptively: survey "
                             "every cell with cheap sampling, then spend "
                             "refinement rounds only on cells whose CIs "
                             "still straddle the decision boundary "
                             "(see docs/adaptive.md)")
    parser.add_argument("--adaptive-error", dest="adaptive_error",
                        type=float, default=5.0, metavar="PCT",
                        help="per-cell target relative CI half-width "
                             "(default 5%%)")
    parser.add_argument("--adaptive-budget", dest="adaptive_budget",
                        type=int, metavar="N",
                        help="hard cap on detailed instructions spent "
                             "across the grid (default: unbounded)")
    parser.add_argument("--adaptive-metric", dest="adaptive_metric",
                        default="mean_ipc",
                        help="decision metric, one of the sampled "
                             "metrics (default mean_ipc)")
    parser.add_argument("--adaptive-axis", dest="adaptive_axis",
                        default="policy",
                        help="axis the comparison is decided along; "
                             "dominated values are pruned early "
                             "(default policy)")
    parser.add_argument("--adaptive-rounds", dest="adaptive_rounds",
                        type=int, default=4, metavar="N",
                        help="max refinement rounds per cell (default 4)")
    parser.add_argument("--adaptive-start", dest="adaptive_start",
                        type=int, default=4, metavar="N",
                        help="interval count of the survey pass "
                             "(default 4)")


def _adaptive_policy(args):
    """The AdaptivePolicy from ``--adaptive*`` flags, or None."""
    if not getattr(args, "adaptive", False):
        return None
    from repro.adaptive import AdaptivePolicy

    if args.adaptive_error <= 0:
        raise ConfigError("--adaptive-error must be positive")
    return AdaptivePolicy(
        metric=args.adaptive_metric,
        target_relative_error=args.adaptive_error / 100.0,
        budget_instructions=args.adaptive_budget,
        max_rounds=args.adaptive_rounds,
        start_intervals=args.adaptive_start,
        compare_axis=args.adaptive_axis)


def _render_adaptive(report) -> None:
    """Human-readable decision summary under the sweep/submit table."""
    rows = []
    for cell in report.cells:
        fidelity = "full" if cell.intervals is None \
            else f"{cell.intervals} ivs"
        estimate = f"{cell.mean:.3f} " \
                   f"[{cell.ci_lo:.3f}, {cell.ci_hi:.3f}]"
        rows.append((cell.label, cell.value, cell.rounds, fidelity,
                     f"{cell.instructions:,}", cell.stop, estimate))
    print(format_table(
        ["cell", report.policy.get("compare_axis", "policy"), "rounds",
         "fidelity", "instructions", "stop", report.policy["metric"]],
        rows, title="adaptive decisions"))
    print(f"adaptive: {report.rounds} cell-rounds, "
          f"{report.escalations} escalated, {report.pruned} pruned; "
          f"spent {report.instructions_spent:,} of "
          f"{report.instructions_full:,} full-detail instructions "
          f"({report.savings_pct:.1f}% saved)")
    for group, value in sorted(report.winners.items()):
        print(f"  winner [{group}]: {value}")


def _add_logging_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--log-level", dest="log_level",
                        choices=["debug", "info", "warning", "error"],
                        default="info",
                        help="verbosity of the repro.* loggers "
                             "(default: info)")
    parser.add_argument("--log-json", dest="log_json",
                        action="store_true",
                        help="emit JSON-lines log records instead of "
                             "human-readable lines")


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_config_args(parser)
    parser.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="simulate fresh runs across N processes "
                             "(0 = one per CPU core)")
    parser.add_argument("--cache-dir", dest="cache_dir", metavar="DIR",
                        help="result cache directory "
                             "(default: ~/.cache/repro)")
    parser.add_argument("--no-cache", dest="no_cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--json", action="store_true",
                        help="emit result records as JSON instead of tables")


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    cfg = cfg.with_writeback(policy_arg(args.policy))
    spec = ExperimentSpec(workloads=args.workload, configs=cfg,
                          seeds=args.seed, name=f"run:{args.workload}")
    session = _session(args)
    rs = session.run(spec, progress=_progress_fn(args))
    if args.json:
        _emit_json(rs, session)
        return 0
    result = rs.only().result
    print(characterization_report([(args.workload, result)],
                                  title=f"run: {args.workload} "
                                        f"({args.policy})"))
    note = sampling_note(result)
    if note:
        print(note)
    return 0


def _cmd_compare(args) -> int:
    cfg = _build_config(args)
    policies = [policy_arg(p) for p in args.policies]
    if policies[0] is not None:
        policies.insert(0, None)
    # ExperimentSpec dedupes repeated policies (e.g. `--policies bard-h
    # baseline`), so the baseline simulates exactly once.
    spec = ExperimentSpec(workloads=args.workload, configs=cfg,
                          policies=policies, seeds=args.seed,
                          name=f"compare:{args.workload}")
    session = _session(args)
    rs = session.run(spec, progress=_progress_fn(args))
    if args.json:
        _emit_json(rs, session)
        return 0
    base = rs.filter(policy=BASELINE).only().result
    for obs in rs:
        if obs.coords["policy"] == BASELINE:
            continue
        named = replace(obs.result, label=str(obs.coords["policy"]))
        print(comparison_report(replace(base, label=BASELINE), named,
                                workload=args.workload))
        print()
    return 0


def _cmd_characterize(args) -> int:
    cfg = _build_config(args)
    spec = ExperimentSpec(workloads=args.workloads, configs=cfg,
                          seeds=args.seed, name="characterize")
    session = _session(args)
    rs = session.run(spec, progress=_progress_fn(args))
    if args.json:
        _emit_json(rs, session)
        return 0
    results = [(str(obs.coords["workload"]), obs.result) for obs in rs]
    print(characterization_report(results))
    return 0


def _parse_axis(text: str):
    name, eq, values = text.partition("=")
    if not eq or not values:
        raise ConfigError(f"--axis wants NAME=V1,V2,... (got {text!r})")
    return name, [v for v in values.split(",") if v]


def _grid_spec(args, name: str) -> ExperimentSpec:
    """Build the sweep/submit grid from ``--workloads/--axis/--seeds``."""
    cfg = _build_config(args)
    policies: object = INHERIT
    axes: List[Axis] = []
    seen_axes = set()
    for text in args.axis or []:
        axis_name, values = _parse_axis(text)
        if axis_name in seen_axes:
            raise ConfigError(f"duplicate --axis {axis_name!r}")
        seen_axes.add(axis_name)
        if axis_name == "policy":
            policies = [policy_arg(v) for v in values]
        elif axis_name in AXIS_MODIFIERS:
            axes.append(make_axis(axis_name, values))
        else:
            raise ConfigError(
                f"unknown axis {axis_name!r}; choose from "
                f"{sorted(AXIS_MODIFIERS)}")
    seeds = args.seeds if args.seeds else [args.seed]
    return ExperimentSpec(workloads=args.workloads, configs=cfg,
                          policies=policies, seeds=seeds,
                          axes=axes, name=name)


def _cmd_sweep(args) -> int:
    spec = _grid_spec(args, "sweep")
    plan = spec.expand()

    # Validate metrics and the speedup baseline BEFORE burning simulation
    # time: a typo must fail in milliseconds, not after the grid ran.
    metrics = list(args.metrics)
    for name in metrics:
        if not valid_metric(name):
            raise ConfigError(f"unknown metric {name!r}")
        if name in RELATIVE_METRICS and not args.speedup_vs:
            raise ConfigError(
                f"metric {name!r} needs --speedup-vs to define a baseline")
    speedup = None
    if args.speedup_vs:
        axis, eq, label = args.speedup_vs.partition("=")
        baseline: object = label if eq else BASELINE
        if axis == "seed" and eq:
            baseline = int(label)  # seed coordinates are ints
        values = list(dict.fromkeys(
            p.coords.get(axis) for p in plan.points))
        if baseline not in values or len(values) < 2:
            raise ConfigError(
                f"--speedup-vs {args.speedup_vs}: axis {axis!r} must "
                f"cover the baseline plus at least one other value "
                f"(have {values})")
        speedup = (axis, baseline)

    session = _session(args)
    policy = _adaptive_policy(args)
    if policy is not None:
        rs = session.run_adaptive(plan, policy,
                                  progress=_progress_fn(args))
    else:
        rs = session.run(plan, progress=_progress_fn(args))
    report = rs.adaptive
    if speedup is not None:
        rs = rs.speedup_vs(*speedup)
        if "speedup_pct" not in metrics:
            metrics.append("speedup_pct")
    if args.json:
        _emit_json(rs, session, metrics, adaptive=report)
        return 0
    axis_names = list(rs[0].coords) if len(rs) else []
    rows = [
        tuple(record[name] for name in axis_names)
        + tuple(f"{record[m]:.3f}" for m in metrics)
        for record in rs.to_records(metrics)
    ]
    print(format_table(axis_names + metrics, rows,
                       title=f"sweep ({len(rs)} points)"))
    if report is not None:
        _render_adaptive(report)
    return 0


def _cmd_serve(args) -> int:
    """Run the long-running experiment service (Ctrl-C to stop)."""
    from repro.service import ExperimentService, ServiceConfig, \
        make_server

    state_dir = Path(args.state_dir) if args.state_dir \
        else default_cache_dir() / "service"
    from repro.resilience import RetryPolicy

    if args.max_attempts <= 0:
        raise ConfigError("--max-attempts must be positive")
    config = ServiceConfig(
        state_dir=state_dir,
        store_dir=Path(args.cache_dir) if args.cache_dir else None,
        shards=_resolve_parallel(args.workers),
        max_group=args.max_group,
        max_pending_per_tenant=args.max_pending_per_tenant,
        max_pending_total=args.max_pending_total,
        retry=RetryPolicy(max_attempts=args.max_attempts),
        job_timeout=args.job_timeout if args.job_timeout > 0 else None,
    )
    if args.max_group <= 0:
        raise ConfigError("--max-group must be positive")
    if getattr(args, "telemetry", False):
        telemetry.enable()
    service = ExperimentService(config)
    # Fork the worker processes before binding the port: a forked
    # child holding the listening socket outlives a killed server and
    # keeps the port bound against its restart.
    service.start()
    # SIGTERM stops the service like Ctrl-C, so service.stop() runs and
    # takes the worker pool and the heartbeat Manager down with it.
    # Processes forked later (a pool recycled after a hung job) keep
    # the default action.
    serve_pid = os.getpid()

    def on_sigterm(signum, frame):
        if os.getpid() != serve_pid:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, on_sigterm)
    try:
        server = make_server(service, host=args.host, port=args.port,
                             quiet=not args.verbose)
        host, port = server.server_address[:2]
        # The listen banner is a machine-readable contract (tests and
        # tooling parse the URL from stdout, e.g. with --port 0); it
        # must stay a flushed stdout print, not a log record on stderr.
        print(f"repro service listening on http://{host}:{port} "
              f"({config.shards} worker shards, state in {state_dir}, "
              f"store in {service.store.directory})", flush=True)
        _log.debug("service listening",
                   extra={"event": "serve.listening", "host": str(host),
                          "port": int(port), "shards": config.shards})
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            _log.info("shutting down (queue state is durable; restart "
                      "resumes unfinished grids)",
                      extra={"event": "serve.shutdown"})
        finally:
            server.server_close()
    finally:
        service.stop()
        signal.signal(signal.SIGTERM, previous)
    return 0


def _cmd_submit(args) -> int:
    """Submit a grid to a running service; optionally wait for results."""
    from repro.service import Backpressure, ResultNotReady, \
        ServiceClient, ServiceError

    spec = _grid_spec(args, "submit")
    metrics = list(args.metrics)
    for name in metrics:
        if not valid_metric(name):
            raise ConfigError(f"unknown metric {name!r}")
        if name in RELATIVE_METRICS:
            raise ConfigError(
                f"metric {name!r} is baseline-relative; fetch records "
                f"and compute speedups client-side")
    policy = _adaptive_policy(args)
    client = ServiceClient(args.server, timeout=args.timeout)

    def _wait_progress(status):
        progress = status["progress"]
        _log.info("grid %s: %d/%d done, %d quarantined",
                  status.get("grid_id", "?"), progress["completed"],
                  progress["total"], progress["quarantined"],
                  extra=dict(progress, event="grid.progress",
                             grid_id=status.get("grid_id", "")))

    try:
        ticket = client.submit(
            spec, tenant=args.tenant, priority=args.priority,
            adaptive=policy.to_dict() if policy is not None else None)
        if args.no_wait:
            print(json.dumps(ticket, indent=2))
            return 0
        client.wait(ticket["grid_id"], timeout=args.timeout,
                    poll=args.poll, on_progress=_wait_progress)
        result = client.result(ticket["grid_id"], metrics=metrics)
    except ResultNotReady:
        # A stored result failed its integrity check mid-fetch; the
        # service already re-admitted the run.  Wait it out once more.
        try:
            client.wait(ticket["grid_id"], timeout=args.timeout,
                        poll=args.poll, on_progress=_wait_progress)
            result = client.result(ticket["grid_id"], metrics=metrics)
        except ServiceError as retry_exc:
            print(f"error: {retry_exc}", file=sys.stderr)
            return 4
    except Backpressure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    if args.json:
        print(json.dumps(result, indent=2))
        return 0
    records = result["records"]
    axis_names = [k for k in records[0] if k not in metrics
                  and k != "run_key"] if records else []
    rows = [tuple(r[name] for name in axis_names)
            + tuple(f"{r[m]:.3f}" for m in metrics)
            for r in records]
    print(format_table(axis_names + metrics, rows,
                       title=f"grid {result['grid_id']} "
                             f"({len(records)} points via "
                             f"{args.server})"))
    stats = result["stats"]
    print(f"admission: {stats['new_jobs']} new, "
          f"{stats['store_hits']} store hits, "
          f"{stats['inflight_dedup']} shared in-flight "
          f"of {stats['unique_runs']} unique runs")
    if result.get("report"):
        from repro.adaptive import AdaptiveReport
        _render_adaptive(AdaptiveReport.from_dict(result["report"]))
    if result.get("quarantined"):
        print(f"warning: grid degraded - {result['quarantined']} "
              f"run(s) quarantined after repeated failures; inspect "
              f"with 'repro jobs --server {args.server} --quarantined'",
              file=sys.stderr)
    return 0


def _format_age(job) -> str:
    """Queue age for the listing: meaningful while pending/running."""
    if job.get("state") not in ("pending", "running"):
        return "-"
    age = float(job.get("age", 0.0))
    if age >= 120.0:
        return f"{age / 60.0:.1f}m"
    return f"{age:.1f}s"


def _render_jobs(listing, state, args) -> None:
    jobs = listing["jobs"]
    scope = f" in state {state!r}" if state else ""
    if not jobs:
        print(f"no jobs{scope}")
        return
    rows = []
    for job in jobs:
        error = job["error"]
        rows.append((job["key"][:16], job["tenant"], job["state"],
                     job["attempts"], _format_age(job),
                     error[:40] + ("..." if len(error) > 40 else "")))
    print(format_table(
        ["key", "tenant", "state", "attempts", "age", "last error"],
        rows,
        title=f"{len(jobs)} job(s){scope} via {args.server}"))
    chains = [j for j in jobs
              if j["state"] == "quarantined" and j["error_chain"]]
    if chains:
        print("\nerror chains (oldest attempt first):")
        for job in chains:
            print(f"  {job['key'][:16]}:")
            for entry in job["error_chain"]:
                print(f"    {entry}")
        print("requeue with: repro jobs --server "
              f"{args.server} --requeue [KEY ...]")


def _cmd_jobs(args) -> int:
    """Inspect (and requeue) a running service's job table."""
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.server, timeout=args.timeout)
    try:
        if args.requeue is not None:
            # nargs="*": bare --requeue drains the whole dead-letter
            # queue; named keys limit the scope.
            out = client.requeue_quarantined(args.requeue or None)
            print(f"requeued {out['requeued']} quarantined job(s)")
            return 0
        state = "quarantined" if args.quarantined else args.state
        listing = client.jobs(state)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    if args.json:
        print(json.dumps(listing, indent=2))
    else:
        _render_jobs(listing, state, args)
    return 0


def _cmd_trace(args) -> int:
    """Run one workload with telemetry on; write a Chrome trace JSON."""
    cfg = _build_config(args)
    cfg = cfg.with_writeback(policy_arg(args.policy))
    spec = ExperimentSpec(workloads=args.workload, configs=cfg,
                          seeds=args.seed,
                          name=f"trace:{args.workload}")
    was_enabled = telemetry.enabled()
    telemetry.enable()
    tracer = telemetry.get_tracer()
    tracer.reset()
    # Always simulate, in-process: a cache hit or a subprocess worker
    # would leave the tracer (a per-process object) with nothing to say.
    session = Session(cache=False, parallel=1)
    try:
        wall_start = time.perf_counter()
        with tracer.span("run", workload=args.workload,
                         policy=args.policy):
            rs = session.run(spec, progress=_progress_fn(args))
        wall = time.perf_counter() - wall_start
        trace = tracer.export_chrome()
    finally:
        if not was_enabled:
            telemetry.disable()
    out = Path(args.out)
    out.write_text(json.dumps(trace) + "\n")
    root = max((s for s in tracer.spans() if s.name == "run"),
               key=lambda s: s.duration, default=None)
    coverage = 100.0 * root.duration / wall if root and wall else 0.0
    breakdown = rs.phase_breakdown()
    summary = {
        "out": str(out),
        "wall_seconds": round(wall, 6),
        "spans": len(tracer.spans()),
        "dropped_spans": trace["otherData"]["dropped_spans"],
        "coverage_pct": round(coverage, 3),
        "phase_breakdown": {k: round(v, 6)
                            for k, v in breakdown.items()},
    }
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    rows = [(phase, f"{seconds:.4f}",
             f"{100.0 * seconds / wall:.1f}" if wall else "0.0")
            for phase, seconds in sorted(
                breakdown.items(), key=lambda kv: -kv[1])]
    print(format_table(["phase", "seconds", "% of wall"], rows,
                       title=f"trace: {args.workload} ({args.policy}), "
                             f"wall {wall:.3f}s"))
    print(f"{len(tracer.spans())} span(s) -> {out} "
          f"(load in Perfetto / chrome://tracing); "
          f"root span covers {coverage:.1f}% of wall-clock")
    return 0


def _cmd_list(args) -> int:
    if getattr(args, "json", False):
        print(json.dumps({
            "workloads": list(ALL_WORKLOADS),
            "policies": _POLICY_CHOICES,
            "presets": sorted(_PRESETS),
            "axes": sorted(AXIS_MODIFIERS),
        }, indent=2))
        return 0
    print("workloads:", " ".join(ALL_WORKLOADS))
    print("policies: ", " ".join(_POLICY_CHOICES))
    print("presets:  ", " ".join(sorted(_PRESETS)))
    print("axes:     ", " ".join(sorted(AXIS_MODIFIERS)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BARD (HPCA 2026) reproduction: DDR5 write-latency "
                    "simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one workload")
    p_run.add_argument("workload", choices=ALL_WORKLOADS)
    p_run.add_argument("--policy", choices=_POLICY_CHOICES,
                       default="baseline")
    p_run.add_argument("--ideal-writes", action="store_true",
                       dest="ideal_writes")
    p_run.add_argument("--refresh", action="store_true")
    _add_common(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare writeback policies")
    p_cmp.add_argument("workload", choices=ALL_WORKLOADS)
    p_cmp.add_argument("--policies", nargs="+", choices=_POLICY_CHOICES,
                       default=["baseline", "bard-h"])
    _add_common(p_cmp)
    p_cmp.set_defaults(fn=_cmd_compare)

    p_chr = sub.add_parser("characterize",
                           help="Table IV-style characterization")
    p_chr.add_argument("workloads", nargs="+", choices=ALL_WORKLOADS)
    _add_common(p_chr)
    p_chr.set_defaults(fn=_cmd_characterize)

    p_sw = sub.add_parser("sweep",
                          help="grid sweep over arbitrary axes")
    p_sw.add_argument("--workloads", nargs="+", choices=ALL_WORKLOADS,
                      default=["lbm"])
    p_sw.add_argument("--axis", action="append", metavar="NAME=V1,V2",
                      help="sweep axis, repeatable (policy, wq, device, "
                           "replacement, drain, refresh, pbpl)")
    p_sw.add_argument("--seeds", nargs="+", type=int, default=None,
                      help="seed list (default: the --seed value)")
    p_sw.add_argument("--metrics", nargs="+",
                      default=["mean_ipc", "write_blp",
                               "time_writing_pct"],
                      help="RunResult metrics to report")
    p_sw.add_argument("--speedup-vs", dest="speedup_vs",
                      metavar="AXIS[=LABEL]",
                      help="also report speedup vs a baseline along AXIS "
                           "(default label: baseline)")
    _add_adaptive_args(p_sw)
    _add_common(p_sw)
    p_sw.set_defaults(fn=_cmd_sweep)

    p_ls = sub.add_parser("list", help="list workloads/policies/presets")
    p_ls.add_argument("--json", action="store_true")
    p_ls.set_defaults(fn=_cmd_list)

    p_srv = sub.add_parser(
        "serve", help="run the multi-tenant experiment service")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8023,
                       help="listen port (0 = ephemeral; default 8023)")
    p_srv.add_argument("--workers", type=int, default=2, metavar="N",
                       help="worker shard processes (0 = all cores)")
    p_srv.add_argument("--max-group", dest="max_group", type=int,
                       default=8, metavar="N",
                       help="max jobs leased per warm group")
    p_srv.add_argument("--state-dir", dest="state_dir", metavar="DIR",
                       help="durable queue/grid state "
                            "(default: <cache>/service)")
    p_srv.add_argument("--cache-dir", dest="cache_dir", metavar="DIR",
                       help="content-addressed result store "
                            "(default: the shared result cache)")
    p_srv.add_argument("--max-pending-per-tenant", type=int, default=64,
                       dest="max_pending_per_tenant", metavar="N",
                       help="pending-job bound per tenant (429 beyond)")
    p_srv.add_argument("--max-pending-total", type=int, default=256,
                       dest="max_pending_total", metavar="N",
                       help="global pending-job bound (429 beyond)")
    p_srv.add_argument("--job-timeout", dest="job_timeout", type=float,
                       default=900.0, metavar="SECONDS",
                       help="reap groups making no progress for this "
                            "long and respawn their shard "
                            "(0 disables; default 900)")
    p_srv.add_argument("--max-attempts", dest="max_attempts", type=int,
                       default=3, metavar="N",
                       help="execution budget per job before it is "
                            "quarantined (default 3)")
    p_srv.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")
    p_srv.add_argument("--telemetry", action="store_true",
                       help="enable hot-path telemetry (spans and "
                            "per-run metrics) in this process; "
                            "operational /v1/metrics series are always "
                            "on")
    _add_logging_args(p_srv)
    p_srv.set_defaults(fn=_cmd_serve)

    p_sub = sub.add_parser(
        "submit", help="submit a grid to a running service")
    p_sub.add_argument("--server", default="http://127.0.0.1:8023",
                       help="service base URL")
    p_sub.add_argument("--tenant", default="default",
                       help="tenant id for fair-share accounting")
    p_sub.add_argument("--priority", type=int, default=0,
                       help="within-tenant priority (higher first)")
    p_sub.add_argument("--workloads", nargs="+", choices=ALL_WORKLOADS,
                       default=["lbm"])
    p_sub.add_argument("--axis", action="append", metavar="NAME=V1,V2",
                       help="sweep axis, repeatable (same as sweep)")
    p_sub.add_argument("--seeds", nargs="+", type=int, default=None,
                       help="seed list (default: the --seed value)")
    p_sub.add_argument("--metrics", nargs="+",
                       default=["mean_ipc", "write_blp",
                                "time_writing_pct"],
                       help="metric columns to fetch")
    p_sub.add_argument("--no-wait", dest="no_wait", action="store_true",
                       help="print the submission ticket and exit "
                            "instead of polling for results")
    p_sub.add_argument("--timeout", type=float, default=600.0,
                       metavar="SECONDS",
                       help="max time to wait for completion")
    p_sub.add_argument("--poll", type=float, default=0.5,
                       metavar="SECONDS", help="status poll interval")
    p_sub.add_argument("--json", action="store_true",
                       help="emit the result envelope as JSON")
    _add_adaptive_args(p_sub)
    _add_config_args(p_sub)
    _add_logging_args(p_sub)
    p_sub.set_defaults(fn=_cmd_submit)

    p_jobs = sub.add_parser(
        "jobs", help="inspect a running service's job table")
    p_jobs.add_argument("--server", default="http://127.0.0.1:8023",
                        help="service base URL")
    p_jobs.add_argument("--state", default=None, choices=JOB_STATES,
                        help="filter by job state")
    p_jobs.add_argument("--quarantined", action="store_true",
                        help="shorthand for --state quarantined "
                             "(the dead-letter queue)")
    p_jobs.add_argument("--requeue", nargs="*", metavar="KEY",
                        default=None,
                        help="requeue quarantined jobs (no keys = all) "
                             "with a fresh attempt budget")
    p_jobs.add_argument("--timeout", type=float, default=30.0,
                        metavar="SECONDS", help="HTTP timeout")
    p_jobs.add_argument("--json", action="store_true",
                        help="emit the job listing as JSON")
    p_jobs.set_defaults(fn=_cmd_jobs)

    p_tr = sub.add_parser(
        "trace", help="run one workload with telemetry enabled and "
                      "write a Chrome trace-event JSON")
    p_tr.add_argument("workload", choices=ALL_WORKLOADS)
    p_tr.add_argument("--policy", choices=_POLICY_CHOICES,
                      default="baseline")
    p_tr.add_argument("--out", default="trace.json", metavar="FILE",
                      help="trace output path (default: trace.json; "
                           "load in Perfetto or chrome://tracing)")
    p_tr.add_argument("--json", action="store_true",
                      help="print the trace summary as JSON")
    _add_config_args(p_tr)
    p_tr.set_defaults(fn=_cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(level=getattr(args, "log_level", "info"),
                      json_lines=getattr(args, "log_json", False))
    try:
        return args.fn(args)
    except SessionInterrupted as exc:
        # Finished runs are already cached; rerunning resumes in place.
        print(f"interrupted: {exc}", file=sys.stderr)
        return 130
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
