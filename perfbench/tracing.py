"""Layer spans for the traced run, recorded from outside the simulator.

The traced worker process calls :func:`instrument` before it builds
anything.  It rebinds the public entry points of each layer - on the
classes, or on the module attributes the callers look up at call time -
to wrappers that record a span per call: layer, entry point, start, end
and the enclosing span.  The simulator's source is untouched and every
wrapper passes arguments and return values straight through, so the
simulated counters stay bit-identical to an untraced run (the benchmark
checks this).

Patching happens on classes rather than instances because the traced
process builds every object after :func:`instrument` ran: the bindings
``Cache.__init__`` takes per instance (``access`` -> ``_process`` /
``_admit_access``, the lower level's ``warm_access``) and the bound
methods the engine schedules (``Core._tick``, ``Channel._tick_sc``) then
already point at the wrappers.  Patching prefetcher or cache *instances*
would also leak wrappers into warm-state snapshots, which deep-copy
prefetchers.

Self time is a span's duration minus the time its child spans cover.
Fine-grained spans (millions per run) are folded into per-entry
``[calls, self seconds]`` totals as they close; spans of the coarse
entry points (``record=True``: runs, warmups, checkpoints, sessions,
HTTP calls) are also kept in memory as full records and written out when
the benchmark ends.  Each thread keeps its own stack, so the service's
HTTP and worker threads attribute their own time.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: A span key: (layer, entry point).
Entry = Tuple[str, str]


class _ThreadState:
    __slots__ = ("stack", "totals", "records", "name")

    def __init__(self, name: str) -> None:
        # One frame per open span: [child seconds, index of the nearest
        # recorded span at or above it, or -1].
        self.stack: List[List[Any]] = []
        #: (layer, entry) -> [calls, self seconds]
        self.totals: Dict[Entry, List[float]] = {}
        self.records: List[Dict[str, Any]] = []
        self.name = name


class Tracer:
    """In-memory span recorder shared by every wrapper in one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self.origin = time.perf_counter()
        #: Counts taken at span boundaries (e.g. engine events fired).
        self.counters: Dict[str, int] = {}

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def wrap(self, layer: str, entry: str, fn: Callable,
             record: bool = False) -> Callable:
        """``fn`` wrapped in a span of ``layer`` named ``entry``."""
        key = (layer, entry)
        local = self._local
        new_state = self._state
        clock = time.perf_counter
        origin = self.origin

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = getattr(local, "state", None) or new_state()
            stack = state.stack
            parent = stack[-1][1] if stack else -1
            index = -1
            if record:
                index = len(state.records)
                state.records.append({"layer": layer, "name": entry,
                                      "parent": parent})
            frame = [0.0, index if record else parent]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                total = state.totals.get(key)
                if total is None:
                    total = state.totals[key] = [0, 0.0]
                total[0] += 1
                total[1] += duration - frame[0]
                if record:
                    state.records[index].update(
                        start=start - origin, end=start + duration - origin)

        return traced

    # -- results -------------------------------------------------------

    def totals(self) -> Dict[Entry, List[float]]:
        """``(layer, entry) -> [calls, self seconds]`` over every thread."""
        merged: Dict[Entry, List[float]] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for key, (calls, self_s) in state.totals.items():
                total = merged.setdefault(key, [0, 0.0])
                total[0] += calls
                total[1] += self_s
        return merged

    def records(self) -> List[Dict[str, Any]]:
        """Every recorded span, tagged with its thread."""
        with self._lock:
            threads = list(self._threads)
        out = []
        for state in threads:
            for rec in state.records:
                out.append(dict(rec, thread=state.name))
        return out

    def span_seconds(self, entry: str,
                     parent_entry: Optional[str] = None) -> float:
        """Summed duration of recorded spans named ``entry``.

        With ``parent_entry``, only spans whose nearest recorded ancestor
        is named ``parent_entry`` count.
        """
        with self._lock:
            threads = list(self._threads)
        total = 0.0
        for state in threads:
            records = state.records
            for rec in records:
                if rec["name"] != entry or "end" not in rec:
                    continue
                if parent_entry is not None:
                    parent = rec["parent"]
                    if parent < 0 or records[parent]["name"] != parent_entry:
                        continue
                total += rec["end"] - rec["start"]
        return total


class _TracedTrace:
    """A core's trace whose ``__next__`` is a ``workloads`` span.

    ``Core`` consumes its trace only through an explicit
    ``self.trace.__next__`` lookup, so the instance attribute set here is
    what it calls.
    """

    def __init__(self, tracer: Tracer, trace) -> None:
        self.__next__ = tracer.wrap("workloads", "trace.__next__",
                                    trace.__next__)


def _patch(tracer: Tracer, owner: Any, attr: str, layer: str,
           record: bool = False) -> None:
    fn = getattr(owner, attr)
    name = getattr(owner, "__name__", type(owner).__name__)
    setattr(owner, attr, tracer.wrap(layer, f"{name}.{attr}", fn,
                                     record=record))


def instrument(tracer: Tracer) -> None:
    """Wrap every layer's entry points in spans (whole process, for good).

    Layers are named after the package that owns the code; the
    ``sim.engine`` layer also owns ``System`` itself (construction, phase
    loop, result collection) around the dispatch loop.
    """
    from repro.cache.cache import Cache
    from repro.core.bard import BardPolicy
    from repro.cpu.core import Core
    from repro.dram.channel import Channel
    from repro.experiment import execute, session
    from repro.experiment.session import Session
    from repro.prefetch.base import Prefetcher
    from repro.service import api, workers
    from repro.service.client import ServiceClient
    from repro.service.queue import JobQueue
    from repro.service.service import ExperimentService
    from repro.service.store import ResultStore
    from repro.sim.engine import Engine
    from repro.sim.memctrl import MemoryController
    from repro.sim.system import System
    import repro.sampling as sampling

    # sim.engine: the dispatch loop and the System code around it.
    # Every dispatch loop also adds the events it fired to the counters.
    dispatch = Engine.run
    counters = tracer.counters

    @functools.wraps(dispatch)
    def counted_run(engine, *args, **kwargs):
        before = engine.events_fired
        try:
            return dispatch(engine, *args, **kwargs)
        finally:
            counters["events"] = counters.get("events", 0) \
                + engine.events_fired - before

    Engine.run = counted_run
    _patch(tracer, Engine, "run", "sim.engine")
    _patch(tracer, System, "__init__", "sim.engine")
    _patch(tracer, System, "warm_up", "sim.engine", record=True)
    _patch(tracer, System, "run", "sim.engine", record=True)
    # sampling: the interval loop's own bookkeeping (engine dispatch,
    # fast-forward and warming inside it are child spans) and the
    # statistics entry points it resolves at call time.
    _patch(tracer, System, "run_sampled", "sampling", record=True)
    for name in ("validate_plan", "aggregate_results",
                 "collect_metric_values", "summarize"):
        _patch(tracer, sampling, name, "sampling")
    # sim.warmstate: checkpoint snapshot / restore.
    _patch(tracer, System, "snapshot_warm_state", "sim.warmstate",
           record=True)
    _patch(tracer, System, "restore_warm_state", "sim.warmstate",
           record=True)
    # cpu: core activation ticks and the functional warm / skip loops.
    for name in ("_tick", "warm_up", "skip_trace"):
        _patch(tracer, Core, name, "cpu")
    # cache: both access regimes, fills, sends, writebacks, warm path.
    for name in ("_process", "_admit_access", "_on_fill", "_send",
                 "writeback", "cleanse", "warm_access", "warm_writeback",
                 "drain"):
        _patch(tracer, Cache, name, "cache")
    # core: BARD victim selection (including cleansing) and tracker marks.
    for name in ("choose_victim", "on_writeback"):
        _patch(tracer, BardPolicy, name, "core")
    _patch(tracer, Prefetcher, "on_access", "prefetch")
    # dram (with sim.memctrl): LLC-facing submits and scheduler ticks.
    for name in ("read", "writeback", "finalize"):
        _patch(tracer, MemoryController, name, "dram")
    for name in ("submit", "_tick_sc"):
        _patch(tracer, Channel, name, "dram")
    # workloads: every trace record a core pulls.
    factory = execute.trace_factory

    def traced_factory(*args, **kwargs):
        make = factory(*args, **kwargs)
        return lambda core_id: _TracedTrace(tracer, make(core_id))

    execute.trace_factory = traced_factory
    # experiment: plan execution and the per-run entry point.
    _patch(tracer, Session, "run", "experiment", record=True)
    for module in (execute, session):
        _patch(tracer, module, "simulate", "experiment", record=True)
    _patch(tracer, workers, "run_group", "experiment", record=True)
    # service: request handling, admission, leasing, store traffic.
    for name in ("do_GET", "do_POST"):
        _patch(tracer, api.ServiceRequestHandler, name, "service")
    for name in ("submit", "status", "result_set"):
        _patch(tracer, ExperimentService, name, "service")
    for name in ("admit", "lease", "complete"):
        _patch(tracer, JobQueue, name, "service")
    for name in ("put", "get"):
        _patch(tracer, ResultStore, name, "service")
    # The client's spans are recorded (submit latency, wait) under a
    # "client" layer that is not reported: it mostly sleeps in polls.
    for name in ("submit", "wait", "result"):
        _patch(tracer, ServiceClient, name, "client", record=True)
